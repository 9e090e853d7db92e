"""Orientable embedded graphs encoded as rotation systems over darts.

Every edge {u, v} owns two darts: dart ``2e`` runs min(u,v) -> max(u,v) and
dart ``2e + 1`` runs the other way, so ``twin(d) == d ^ 1``.  Edge ids index
the lexicographically sorted endpoint list, which keeps every derived id
(dart, face) reproducible across runs.

Face tracing convention, fixed once and used everywhere: the successor of a
dart d inside its face is the rotation successor of twin(d).  With rotations
listed counterclockwise this walks every face counterclockwise.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .errors import (
    AsymmetricAdjacency,
    Disconnected,
    FaceNotTriangle,
    LoopEdge,
    NotACycle,
    ParallelEdge,
    SideNotADisk,
)


def _first_fault(rot: Sequence[Sequence[int]]) -> Exception:
    """The first fault of invalid rotations: range, loop and parallel entries
    vertex by vertex, then a neighbour that does not list its vertex back."""
    n = len(rot)
    for v, nbrs in enumerate(rot):
        for w in nbrs:
            if not 0 <= w < n:
                return AsymmetricAdjacency(f"vertex {v} lists unknown vertex {w}")
            if w == v:
                return LoopEdge(f"vertex {v} lists itself")
        if len(set(nbrs)) != len(nbrs):
            return ParallelEdge(f"vertex {v} lists a neighbour twice")
    nbr_sets = [set(nbrs) for nbrs in rot]
    for v, nbrs in enumerate(rot):
        for w in nbrs:
            if v not in nbr_sets[w]:
                return AsymmetricAdjacency(f"{w} in rotation of {v} but not conversely")
    raise AssertionError("rotations have no fault")


class Embedding:
    """Immutable rotation system of a simple connected graph.

    ``rotations[v]`` is the cyclic sequence of v's neighbours in embedding
    order.  All validation happens here; helper constructors such as
    :func:`build_embedding` simply delegate.  Invalid input raises its first
    fault: range, loop and parallel entries vertex by vertex, then a missing
    reverse entry, then disconnection.  The edge and dart tables are built
    in one pass per vertex; :func:`trace_faces` and :func:`dual_graph` cache
    their results on the embedding.
    """

    __slots__ = ("_rot", "_edges", "_eindex", "_succ", "_faces", "_dual")

    def __init__(self, rotations: Sequence[Sequence[int]]):
        rot = tuple(map(tuple, rotations))
        n = len(rot)
        # edges come out in lexicographic order: by low end, then high end
        edges: list[tuple[int, int]] = []
        for v, nbrs in enumerate(rot):
            ordered = sorted(nbrs)
            i = bisect_right(ordered, v)
            if ordered and (ordered[0] < 0 or ordered[-1] >= n
                            or (i and ordered[i - 1] == v)
                            or len(set(ordered)) != len(ordered)):
                raise _first_fault(rot)
            edges += [(v, w) for w in ordered[i:]]
        ne = len(edges)
        eindex = dict(zip(edges, range(ne)))

        # rotation successor on darts: succ[dart(v, n_i)] = dart(v, n_{i+1});
        # a neighbour that does not list v back fails the lookup or the count
        if sum(map(len, rot)) != 2 * ne:
            raise _first_fault(rot)
        succ = [0] * (2 * ne)
        try:
            for v, nbrs in enumerate(rot):
                ds = [2 * eindex[v, w] if v < w else 2 * eindex[w, v] + 1 for w in nbrs]
                prev = ds[-1] if ds else 0
                for d in ds:
                    succ[prev] = d
                    prev = d
        except KeyError:
            raise _first_fault(rot) from None

        self._rot = rot
        self._edges = tuple(edges)
        self._eindex = eindex
        self._succ = tuple(succ)
        self._faces = None
        self._dual = None

        if n and not self._connected():
            raise Disconnected("graph is not connected")

    def _connected(self) -> bool:
        seen = [False] * self.num_vertices
        seen[0] = True
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in self._rot[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        return all(seen)

    # -- basic queries ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._rot)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def num_darts(self) -> int:
        return 2 * len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def rotation(self, v: int) -> tuple[int, ...]:
        return self._rot[v]

    @property
    def rotations(self) -> tuple[tuple[int, ...], ...]:
        return self._rot

    def degree(self, v: int) -> int:
        return len(self._rot[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._eindex

    def edge_id(self, u: int, v: int) -> int:
        return self._eindex[(min(u, v), max(u, v))]

    def edge_ends(self, e: int) -> tuple[int, int]:
        return self._edges[e]

    def dart(self, u: int, v: int) -> int:
        """Dart id of u -> v."""
        e = self._eindex[(min(u, v), max(u, v))]
        return 2 * e + (0 if u < v else 1)

    def tail(self, d: int) -> int:
        u, v = self._edges[d >> 1]
        return u if d & 1 == 0 else v

    def head(self, d: int) -> int:
        u, v = self._edges[d >> 1]
        return v if d & 1 == 0 else u

    @staticmethod
    def twin(d: int) -> int:
        return d ^ 1

    def face_next(self, d: int) -> int:
        """Next dart of the face containing d."""
        return self._succ[d ^ 1]

    def adjacency(self) -> list[set[int]]:
        """Plain adjacency sets, for graph algorithms that ignore the embedding."""
        return [set(nbrs) for nbrs in self._rot]


def build_embedding(rotations: Sequence[Sequence[int]]) -> Embedding:
    """Validate per-vertex cyclic neighbour lists and build an Embedding."""
    return Embedding(rotations)


# -- faces -------------------------------------------------------------------


@dataclass(frozen=True)
class FaceSet:
    """Partition of all darts into face cycles.

    Faces are numbered in order of their minimal dart id and each face cycle
    is listed starting at that dart.
    """

    faces: tuple[tuple[int, ...], ...]
    face_of: tuple[int, ...]

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def size(self, f: int) -> int:
        return len(self.faces[f])

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.faces)

    def census(self) -> tuple[int, ...]:
        """Face-size multiset, largest first."""
        return tuple(sorted(self.sizes, reverse=True))

    def face_edges(self, f: int) -> tuple[int, ...]:
        return tuple(d >> 1 for d in self.faces[f])

    def face_vertices(self, emb: Embedding, f: int) -> tuple[int, ...]:
        return tuple(emb.tail(d) for d in self.faces[f])


def trace_faces(emb: Embedding) -> FaceSet:
    """Orbit decomposition of the face-successor permutation, computed once
    per embedding and cached on it."""
    cached = emb._faces
    if cached is not None:
        return cached
    succ = emb._succ
    nd = len(succ)
    face_of = [-1] * nd
    faces = []
    for d0 in range(nd):
        if face_of[d0] >= 0:
            continue
        fid = len(faces)
        walk = []
        d = d0
        while face_of[d] < 0:
            face_of[d] = fid
            walk.append(d)
            d = succ[d ^ 1]
        faces.append(tuple(walk))
    result = FaceSet(tuple(faces), tuple(face_of))
    emb._faces = result
    return result


def genus(emb: Embedding) -> int:
    """Genus from Euler's formula V - E + F = 2 - 2g."""
    if not emb.num_vertices:
        raise ValueError("an embedding with no vertices has no genus")
    f = trace_faces(emb).num_faces
    euler = emb.num_vertices - emb.num_edges + f
    g2 = 2 - euler
    if g2 < 0 or g2 % 2:
        raise ValueError(f"impossible Euler characteristic {euler}")
    return g2 // 2


def is_triangulation(emb: Embedding) -> bool:
    return all(len(f) == 3 for f in trace_faces(emb).faces)


# -- dual graph ---------------------------------------------------------------


@dataclass(frozen=True)
class DualGraph:
    """Face adjacency of an embedding; one dual edge per host edge.

    ``edge_sides[e]`` gives the faces on the two sides of host edge e,
    ordered (face of dart 2e, face of dart 2e+1).
    """

    num_nodes: int
    adjacency: tuple[tuple[tuple[int, int], ...], ...]  # per face: (nbr face, host edge)
    edge_sides: tuple[tuple[int, int], ...]

    def degree(self, f: int) -> int:
        return len(self.adjacency[f])

    def is_cubic(self) -> bool:
        return all(len(a) == 3 for a in self.adjacency)


def dual_graph(emb: Embedding) -> DualGraph:
    """The dual of the traced faces, computed once per embedding and cached
    on it, as :func:`trace_faces` caches the faces."""
    fs = trace_faces(emb)
    cached = emb._dual
    if cached is not None:
        return cached
    sides = []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(fs.num_faces)]
    for e in range(emb.num_edges):
        fa, fb = fs.face_of[2 * e], fs.face_of[2 * e + 1]
        sides.append((fa, fb))
        adj[fa].append((fb, e))
        adj[fb].append((fa, e))
    result = DualGraph(fs.num_faces, tuple(tuple(a) for a in adj), tuple(sides))
    emb._dual = result
    return result


# -- cycles and separation ----------------------------------------------------


@dataclass(frozen=True)
class FaceCycle:
    """A directed closed walk of darts with pairwise distinct edges.

    The dart order fixes both the start edge and the orientation, which is
    what square/pentagon/hexagon signatures are measured against.
    """

    darts: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.darts)

    @property
    def edges(self) -> tuple[int, ...]:
        return tuple(d >> 1 for d in self.darts)

    def vertices(self, emb: Embedding) -> tuple[int, ...]:
        return tuple(emb.tail(d) for d in self.darts)

    @staticmethod
    def from_darts(emb: Embedding, darts: Iterable[int]) -> "FaceCycle":
        ds = tuple(darts)
        if len(ds) < 3:
            raise NotACycle("cycle needs at least three darts")
        for i, d in enumerate(ds):
            if emb.head(d) != emb.tail(ds[(i + 1) % len(ds)]):
                raise NotACycle("darts do not chain into a closed walk")
        if len({d >> 1 for d in ds}) != len(ds):
            raise NotACycle("cycle repeats an edge")
        return FaceCycle(ds)

    @staticmethod
    def from_vertices(emb: Embedding, verts: Sequence[int]) -> "FaceCycle":
        k = len(verts)
        if k < 3:
            raise NotACycle("cycle needs at least three vertices")
        darts = []
        for i, u in enumerate(verts):
            v = verts[(i + 1) % k]
            if not emb.has_edge(u, v):
                raise NotACycle(f"no edge {u}-{v}")
            darts.append(emb.dart(u, v))
        return FaceCycle.from_darts(emb, darts)


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of a separation test.

    ``side_faces[0]`` are the faces swept out from the cycle's own darts,
    ``side_faces[1]`` from their twins.  ``interior_vertices[i]`` lists the
    vertices all of whose incident faces lie on side i; a facial cycle
    separates with an empty side, which callers must check via
    :attr:`has_empty_side`.
    """

    separating: bool
    side_faces: tuple[tuple[int, ...], tuple[int, ...]]
    interior_vertices: tuple[tuple[int, ...], tuple[int, ...]]

    @property
    def has_empty_side(self) -> bool:
        return not self.interior_vertices[0] or not self.interior_vertices[1]


def _flood(dual: DualGraph, seeds: Iterable[int], blocked_edges: set[int]) -> set[int]:
    seen = set(seeds)
    queue = deque(seen)
    while queue:
        f = queue.popleft()
        for g, e in dual.adjacency[f]:
            if e in blocked_edges or g in seen:
                continue
            seen.add(g)
            queue.append(g)
    return seen


def is_separating(emb: Embedding, cycle: FaceCycle) -> SeparationReport:
    """Does the cycle split the surface graph into two sides?

    Computed by dual reachability with the dual edges crossing the cycle
    removed.  On the torus a non-contractible cycle leaves one component.
    """
    fs = trace_faces(emb)
    dual = dual_graph(emb)
    blocked = set(cycle.edges)
    side_a = _flood(dual, (fs.face_of[d] for d in cycle.darts), blocked)
    side_b_seeds = {fs.face_of[d ^ 1] for d in cycle.darts}
    separating = side_a.isdisjoint(side_b_seeds)
    if separating:
        side_b = _flood(dual, side_b_seeds, blocked)
    else:
        side_b = side_a
    cyc_verts = set(cycle.vertices(emb))
    interior: list[list[int]] = [[], []]
    for v in range(emb.num_vertices):
        if v in cyc_verts:
            continue
        vfaces = {fs.face_of[emb.dart(v, w)] for w in emb.rotation(v)}
        if vfaces <= side_a:
            interior[0].append(v)
        if vfaces <= side_b and separating:
            interior[1].append(v)
    return SeparationReport(
        separating,
        (tuple(sorted(side_a)), tuple(sorted(side_b))),
        (tuple(interior[0]), tuple(interior[1])),
    )


# -- disks ---------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """The triangulated disk on one side of a host cycle, in host terms.

    ``vertices`` are host ids in ascending order, and region ids index
    them; ``adjacency[i]`` lists the region neighbours of vertex i in host
    rotation order.  ``edges`` are the region's host edge ids, ascending.
    ``boundary_darts`` walk the cycle as host darts with the region on their
    side, so ``face_of[d ^ 1]`` is the face across the boundary at dart d;
    ``boundary[i]`` is the tail of ``boundary_darts[i]``, as a region id.
    """

    vertices: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]
    edges: tuple[int, ...]
    boundary: tuple[int, ...]
    boundary_darts: tuple[int, ...]

    @property
    def boundary_edges(self) -> tuple[int, ...]:
        return tuple(d >> 1 for d in self.boundary_darts)


def _side_region(emb: Embedding, darts: tuple[int, ...]) -> Region:
    """The region on the dart side of a closed walk, or SideNotADisk."""
    fs = trace_faces(emb)
    blocked = {d >> 1 for d in darts}
    region = _flood(dual_graph(emb), (fs.face_of[d] for d in darts), blocked)
    if not region.isdisjoint(fs.face_of[d ^ 1] for d in darts):
        raise SideNotADisk("cycle does not separate; no disk on that side")

    kept = defaultdict(set)  # kept vertex -> its neighbours in the region
    edges = set()
    for d in (d for f in region for d in fs.faces[f]):
        e = d >> 1
        both = fs.face_of[d ^ 1] in region
        if both == (e in blocked):
            raise SideNotADisk("cycle edge has both sides in the region" if both
                               else "region leaks across a non-cycle edge")
        edges.add(e)
        u, v = emb.edge_ends(e)
        kept[u].add(v)
        kept[v].add(u)
    # the boundary twins close the region into a surface of genus g with
    # m >= 1 more faces: V - E + F + m = 2 - 2g, so V - E + F = 1 exactly
    # when g = 0 and m = 1, a planar disk whose outer face is the cycle
    if len(kept) - len(edges) + len(region) != 1:
        raise SideNotADisk("region side is not a disk")

    verts = sorted(kept)
    relabel = {v: i for i, v in enumerate(verts)}
    return Region(
        tuple(verts),
        tuple(tuple(relabel[w] for w in emb.rotation(v) if w in kept[v]) for v in verts),
        tuple(sorted(edges)),
        tuple(relabel[emb.tail(d)] for d in darts),
        darts,
    )


def cycle_region(
    emb: Embedding,
    cycle: FaceCycle,
    side: Literal["interior", "exterior"] | None = None,
) -> Region:
    """The disk that one side of a separating (or facial) cycle bounds,
    read off the host without building an embedding for it.

    "interior" is the side the cycle's darts face, "exterior" the twins';
    None takes the interior when it is a disk and the exterior otherwise.
    The side's faces are flooded over the dual without crossing the cycle;
    it must not reach the other side, every cycle edge must have exactly
    one side in it, and V - E + F must be 1.  Any failure raises
    SideNotADisk.  An exterior region walks the cycle backwards, so that
    the region stays on its dart side.
    """
    if side != "exterior":
        try:
            return _side_region(emb, cycle.darts)
        except SideNotADisk:
            if side == "interior":
                raise
    return _side_region(emb, tuple(d ^ 1 for d in reversed(cycle.darts)))


@dataclass(frozen=True)
class Disk:
    """A planar triangulated region cut out of a host embedding.

    ``boundary_darts`` follow the extraction cycle, in disk-local ids;
    ``to_host`` maps disk vertex ids back to host vertex ids.
    """

    embedding: Embedding
    boundary_darts: tuple[int, ...]
    to_host: tuple[int, ...]
    outer_face: int

    @property
    def boundary_edges(self) -> tuple[int, ...]:
        return tuple(d >> 1 for d in self.boundary_darts)

    def boundary_vertices(self) -> tuple[int, ...]:
        return tuple(self.embedding.tail(d) for d in self.boundary_darts)

    def interior_vertex_count(self) -> int:
        return self.embedding.num_vertices - len(self.boundary_darts)

    def as_region(self) -> Region:
        """The whole disk as a region of its own embedding."""
        emb = self.embedding
        return Region(tuple(range(emb.num_vertices)), emb.rotations,
                      tuple(range(emb.num_edges)), self.boundary_vertices(),
                      self.boundary_darts)


def extract_disk(
    emb: Embedding,
    cycle: FaceCycle,
    side: Literal["interior", "exterior"] | None = "interior",
) -> Disk:
    """Cut out one side of a separating (or facial) cycle as a planar disk.

    The side is found and checked by :func:`cycle_region` (None: whichever
    side is a disk).  The returned embedding has the cycle as its outer
    face and inherits the host's cyclic orders, with vertices relabeled to
    0..k-1 in ascending host order.  The disk's boundary walk always keeps
    the region on its dart side, so an exterior extraction reverses the
    walk.
    """
    region = cycle_region(emb, cycle, side)
    sub = Embedding(region.adjacency)
    walk = region.boundary
    boundary = tuple(sub.dart(u, walk[(i + 1) % len(walk)]) for i, u in enumerate(walk))
    return Disk(sub, boundary, region.vertices, trace_faces(sub).face_of[boundary[0] ^ 1])


def cap_with_apex(disk: Disk) -> Embedding:
    """Close a disk into a sphere by coning its outer face: a new apex
    joined to every boundary vertex."""
    capped = cone_face(disk.embedding, disk.outer_face)
    if genus(capped) != 0 or not is_triangulation(capped):
        raise SideNotADisk("capping did not produce a sphere triangulation")
    return capped


def cone_face(emb: Embedding, face: int) -> Embedding:
    """Insert a new vertex inside any face, joined to its corners in order.

    The face walk must visit distinct vertices, else the cone would create
    parallel edges.  V grows by 1, E by the face size, F by size - 1, so the
    genus is unchanged.
    """
    fs = trace_faces(emb)
    walk = fs.face_vertices(emb, face)
    if len(set(walk)) != len(walk):
        raise FaceNotTriangle(f"face {face} revisits a vertex; cannot cone")
    w = emb.num_vertices
    rotations = [list(emb.rotation(v)) for v in range(w)]
    k = len(walk)
    # at each corner the spoke to the new vertex splits the face corner:
    # sigma(corner -> prev) was corner -> next, now it goes via w
    for i, corner in enumerate(walk):
        prev_v = walk[(i - 1) % k]
        rot = rotations[corner]
        rot.insert(rot.index(prev_v) + 1, w)
    rotations.append(list(reversed(walk)))
    return Embedding(rotations)


def stellate_face(emb: Embedding, face: int) -> Embedding:
    """Insert a new vertex inside a triangular face, joined to its corners."""
    fs = trace_faces(emb)
    if fs.size(face) != 3:
        raise FaceNotTriangle(f"face {face} has size {fs.size(face)}")
    return cone_face(emb, face)


def splice_disk(emb: Embedding, face: int, disk: Disk) -> Embedding:
    """Replace a face with the interior of a triangulated disk.

    The i-th boundary vertex of the disk lands on the i-th vertex of the
    face walk.  Chords of the disk (edges joining two boundary vertices
    outside the boundary cycle) would double existing host edges and are
    rejected, as are faces revisiting a vertex.
    """
    fs = trace_faces(emb)
    walk = fs.face_vertices(emb, face)
    d_emb = disk.embedding
    bverts = disk.boundary_vertices()
    if len(walk) != len(bverts):
        raise SideNotADisk("disk boundary and face have different lengths")
    if len(set(walk)) != len(walk):
        raise SideNotADisk("face revisits a vertex; cannot splice")
    bset = set(bverts)
    boundary_cycle_edges = {d >> 1 for d in disk.boundary_darts}
    for e in range(d_emb.num_edges):
        u, v = d_emb.edge_ends(e)
        if u in bset and v in bset and e not in boundary_cycle_edges:
            raise SideNotADisk("disk has a chord; splicing would double an edge")

    interior = [v for v in range(d_emb.num_vertices) if v not in bset]
    vmap = {b: walk[i] for i, b in enumerate(bverts)}
    for j, v in enumerate(interior):
        vmap[v] = emb.num_vertices + j

    rotations = [list(emb.rotation(v)) for v in range(emb.num_vertices)]
    k = len(walk)
    for i, b in enumerate(bverts):
        rot_d = list(d_emb.rotation(b))
        nxt, prv = bverts[(i + 1) % k], bverts[(i - 1) % k]
        j = rot_d.index(nxt)
        rot_d = rot_d[j:] + rot_d[:j]
        # the outer corner makes prv follow nxt; interiors run prv -> nxt
        if rot_d[1] != prv:
            raise SideNotADisk("disk boundary walk does not match its rotations")
        arc = rot_d[2:]
        host_rot = rotations[walk[i]]
        at = host_rot.index(walk[(i - 1) % k]) + 1
        host_rot[at:at] = [vmap[x] for x in arc]
    for v in interior:
        rotations.append([vmap[x] for x in d_emb.rotation(v)])
    return Embedding(rotations)
