"""Bundled embeddings and colorings, plus the generators used by the solver
and the test corpus.

Everything under data/ is validated on first access: embeddings against
their recorded genus and face census, colorings against the fully-colored-
triangle rule.  A validation failure means corrupted data, not a method
error, and surfaces as an exception immediately.  The frames' coloring
classes are only parsed, as the solve loads them on import; the tests
re-derive and verify them.
"""
from __future__ import annotations

import json
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from importlib import resources
from .coloring import COLORS, PartialColoring, verify_partial
from .embedding import (
    Disk,
    Embedding,
    FaceCycle,
    build_embedding,
    cone_face,
    genus,
    trace_faces,
)
from .errors import FaceNotTriangle, NotSimple, UnknownId
from .fileio import read_coloring, read_embedding


@dataclass(frozen=True)
class GridTriangulation:
    """A six-regular torus grid together with its edge roles."""

    rows: int
    cols: int
    twist: int
    embedding: Embedding
    roles: tuple[str, ...]  # per edge id


def gen_altshuler(rows: int, cols: int, twist: int) -> GridTriangulation:
    """Rectangular grid with diagonals on the torus.

    Vertex (i, j) has id i*cols + j.  Left/right sides are identified
    directly; walking off the top re-enters at the bottom with the column
    shifted by ``twist``.  Neighbour order is counterclockwise starting east:
    E, NE, N, W, SW, S.  Small parameters that create loops or parallel
    edges are rejected.
    """
    if rows < 1 or cols < 1 or not 0 <= twist < max(cols, 1):
        raise NotSimple(f"invalid grid parameters ({rows}, {cols}, {twist})")

    def vid(i: int, j: int) -> int:
        wraps, ii = divmod(i, rows)
        return ii * cols + (j + wraps * twist) % cols

    rotations = []
    role_of: dict[tuple[int, int], str] = {}
    for i in range(rows):
        for j in range(cols):
            v = vid(i, j)
            nbrs = [
                (vid(i, j + 1), "H"),
                (vid(i + 1, j + 1), "D"),
                (vid(i + 1, j), "V"),
                (vid(i, j - 1), "H"),
                (vid(i - 1, j - 1), "D"),
                (vid(i - 1, j), "V"),
            ]
            if any(w == v for w, _ in nbrs) or len({w for w, _ in nbrs}) != 6:
                raise NotSimple(
                    f"grid ({rows}, {cols}, {twist}) is not a simple 6-regular graph"
                )
            for w, role in nbrs:
                key = (min(v, w), max(v, w))
                if role_of.setdefault(key, role) != role:
                    raise NotSimple(
                        f"grid ({rows}, {cols}, {twist}) assigns an edge two roles"
                    )
            rotations.append([w for w, _ in nbrs])
    emb = build_embedding(rotations)
    roles = tuple(role_of[uv] for uv in emb.edges)
    return GridTriangulation(rows, cols, twist, emb, roles)


# -- bundled data -----------------------------------------------------------------

_cache: dict = {}
# a digit string to its colors in one translate, not an int() per digit
_DIGITS = bytes.maketrans(b"012", bytes(COLORS))


def _load():
    if _cache:
        return _cache
    pkg = resources.files(__package__) / "data"
    manifest = json.loads((pkg / "manifest.json").read_text())
    embeddings = {}
    for name, info in manifest["embeddings"].items():
        emb = read_embedding(pkg / info["file"])
        if (
            emb.num_vertices != info["vertices"]
            or emb.num_edges != info["edges"]
            or genus(emb) != info["genus"]
            or list(trace_faces(emb).census()) != info["face_census"]
        ):
            raise ValueError(f"catalog embedding {name} fails validation")
        embeddings[name] = emb
    figures = {}
    for fig_id, info in manifest["figures"].items():
        emb = embeddings[info["host"]]
        coloring = read_coloring(pkg / info["file"], emb, partial=True)
        if not verify_partial(emb, coloring).ok:
            raise ValueError(f"catalog coloring {fig_id} fails validation")
        figures[fig_id] = (info["host"], coloring, info)
    _cache["embeddings"] = embeddings
    _cache["figures"] = figures
    _cache["labelings"] = manifest["labelings"]
    _cache["case_tables"] = manifest["case_tables"]
    _cache["classes"] = {name: tuple(tuple(s.encode().translate(_DIGITS)) for s in strings)
                         for name, strings in manifest["frame_classes"].items()}
    return _cache


_K6_VARIANTS = {"444A": "k6-444a", "444B": "k6-444b", "54": "k6-54", "6": "k6-6"}


def gen_k6(variant: str) -> Embedding:
    """One of the four torus embeddings of the complete graph on six
    vertices, named by its non-triangular faces."""
    key = _K6_VARIANTS.get(variant.upper() if variant != "6" else "6")
    if key is None:
        raise UnknownId(f"unknown K6 variant {variant!r}")
    return _load()["embeddings"][key]


def h7_graph() -> list[set[int]]:
    """The 4-critical 7-vertex graph built by one merge step from two
    disjoint K4's: delete an edge in each, identify one endpoint across the
    copies, join the other two endpoints."""
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (0, 5), (0, 6), (4, 5), (4, 6), (5, 6), (1, 4)]
    adj: list[set[int]] = [set() for _ in range(7)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


_NAME_ALIASES = {
    "h7+k2": "h7k2", "h7k2": "h7k2",
    "c3+c5": "c3c5", "c3c5": "c3c5",
    "k7": "k7",
    "octahedron": "octahedron",
    "icosahedron": "icosahedron",
}


def gen_named(name: str):
    """Catalog lookup by name.

    Returns an Embedding for the embedded graphs, a GridTriangulation for
    C11^3 (the cube of the 11-cycle is the (1, 11, 2) grid), and a plain
    adjacency list for H7, which is used as an abstract graph only.
    """
    low = name.lower().replace(" ", "")
    if low == "h7":
        return h7_graph()
    if low in ("c11^3", "c11cubed", "c11_3", "c113"):
        return gen_altshuler(1, 11, 2)
    key = _NAME_ALIASES.get(low)
    if key is None:
        raise UnknownId(f"unknown catalog name {name!r}")
    return _load()["embeddings"][key]


def figure_colorings(fig_id: str) -> tuple[str, PartialColoring]:
    """Bundled reference coloring by id; returns (host name, coloring)."""
    figures = _load()["figures"]
    for key, (host, coloring, _info) in figures.items():
        if key.lower() == fig_id.lower():
            return host, coloring
    raise UnknownId(f"unknown figure id {fig_id!r}")


def figure_ids() -> tuple[str, ...]:
    return tuple(_load()["figures"].keys())


def labeling_cycles(name: str) -> dict[str, object]:
    """Fixed boundary labelings of a catalog embedding, as FaceCycle values.

    These fix the start edge and orientation that square, pentagon and
    heptagon readings are measured against; case tables are stated relative
    to them.
    """
    data = _load()
    emb = data["embeddings"][name]
    out: dict[str, object] = {}
    for key, value in data["labelings"][name].items():
        if key == "rho":
            out[key] = tuple(value)
        elif key == "squares":
            out[key] = tuple(
                FaceCycle.from_darts(emb, [emb.dart(u, v) for u, v in cyc])
                for cyc in value
            )
        else:
            out[key] = FaceCycle.from_darts(emb, [emb.dart(u, v) for u, v in value])
    return out


def case_table(variant: str) -> dict[str, str]:
    """Signature-combination -> figure id, per variant."""
    tables = _load()["case_tables"]
    if variant not in tables:
        raise UnknownId(f"unknown case table {variant!r}")
    return dict(tables[variant])


def frame_classes(name: str) -> tuple[tuple[int, ...], ...]:
    """One coloring (edge id -> color) of each class of the embedding's
    colorings, in ``solve_exact`` enumeration order; a class holds the
    colorings whose non-triangular faces read the same colors up to a
    renaming within each face."""
    classes = _load()["classes"]
    if name not in classes:
        raise UnknownId(f"no coloring classes for {name!r}")
    return classes[name]


def catalog_embedding(name: str) -> Embedding:
    data = _load()
    if name not in data["embeddings"]:
        raise UnknownId(f"unknown catalog embedding {name!r}")
    return data["embeddings"][name]


# -- refinement -----------------------------------------------------------------


def triangulate_faces(emb: Embedding) -> Embedding:
    """Cone every non-triangular face, producing a triangulation.

    Chords cannot be used here: in the bundled complete-graph embeddings
    every candidate chord already exists elsewhere, so each big face gets
    one interior vertex instead.
    """
    out = emb
    while True:
        fs = trace_faces(out)
        big = [f for f in range(fs.num_faces) if fs.size(f) > 3]
        if not big:
            return out
        out = cone_face(out, big[0])


def _dart_key(u: int, v: int) -> tuple[int, int, bool]:
    """Sorts darts as their ids do: by edge ends, then u -> v after v -> u."""
    return (u, v, False) if u < v else (v, u, True)


def random_refinement(emb: Embedding, steps: int, seed: int = 0) -> Embedding:
    """Stellate ``steps`` times into faces chosen by a seeded generator.

    Reproducible per seed; genus is preserved by each stellation.  Each step
    draws from the triangles in face-id order, the order of their least
    darts.  A new vertex outranks every old one, so the three triangles it
    makes start at the stellated face's darts and no other face changes: the
    sorted list and the rotations are edited in place, and one embedding is
    built at the end.  A negative ``steps`` raises ValueError.
    """
    if steps < 0:
        raise ValueError(f"refinement steps must be at least 0, not {steps}")
    rng = random.Random(seed)
    fs = trace_faces(emb)
    walks = (fs.face_vertices(emb, f) for f in range(fs.num_faces) if fs.size(f) == 3)
    # (key of the least dart, vertex walk from that dart), sorted
    triangles = [(_dart_key(a, b), (a, b, c)) for a, b, c in walks]
    rotations = [list(r) for r in emb.rotations]
    for _ in range(steps):
        if not triangles:
            raise FaceNotTriangle("no triangular face to stellate")
        picked = rng.choice(triangles)
        del triangles[bisect_left(triangles, picked)]
        walk = picked[1]
        w = len(rotations)
        for i, corner in enumerate(walk):
            rot = rotations[corner]
            rot.insert(rot.index(walk[i - 1]) + 1, w)
            nxt = walk[(i + 1) % 3]
            insort(triangles, (_dart_key(corner, nxt), (corner, nxt, w)))
        rotations.append(list(reversed(walk)))
    return Embedding(rotations) if steps > 0 else emb


# -- exhaustive disk generation ----------------------------------------------------


def _disk_from_faces(n_boundary: int, n_total: int, triangles, boundary):
    """Assemble a Disk from directed triangles plus the outer walk."""
    sigma: dict[tuple[int, int], tuple[int, int]] = {}
    outer = [(boundary[(i + 1) % n_boundary], boundary[i]) for i in range(n_boundary)]
    outer.reverse()
    faces = [tuple(t) for t in triangles] + [tuple(outer)]
    for face in faces:
        k = len(face)
        for i in range(k):
            u, v = face[i]
            sigma[(v, u)] = face[(i + 1) % k]
    rotations = []
    for v in range(n_total):
        start = next(d for d in sigma if d[0] == v)
        rot = [start[1]]
        d = sigma[start]
        while d != start:
            rot.append(d[1])
            d = sigma[d]
        rotations.append(rot)
    emb = build_embedding(rotations)
    darts = [emb.dart(boundary[i], boundary[(i + 1) % n_boundary]) for i in range(n_boundary)]
    fs = trace_faces(emb)
    outer_face = fs.face_of[darts[0] ^ 1]
    return Disk(emb, tuple(darts), tuple(range(n_total)), outer_face)


def enumerate_disks(boundary_len: int, max_interior: int) -> list[Disk]:
    """All triangulated disks with the given boundary length and at most
    ``max_interior`` interior vertices, up to isomorphism.

    Boundary vertices are 0..boundary_len-1 in walk order, interior vertices
    follow.  Generation fills one region at a time on its first boundary
    edge: the apex of the new triangle is either another region vertex
    (splitting the region along new chords) or a fresh interior vertex.
    """
    from .isomorphism import embeddings_isomorphic

    n0 = boundary_len
    results: list[Disk] = []
    seen: list[Embedding] = []

    adj0 = {(i, (i + 1) % n0) for i in range(n0)}
    adj0 |= {(b, a) for a, b in adj0}

    def rec(regions, adjacency, next_vertex, budget, triangles):
        if not regions:
            disk = _disk_from_faces(n0, next_vertex, triangles, list(range(n0)))
            if not any(embeddings_isomorphic(disk.embedding, s) for s in seen):
                seen.append(disk.embedding)
                results.append(disk)
            return
        region, *rest = regions
        if len(region) == 3:
            a, b, c = region
            rec(rest, adjacency, next_vertex,
                budget, triangles + [[(a, b), (b, c), (c, a)]])
            return
        b0, b1 = region[0], region[1]
        k = len(region)
        # apex = existing region vertex: split off up to two sub-regions;
        # a chord that duplicates an existing edge would break simplicity
        for i in range(2, k):
            x = region[i]
            new_edges = []
            if i > 2:
                if (b1, x) in adjacency:
                    continue
                new_edges.append((b1, x))
            if i < k - 1:
                if (x, b0) in adjacency:
                    continue
                new_edges.append((x, b0))
            adj2 = adjacency | {c for ch in new_edges for c in (ch, ch[::-1])}
            subs = []
            if i > 2:
                subs.append(region[1 : i + 1])
            if i < k - 1:
                subs.append([region[i]] + region[i + 1 :] + [region[0]])
            rec(subs + rest, adj2, next_vertex, budget,
                triangles + [[(b0, b1), (b1, x), (x, b0)]])
        # apex = fresh interior vertex
        if budget > 0:
            x = next_vertex
            adj2 = adjacency | {(b0, x), (x, b0), (b1, x), (x, b1)}
            new_region = [region[0], x] + region[1:]
            rec([new_region] + rest, adj2, next_vertex + 1, budget - 1,
                triangles + [[(b0, b1), (b1, x), (x, b0)]])

    rec([list(range(n0))], adj0, n0, max_interior, [])
    return results
