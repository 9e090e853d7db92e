"""End-to-end production of face-proper edge 3-colorings.

The dispatch mirrors the structure theory it implements: grids are colored
by their edge roles; 4-colorable graphs, every sphere among them, lift a
vertex coloring; hosts of K7 or of one of the four critical six-chromatic
graphs are colored by coloring the embedded subgraph (the frame) from a case
table chosen by reading the triangulated disks in its non-triangular faces,
then filling every disk behind a frame face from the frame's colors;
everything else (the open five-chromatic territory) falls back to exhaustive
search, reported honestly as FOUND or UNKNOWN, never as a theory claim.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from . import catalog as cat
from .chroma import dispatch_match, five_core, pattern_graph
from .coloring import (
    COLORS,
    EdgeColoring,
    PartialColoring,
    classify_hexagon,
    classify_pentagon,
    classify_square,
    kempe_change,
    tait_lift,
    verify_grunbaum,
)
from .embedding import (
    Disk,
    Embedding,
    FaceCycle,
    Region,
    cycle_region,
    genus,
    is_triangulation,
    trace_faces,
)
from .errors import (
    BudgetExceeded,
    NoTableEntry,
    NotAGridLabeling,
    NotARefinement,
    NotSimple,
    NotTriangulation,
    SideNotADisk,
    VerificationFailed,
)
from .isomorphism import embedding_isomorphisms
from .solver import (
    FOUND,
    UNKNOWN,
    UNSAT,
    Budget,
    SolveReport,
    color_faces,
    color_vertices_k,
    four_color_vertices,
)

# -- grid coloring -----------------------------------------------------------------

_ROLE_COLOR = {"V": 0, "H": 1, "D": 2}


def altshuler_coloring(grid) -> EdgeColoring:
    """Color a labeled grid by edge role: vertical, horizontal, diagonal.

    Every triangular face of a generated grid has one edge of each role, so
    the role assignment is itself a coloring; :func:`solve` verifies it.
    """
    if not isinstance(grid, cat.GridTriangulation):
        raise NotAGridLabeling("input does not carry grid edge roles")
    return EdgeColoring(tuple(_ROLE_COLOR[r] for r in grid.roles))


def recognize_grid_coloring(emb: Embedding) -> tuple[EdgeColoring, str] | None:
    """Try to match a six-regular embedding with a generated grid.

    Grid parameters (rows, cols, twist) with rows*cols equal to the vertex
    count are tried in order; the first embedding isomorphism transports the
    role coloring back.  An isomorphism carries faces to faces, so the
    transported coloring is as valid as the grid's.  Returns None when
    nothing matches, which for a genus-1 triangulation means the input was
    not six-regular.
    """
    n = emb.num_vertices
    if any(emb.degree(v) != 6 for v in range(n)):
        return None
    for rows in range(1, n + 1):
        if n % rows:
            continue
        cols = n // rows
        for twist in range(cols):
            try:
                grid = cat.gen_altshuler(rows, cols, twist)
            except NotSimple:
                continue
            vmap = next(embedding_isomorphisms(grid.embedding, emb), None)
            if vmap is None:
                continue
            colors = _place(emb, grid.embedding, vmap, altshuler_coloring(grid), {})
            coloring = EdgeColoring(tuple(colors[e] for e in range(emb.num_edges)))
            return coloring, f"T({rows},{cols},{twist})"
    return None


# -- disks ---------------------------------------------------------------------------


def _lift_into(host: Embedding, region: Region, vc: Sequence[int],
               out: dict[int, int]) -> dict[int, int]:
    """Add the lift of the region's vertex colors ``vc`` to ``out`` (host edge
    -> color) and return it; a host edge holding another color raises."""
    color = dict(zip(region.vertices, vc))
    for e in region.edges:
        u, v = host.edge_ends(e)
        c = (color[u] ^ color[v]) - 1
        if out.setdefault(e, c) != c:
            raise NoTableEntry(f"conflicting colors for host edge {e}")
    return out


def apex_solve(host: Embedding, region: Region, budget: Budget | None = None) -> PartialColoring:
    """Color a region of the host as the sphere an apex over its boundary
    closes it into (``cap_with_apex``'s graph, the apex at id n), with the
    boundary parity that sphere forces: a disk is simply connected, so its
    colorings are exactly the lifts ``c(u) ^ c(v)`` of vertex 4-colorings c.
    The colors sit on host edge ids; edges outside the region stay None."""
    n = len(region.vertices)
    adj = [set(a) for a in region.adjacency] + [set(region.boundary)]
    for v in region.boundary:
        adj[v].add(n)
    vc = color_vertices_k(adj, 4, budget)
    if vc is None:
        raise NoTableEntry("capped disk is not 4-colorable")
    return PartialColoring.from_dict(host.num_edges, _lift_into(host, region, vc, {}))


# one pinned boundary per square signature: a signature fixes the exact
# colors up to one global color permutation, so each decides its kind
_KIND_REPRESENTATIVE = {
    "A": (0, 1, 0, 1),
    "B1": (0, 0, 1, 1),
    "B2": (0, 1, 1, 0),
    "C": (0, 0, 0, 0),
}


def fill_region(
    host: Embedding,
    region: Region,
    out: dict[int, int],
    budget: Budget | None = None,
) -> list[int] | None:
    """Color a region of the host with its boundary edges at the colors
    ``out`` holds for them (host edge -> color), add the colors of all its
    edges to ``out``, and return its vertex colors in region order; None,
    with ``out`` left as it was, when no coloring takes those colors.

    The boundary colors give the boundary labels, from 0 on, by label
    changes of color + 1.  A walk that does not close is the parity lemma
    and spends no node; otherwise each boundary vertex is pinned to its
    label, and the region is 4-colored and lifted: edge {u, v} takes the
    color of c(u) ^ c(v), and one that already holds another raises.
    """
    labels = [0]
    for e in region.boundary_edges:
        labels.append(labels[-1] ^ (out[e] + 1))
    if labels.pop():
        return None
    vc = color_vertices_k([set(a) for a in region.adjacency], 4, budget,
                          dict(zip(region.boundary, labels)))
    if vc is not None:
        _lift_into(host, region, vc, out)
    return vc


def _fill(host: Embedding, region: Region, out: dict[int, int], budget: Budget | None):
    """Fill a region whose boundary colors ``out`` fixes, or raise."""
    if fill_region(host, region, out, budget) is None:
        raise NoTableEntry("disk cannot take its boundary colors")


def solve_disk(
    disk: Disk,
    positions: Sequence[int],
    colors: Sequence[int],
    budget: Budget | None = None,
) -> EdgeColoring | None:
    """Color a disk with its boundary edges at ``positions`` pinned to
    ``colors``, each boundary edge once and no other edge; None when no such
    coloring exists.  The disk is solved as a region of its own embedding
    (:func:`fill_region`)."""
    if sorted(positions) != sorted(disk.boundary_edges) or len(colors) != len(positions):
        raise ValueError("solve_disk pins each boundary edge once, to one color")
    if any(c not in COLORS for c in colors):
        raise ValueError(f"solve_disk colors must lie in {COLORS}, not {tuple(colors)}")
    out = dict(zip(positions, colors))
    if fill_region(disk.embedding, disk.as_region(), out, budget) is None:
        return None
    return EdgeColoring(tuple(out[e] for e in range(disk.embedding.num_edges)))


def region_square_kinds(
    host: Embedding, region: Region, edges: Sequence[int], budget: Budget | None = None
) -> frozenset[str]:
    """Which of A, B1, B2, C a region of the host can show on its boundary,
    read as a square along the host edges ``edges``."""
    if len(edges) != 4 or sorted(edges) != sorted(region.boundary_edges):
        raise ValueError("square kinds are read along a square's four boundary edges")
    budget = budget or Budget()
    return frozenset(
        kind for kind, pattern in _KIND_REPRESENTATIVE.items()
        if fill_region(host, region, dict(zip(edges, pattern)), budget) is not None
    )


def achievable_square_kinds(
    disk: Disk, positions: tuple[int, ...], budget: Budget | None = None
) -> frozenset[str]:
    """Which of A, B1, B2, C the disk can show on its boundary, read along
    its edges ``positions``."""
    return region_square_kinds(disk.embedding, disk.as_region(), positions, budget)


# square coloring type -> the signature kinds a square of that type shows
SQUARE_TYPES = {1: frozenset({"A", "B1"}), 2: frozenset({"A", "B2"}),
                3: frozenset({"C", "B1", "B2"})}


def square_disk_type(kinds: frozenset[str]) -> int:
    """Coloring type of a triangulated square: the first of ``SQUARE_TYPES``
    whose kinds it achieves.  Every triangulated square has one."""
    for t, type_kinds in SQUARE_TYPES.items():
        if type_kinds <= kinds:
            return t
    raise NoTableEntry(f"square disk achieves {sorted(kinds)}, which has no type")


# -- documented reduction tables ---------------------------------------------------

# pentagon: (sorted signature pair) -> (edge to change, allowed outcomes); the
# move swaps the singleton color at that edge with the majority color
PENTAGON_REDUCTIONS_TYPE12 = {
    (1, 4): (1, ((4, 5), (2, 4))),
    (3, 4): (3, ((4, 5), (2, 4))),
    (1, 3): (3, ((1, 2), (1, 4))),
    (1, 5): (5, ((1, 2), (1, 4))),
    (2, 3): (3, ((2, 4), (1, 2))),
    (2, 5): (5, ((2, 4), (1, 2))),
    (3, 5): (5, ((3, 4), (1, 3))),
}
PENTAGON_DIRECT_TYPE12 = frozenset({(2, 4), (1, 2), (4, 5)})

PENTAGON_REDUCTIONS_TYPE3 = {
    (2, 4): (4, ((2, 3), (2, 5))),
    (1, 2): (1, ((2, 3), (2, 5))),
    (1, 5): (1, ((2, 5), (4, 5))),
    (3, 5): (3, ((2, 5), (4, 5))),
    (1, 4): (1, ((4, 5), (2, 4))),
    (3, 4): (3, ((4, 5), (2, 4))),
    (1, 3): (3, ((1, 2), (1, 4))),
}
PENTAGON_DIRECT_TYPE3 = frozenset({(2, 5), (2, 3), (4, 5)})

# hexagon: class -> (chain colors as canonical letters, allowed outcome classes);
# the move is applied at the first canonical 'p' edge
HEXAGON_REDUCTIONS = {
    "tpgtgp": (("p", "g"), ("tpgtpg", "tpptpp")),
    "tpptgg": (("p", "g"), ("tpptpp", "tpgtpg")),
    "ttpgpg": (("p", "g"), ("tpptgg", "ttppgg")),
    "tptppp": (("p", "g"), ("ttpgpg",)),
    "pppppp": (("p", "t"), ("ttpppp", "tptppp", "tpptpp")),
}
HEXAGON_DIRECT = frozenset({"ttpppp", "ttppgg", "tpptpp", "tpgtpg"})


@dataclass(frozen=True)
class CaseEntry:
    """A shipped coloring resolved from a case table."""

    figure_id: str
    coloring: PartialColoring
    info: dict


def apply_case_table(variant: str, observed) -> CaseEntry:
    """Resolve an observed signature combination to a shipped coloring.

    ``observed`` is a type triple for the two square-triple tables, a
    (pentagon signature, square kind) pair after the documented reductions,
    a hexagon class name after reductions, or a quadrilateral kind.  The
    symmetric (4,4,4)_A table is keyed up to the rotation ``rho`` that
    cycles its squares, and its entry comes back rotated so that its square
    signatures fit the triple; ``info`` describes the stored figure.
    NoTableEntry flags combinations the tables do not cover, which the
    reduction machinery is supposed to rule out, so hitting one is a
    falsification-grade event.
    """
    table = cat.case_table(variant)
    if variant == "54":
        sig, kind = observed
        j, k = sorted(sig)
        keys = [f"{j};{k}|{kind}"]
    elif variant in ("444A", "444B"):
        types = "".join(map(str, observed))
        keys = [types[i:] + types[:i] for i in range(3 if variant == "444A" else 1)]
    else:
        keys = [observed]
    fig = next((table[key] for key in keys if key in table), None)
    if fig is None:
        raise NoTableEntry(f"{variant} has no entry for {observed!r}")
    coloring = cat.figure_colorings(fig)[1]
    if variant == "444A":
        labeling = cat.labeling_cycles("k6-444a")
        emb = cat.catalog_embedding("k6-444a")
        for _ in range(3):
            sigs = [classify_square([coloring[e] for e in cyc.edges]).kind
                    for cyc in labeling["squares"]]
            if all(s in SQUARE_TYPES[t] for s, t in zip(sigs, observed)):
                break
            # carry the coloring forward along the rotation rho
            coloring = PartialColoring.from_dict(
                emb.num_edges, _place(emb, emb, labeling["rho"], coloring, {}))
        else:
            raise NoTableEntry(f"no rotation of {fig} fits types {observed}")
    return CaseEntry(fig, coloring, cat.figure_info(fig))


# -- frames: a catalog embedding matched inside a host ------------------------------

@dataclass(frozen=True)
class Frame:
    name: str                      # catalog embedding or grid id
    cat_emb: Embedding
    vmap: tuple[int, ...]          # catalog vertex -> host vertex

    def host_cycle(self, host: Embedding, cycle: FaceCycle) -> FaceCycle:
        return _host_cycle(host, self.cat_emb, self.vmap, cycle.darts)


def _restrict_rotations(host: Embedding, pattern: Sequence[set[int]],
                        vmap: Sequence[int]) -> Embedding:
    """Host rotations filtered to the pattern's edges carried along vmap
    (pattern vertex -> host vertex), relabeled back to pattern vertices."""
    back = {h: i for i, h in enumerate(vmap)}
    return Embedding([[back[w] for w in host.rotation(h) if back.get(w) in pattern[i]]
                      for i, h in enumerate(vmap)])


# the pattern a host contains -> the frames it can sit in; K6 has four torus
# embeddings, and the two (4,4,4) ones share a face census but not a corner
# profile
_PATTERN_FRAMES = {
    "K7": ("k7",),
    "K6": ("k6-54", "k6-6", "k6-444a", "k6-444b"),
    "H7+K2": ("h7k2",),
    "C3+C5": ("c3c5",),
    "C11^3": ("c11cubed",),
}


def _face_signature(emb: Embedding) -> tuple:
    """Face census and corner profile (the sorted multisets of face sizes
    around each vertex, sorted); every isomorphism, mirrored or not, keeps
    both."""
    fs = trace_faces(emb)
    size = [len(fs.faces[f]) for f in fs.face_of]  # per dart
    corners: list[list[int]] = [[] for _ in range(emb.num_vertices)]
    for e, (u, v) in enumerate(emb.edges):
        corners[u].append(size[2 * e])
        corners[v].append(size[2 * e + 1])
    return fs.census(), sorted(sorted(c) for c in corners)


# the six-regular frames, colored by edge role (frame name -> its grid), and
# every frame's face signature; both are built on import, so that no solve
# pays for them and the first solve makes no more calls than the next
_GRID_FRAMES = {"k7": cat.gen_altshuler(1, 7, 2), "c11cubed": cat.gen_altshuler(1, 11, 2)}


def _frame_embedding(name: str) -> Embedding:
    grid = _GRID_FRAMES.get(name)
    return grid.embedding if grid else cat.catalog_embedding(name)


_FRAME_SIGNATURES = {name: _face_signature(_frame_embedding(name))
                     for names in _PATTERN_FRAMES.values() for name in names}


def match_frame(host: Embedding, pattern: str, mapping: Sequence[int]) -> Frame:
    """Align a frame of the pattern with a matched subgraph of the host.

    ``mapping`` sends pattern vertices to host vertices.  The host rotations
    restricted to the pattern's edges along ``mapping`` give the
    sub-embedding; host edges between matched vertices that are not pattern
    edges, such as a chord of a frame's face, are left out.  The first of
    the pattern's frames with the same face census and corner profile that
    is isomorphic to it (possibly after a mirror flip) is the frame, and the
    composed map carries every catalog labeling onto host darts.  K7 and
    C11^3 are aligned with their grid embedding, whose edge roles color
    them.
    """
    sub = _restrict_rotations(host, pattern_graph(pattern), mapping)
    signature = _face_signature(sub)
    for name in _PATTERN_FRAMES[pattern]:
        if _FRAME_SIGNATURES[name] != signature:
            continue
        cat_emb = _frame_embedding(name)
        for vmap_cs in embedding_isomorphisms(cat_emb, sub):
            return Frame(name, cat_emb, tuple(mapping[w] for w in vmap_cs))
    raise NoTableEntry(
        f"no frame of {pattern} matches its sub-embedding with faces {signature[0]}")


# -- assembling and extending -------------------------------------------------------


def _place(host: Embedding, sub: Embedding, vmap: Sequence[int],
           coloring: PartialColoring | EdgeColoring, out: dict[int, int]) -> dict[int, int]:
    """Add the colored edges of a sub-embedding to ``out`` (host edge ->
    color) along ``vmap`` (sub vertex -> host vertex), and return it.  A host
    edge that already holds another color raises NoTableEntry."""
    for e, (u, v) in enumerate(sub.edges):
        c = coloring[e]
        if c is not None:
            he = host.edge_id(vmap[u], vmap[v])
            if out.setdefault(he, c) != c:
                raise NoTableEntry(f"conflicting colors for host edge {he}")
    return out


def _host_cycle(host: Embedding, sub: Embedding, vmap: Sequence[int],
                darts: Sequence[int]) -> FaceCycle:
    """The host cycle that a closed walk of a sub-embedding maps onto."""
    return FaceCycle.from_darts(
        host, [host.dart(vmap[sub.tail(d)], vmap[sub.head(d)]) for d in darts]
    )


def extend_over_face(
    host: Embedding,
    face_cycle: FaceCycle,
    out: dict[int, int],
    budget: Budget | None = None,
):
    """Fill the triangulated region behind a tricolored triangle of the frame.

    The region is read off the host (:func:`cycle_region`), colored with
    its three boundary edges at their colors in ``out``, and its edge
    colors are written into ``out`` (:func:`fill_region`), as :func:`solve`
    fills the regions behind the frame's other faces; no embedding is built
    for it.  A triangle that is a face of the host has nothing behind it.
    """
    face_of = trace_faces(host).face_of
    if len({face_of[d] for d in face_cycle.darts}) == 1:
        return
    _fill(host, cycle_region(host, face_cycle), out, budget)


def _extend_over_triangles(host, sub, vmap, out, budget):
    """Extend over every triangular face of a sub-embedding placed on the
    host along ``vmap``."""
    for face in trace_faces(sub).faces:
        if len(face) == 3:
            extend_over_face(host, _host_cycle(host, sub, vmap, face), out, budget)


def _face_edge_sets(emb: Embedding) -> list[list[int]]:
    """Every face's edge ids, sorted, for comparing the faces of two
    embeddings of one graph."""
    fs = trace_faces(emb)
    return sorted(sorted(fs.face_edges(f)) for f in range(fs.num_faces))


def extend_into_faces(
    host: Embedding,
    host_coloring: EdgeColoring,
    refined: Embedding,
    budget: Budget | None = None,
) -> EdgeColoring:
    """Extend a coloring of a triangulation to a refinement of it.

    The refinement must contain the host as a subgraph on the same vertex
    ids, with all extra structure inside the host's (triangular) faces.
    The host's faces are traced in the refinement's rotations, so a
    refinement drawn as the host's mirror image is filled just as well.
    """
    if host.num_vertices > refined.num_vertices:
        raise NotARefinement("refinement has fewer vertices than host")
    for u, v in host.edges:
        if not refined.has_edge(u, v):
            raise NotARefinement(f"host edge {u}-{v} missing from refinement")
    if not is_triangulation(host):
        raise NotTriangulation("host must be a triangulation")
    drawn = Embedding([[w for w in refined.rotation(v) if host.has_edge(v, w)]
                       for v in range(host.num_vertices)])
    if _face_edge_sets(drawn) != _face_edge_sets(host):
        raise NotARefinement("refinement does not keep the host's faces")
    budget = budget or Budget()
    identity = range(host.num_vertices)
    out = _place(refined, host, identity, host_coloring, {})
    try:
        _extend_over_triangles(refined, drawn, identity, out, budget)
    except SideNotADisk as exc:
        raise NotARefinement("a host face does not bound a disk region") from exc
    if len(out) != refined.num_edges:
        raise NotARefinement("refinement has edges outside every host face")
    coloring = EdgeColoring(tuple(out[e] for e in range(refined.num_edges)))
    if not verify_grunbaum(refined, coloring).ok:
        raise VerificationFailed("extended coloring failed verification")
    return coloring


def _verified_report(
    emb: Embedding,
    coloring: EdgeColoring,
    method: str,
    trace: list[str],
    budget: Budget,
    stage: str,
) -> SolveReport:
    """FOUND only once the coloring passes verification; otherwise UNKNOWN,
    named after the stage that built the coloring."""
    if not verify_grunbaum(emb, coloring).ok:
        return SolveReport(UNKNOWN, method=stage,
                           trace=(*trace, f"{stage}: coloring failed verification"),
                           nodes=budget.used_nodes)
    return SolveReport(FOUND, coloring, method=method, trace=tuple(trace),
                       nodes=budget.used_nodes)


# -- the K6 case machinery ------------------------------------------------------------


def _route_k6_squares(host, frame, budget, trace) -> tuple[PartialColoring, list[Region]]:
    """(4,4,4) machinery: type each square disk and look up the triple."""
    variant = "444A" if frame.name == "k6-444a" else "444B"
    squares = cat.labeling_cycles(frame.name)["squares"]
    cycles = [frame.host_cycle(host, cyc) for cyc in squares]
    regions = [cycle_region(host, cyc) for cyc in cycles]
    kinds = [region_square_kinds(host, region, cyc.edges, budget)
             for region, cyc in zip(regions, cycles)]
    types = tuple(square_disk_type(k) for k in kinds)
    trace.append(f"square types {types}")
    entry = apply_case_table(variant, types)
    trace.append(f"table entry {entry.figure_id}")
    return entry.coloring, regions


def _outside_faces(host: Embedding, region: Region) -> set[int]:
    """The host faces across the region's boundary, which its chains skip."""
    face_of = trace_faces(host).face_of
    return {face_of[d ^ 1] for d in region.boundary_darts}


def reduce_pentagon_disk(
    host: Embedding,
    region: Region,
    positions: Sequence[int],
    coloring: PartialColoring,
    square_type: int,
) -> tuple[PartialColoring, tuple[int, int], list[str]]:
    """Walk the documented pentagon reductions until a direct signature.

    ``positions`` are the pentagon's host edges in cycle order.  Each step
    swaps the singleton color at the prescribed edge with the majority color
    along its chain inside the region; the outcome must be one of the two
    signatures the table allows, anything else is a falsification event.
    """
    outside = _outside_faces(host, region)
    steps: list[str] = []
    sig = tuple(sorted(classify_pentagon([coloring[p] for p in positions]).positions))
    if square_type == 3:
        reductions, direct = PENTAGON_REDUCTIONS_TYPE3, PENTAGON_DIRECT_TYPE3
    else:
        reductions, direct = PENTAGON_REDUCTIONS_TYPE12, PENTAGON_DIRECT_TYPE12
    for _ in range(6):
        if sig in direct:
            return coloring, sig, steps
        step = reductions.get(sig)
        if step is None:
            raise NoTableEntry(f"pentagon signature {sig} has no reduction")
        edge_label, outcomes = step
        seed = positions[edge_label - 1]
        observed = [coloring[p] for p in positions]
        majority = max(set(observed), key=observed.count)
        coloring = kempe_change(host, coloring, seed, (coloring[seed], majority),
                                exclude_faces=outside)
        new_sig = tuple(sorted(classify_pentagon([coloring[p] for p in positions]).positions))
        if new_sig not in outcomes:
            raise NoTableEntry(f"documented change {sig}->{outcomes} produced {new_sig}")
        steps.append(f"pentagon {sig} -> {new_sig}")
        sig = new_sig
    raise NoTableEntry("pentagon reductions did not terminate")


def _route_k6_54(host, frame, budget, trace) -> tuple[PartialColoring, list[Region]]:
    labeling = cat.labeling_cycles("k6-54")
    pent_cyc = frame.host_cycle(host, labeling["pentagon"])
    pent_region = cycle_region(host, pent_cyc)
    sq_cyc = frame.host_cycle(host, labeling["square"])
    sq_region = cycle_region(host, sq_cyc)

    sq_type = square_disk_type(region_square_kinds(host, sq_region, sq_cyc.edges, budget))
    target_kind = "B1" if sq_type == 3 else "A"
    trace.append(f"square type {sq_type}, target {target_kind}")

    coloring = apex_solve(host, pent_region, budget=budget)
    _, sig, steps = reduce_pentagon_disk(host, pent_region, pent_cyc.edges, coloring, sq_type)
    trace.extend(steps)

    entry = apply_case_table("54", (sig, target_kind))
    trace.append(f"table entry {entry.figure_id}")
    return entry.coloring, [pent_region, sq_region]


def reduce_hexagon_disk(
    host: Embedding, region: Region, positions: Sequence[int], coloring: PartialColoring
) -> tuple[PartialColoring, "object", list[str]]:
    """Walk the documented hexagon reductions until a direct class.

    ``positions`` are the hexagon's host edges in cycle order.  The move is
    a Kempe change inside the region at the edge playing the first canonical
    p, with the chain colors named by the class witness.
    """
    outside = _outside_faces(host, region)
    steps: list[str] = []
    cls = classify_hexagon([coloring[p] for p in positions])
    for _ in range(6):
        if cls.name in HEXAGON_DIRECT:
            return coloring, cls, steps
        letters, outcomes = HEXAGON_REDUCTIONS[cls.name]
        letter_color = _letter_colors([coloring[p] for p in positions], cls)
        seed = positions[cls.observed_position(cls.name.index("p"))]
        coloring = kempe_change(host, coloring, seed,
                                (letter_color[letters[0]], letter_color[letters[1]]),
                                exclude_faces=outside)
        new_cls = classify_hexagon([coloring[p] for p in positions])
        if new_cls.name not in outcomes:
            raise NoTableEntry(
                f"documented change {cls.name}->{outcomes} produced {new_cls.name}"
            )
        steps.append(f"hexagon {cls.name} -> {new_cls.name}")
        cls = new_cls
    raise NoTableEntry("hexagon reductions did not terminate")


def _route_k6_hex(host, frame, budget, trace) -> tuple[EdgeColoring, list[Region]]:
    labeling = cat.labeling_cycles("k6-6")
    hex_cat = labeling["hexagon"]
    hex_cyc = frame.host_cycle(host, hex_cat)
    region = cycle_region(host, hex_cyc)

    coloring = apex_solve(host, region, budget=budget)
    coloring, cls, steps = reduce_hexagon_disk(host, region, hex_cyc.edges, coloring)
    trace.extend(steps)

    entry = apply_case_table("6", cls.name)
    trace.append(f"table entry {entry.figure_id}")
    # the hexagonal embedding realizes every exact coloring of each direct
    # class, so pin the disk's colors on the frame and re-solve it
    pins = {ce: coloring[pe] for ce, pe in zip(hex_cat.edges, hex_cyc.edges)}
    frame_coloring = color_faces(frame.cat_emb, budget, pins)
    if frame_coloring is None:
        raise NoTableEntry(f"frame cannot match hexagon class {cls.name}")
    return frame_coloring, [region]


def _letter_colors(observed: Sequence[int], cls) -> dict[str, int]:
    """Map canonical letters t, p, g to the actual colors of this reading."""
    mapping: dict[str, int] = {}
    for canonical_pos, letter in enumerate(cls.name):
        color = observed[cls.observed_position(canonical_pos)]
        mapping.setdefault(letter, color)
    # letters absent from the class string keep any unused color
    for letter, color in zip("tpg", COLORS):
        if letter not in mapping:
            unused = [c for c in COLORS if c not in mapping.values()]
            mapping[letter] = unused[0] if unused else color
    return mapping


def _route_quadface(host, frame, budget, trace) -> tuple[PartialColoring, list[Region]]:
    """Hosts of the two non-K6 critical graphs with a quadrilateral face."""
    variant = "H7K2" if frame.name == "h7k2" else "C3C5"
    labeling = cat.labeling_cycles(frame.name)
    quad_cat = labeling["quad"]
    quad_cyc = frame.host_cycle(host, quad_cat)
    region = cycle_region(host, quad_cyc)

    coloring = apex_solve(host, region, budget=budget)
    kind = classify_square([coloring[e] for e in quad_cyc.edges]).kind
    if kind == "A":
        raise NoTableEntry(
            "apex construction produced an alternating square, which the "
            "apex triangle argument rules out"
        )
    trace.append(f"quad class {kind}")
    entry = apply_case_table(variant, kind)
    trace.append(f"table entry {entry.figure_id}")
    return entry.coloring, [region]


def _route_six_regular(host, frame, budget, trace) -> tuple[EdgeColoring, list[Region]]:
    """K7 or C11^3 inside the host: the frame is a grid triangulation, so
    color it by edge role; it has no other faces than triangles."""
    trace.append("grid labeling recognized")
    return altshuler_coloring(_GRID_FRAMES[frame.name]), []


# -- the dispatch ---------------------------------------------------------------------

# frame -> (method, route); a route reads the disks behind the frame's
# non-triangular faces and picks its table entry, and returns the frame
# coloring (frame edge -> color) with the host regions of those faces; it
# puts no color on the host.  solve places the frame coloring, fills every
# returned region and the region behind each triangle from it, and verifies
_ROUTES = {
    "k7": ("K7", _route_six_regular),
    "c11cubed": ("CRITICAL(C11CUBED)", _route_six_regular),
    "k6-444a": ("CRITICAL(444A)", _route_k6_squares),
    "k6-444b": ("CRITICAL(444B)", _route_k6_squares),
    "k6-54": ("CRITICAL(54)", _route_k6_54),
    "k6-6": ("CRITICAL(6)", _route_k6_hex),
    "h7k2": ("CRITICAL(H7K2)", _route_quadface),
    "c3c5": ("CRITICAL(C3C5)", _route_quadface),
}


def solve(emb, budget: Budget | None = None) -> SolveReport:
    """Produce a coloring of a sphere or torus triangulation, or report
    UNKNOWN.

    Dispatch: labeled grids are colored by role.  Any other input must be
    a triangulation of genus 0 or 1, and a torus is first recognized as a
    grid if it is one.  Then every input tries the vertex-coloring lift,
    which colors every sphere; a sphere it fails is reported UNSAT, which
    the four color theorem rules out.  A torus goes on: hosts of K7 via
    the grid coloring of K7; hosts of a critical six-chromatic graph via
    its case machinery.  Either route returns a coloring of its frame and
    the host regions of the frame's non-triangular faces; ``solve`` places
    the frame coloring on the host and fills each of those regions, and
    the region behind each of the frame's triangles, from the frame's
    boundary colors (:func:`fill_region`).  What remains is five-chromatic
    and goes to exhaustive search, which cannot claim anything beyond what
    it finds.

    After a failed 4-coloring, one 5-coloring gates the subgraph search.  K7
    and the four critical graphs are six-chromatic, so a 5-colorable host
    contains none of them and goes straight to exhaustive search.  Otherwise
    the patterns (minimum degree >= 5) are searched on the host's 5-core,
    which yields the same first match as the whole host; exactly one match
    is expected, and zero or several raise ClassificationAnomaly.

    Every route's coloring, the grid's included, is checked exactly once,
    by ``_verified_report``: FOUND only if it passes, else UNKNOWN named
    after the stage that built it (grid recognition, tait lift, the route's
    method or exact search).

    Every sub-search spends the one budget.  When it runs out, the report is
    UNKNOWN, and its method and last trace entry name the stage: 4-coloring,
    subgraph search, the route's method (e.g. K7) or exact search.  The
    report's ``millis`` is the whole solve's wall time.
    """
    started = time.perf_counter()
    budget = budget or Budget()
    trace: list[str] = []
    stage = "4-coloring"
    if isinstance(emb, cat.GridTriangulation):
        report = _verified_report(emb.embedding, altshuler_coloring(emb), "ALTSHULER",
                                  ["grid roles"], budget, "grid recognition")
    elif (g := genus(emb)) > 1:
        raise ValueError(f"genus {g} is out of scope; only sphere and torus are handled")
    elif not is_triangulation(emb):
        raise NotTriangulation("solve expects a triangulation")
    elif g == 1 and (recognized := recognize_grid_coloring(emb)) is not None:
        coloring, grid_name = recognized
        report = _verified_report(emb, coloring, "ALTSHULER", [f"recognized {grid_name}"],
                                  budget, "grid recognition")
    else:
        adj = emb.adjacency()
        try:
            vc = four_color_vertices(adj, budget=budget)
            if vc is not None:
                report = _verified_report(emb, tait_lift(emb, vc), "TAIT", trace, budget,
                                          "tait lift")
            elif g == 0:
                report = SolveReport(UNSAT, trace=("chromatic number exceeds four",))
            else:
                trace.append("not 4-colorable")
                stage = "subgraph search"
                if color_vertices_k(adj, 5, budget=budget) is None:
                    match = dispatch_match(five_core(adj), budget)
                    trace.append("contains K7" if match.pattern == "K7"
                                 else f"critical subgraph {match.pattern}")
                    frame = match_frame(emb, match.pattern, match.mapping)
                    if match.pattern == "K6":
                        trace.append(f"embedding variant {frame.name}")
                    stage, route = _ROUTES[frame.name]
                    frame_coloring, regions = route(emb, frame, budget, trace)
                    out = _place(emb, frame.cat_emb, frame.vmap, frame_coloring, {})
                    for region in regions:
                        _fill(emb, region, out, budget)
                    _extend_over_triangles(emb, frame.cat_emb, frame.vmap, out, budget)
                    if len(out) != emb.num_edges:
                        raise NoTableEntry("case machinery did not cover every edge")
                    coloring = EdgeColoring(tuple(out[e] for e in range(emb.num_edges)))
                    report = _verified_report(emb, coloring, stage, trace, budget, stage)
                else:
                    # five-chromatic territory: search, and say so
                    trace.append("no critical subgraph: five-chromatic, exhaustive search")
                    stage = "exact search"
                    coloring = color_faces(emb, budget)
                    if coloring is None:
                        report = SolveReport(UNSAT, method="EXACT", trace=tuple(trace),
                                             nodes=budget.used_nodes)
                    else:
                        report = _verified_report(emb, coloring, "EXACT", trace, budget,
                                                  "exact search")
        except BudgetExceeded as exc:
            report = SolveReport(UNKNOWN, method=stage, trace=(*trace, f"{stage}: {exc}"),
                                 nodes=budget.used_nodes)
    report.millis = 1000 * (time.perf_counter() - started)
    return report
