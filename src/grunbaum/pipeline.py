"""End-to-end production of face-proper edge 3-colorings.

The dispatch mirrors the structure theory it implements: grids are colored
by their edge roles; 4-colorable graphs, every sphere among them, lift a
vertex coloring; hosts of K7 or of one of the four critical six-chromatic
graphs are colored by coloring the embedded subgraph (the frame) with the
first of its stored coloring classes whose boundary colors every
triangulated disk in its non-triangular faces takes, then filling every
disk behind a frame face from the frame's colors; everything else (the
open five-chromatic territory) falls back to exhaustive search, reported
honestly as FOUND or UNKNOWN, never as a theory claim.
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


# -- frames: a catalog embedding matched inside a host ------------------------------

@dataclass(frozen=True)
class Frame:
    name: str                      # catalog embedding or grid id
    cat_emb: Embedding
    vmap: tuple[int, ...]          # catalog vertex -> host vertex


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


# the six-regular frames (frame name -> its grid), every frame's face
# signature and its coloring classes are built on import, so that no solve
# pays for them and the first solve makes no more calls than the next
_GRID_FRAMES = {"k7": cat.gen_altshuler(1, 7, 2), "c11cubed": cat.gen_altshuler(1, 11, 2)}


def _frame_embedding(name: str) -> Embedding:
    grid = _GRID_FRAMES.get(name)
    return grid.embedding if grid else cat.catalog_embedding(name)


_FRAME_SIGNATURES = {name: _face_signature(_frame_embedding(name))
                     for names in _PATTERN_FRAMES.values() for name in names}

# frame -> one coloring of each class of its colorings, in probing order:
# the catalog's classes, or for a six-regular frame, which has only
# triangles, its one class, the edge roles
_FRAME_CLASSES = {name: (altshuler_coloring(_GRID_FRAMES[name]),) if name in _GRID_FRAMES
                  else cat.frame_classes(name)
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


# -- coloring the frame ---------------------------------------------------------------


def _color_frame(host: Embedding, frame: Frame, budget: Budget,
                 trace: list[str]) -> dict[int, int]:
    """Place the first of the frame's coloring classes whose boundary colors
    every host region behind a non-triangular frame face takes, fill those
    regions, and return the host colors (host edge -> color).

    Each region is filled on its own, and a fill does not depend on how the
    colors are named, so one coloring per class decides the class.  No
    class that fits is a falsification-grade event: NoTableEntry.
    """
    regions = [cycle_region(host, _host_cycle(host, frame.cat_emb, frame.vmap, face))
               for face in trace_faces(frame.cat_emb).faces if len(face) > 3]
    classes = _FRAME_CLASSES[frame.name]
    for i, coloring in enumerate(classes):
        out = _place(host, frame.cat_emb, frame.vmap, coloring, {})
        if all(fill_region(host, region, out, budget) is not None for region in regions):
            trace.append(f"{frame.name} class {i} of {len(classes)}")
            return out
    raise NoTableEntry(f"no coloring class of frame {frame.name} fits the disks in its faces")


# -- the dispatch ---------------------------------------------------------------------

# frame -> the method a FOUND on it reports
_ROUTES = {
    "k7": "K7",
    "c11cubed": "CRITICAL(C11CUBED)",
    "k6-444a": "CRITICAL(444A)",
    "k6-444b": "CRITICAL(444B)",
    "k6-54": "CRITICAL(54)",
    "k6-6": "CRITICAL(6)",
    "h7k2": "CRITICAL(H7K2)",
    "c3c5": "CRITICAL(C3C5)",
}


def solve(emb, budget: Budget | None = None) -> SolveReport:
    """Produce a coloring of a sphere or torus triangulation, or report
    UNKNOWN.

    Dispatch: labeled grids are colored by role.  Any other input must be
    a triangulation of genus 0 or 1, and a torus is first recognized as a
    grid if it is one.  Then every input tries the vertex-coloring lift,
    which colors every sphere; a sphere it fails is reported UNSAT, which
    the four color theorem rules out.  A torus goes on: a host of K7 or of
    a critical six-chromatic graph has that graph's frame matched in it,
    and the frame's coloring classes are probed in their stored order.  A
    probe places the class's coloring on the host and fills each region
    behind a non-triangular frame face from its boundary colors
    (:func:`fill_region`); the first class whose fills all succeed wins,
    and the region behind each of the frame's triangles is filled from it.
    K7 and C11^3 have only triangles and one class, their edge roles.  What
    remains is five-chromatic and goes to exhaustive search, which cannot
    claim anything beyond what it finds.

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
                    stage = _ROUTES[frame.name]
                    out = _color_frame(emb, frame, budget, trace)
                    _extend_over_triangles(emb, frame.cat_emb, frame.vmap, out, budget)
                    if len(out) != emb.num_edges:
                        raise NoTableEntry("the frame's faces do not cover every edge")
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
