"""The paper's case analysis, kept as the tests' reference for the solve.

The solve colors a frame by probing its coloring classes
(``catalog.frame_classes``): the first class whose boundary colors every
disk in the frame's non-triangular faces takes wins.  The paper instead
reads the disks.  It types each square disk by the signature kinds it can
show, colors a free pentagon, hexagon or quadrilateral disk and walks the
documented Kempe reductions to a direct signature, and looks the result up
in a case table.  This module keeps that analysis, so that the tests check
the tables and reductions against the disks, and bridge each entry to the
class that holds it (:func:`case_coloring`, :func:`class_key`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from grunbaum import catalog as cat
from grunbaum.chroma import dispatch_match, five_core
from grunbaum.coloring import (
    COLORS,
    PartialColoring,
    canonical_letters,
    classify_hexagon,
    classify_pentagon,
    classify_square,
    kempe_change,
)
from grunbaum.embedding import Embedding, FaceCycle, Region, cycle_region, trace_faces
from grunbaum.errors import NoTableEntry
from grunbaum.pipeline import (
    _host_cycle,
    apex_solve,
    fill_region,
    match_frame,
    region_square_kinds,
)
from grunbaum.solver import Budget, color_faces

# -- square types ---------------------------------------------------------------------

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


# -- case tables -------------------------------------------------------------------


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
    reduction machinery is supposed to rule out.
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
        rho = labeling["rho"]
        for _ in range(3):
            sigs = [classify_square([coloring[e] for e in cyc.edges]).kind
                    for cyc in labeling["squares"]]
            if all(s in SQUARE_TYPES[t] for s, t in zip(sigs, observed)):
                break
            # carry the coloring forward along the rotation rho
            coloring = PartialColoring.from_dict(emb.num_edges, {
                emb.edge_id(rho[u], rho[v]): coloring[e] for e, (u, v) in enumerate(emb.edges)})
        else:
            raise NoTableEntry(f"no rotation of {fig} fits types {observed}")
    return CaseEntry(fig, coloring, dict(cat._load()["figures"][fig][2]))


# -- the documented reductions -----------------------------------------------------


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


# -- a frame inside a host -----------------------------------------------------------


def frame_of(host: Embedding):
    """The frame that the solve matches inside a six-chromatic host."""
    match = dispatch_match(five_core(host.adjacency()))
    return match_frame(host, match.pattern, match.mapping)


def host_cycle(host: Embedding, frame, cycle: FaceCycle) -> FaceCycle:
    """The host cycle that a labeling cycle of the frame maps onto."""
    return _host_cycle(host, frame.cat_emb, frame.vmap, cycle.darts)


def case_coloring(host: Embedding, frame, budget: Budget | None = None):
    """The frame coloring the paper's case analysis picks for the host's
    disks, and the trace of how it was picked.

    The square-triple frames type each square and take the table entry; the
    (5,4) frame types its square, colors the pentagon freely and reduces
    it; a quadrilateral frame colors its quadrilateral freely.  The
    hexagonal frame reduces its hexagon to a direct class and pins the
    disk's colors on the frame, since its table figures need not fit them.
    """
    budget = budget or Budget()
    labeling = cat.labeling_cycles(frame.name)
    trace: list[str] = []

    def region_of(cycle):
        on_host = host_cycle(host, frame, cycle)
        return on_host, cycle_region(host, on_host)

    def square_type(cycle):
        on_host, region = region_of(cycle)
        return square_disk_type(region_square_kinds(host, region, on_host.edges, budget))

    if frame.name in ("k6-444a", "k6-444b"):
        types = tuple(square_type(cyc) for cyc in labeling["squares"])
        trace.append(f"square types {types}")
        entry = apply_case_table(frame.name[3:].upper(), types)
    elif frame.name == "k6-54":
        sq_type = square_type(labeling["square"])
        target_kind = "B1" if sq_type == 3 else "A"
        trace.append(f"square type {sq_type}, target {target_kind}")
        cycle, region = region_of(labeling["pentagon"])
        coloring = apex_solve(host, region, budget)
        _, sig, steps = reduce_pentagon_disk(host, region, cycle.edges, coloring, sq_type)
        trace.extend(steps)
        entry = apply_case_table("54", (sig, target_kind))
    elif frame.name == "k6-6":
        cycle, region = region_of(labeling["hexagon"])
        coloring = apex_solve(host, region, budget)
        coloring, cls, steps = reduce_hexagon_disk(host, region, cycle.edges, coloring)
        trace.extend(steps)
        entry = apply_case_table("6", cls.name)
        trace.append(f"table entry {entry.figure_id}")
        pins = {ce: coloring[pe] for ce, pe in zip(labeling["hexagon"].edges, cycle.edges)}
        frame_coloring = color_faces(frame.cat_emb, budget, pins)
        if frame_coloring is None:
            raise NoTableEntry(f"frame cannot match hexagon class {cls.name}")
        return frame_coloring, trace
    else:
        cycle, region = region_of(labeling["quad"])
        coloring = apex_solve(host, region, budget)
        kind = classify_square([coloring[e] for e in cycle.edges]).kind
        trace.append(f"quad class {kind}")
        entry = apply_case_table(frame.name.upper(), kind)
    trace.append(f"table entry {entry.figure_id}")
    return entry.coloring, trace


def class_key(emb: Embedding, coloring) -> tuple[str, ...]:
    """The class of a coloring of the embedding: its colors along each
    non-triangular face, in face order, renamed in order of appearance."""
    fs = trace_faces(emb)
    return tuple(canonical_letters([coloring[e] for e in fs.face_edges(f)])
                 for f in range(fs.num_faces) if fs.size(f) > 3)


def fills_every_disk(host: Embedding, frame, coloring) -> bool:
    """Whether every host region behind a non-triangular face of the frame
    takes the boundary colors that the frame coloring puts on it."""
    out = {host.edge_id(frame.vmap[u], frame.vmap[v]): coloring[e]
           for e, (u, v) in enumerate(frame.cat_emb.edges)}
    return all(fill_region(host, cycle_region(host, _host_cycle(host, frame.cat_emb,
                                                                frame.vmap, face)), out)
               is not None
               for face in trace_faces(frame.cat_emb).faces if len(face) > 3)
