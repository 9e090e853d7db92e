"""Edge 3-colorings of embedded graphs and the machinery around them.

Colors are the integers 0, 1, 2 throughout.  Display letters t, p, g are a
presentation device used by boundary signatures, where the canonical form
renames colors in order of first appearance (first seen becomes t).

A coloring is *valid* when every fully colored triangular face carries three
distinct colors; non-triangular faces are never constrained.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .embedding import Embedding, FaceCycle, dual_graph, is_triangulation, trace_faces
from .errors import (
    BadParity,
    ColoringIncomplete,
    ImproperVertexColoring,
    MixedTriple,
    NotTriangulation,
    SeedNotInColors,
)

COLORS = (0, 1, 2)
LETTERS = "tpg"


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment edge id -> color, indexed positionally."""

    colors: tuple[int, ...]

    def __post_init__(self):
        if any(c not in COLORS for c in self.colors):
            raise ValueError("colors must be 0, 1 or 2")

    def __getitem__(self, e: int) -> int:
        return self.colors[e]

    def __len__(self) -> int:
        return len(self.colors)

    def recolored(self, changes: Mapping[int, int]) -> "EdgeColoring":
        cs = list(self.colors)
        for e, c in changes.items():
            cs[e] = c
        return EdgeColoring(tuple(cs))

    def as_partial(self) -> "PartialColoring":
        return PartialColoring(self.colors)


@dataclass(frozen=True)
class PartialColoring:
    """Partial assignment edge id -> color; None marks uncolored edges."""

    colors: tuple[int | None, ...]

    def __post_init__(self):
        if any(c is not None and c not in COLORS for c in self.colors):
            raise ValueError("colors must be 0, 1, 2 or None")

    def __getitem__(self, e: int) -> int | None:
        return self.colors[e]

    def __len__(self) -> int:
        return len(self.colors)

    @property
    def colored_edges(self) -> tuple[int, ...]:
        return tuple(e for e, c in enumerate(self.colors) if c is not None)

    @property
    def is_total(self) -> bool:
        return all(c is not None for c in self.colors)

    def to_total(self) -> EdgeColoring:
        if not self.is_total:
            raise ColoringIncomplete("partial coloring has uncolored edges")
        return EdgeColoring(self.colors)  # type: ignore[arg-type]

    def recolored(self, changes: Mapping[int, int | None]) -> "PartialColoring":
        cs = list(self.colors)
        for e, c in changes.items():
            cs[e] = c
        return PartialColoring(tuple(cs))

    @staticmethod
    def empty(num_edges: int) -> "PartialColoring":
        return PartialColoring((None,) * num_edges)

    @staticmethod
    def from_dict(num_edges: int, mapping: Mapping[int, int]) -> "PartialColoring":
        cs: list[int | None] = [None] * num_edges
        for e, c in mapping.items():
            cs[e] = c
        return PartialColoring(tuple(cs))


# -- verification --------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    status: str  # "pass" | "fail"
    violations: tuple[tuple[int, tuple[int | None, ...]], ...]  # (face, colors)
    coverage: dict

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status,
                "violations": [
                    {"face": f, "colors": list(cs)} for f, cs in self.violations
                ],
                "coverage": self.coverage,
            }
        )


def verify_grunbaum(emb: Embedding, coloring: EdgeColoring) -> VerificationReport:
    """Every facial triangle must see three distinct colors; emb must be a
    triangulation and the coloring total."""
    if not is_triangulation(emb):
        raise NotTriangulation("verify_grunbaum requires a triangulation")
    if len(coloring) != emb.num_edges:
        raise ColoringIncomplete(
            f"coloring covers {len(coloring)} of {emb.num_edges} edges"
        )
    return verify_partial(emb, coloring)


def verify_partial(
    emb: Embedding, coloring: EdgeColoring | PartialColoring
) -> VerificationReport:
    """Check only fully colored triangular faces, of a total or a partial
    coloring; everything else passes.  This is the package's one face check."""
    colors = coloring.colors
    violations = []
    checked = 0
    for f, darts in enumerate(trace_faces(emb).faces):
        if len(darts) != 3:
            continue
        d0, d1, d2 = darts
        a, b, c = colors[d0 >> 1], colors[d1 >> 1], colors[d2 >> 1]
        if a is None or b is None or c is None:
            continue
        checked += 1
        if a == b or b == c or a == c:
            violations.append((f, (a, b, c)))
    return VerificationReport(
        "pass" if not violations else "fail",
        tuple(violations),
        {
            "colored_edges": len(colors) - colors.count(None),
            "total_edges": emb.num_edges,
            "faces_checked": checked,
        },
    )


# -- the lift from a vertex 4-coloring ------------------------------------------

# The four vertex colors form the Klein group under XOR; the three nonzero
# elements are identified with the edge colors.
_XOR_TO_COLOR = {1: 0, 2: 1, 3: 2}


def tait_lift(emb: Embedding, vertex_colors: Sequence[int]) -> EdgeColoring:
    """Derive an edge coloring from a proper vertex coloring with colors 0..3.

    Edge {u, v} receives the color identified with vc(u) XOR vc(v).  Distinct
    a, b, c give pairwise distinct nonzero a^b, b^c, a^c, so any triangle
    whose corners see three vertex colors sees three edge colors, and a
    proper coloring guarantees exactly that.
    """
    if len(vertex_colors) != emb.num_vertices:
        raise ImproperVertexColoring("wrong number of vertex colors")
    if any(c not in (0, 1, 2, 3) for c in vertex_colors):
        raise ImproperVertexColoring("vertex colors must be in 0..3")
    out = []
    for u, v in emb.edges:
        x = vertex_colors[u] ^ vertex_colors[v]
        if x == 0:
            raise ImproperVertexColoring(f"edge {u}-{v} joins equal colors")
        out.append(_XOR_TO_COLOR[x])
    return EdgeColoring(tuple(out))


# -- Kempe chains on the dual ----------------------------------------------------


@dataclass(frozen=True)
class KempeChain:
    """Component of a two-color subgraph in the dual, as host edge ids."""

    edges: frozenset[int]
    colors: frozenset[int]


def kempe_chain(
    emb: Embedding,
    coloring: EdgeColoring | PartialColoring,
    seed_edge: int,
    colors: Iterable[int],
    exclude_faces: Iterable[int] = (),
) -> KempeChain:
    """Connected component, under dual adjacency, of the edges colored with
    either chain color, containing the seed edge.

    ``exclude_faces`` removes dual nodes (used to drop the faces across a
    disk's boundary, so chains become boundary-to-boundary paths).
    """
    pair = frozenset(colors)
    if len(pair) != 2 or not pair <= set(COLORS):
        raise SeedNotInColors("chain needs two distinct colors")
    if coloring[seed_edge] not in pair:
        raise SeedNotInColors(
            f"seed edge {seed_edge} has color {coloring[seed_edge]}, not in {sorted(pair)}"
        )
    dual = dual_graph(emb)
    dropped = set(exclude_faces)
    component = {seed_edge}
    stack = [seed_edge]
    while stack:
        e = stack.pop()
        for f in dual.edge_sides[e]:
            if f in dropped:
                continue
            for _, e2 in dual.adjacency[f]:
                if e2 not in component and coloring[e2] in pair:
                    component.add(e2)
                    stack.append(e2)
    return KempeChain(frozenset(component), pair)


def kempe_change(
    emb: Embedding,
    coloring: EdgeColoring | PartialColoring,
    seed_edge: int,
    colors: Iterable[int],
    exclude_faces: Iterable[int] = (),
):
    """Swap the two colors along the Kempe chain at the seed edge.

    Doing the same change twice restores the original coloring, and triangles
    keep three distinct colors because any triangle meeting the chain meets
    it in both chain colors.
    """
    chain = kempe_chain(emb, coloring, seed_edge, colors, exclude_faces)
    a, b = sorted(chain.colors)
    swap = {a: b, b: a}
    changes = {e: swap[coloring[e]] for e in chain.edges}
    return coloring.recolored(changes)


# -- boundary signatures ----------------------------------------------------------


def canonical_letters(colors: Sequence[int]) -> str:
    """Rename colors in order of first appearance: first seen -> t, next -> p,
    then g."""
    seen: dict[int, str] = {}
    out = []
    for c in colors:
        if c not in seen:
            seen[c] = LETTERS[len(seen)]
        out.append(seen[c])
    return "".join(out)


@dataclass(frozen=True)
class SquareSignature:
    kind: str  # "A" | "B1" | "B2" | "C"
    pattern: str  # canonical letters as read from the cycle's fixed start


_SQUARE_KINDS = {"tptp": "A", "tttt": "C", "ttpp": "B1", "tppt": "B2"}


def classify_square(colors: Sequence[int]) -> SquareSignature:
    """Classify a colored 4-cycle relative to its fixed start and orientation.

    A (alternating) and C (constant) are rotation-invariant; B1 and B2 swap
    under rotating the start by one step or reversing orientation, which is
    why callers must read the cycle with the catalog's fixed labeling.
    """
    if len(colors) != 4:
        raise ValueError("square signature needs exactly four colors")
    if len(set(colors)) == 3:
        raise MixedTriple(f"three distinct colors on a square: {tuple(colors)}")
    pattern = canonical_letters(colors)
    kind = _SQUARE_KINDS.get(pattern)
    if kind is None:
        raise BadParity(f"square pattern {pattern} has odd color counts")
    return SquareSignature(kind, pattern)


@dataclass(frozen=True)
class PentagonSignature:
    """Unordered positions (1-based) of the two singleton colors on a 5-cycle."""

    positions: frozenset[int]

    def __str__(self) -> str:
        j, k = sorted(self.positions)
        return f"{j};{k}"


def classify_pentagon(colors: Sequence[int]) -> PentagonSignature:
    """One color must appear three times and the other two once each; the
    signature is the unordered pair of singleton positions, counted from 1."""
    if len(colors) != 5:
        raise ValueError("pentagon signature needs exactly five colors")
    counts = {c: 0 for c in COLORS}
    for c in colors:
        counts[c] += 1
    if sorted(counts.values()) != [1, 1, 3]:
        raise BadParity(f"pentagon multiplicities {tuple(counts.values())} are not (3,1,1)")
    singles = [i + 1 for i, c in enumerate(colors) if counts[c] == 1]
    return PentagonSignature(frozenset(singles))


HEXAGON_CLASSES = (
    "pppppp",
    "ttpppp",
    "tptppp",
    "tpptpp",
    "ttppgg",
    "ttpgpg",
    "tpgtgp",
    "tpgtpg",
    "tpptgg",
)


@dataclass(frozen=True)
class HexagonClass:
    """Dihedral-and-recoloring class of a colored 6-cycle, with a witness.

    The classes are closed under reflection, but a rotation alone always
    reaches the class name: ``rotation`` maps positions of the observed
    cycle onto the canonical string, canonical position i being observed
    position rotation + i (mod 6).
    """

    name: str
    rotation: int

    def observed_position(self, canonical_pos: int) -> int:
        return (self.rotation + canonical_pos) % 6


def classify_hexagon(colors: Sequence[int]) -> HexagonClass:
    """Match a colored 6-cycle to one of the nine parity-legal classes, up to
    rotation, reflection and renaming of colors."""
    if len(colors) != 6:
        raise ValueError("hexagon class needs exactly six colors")
    counts = {c: 0 for c in COLORS}
    for c in colors:
        counts[c] += 1
    if any(v % 2 for v in counts.values()):
        raise BadParity(f"hexagon multiplicities {tuple(counts.values())} are not all even")
    for rot in range(6):
        pattern = canonical_letters([colors[(rot + i) % 6] for i in range(6)])
        if pattern == "tttttt":
            pattern = "pppppp"  # the constant class goes by its p name
        if pattern in HEXAGON_CLASSES:
            return HexagonClass(pattern, rot)
    raise BadParity(f"no class matches hexagon {tuple(colors)}")  # pragma: no cover


def parity_check(
    cycle: FaceCycle, coloring: EdgeColoring | PartialColoring
) -> bool:
    """Each color must appear with the parity of the cycle length: evenly on
    even cycles, oddly on odd ones."""
    n = cycle.length
    counts = {c: 0 for c in COLORS}
    for e in cycle.edges:
        c = coloring[e]
        if c is None:
            raise ColoringIncomplete(f"cycle edge {e} is uncolored")
        counts[c] += 1
    return all(v % 2 == n % 2 for v in counts.values())
