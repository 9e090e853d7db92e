"""The four workloads: seeded inputs, each checked as it is built.

Each ``build_*`` function returns a list of :class:`Input`.  One round of
a run solves every input once, in list order.  Sizes are stratified (slot i of n draws
its size from the i-th of n equal bands), so that two seeds give inputs of
the same make-up and differ only in the details a seed draws.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import gen
from check import CheckError, check_contains, check_triangulation

WORKLOADS = ("grid", "lift", "critical", "exact")


@dataclass
class Input:
    label: str      # base and parameters, for the per-operation trace
    rot: list       # rotations, counterclockwise
    genus: int
    text: str = ""  # the .emb text handed to the program

    @property
    def size(self) -> int:
        return len(self.rot)


def emb_text(rot) -> str:
    lines = [f"vertices: {len(rot)}\n"]
    lines.extend(f"{v}: {' '.join(map(str, r))}\n" for v, r in enumerate(rot))
    return "".join(lines)


def band(rng, i, n, lo, hi):
    """A size drawn from the i-th of n equal bands of [lo, hi]."""
    return lo + int((i + rng.random()) * (hi - lo) / n)


# -- grid ---------------------------------------------------------------------

GRID_VERTICES = (9, 24)


def build_grid(rng, grunbaum):
    """Every valid T(r, c, t) with 9 <= r*c <= 24, unlabeled.

    All parameters are kept, not a sample: recognition cost swings by a
    factor of 100 between grids of one size (it depends on how early a
    matching rows/twist pair turns up), so a random sample of parameters
    moved the median and the tail by 15-45% between seeds.  The seed draws
    the vertex ids, the start of every rotation, the mirroring and the order.
    """
    cat, errors = grunbaum.catalog, grunbaum.errors
    out = []
    lo, hi = GRID_VERTICES
    for (r, c, t), base in gen.valid_grids(cat, errors, range(lo, hi + 1)):
        rot = gen.relabel(base, rng, rng.random() < 0.5)
        if any(len(nbrs) != 6 for nbrs in rot):
            raise CheckError(f"T({r},{c},{t}) is not six-regular")
        out.append(Input(f"T({r},{c},{t})", rot, 1))
    rng.shuffle(out)
    return out


# -- lift ---------------------------------------------------------------------

LIFT_OPS = 100
LIFT_VERTICES = (150, 650)


def build_lift(rng, grunbaum):
    """Stellated icosahedra, octahedra and 3-colorable torus grids.

    Stellation keeps a graph 4-colorable (the new vertex takes the color
    its triangle lacks), so every input takes the TAIT route.  Sizes stay
    well below 1000 vertices, where the vertex-coloring search, which
    recurses once per vertex, hits the interpreter's recursion limit.
    """
    cat, errors = grunbaum.catalog, grunbaum.errors
    grids = gen.valid_grids(cat, errors, range(9, 37), gen.three_colorable)
    out = []
    lo, hi = LIFT_VERTICES
    for i in range(LIFT_OPS):
        kind = i % 3
        if kind == 2:
            (r, c, t), base = rng.choice(grids)
            rot = [list(nbrs) for nbrs in base]
            gen.check_grid_three_coloring(rot, c)
            label, genus = f"T({r},{c},{t})", 1
        else:
            label = ("icosahedron", "octahedron")[kind]
            rot = gen.rotations(cat.catalog_embedding(label))
            genus = 0
        steps = band(rng, i, LIFT_OPS, lo, hi) - len(rot)
        gen.stellate(rot, rng, gen.triangles_of(rot), steps)
        out.append(Input(f"{label}+{steps}", rot, genus))
    return out


# -- critical -----------------------------------------------------------------

CRITICAL_FRAMES = ("k7", "k6-444a", "k6-444b", "k6-54", "k6-6",
                   "c11cubed", "h7k2", "c3c5")
CRITICAL_PER_FRAME = 20
CRITICAL_STEPS = (1, 50)
CRITICAL_FILL_EXTRA = 1


def critical_frame(grunbaum, name):
    cat = grunbaum.catalog
    if name == "c11cubed":
        return gen.rotations(cat.gen_altshuler(1, 11, 2).embedding)
    return gen.rotations(cat.catalog_embedding(name))


def build_critical(rng, grunbaum):
    """Torus hosts of K7 and of each critical six-chromatic graph.

    Each non-triangular face of the frame gets a small chordless disk; the
    stellations then go only into the frame's triangular faces, so the
    square disks stay small (large ones make the square-type machinery
    run into its budget).
    """
    out = []
    lo, hi = CRITICAL_STEPS
    for j in range(CRITICAL_PER_FRAME):
        for name in CRITICAL_FRAMES:
            frame = critical_frame(grunbaum, name)
            rot = [list(r) for r in frame]
            triangles = []
            for walk in gen.faces(rot):
                if len(walk) == 3:
                    triangles.append(walk)
                else:
                    gen.fill_face(rot, rng, walk, rng.randrange(CRITICAL_FILL_EXTRA + 1))
            steps = band(rng, j, CRITICAL_PER_FRAME, lo, hi)
            gen.stellate(rot, rng, triangles, steps)
            check_contains(rot, frame)
            out.append(Input(f"{name}+{steps}", rot, 1))
    return out


# -- exact --------------------------------------------------------------------

EXACT_BASES = ((1, 9, 2), (3, 3, 1), (1, 10, 2), (2, 5, 1), (1, 13, 2), (2, 7, 1),
               (3, 5, 3), (3, 6, 1), (5, 5, 2))
EXACT_OPS = 100
EXACT_STEPS = (1, 12)


def build_exact(rng, grunbaum):
    """Stellated five-chromatic grids: nothing structural applies, so the
    pipeline falls back to exhaustive search.  Stellation keeps the
    chromatic number at five (the new vertex has three neighbours)."""
    cat = grunbaum.catalog
    out = []
    lo, hi = EXACT_STEPS
    for i in range(EXACT_OPS):
        r, c, t = EXACT_BASES[i % len(EXACT_BASES)]
        rot = gen.rotations(cat.gen_altshuler(r, c, t).embedding)
        steps = band(rng, i, EXACT_OPS, lo, hi)
        gen.stellate(rot, rng, gen.triangles_of(rot), steps)
        out.append(Input(f"T({r},{c},{t})+{steps}", rot, 1))
    return out


WORKLOAD_INPUTS = {"grid": build_grid, "lift": build_lift,
                   "critical": build_critical, "exact": build_exact}


def build(name, seed, grunbaum):
    """The workload's inputs for this seed, checked and serialized."""
    rng = random.Random(f"{name}:{seed}")
    inputs = WORKLOAD_INPUTS[name](rng, grunbaum)
    for inp in inputs:
        check_triangulation(inp.rot, inp.genus)
        inp.text = emb_text(inp.rot)
    return inputs
