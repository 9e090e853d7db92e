"""Deterministic instance corpus shared by the test modules.

Every instance records the method the dispatch is expected to report.
Building is cached per process; everything derives from fixed seeds.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from grunbaum.catalog import (
    enumerate_disks,
    gen_altshuler,
    gen_k6,
    gen_named,
    random_refinement,
    triangulate_faces,
)
from grunbaum.chroma import chromatic_number
from grunbaum.embedding import (
    Embedding,
    genus,
    is_triangulation,
    splice_disk,
    trace_faces,
)
from grunbaum.errors import NotSimple
from grunbaum.solver import Budget


@dataclass(frozen=True)
class Instance:
    name: str
    embedding: object  # Embedding or GridTriangulation
    expected_method: str
    chi_class: str  # "le4", "6", "7", "5", "any"

    @property
    def graph(self) -> Embedding:
        emb = getattr(self.embedding, "embedding", self.embedding)
        return emb


def chordfree_disks(boundary_len: int, max_interior: int, need_interior: bool = True):
    """Disks whose only boundary-boundary edges form the boundary cycle."""
    out = []
    for d in enumerate_disks(boundary_len, max_interior):
        e = d.embedding
        nb = len(d.boundary_darts)
        bset = set(range(nb))
        cycle_edges = set(d.boundary_edges)
        chord = any(
            set(e.edge_ends(x)) <= bset and x not in cycle_edges
            for x in range(e.num_edges)
        )
        if chord or (need_interior and d.interior_vertex_count() == 0):
            continue
        out.append(d)
    return out


def nondominating_hexagon_disks(max_interior: int):
    """Hexagon fillers with no interior vertex adjacent to all six corners."""
    out = []
    for d in chordfree_disks(6, max_interior):
        e = d.embedding
        bset = set(range(6))
        if any(bset <= set(e.rotation(v)) for v in range(6, e.num_vertices)):
            continue
        out.append(d)
    return out


def _nontri_faces(emb: Embedding):
    fs = trace_faces(emb)
    return [f for f in range(fs.num_faces) if fs.size(f) > 3]


def _filled_variants(base: Embedding, fillers_by_size: dict, limit: int):
    """Triangulations of ``base`` obtained by splicing disks into big faces."""
    outs = []
    frontier = [base]
    while frontier and len(outs) < limit:
        emb = frontier.pop(0)
        big = _nontri_faces(emb)
        if not big:
            outs.append(emb)
            continue
        f = big[0]
        size = len(trace_faces(emb).faces[f])
        for disk in fillers_by_size.get(size, []):
            frontier.append(splice_disk(emb, f, disk))
    return outs[:limit]


@lru_cache(maxsize=1)
def valid_grids():
    out = []
    for r in range(1, 7):
        for c in range(1, 7):
            for s in range(c):
                try:
                    out.append(((r, c, s), gen_altshuler(r, c, s)))
                except NotSimple:
                    continue
    return out


@lru_cache(maxsize=1)
def grid_chromatic():
    return {
        params: chromatic_number(g.embedding.adjacency(), budget=Budget(seconds=120))
        for params, g in valid_grids()
    }


@lru_cache(maxsize=1)
def toroidal_corpus() -> tuple[Instance, ...]:
    instances: list[Instance] = []
    chis = grid_chromatic()

    # labeled grids (skipping the five-chromatic ones per the corpus contract)
    for params, grid in valid_grids():
        chi = chis[params]
        if chi == 5:
            continue
        r, c, s = params
        instances.append(
            Instance(f"T({r},{c},{s})", grid, "ALTSHULER", "le4" if chi <= 4 else str(chi))
        )

    # refinements of 4-colorable grids, unlabeled, go through the lift
    refin_bases = [(p, g) for p, g in valid_grids() if chis[p] <= 4][:20]
    for (r, c, s), grid in refin_bases:
        base = grid.embedding
        for seed in (1, 2):
            steps = min(40 - base.num_vertices, 8 + seed)
            if steps <= 0:
                continue
            g = random_refinement(base, steps, seed=seed)
            instances.append(
                Instance(f"T({r},{c},{s})+ref{seed}", g, "TAIT", "le4")
            )

    sq_fill = chordfree_disks(4, 2)
    pent_fill = chordfree_disks(5, 2)
    hex_fill = nondominating_hexagon_disks(3)

    # hosts of each K6 embedding
    for variant, method in (
        ("444A", "CRITICAL(444A)"),
        ("444B", "CRITICAL(444B)"),
        ("54", "CRITICAL(54)"),
    ):
        base = gen_k6(variant)
        fills = _filled_variants(base, {4: sq_fill[:2], 5: pent_fill[:2]}, limit=4)
        for i, filled in enumerate(fills):
            for seed in (1, 2):
                cap = 40 - filled.num_vertices
                g = random_refinement(filled, min(cap, 6 * seed), seed=seed)
                instances.append(
                    Instance(f"K6-{variant}-f{i}-r{seed}", g, method, "6")
                )
    base6 = gen_k6("6")
    fills6 = _filled_variants(base6, {6: hex_fill[:3]}, limit=3)
    for i, filled in enumerate(fills6):
        for seed in (1, 2):
            g = random_refinement(filled, min(40 - filled.num_vertices, 6 * seed), seed=seed)
            instances.append(Instance(f"K6-6-f{i}-r{seed}", g, "CRITICAL(6)", "6"))

    # hosts of the other critical graphs
    for name, method in (("H7+K2", "CRITICAL(H7K2)"), ("C3+C5", "CRITICAL(C3C5)")):
        base = triangulate_faces(gen_named(name))
        for seed in (1, 2, 3, 4, 5):
            g = random_refinement(base, min(40 - base.num_vertices, 5 + seed), seed=seed)
            instances.append(Instance(f"{name}-r{seed}", g, method, "6"))
    c11 = gen_named("C11^3").embedding
    for seed in (1, 2, 3, 4, 5, 6):
        g = random_refinement(c11, min(29, 4 + 5 * seed), seed=seed)
        instances.append(Instance(f"C11^3-r{seed}", g, "CRITICAL(C11CUBED)", "6"))

    # hosts of K7
    k7 = gen_named("K7")
    for seed in (1, 2, 3, 4, 5, 6):
        g = random_refinement(k7, min(33, 3 + 6 * seed), seed=seed)
        instances.append(Instance(f"K7-r{seed}", g, "K7", "7"))

    # more grid refinements to pass the corpus-size bar
    for (r, c, s), grid in [(p, g) for p, g in valid_grids() if chis[p] <= 4][20:]:
        base = grid.embedding
        steps = min(40 - base.num_vertices, 7)
        if steps <= 0:
            continue
        g = random_refinement(base, steps, seed=5)
        instances.append(Instance(f"T({r},{c},{s})+ref5", g, "TAIT", "le4"))

    return tuple(instances)


@lru_cache(maxsize=1)
def five_chromatic_instances() -> tuple[Instance, ...]:
    """Refinements of five-chromatic grids; not part of the main corpus."""
    out = []
    chis = grid_chromatic()
    picks = [(p, g) for p, g in valid_grids() if chis[p] == 5][:3]
    for (r, c, s), grid in picks:
        g = random_refinement(grid.embedding, 3, seed=1)
        out.append(Instance(f"chi5-T({r},{c},{s})+ref", g, "EXACT", "5"))
    return tuple(out)


@lru_cache(maxsize=1)
def planar_corpus() -> tuple[Instance, ...]:
    out = []
    oct_ = gen_named("octahedron")
    ico = gen_named("icosahedron")
    out.append(Instance("octahedron", oct_, "TAIT", "le4"))
    out.append(Instance("icosahedron", ico, "TAIT", "le4"))
    k4 = Embedding([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    out.append(Instance("K4", k4, "TAIT", "le4"))
    for seed in (1, 2, 3):
        out.append(
            Instance(f"K4+ref{seed}", random_refinement(k4, 3 + seed, seed=seed),
                     "TAIT", "le4")
        )
        out.append(
            Instance(f"oct+ref{seed}", random_refinement(oct_, seed, seed=seed),
                     "TAIT", "le4")
        )
    for inst in out:
        assert genus(inst.graph) == 0 and is_triangulation(inst.graph)
    return tuple(out)


def _rotation_code(rotations, start: int, first: int, step: int) -> tuple[int, ...]:
    """The rotations relabeled in BFS order from the dart start -> first,
    each given as its degree, then its neighbours read from the
    lowest-labeled one in direction ``step``."""
    label = {start: 0, first: 1}
    order = [start, first]
    code: list[int] = []
    for v in order:
        rot = rotations[v]
        i = rot.index(min((w for w in rot if w in label), key=label.get))
        code.append(len(rot))
        for k in range(len(rot)):
            w = rot[(i + step * k) % len(rot)]
            if w not in label:
                label[w] = len(order)
                order.append(w)
            code.append(label[w])
    return tuple(code)


def _canonical(rotations) -> tuple[int, ...]:
    """The least rotation code, in both orientations, over the darts v -> w
    that maximize (weight of v, weight of w), a vertex's weight being its
    degree and the sum of its neighbours' degrees.  Isomorphisms and mirror
    images keep weights, hence that set of darts, so the code is equal
    exactly for isomorphic or mirrored embeddings."""
    deg = [len(rot) for rot in rotations]
    weight = [(deg[v], sum(deg[w] for w in rot)) for v, rot in enumerate(rotations)]
    best = max((weight[v], weight[w]) for v, rot in enumerate(rotations) for w in rot)
    return min(_rotation_code(rotations, v, w, step)
               for v, rot in enumerate(rotations) for w in rot
               if (weight[v], weight[w]) == best for step in (1, -1))


def _flip(rotations, u: int, v: int):
    """The rotations with edge uv flipped to the other diagonal wx of its two
    triangles, or None when wx is already an edge."""
    ru = rotations[u]
    i = ru.index(v)
    w, x = ru[i - 1], ru[(i + 1) % len(ru)]
    if x in rotations[w]:
        return None
    out = [list(r) for r in rotations]
    out[u].remove(v)
    out[v].remove(u)
    for a, b in ((w, x), (x, w)):
        ra = out[a]
        j = next(j for j in range(len(ra)) if {ra[j - 1], ra[j]} == {u, v})
        ra.insert(j, b)
    return tuple(map(tuple, out))


@lru_cache(maxsize=None)
def torus_census(n: int) -> tuple[Embedding, ...]:
    """Every triangulation of the torus with n vertices, once up to
    isomorphism and mirror image: a breadth-first search over diagonal
    flips from the grid T(1, n, 2), which reaches them all (Dewdney 1973)."""
    start = gen_altshuler(1, n, 2).embedding.rotations
    seen = {_canonical(start)}
    found = [start]
    queue = deque(found)
    while queue:
        rotations = queue.popleft()
        for u, rot in enumerate(rotations):
            for v in rot:
                if u > v:
                    continue
                flipped = _flip(rotations, u, v)
                if flipped is None:
                    continue
                key = _canonical(flipped)
                if key not in seen:
                    seen.add(key)
                    found.append(flipped)
                    queue.append(flipped)
    return tuple(Embedding(r) for r in found)
