import json
import random
from itertools import product

import pytest

from corpus import five_chromatic_instances, toroidal_corpus
from grunbaum.catalog import (
    catalog_embedding,
    enumerate_disks,
    gen_altshuler,
    gen_named,
    random_refinement,
    triangulate_faces,
)
from grunbaum.coloring import EdgeColoring, PartialColoring, verify_grunbaum, verify_partial
from grunbaum.embedding import build_embedding, trace_faces
from grunbaum.errors import BudgetExceeded
from grunbaum.solver import (
    FOUND,
    Budget,
    SolveReport,
    _greedy_clique,
    color_faces,
    color_vertices_k,
    count_grunbaum_colorings,
    four_color_vertices,
    peel_order,
    solve_exact,
)

K4 = build_embedding([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


def brute_force_count(emb):
    fs = trace_faces(emb)
    tris = [fs.face_edges(f) for f in range(fs.num_faces) if fs.size(f) == 3]
    n = 0
    for assign in product((0, 1, 2), repeat=emb.num_edges):
        if all(len({assign[e] for e in t}) == 3 for t in tris):
            n += 1
    return n


def test_k4_count_matches_brute_force():
    # frozen value: 729 raw assignments, 6 survive the four face constraints
    assert brute_force_count(K4) == 6
    assert count_grunbaum_colorings(K4) == 6


def test_report_json_lists_every_edge_once():
    report = solve_exact(K4)
    doc = json.loads(report.to_json(K4))
    assert doc["coloring"] == [[u, v, c] for (u, v), c in zip(K4.edges, report.coloring.colors)]
    for colors in (report.coloring.colors[:-1], report.coloring.colors + (0,)):
        with pytest.raises(ValueError):
            SolveReport(FOUND, EdgeColoring(colors)).to_json(K4)


def test_octahedron_find():
    emb = gen_named("octahedron")
    report = solve_exact(emb)
    assert report.found
    assert verify_grunbaum(emb, report.coloring).ok


def test_precolored_conflict_is_unsat():
    fs = trace_faces(K4)
    e0, e1, e2 = fs.face_edges(0)
    fixed = PartialColoring.from_dict(K4.num_edges, {e0: 0, e1: 0, e2: 1})
    assert solve_exact(K4, fixed=fixed).status == "UNSAT"
    # every mode finds the clash before its first search node
    budget = Budget(nodes=0)
    assert solve_exact(K4, fixed=fixed, budget=budget).status == "UNSAT"
    assert solve_exact(K4, fixed=fixed, mode="count", budget=budget) == 0
    assert list(solve_exact(K4, fixed=fixed, mode="enumerate", budget=budget)) == []


def test_fixed_edges_respected():
    fixed = PartialColoring.from_dict(K4.num_edges, {0: 2})
    report = solve_exact(K4, fixed=fixed)
    assert report.found and report.coloring[0] == 2


def test_enumeration_is_exhaustive_and_distinct():
    sols = list(solve_exact(K4, mode="enumerate"))
    assert len(sols) == 6
    assert len({s.colors for s in sols}) == 6
    for s in sols:
        assert verify_grunbaum(K4, s).ok


def test_budget_exhaustion_reports_unknown():
    emb = gen_named("icosahedron")
    report = solve_exact(emb, budget=Budget(nodes=3))
    assert report.status == "UNKNOWN"


def test_split_solve_agrees():
    k7 = gen_named("K7")
    assert count_grunbaum_colorings(k7) == 48


def brute_force_chromatic_number(adj):
    """Smallest k for which some k-coloring in itertools.product is proper."""
    edges = [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]
    k = 0
    while not any(
        all(c[u] != c[v] for u, v in edges) for c in product(range(k), repeat=len(adj))
    ):
        k += 1
    return k


def random_graph(rng, n):
    p = rng.uniform(0.2, 0.9)
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def random_graph_with_low_degrees(rng, n, k):
    """A random part of 4-7 vertices, then vertices joined to 1..k-1 earlier
    ones, so that many have degree below k and peeling them cascades."""
    m = rng.randint(4, 7)
    adj = random_graph(rng, m) + [set() for _ in range(n - m)]
    for v in range(m, n):
        for w in rng.sample(range(v), rng.randint(1, max(1, k - 1))):
            adj[v].add(w)
            adj[w].add(v)
    return adj


def brute_force_colorable(adj, k, pins=()):
    """Whether a proper k-coloring with colors[v] == pins[v] exists, by plain
    backtracking over the vertices in id order."""
    pins = dict(pins)
    colors = [-1] * len(adj)

    def extend(v):
        if v == len(adj):
            return True
        for c in [c for c in range(k) if pins.get(v, c) == c]:
            if all(colors[w] != c for w in adj[v]):
                colors[v] = c
                if extend(v + 1):
                    return True
        colors[v] = -1
        return False

    return extend(0)


def random_maximal_clique(rng, adj, start=None):
    clique = [rng.randrange(len(adj)) if start is None else start]
    cands = set(adj[clique[0]])
    while cands:
        v = rng.choice(sorted(cands))
        clique.append(v)
        cands &= adj[v]
    return clique


def assert_proper(adj, colors, k):
    assert len(colors) == len(adj)
    assert all(0 <= c < k for c in colors)
    for v, nbrs in enumerate(adj):
        assert all(colors[v] != colors[w] for w in nbrs)


def test_four_coloring_small_cases():
    oct_adj = gen_named("octahedron").adjacency()
    colors = four_color_vertices(oct_adj)
    assert colors is not None
    assert max(colors) <= 2  # the octahedron is 3-chromatic
    for v, nbrs in enumerate(oct_adj):
        assert all(colors[v] != colors[w] for w in nbrs)

    k4 = K4.adjacency()
    colors = four_color_vertices(k4)
    assert sorted(colors) == [0, 1, 2, 3]

    k5 = [set(range(5)) - {v} for v in range(5)]
    assert four_color_vertices(k5) is None


def test_k_coloring_exhaustive_negative():
    k6 = [set(range(6)) - {v} for v in range(6)]
    assert color_vertices_k(k6, 5) is None
    assert color_vertices_k(k6, 6) is not None

    # brute-force oracle: None exactly when no proper k-coloring exists,
    # with the default greedy clique, empty pins, and another maximal clique
    # pinned to 0, 1, ...
    rng = random.Random(2024)
    for _ in range(60):
        adj = random_graph(rng, rng.randint(1, 8))
        chi = brute_force_chromatic_number(adj)
        for pins in (None, {}, clique_pins(random_maximal_clique(rng, adj))):
            for k in range(2, 6):
                colors = color_vertices_k(adj, k, pins=pins)
                if k < chi:
                    assert colors is None, (adj, k, pins)
                else:
                    assert colors is not None, (adj, k, pins)
                    assert_proper(adj, colors, k)

    # larger graphs in which many vertices fall outside the k-core, pinned
    # also along a clique through a vertex of degree below k, which is never
    # peeled: each pinned vertex keeps its color
    for _ in range(60):
        n = rng.randint(9, 12)
        for k in range(2, 6):
            adj = random_graph_with_low_degrees(rng, n, k)
            low = rng.choice([v for v in range(n) if len(adj[v]) < k])
            colorable = brute_force_colorable(adj, k)
            for pins in (None, {}, clique_pins(random_maximal_clique(rng, adj)),
                         clique_pins(random_maximal_clique(rng, adj, low))):
                colors = color_vertices_k(adj, k, pins=pins)
                assert (colors is not None) == colorable, (adj, k, pins)
                if colors is not None:
                    assert_proper(adj, colors, k)
                    assert all(colors[v] == c for v, c in (pins or {}).items())


def clique_pins(clique):
    """Pins that give a clique's vertices colors 0, 1, ... in order."""
    return {v: i for i, v in enumerate(clique)}


def assert_agrees_with_brute_force(adj, k, pins):
    """color_vertices_k finds a coloring exactly when the oracle does, and
    what it finds is proper and keeps every pin; returns whether it found."""
    colors = color_vertices_k(adj, k, pins=pins)
    assert (colors is not None) == brute_force_colorable(adj, k, pins), (adj, k, pins)
    if colors is not None:
        assert_proper(adj, colors, k)
        assert all(colors[v] == c for v, c in pins.items())
    return colors is not None


def test_pinned_coloring_agrees_with_brute_force():
    rng = random.Random(16)
    found = 0
    for _ in range(80):
        n = rng.randint(9, 12)
        k = rng.randint(3, 5)
        adj = random_graph_with_low_degrees(rng, n, k)
        pins = {v: rng.randrange(k) for v in rng.sample(range(n), rng.randint(1, 4))}
        found += assert_agrees_with_brute_force(adj, k, pins)
    assert 0 < found < 80


def test_pins_of_high_colors_agree_with_brute_force():
    # pins of the top colors only: the symmetry bound starts at the highest
    # pinned color, so the colors below it stay open to every vertex
    rng = random.Random(17)
    found = 0
    for _ in range(300):
        n = rng.randint(5, 10)
        k = rng.randint(3, 5)
        adj = random_graph(rng, n)
        pinned = rng.sample(range(n), rng.randint(1, 3))
        found += assert_agrees_with_brute_force(adj, k, dict.fromkeys(pinned, k - 1))
        found += assert_agrees_with_brute_force(
            adj, k, {v: rng.choice((k - 2, k - 1)) for v in pinned})
    assert 0 < found < 600


def test_invalid_pins_cost_no_node():
    # adjacent pins of one color, and pins outside 0..k-1, have no coloring,
    # and the engine says so before its first node
    rng = random.Random(18)
    k4 = [set(range(4)) - {v} for v in range(4)]
    cases = [(k4, 4, {0: 1, 1: 1}), (k4, 4, {2: 4}), (k4, 4, {3: -1}),
             (k4, 5, {0: 0, 3: 0})]
    for _ in range(40):
        k = rng.randint(2, 5)
        adj = random_graph_with_low_degrees(rng, rng.randint(5, 10), k)
        u = rng.choice([v for v in range(len(adj)) if adj[v]])
        w = rng.choice(sorted(adj[u]))
        cases.append((adj, k, {u: k - 1, w: k - 1}))
        cases.append((adj, k, {u: rng.choice((-1, k, k + 1))}))
    for adj, k, pins in cases:
        assert not brute_force_colorable(adj, k, pins), (adj, k, pins)
        assert color_vertices_k(adj, k, Budget(nodes=0), pins) is None, (adj, k, pins)


def test_pinned_vertex_of_low_degree_keeps_its_color():
    # a pin of degree below k would be peeled and recolored last if it were
    # not held in the core
    path = [{1}, {0, 2}, {1}]
    for c in range(3):
        assert color_vertices_k(path, 3, pins={0: c, 2: c}) == [c, 0 if c else 1, c]
    rng = random.Random(19)
    found = 0
    for _ in range(60):
        n = rng.randint(9, 12)
        k = rng.randint(2, 5)
        adj = random_graph_with_low_degrees(rng, n, k)
        low = [v for v in range(n) if len(adj[v]) < k]
        pins = {v: rng.randrange(k) for v in rng.sample(low, min(len(low), rng.randint(1, 3)))}
        found += assert_agrees_with_brute_force(adj, k, pins)
    assert 0 < found < 60


def test_refined_sphere_searches_only_its_base():
    # a stellation peels back to the icosahedron, which has minimum degree
    # 5: one node per base vertex at most, then one tick per peeled vertex
    adj = random_refinement(gen_named("icosahedron"), 1988, seed=16).adjacency()
    assert len(adj) == 2000
    assert set(range(2000)) - set(peel_order(adj, 4)) == set(range(12))
    budget = Budget()
    assert_proper(adj, four_color_vertices(adj, budget), 4)
    assert budget.used_nodes <= len(adj) + 1


def test_stellated_five_chromatic_grid_is_refuted_on_its_core():
    base = gen_altshuler(3, 3, 1).embedding
    refined = random_refinement(base, 40, seed=16)
    for emb in (base, refined):
        adj = emb.adjacency()
        assert four_color_vertices(adj) is None
        assert_proper(adj, color_vertices_k(adj, 5), 5)


def test_four_coloring_has_no_recursion_limit():
    # 1296 vertices: deeper than the default recursion limit
    adj = gen_altshuler(36, 36, 0).embedding.adjacency()
    assert_proper(adj, four_color_vertices(adj), 4)


def test_budget_propagates_from_vertex_coloring():
    big = gen_named("icosahedron").adjacency()
    with pytest.raises(BudgetExceeded):
        color_vertices_k(big, 4, budget=Budget(nodes=2))


def reference_dsatur(adj, k, pins=None):
    """color_vertices_k's search without its incremental state: the next
    vertex by a linear scan of the uncolored core vertices, its saturation
    counted afresh from its neighbours' colors; the same key, color order,
    symmetry bound, clique pins and ticks.  Returns (colors or None, nodes)."""
    pins = dict(pins or {})
    if any(not 0 <= c < k or any(pins.get(w) == c for w in adj[v])
           for v, c in pins.items()):
        return None, 0
    clique = [] if pins else _greedy_clique(adj, k)
    if len(clique) > k:
        return None, 0
    peeled = peel_order(adj, k, pins)
    core = [v for v in range(len(adj)) if v not in set(peeled)]
    pins = pins or dict(zip((v for v in clique if v in core), range(k)))
    colors = [pins.get(v) for v in range(len(adj))]

    def saturation(v):
        return len({colors[w] for w in adj[v]} - {None})

    nodes = 0
    stack = []  # [vertex, next color, bound, highest color before it]
    highest = max(pins.values(), default=-1)
    while True:
        nodes += 1
        free = [v for v in core if colors[v] is None]
        if not free:
            break
        v = min(free, key=lambda v: (-saturation(v), -len(adj[v]), v))
        if saturation(v) < k:
            stack.append([v, 0, min(k, highest + 2), highest])
        while stack:
            v, c, bound, below = stack[-1]
            used = {colors[w] for w in adj[v]}
            c = next((c for c in range(c, bound) if c not in used), None)
            if c is not None:
                stack[-1][1] = c + 1
                colors[v] = c
                highest = max(below, c)
                break
            stack.pop()
            colors[v] = None
            highest = below
        else:
            return None, nodes
    for v in reversed(peeled):
        nodes += 1
        colors[v] = min(set(range(k)) - {colors[w] for w in adj[v]})
    return colors, nodes


def random_proper_pins(rng, adj, k):
    """Pins on a few random vertices, each a color no pinned neighbour has."""
    pins = {}
    for v in rng.sample(range(len(adj)), rng.randint(1, min(4, len(adj)))):
        free = sorted(set(range(k)) - {pins.get(w) for w in adj[v]})
        if free:
            pins[v] = rng.choice(free)
    return pins


def test_kernel_is_the_reference_search():
    rng = random.Random(21)
    found = refuted = backtracked = 0
    for _ in range(120):
        n = rng.randint(8, 24)
        adj = random_graph(rng, n) if rng.random() < 0.5 else \
            random_graph_with_low_degrees(rng, n, rng.randint(3, 5))
        for k in (3, 4, 5):
            for pins in (None, random_proper_pins(rng, adj, k)):
                budget = Budget()
                colors = color_vertices_k(adj, k, budget, pins)
                want, nodes = reference_dsatur(adj, k, pins)
                assert (colors, budget.used_nodes) == (want, nodes), (adj, k, pins)
                found += colors is not None
                refuted += colors is None and nodes > 0
                backtracked += nodes > n + 1
    assert found and refuted and backtracked


def test_clique_of_more_than_k_refutes_before_any_node():
    k6_host = random_refinement(triangulate_faces(catalog_embedding("k6-54")), 15, seed=3)
    k7_host = random_refinement(gen_named("K7"), 15, seed=3)
    for adj, k in ((k6_host.adjacency(), 5), (k7_host.adjacency(), 5),
                   (k7_host.adjacency(), 6)):
        assert len(_greedy_clique(adj, k)) == k + 1
        assert color_vertices_k(adj, k, Budget(nodes=0)) is None


def test_greedy_clique_stops_once_it_reaches_k():
    # a K4 of degree-5 vertices (two leaves each) and a K5 of degree-4
    # ones: with k = 3 the first start decides, and the K5 of a later start
    # is not sought
    adj = [set(range(4)) - {v} | {9 + 2 * v, 10 + 2 * v} for v in range(4)] + \
        [set(range(4, 9)) - {v} for v in range(4, 9)] + [{(v - 9) // 2} for v in range(9, 17)]
    assert sorted(_greedy_clique(adj)) == [4, 5, 6, 7, 8]
    assert len(_greedy_clique(adj, 3)) == 4
    assert sorted(_greedy_clique(adj, 5)) == [4, 5, 6, 7, 8]


# -- edge coloring through the triangle graph -------------------------------------------

FRAMES = ("c3c5", "h7k2", "k6-444a", "k6-444b", "k6-54", "k6-6", "k7")


def _agrees_with_oracle(emb, pins) -> bool:
    """color_faces finds a coloring exactly when solve_exact does, and what it
    finds keeps every pin and passes verification; returns whether it found."""
    oracle = solve_exact(emb, fixed=PartialColoring.from_dict(emb.num_edges, pins))
    got = color_faces(emb, pins=pins)
    assert (got is not None) == oracle.found, pins
    if got is not None:
        assert all(got[e] == c for e, c in pins.items())
        assert verify_partial(emb, got.as_partial()).ok
    return got is not None


def test_color_faces_agrees_with_the_edge_oracle():
    rng = random.Random(12)
    pinned = [d.embedding for b in range(3, 7) for d in enumerate_disks(b, 2)]
    pinned += [catalog_embedding(name) for name in FRAMES]
    pinned += [inst.graph for inst in five_chromatic_instances()]
    outcomes = []
    for emb in pinned:
        outcomes.append(_agrees_with_oracle(emb, {}))
        for _ in range(10):
            edges = rng.sample(range(emb.num_edges), rng.randint(1, min(6, emb.num_edges)))
            outcomes.append(_agrees_with_oracle(emb, {e: rng.randrange(3) for e in edges}))
    for inst in toroidal_corpus():
        outcomes.append(_agrees_with_oracle(inst.graph, {}))
    assert set(outcomes) == {True, False}
