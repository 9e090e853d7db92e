import random

import pytest

from corpus import five_chromatic_instances, planar_corpus, toroidal_corpus
from grunbaum.catalog import gen_named, random_refinement, triangulate_faces
from grunbaum.chroma import (
    chromatic_number,
    classify_six_chromatic,
    complete_graph,
    find_subgraph,
    five_core,
    pattern_graph,
)
from grunbaum.errors import ChromaticUnknown, ClassificationAnomaly
from grunbaum.solver import Budget


def test_chromatic_table():
    assert chromatic_number(complete_graph(6)) == 6
    assert chromatic_number(complete_graph(7)) == 7
    assert chromatic_number(pattern_graph("C11^3")) == 6
    assert chromatic_number(pattern_graph("C3+C5")) == 6
    assert chromatic_number(pattern_graph("H7+K2")) == 6
    assert chromatic_number(gen_named("H7")) == 4


def test_chromatic_monotone_under_subgraph():
    h7k2 = pattern_graph("H7+K2")
    sub = [set(a) for a in h7k2]
    sub[0].discard(1)
    sub[1].discard(0)
    assert chromatic_number(sub) <= chromatic_number(h7k2)


def test_find_subgraph_positive():
    k7 = complete_graph(7)
    m = find_subgraph(k7, "K6")
    assert m is not None
    assert len(set(m.mapping)) == 6
    pat = pattern_graph("K6")
    for u in range(6):
        for v in pat[u]:
            assert m.mapping[v] in k7[m.mapping[u]]


def test_find_subgraph_negative_on_c11_cubed():
    c11 = pattern_graph("C11^3")
    assert find_subgraph(c11, "K6") is None


def test_find_subgraph_survives_refinement():
    host = random_refinement(triangulate_faces(gen_named("H7+K2")), 6, seed=2)
    m = find_subgraph(host.adjacency(), "H7+K2")
    assert m is not None


def test_classify_six_chromatic():
    host = random_refinement(triangulate_faces(gen_named("C3+C5")), 5, seed=1)
    match = classify_six_chromatic(host.adjacency())
    assert match.pattern == "C3+C5"

    host = random_refinement(gen_named("C11^3").embedding, 5, seed=1)
    assert classify_six_chromatic(host.adjacency()).pattern == "C11^3"


def test_classify_rejects_k7():
    with pytest.raises(ValueError):
        classify_six_chromatic(complete_graph(7))


def test_classify_anomaly_on_k6_plus_c3c5():
    # disjoint union of two critical graphs plus a bridge: contains two
    # patterns, which cannot happen for a six-chromatic torus graph
    k6 = complete_graph(6)
    c3c5 = pattern_graph("C3+C5")
    n = 6
    adj = [set(a) for a in k6] + [set(w + n for w in a) for a in c3c5]
    adj[0].add(n)
    adj[n].add(0)
    with pytest.raises(ClassificationAnomaly):
        classify_six_chromatic(adj)


def test_criticality_of_catalog_graphs():
    for name in ("K6", "C3+C5", "H7+K2", "C11^3"):
        adj = pattern_graph(name) if name != "K6" else complete_graph(6)
        assert chromatic_number(adj) == 6
        edges = [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]
        for u, v in edges:
            smaller = [set(a) for a in adj]
            smaller[u].discard(v)
            smaller[v].discard(u)
            assert chromatic_number(smaller) <= 5


def test_patterns_have_minimum_degree_five():
    # the 5-core restriction of the dispatch rests on this
    for name in ("K7", "K6", "C3+C5", "H7+K2", "C11^3"):
        assert min(len(a) for a in pattern_graph(name)) >= 5, name


def test_five_core_peels_in_cascade():
    # K6 with a path 5-6-7 hung on it: 7 goes, then 6; K6 stays whole
    adj = complete_graph(6) + [set(), set()]
    for u, v in ((5, 6), (6, 7)):
        adj[u].add(v)
        adj[v].add(u)
    core = five_core(adj)
    assert core[:6] == complete_graph(6)
    assert core[6] == core[7] == set()
    assert adj[5] == {0, 1, 2, 3, 4, 6}  # the input is left as it was


def test_chromatic_unknown_carries_lower_bound():
    # C11^3 holds a K4, so the search starts at 4 colors and chi >= 4 is
    # proved before any node; every bound stays below the true value 6
    c11 = pattern_graph("C11^3")
    with pytest.raises(ChromaticUnknown) as info:
        chromatic_number(c11, Budget(nodes=3))
    assert info.value.at_least == 4
    bounds = set()
    for nodes in range(0, 400, 7):
        try:
            assert chromatic_number(c11, Budget(nodes=nodes)) == 6
        except ChromaticUnknown as exc:
            bounds.add(exc.at_least)
    assert bounds == {4, 5, 6}


def plain_subgraph(host, pat):
    """find_subgraph's backtracking without its count filter and clique
    symmetry break: the reference both cuts must agree with."""
    np_, nh = len(pat), len(host)
    if np_ > nh:
        return None
    order, placed = [], [False] * np_
    for _ in range(np_):
        best = max(
            (v for v in range(np_) if not placed[v]),
            key=lambda v: (sum(placed[w] for w in pat[v]), len(pat[v]), -v),
        )
        order.append(best)
        placed[best] = True
    mapping, used = [-1] * np_, [False] * nh

    def dfs(i):
        if i == np_:
            return True
        pv = order[i]
        anchors = [w for w in pat[pv] if mapping[w] >= 0]
        base = sorted(host[mapping[anchors[0]]]) if anchors else range(nh)
        for hv in base:
            if used[hv] or len(host[hv]) < len(pat[pv]):
                continue
            if all(mapping[w] in host[hv] for w in anchors):
                mapping[pv], used[hv] = hv, True
                if dfs(i + 1):
                    return True
                mapping[pv], used[hv] = -1, False
        return False

    return tuple(mapping) if dfs(0) else None


PATTERNS = [(name, pattern_graph(name)) for name in ("K7", "K6", "C3+C5", "H7+K2", "C11^3")] + [
    ("custom", complete_graph(4)),
    ("custom", complete_graph(5)),
    ("custom", gen_named("octahedron").adjacency()),  # 4-regular, not complete
]


def _agrees(host, patterns=PATTERNS):
    for name, pat in patterns:
        m = find_subgraph(host, pat if name == "custom" else name)
        assert (None if m is None else m.mapping) == plain_subgraph(host, pat), name


def _random_graph(rng, n, p):
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def test_find_subgraph_cuts_keep_the_first_match_on_random_graphs():
    rng = random.Random(20261018)
    for _ in range(150):
        host = _random_graph(rng, rng.randint(1, 12), rng.choice((0.3, 0.6, 0.85, 1.0)))
        _agrees(host)
        _agrees(five_core(host))


def test_find_subgraph_cuts_keep_the_first_match_on_the_corpus():
    # the plain search is slow on a whole host that lacks one of the large
    # named patterns, so on whole hosts only K7, K6 and the custom ones run
    cheap = [(name, pat) for name, pat in PATTERNS if name in ("K7", "K6", "custom")]
    for inst in toroidal_corpus() + planar_corpus() + five_chromatic_instances():
        adj = inst.graph.adjacency()
        _agrees(five_core(adj))
        _agrees(adj, cheap)


def test_filtered_miss_ticks_no_node():
    k6 = five_core(complete_graph(6) + [set(), set(), set(), set(), set()])
    for name in ("K7", "H7+K2", "C11^3"):
        assert find_subgraph(k6, name, Budget(nodes=0)) is None
    assert find_subgraph(pattern_graph("C3+C5"), "K7", Budget(nodes=0)) is None


def test_support_cut_refutes_cliques_before_any_node():
    # no edge of the critical graphs lies in four triangles once the edges
    # in fewer are gone, so neither K6 nor K7 is searched in them
    for name in ("C3+C5", "H7+K2", "C11^3"):
        for clique in ("K6", "K7"):
            assert find_subgraph(pattern_graph(name), clique, Budget(nodes=0)) is None
