import pytest

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
