import pytest

from grunbaum.catalog import (
    catalog_embedding,
    case_table,
    enumerate_disks,
    figure_colorings,
    figure_ids,
    frame_classes,
    gen_altshuler,
    gen_k6,
    gen_named,
    labeling_cycles,
    random_refinement,
    triangulate_faces,
)
from grunbaum.chroma import chromatic_number
from grunbaum.coloring import PartialColoring, verify_partial
from grunbaum.embedding import genus, is_triangulation, trace_faces
from grunbaum.errors import NotSimple, UnknownId
from grunbaum.isomorphism import embeddings_isomorphic
from grunbaum.pipeline import altshuler_coloring
from grunbaum.coloring import verify_grunbaum
from grunbaum.solver import solve_exact
from paper_cases import class_key


def test_altshuler_basic_family():
    grid = gen_altshuler(3, 3, 0)
    e = grid.embedding
    assert e.num_vertices == 9 and e.num_edges == 27
    assert genus(e) == 1 and is_triangulation(e)
    assert all(e.degree(v) == 6 for v in range(9))
    assert verify_grunbaum(e, altshuler_coloring(grid)).ok


def test_altshuler_t172_is_k7():
    grid = gen_altshuler(1, 7, 2)
    e = grid.embedding
    assert all(e.degree(v) == 6 for v in range(7))
    assert e.num_edges == 21  # 6-regular on 7 vertices: complete
    assert embeddings_isomorphic(e, gen_named("K7"))
    assert verify_grunbaum(e, altshuler_coloring(grid)).ok


def test_altshuler_rejects_non_simple():
    with pytest.raises(NotSimple):
        gen_altshuler(1, 3, 0)
    with pytest.raises(NotSimple):
        gen_altshuler(1, 1, 0)
    with pytest.raises(NotSimple):
        gen_altshuler(2, 2, 0)


def test_k6_variants_census():
    expected = {
        "444A": (4, 4, 4, 3, 3, 3, 3, 3, 3),
        "444B": (4, 4, 4, 3, 3, 3, 3, 3, 3),
        "54": (5, 4, 3, 3, 3, 3, 3, 3, 3),
        "6": (6, 3, 3, 3, 3, 3, 3, 3, 3),
    }
    for variant, census in expected.items():
        e = gen_k6(variant)
        assert e.num_vertices == 6 and e.num_edges == 15
        assert genus(e) == 1
        assert trace_faces(e).census() == census
    assert not embeddings_isomorphic(gen_k6("444A"), gen_k6("444B"))
    with pytest.raises(UnknownId):
        gen_k6("777")


def test_gen_named_h7():
    adj = gen_named("H7")
    assert len(adj) == 7
    # one merge step on two K4's: 6 + 6 - 2 + 1 edges
    assert sum(len(a) for a in adj) // 2 == 11
    assert chromatic_number(adj) == 4
    # criticality: dropping any edge leaves a 3-colorable graph
    edges = [(u, v) for u in range(7) for v in adj[u] if u < v]
    for u, v in edges:
        smaller = [set(a) for a in adj]
        smaller[u].discard(v)
        smaller[v].discard(u)
        assert chromatic_number(smaller) == 3


def test_gen_named_joins():
    c3c5 = gen_named("C3+C5")
    assert c3c5.num_vertices == 8 and c3c5.num_edges == 23
    assert genus(c3c5) == 1
    h7k2 = gen_named("H7+K2")
    assert h7k2.num_vertices == 9 and h7k2.num_edges == 26
    assert trace_faces(h7k2).census() == (4,) + (3,) * 16

    c11 = gen_named("C11^3")
    e = c11.embedding
    assert e.num_vertices == 11 and e.num_edges == 33
    assert genus(e) == 1 and is_triangulation(e)
    assert sorted(e.rotation(0)) == [1, 2, 3, 8, 9, 10]

    with pytest.raises(UnknownId):
        gen_named("petersen")


def test_quad_face_graphs_have_one_quadrilateral():
    for name in ("h7k2", "c3c5"):
        emb = catalog_embedding(name)
        census = trace_faces(emb).census()
        assert census[0] == 4 and all(s == 3 for s in census[1:])


def test_random_refinement_deterministic():
    k7 = gen_named("K7")
    a = random_refinement(k7, 5, seed=1)
    b = random_refinement(k7, 5, seed=1)
    assert a.rotations == b.rotations
    assert a.num_vertices == 12 and genus(a) == 1 and is_triangulation(a)
    assert random_refinement(k7, 0, seed=9).rotations == k7.rotations


def _stellate_by_retracing(emb, steps, seed):
    """Reference refinement: re-trace the faces and re-build after each step."""
    import random

    from grunbaum.embedding import stellate_face

    rng = random.Random(seed)
    out = emb
    for _ in range(steps):
        fs = trace_faces(out)
        out = stellate_face(out, rng.choice([f for f in range(fs.num_faces) if fs.size(f) == 3]))
    return out


@pytest.mark.parametrize("base", ["octahedron", "icosahedron", "K7", "T(3,4,1)", "k6-54",
                                  "k6-6", "C3+C5"])
def test_random_refinement_matches_retracing(base):
    emb = {"T(3,4,1)": lambda: gen_altshuler(3, 4, 1).embedding,
           "k6-54": lambda: gen_k6("54"),
           "k6-6": lambda: gen_k6("6")}.get(base, lambda: gen_named(base))()
    for steps in (0, 1, 2, 7, 30, 200):
        for seed in (0, 1, 17):
            refined = random_refinement(emb, steps, seed=seed)
            assert refined.rotations == _stellate_by_retracing(emb, steps, seed).rotations
    assert random_refinement(emb, 0) is emb


def test_triangulate_faces():
    full = triangulate_faces(gen_k6("54"))
    assert is_triangulation(full) and genus(full) == 1
    assert full.num_vertices == 8  # one interior vertex per big face


def test_figure_colorings_all_valid():
    ids = figure_ids()
    assert len(ids) == 26
    for fig_id in ids:
        host, coloring = figure_colorings(fig_id)
        emb = catalog_embedding(host)
        assert verify_partial(emb, coloring).ok
    with pytest.raises(UnknownId):
        figure_colorings("fig9-x")


def test_case_tables_complete_keys():
    assert len(case_table("444B")) == 27
    assert len(case_table("444A")) == 11
    assert len(case_table("54")) == 6
    assert len(case_table("6")) == 4
    assert set(case_table("H7K2")) == {"C", "B1", "B2"}
    assert set(case_table("C3C5")) == {"C", "B1", "B2"}


def test_frame_classes_match_a_fresh_enumeration():
    # one stored coloring per class, the first seen in enumeration order,
    # and each a valid coloring of its frame
    counts = {}
    for name in ("k6-54", "k6-6", "k6-444a", "k6-444b", "h7k2", "c3c5"):
        emb = catalog_embedding(name)
        fresh = {}
        for coloring in solve_exact(emb, mode="enumerate"):
            fresh.setdefault(class_key(emb, coloring), coloring.colors)
        stored = frame_classes(name)
        assert stored == tuple(fresh.values()), name
        assert all(verify_partial(emb, PartialColoring(c)).ok for c in stored)
        counts[name] = len(stored)
    assert counts == {"k6-54": 57, "k6-6": 12, "k6-444a": 257, "k6-444b": 257,
                      "h7k2": 4, "c3c5": 4}
    with pytest.raises(UnknownId):
        frame_classes("k7")


def test_labeling_cycles_resolve():
    lab = labeling_cycles("k6-54")
    assert lab["pentagon"].length == 5
    assert lab["square"].length == 4
    assert lab["heptagon"].length == 7
    squares = labeling_cycles("k6-444a")["squares"]
    assert len(squares) == 3 and all(c.length == 4 for c in squares)


def test_enumerate_disks_counts():
    assert len(enumerate_disks(4, 0)) == 1
    assert len(enumerate_disks(4, 1)) == 3
    counts = [d.interior_vertex_count() for d in enumerate_disks(4, 2)]
    assert sorted(set(counts)) == [0, 1, 2]
    disks4 = enumerate_disks(4, 4)
    assert len(disks4) >= 30
    for d in enumerate_disks(4, 2):
        assert genus(d.embedding) == 0
        fs = trace_faces(d.embedding)
        assert fs.size(d.outer_face) == 4
        assert all(
            fs.size(f) == 3 for f in range(fs.num_faces) if f != d.outer_face
        )


def test_enumerate_pentagon_disks():
    disks = enumerate_disks(5, 3)
    assert len(disks) >= 20
    for d in disks[:10]:
        assert genus(d.embedding) == 0
        assert len(d.boundary_darts) == 5
