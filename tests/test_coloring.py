import itertools

import pytest

from grunbaum.catalog import figure_colorings, gen_altshuler, gen_k6
from grunbaum.coloring import (
    EdgeColoring,
    PartialColoring,
    canonical_letters,
    classify_hexagon,
    classify_pentagon,
    classify_square,
    kempe_chain,
    kempe_change,
    parity_check,
    tait_lift,
    verify_grunbaum,
    verify_partial,
)
from grunbaum.embedding import FaceCycle, build_embedding, trace_faces
from grunbaum.errors import (
    BadParity,
    ColoringIncomplete,
    ImproperVertexColoring,
    MixedTriple,
    NotTriangulation,
    SeedNotInColors,
)
from grunbaum.pipeline import altshuler_coloring
from grunbaum.solver import solve_exact

OCT = build_embedding([[1, 5, 4, 2], [0, 2, 3, 5], [0, 4, 3, 1],
                       [1, 2, 4, 5], [0, 5, 3, 2], [0, 1, 3, 4]])
K4 = build_embedding([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


def test_verify_grunbaum_pass_and_fail():
    lifted = tait_lift(OCT, [v % 3 for v in range(6)])
    assert verify_grunbaum(OCT, lifted).ok

    flat = EdgeColoring((0,) * K4.num_edges)
    report = verify_grunbaum(K4, flat)
    assert not report.ok
    assert len(report.violations) == 4


def test_verify_grunbaum_guards():
    with pytest.raises(NotTriangulation):
        verify_grunbaum(gen_k6("6"), EdgeColoring((0,) * 15))
    with pytest.raises(ColoringIncomplete):
        verify_grunbaum(K4, EdgeColoring((0,) * 3))


def test_verify_partial_takes_total_colorings_as_verify_grunbaum_does():
    # one face loop: on a total coloring of a triangulation both checks give
    # the same report, passing or failing
    for emb, coloring in ((OCT, tait_lift(OCT, [v % 3 for v in range(6)])),
                          (K4, EdgeColoring((0, 1, 0, 2, 1, 1)))):
        total = verify_grunbaum(emb, coloring)
        assert verify_partial(emb, coloring) == total
        assert verify_partial(emb, coloring.as_partial()) == total
    assert not total.ok and total.coverage["faces_checked"] == 4


def test_altshuler_grid_coloring_passes():
    grid = gen_altshuler(3, 3, 0)
    assert verify_grunbaum(grid.embedding, altshuler_coloring(grid)).ok


def test_verify_partial_vacuous_and_violation():
    empty = PartialColoring.empty(K4.num_edges)
    assert verify_partial(K4, empty).ok

    fs = trace_faces(K4)
    e0, e1, e2 = fs.face_edges(0)
    bad = PartialColoring.from_dict(K4.num_edges, {e0: 0, e1: 0, e2: 1})
    report = verify_partial(K4, bad)
    assert not report.ok
    assert len(report.violations) == 1


def test_verify_partial_figure_coloring():
    host, coloring = figure_colorings("fig4-v")
    emb = gen_k6("444B")
    report = verify_partial(emb, coloring)
    assert report.ok
    assert report.coverage["colored_edges"] == 15


def test_tait_lift_klein_group_cases():
    # endpoints colored 1 and 2 lie in the class identified with 3
    path = build_embedding([[1], [0]])
    assert tait_lift(path, [1, 2]).colors == (2,)
    # vertex colors 0,1,2 on a triangle give pairwise distinct edge classes
    tri = build_embedding([[1, 2], [2, 0], [0, 1]])
    assert sorted(tait_lift(tri, [0, 1, 2]).colors) == [0, 1, 2]


def test_tait_lift_rejects_improper():
    with pytest.raises(ImproperVertexColoring):
        tait_lift(K4, [0, 0, 1, 2])
    with pytest.raises(ImproperVertexColoring):
        tait_lift(K4, [0, 1, 2])
    with pytest.raises(ImproperVertexColoring):
        tait_lift(K4, [0, 1, 2, 4])


def test_kempe_chain_on_k4_is_four_cycle():
    coloring = next(iter(solve_exact(K4, mode="enumerate")))
    for e in range(K4.num_edges):
        other = next(c for c in (0, 1, 2) if c != coloring[e])
        chain = kempe_chain(K4, coloring, e, (coloring[e], other))
        assert len(chain.edges) == 4
        # recomputing from any chain edge gives the same set
        for e2 in chain.edges:
            assert kempe_chain(K4, coloring, e2, chain.colors).edges == chain.edges


def test_kempe_change_involution_and_untouched_color():
    coloring = next(iter(solve_exact(K4, mode="enumerate")))
    changed = kempe_change(K4, coloring, 0, (coloring[0], (coloring[0] + 1) % 3))
    assert verify_grunbaum(K4, changed).ok
    twice = kempe_change(K4, changed, 0, (coloring[0], (coloring[0] + 1) % 3))
    assert twice.colors == coloring.colors
    third = next(c for c in (0, 1, 2) if c not in (coloring[0], (coloring[0] + 1) % 3))
    for e in range(K4.num_edges):
        if coloring[e] == third:
            assert changed[e] == third


def test_kempe_change_maps_colorings_to_colorings():
    all_colorings = {c.colors for c in solve_exact(K4, mode="enumerate")}
    start = next(iter(solve_exact(K4, mode="enumerate")))
    for pair in ((0, 1), (0, 2), (1, 2)):
        seed = next(e for e in range(K4.num_edges) if start[e] in pair)
        changed = kempe_change(K4, start, seed, pair)
        assert changed.colors in all_colorings


def test_kempe_seed_color_guard():
    coloring = next(iter(solve_exact(K4, mode="enumerate")))
    pair = tuple(c for c in (0, 1, 2) if c != coloring[0])
    with pytest.raises(SeedNotInColors):
        kempe_chain(K4, coloring, 0, pair)


def test_classify_square():
    assert classify_square((0, 1, 0, 1)).kind == "A"
    assert classify_square((0, 0, 1, 1)).kind == "B1"
    assert classify_square((0, 1, 1, 0)).kind == "B2"
    assert classify_square((2, 2, 2, 2)).kind == "C"
    with pytest.raises(MixedTriple):
        classify_square((0, 1, 2, 0))
    with pytest.raises(BadParity):
        classify_square((0, 0, 0, 1))


def test_classify_square_orientation_sensitivity():
    # one rotation step or a reversal (fixing the start edge) swaps B1 and B2
    seq = (0, 0, 1, 1)
    assert classify_square(seq).kind == "B1"
    rotated = seq[1:] + seq[:1]
    assert classify_square(rotated).kind == "B2"
    reversed_from_start = (seq[0], seq[3], seq[2], seq[1])
    assert classify_square(reversed_from_start).kind == "B2"
    # A and C are invariant under both
    assert classify_square((0, 1, 0, 1)).kind == classify_square((1, 0, 1, 0)).kind == "A"


def test_classify_pentagon():
    sig = classify_pentagon((0, 1, 0, 0, 2))
    assert sig.positions == frozenset({2, 5})
    assert str(sig) == "2;5"
    assert classify_pentagon((0, 1, 2, 0, 0)).positions == frozenset({2, 3})
    with pytest.raises(BadParity):
        classify_pentagon((0, 0, 0, 0, 1))


def test_pentagon_signature_count():
    # exactly ten distinct signatures over all (3,1,1) colorings
    sigs = set()
    for colors in itertools.product((0, 1, 2), repeat=5):
        try:
            sigs.add(classify_pentagon(colors).positions)
        except BadParity:
            continue
    assert len(sigs) == 10


def test_classify_hexagon():
    assert classify_hexagon((0, 2, 1, 0, 2, 1)).name == "tpgtpg"
    assert classify_hexagon((1, 1, 1, 1, 1, 1)).name == "pppppp"
    assert classify_hexagon((0, 0, 1, 1, 2, 2)).name == "ttppgg"
    with pytest.raises(BadParity):
        classify_hexagon((0, 0, 1, 1, 1, 2))


_LEGAL_HEXAGONS = [
    t for t in itertools.product((0, 1, 2), repeat=6)
    if all(t.count(c) % 2 == 0 for c in (0, 1, 2))
]


def test_hexagon_class_partition():
    # every parity-legal coloring lands in exactly one of the nine classes,
    # read up to rotation, reflection and renaming of colors
    from grunbaum.coloring import HEXAGON_CLASSES

    assert len(_LEGAL_HEXAGONS) == 183
    for t in _LEGAL_HEXAGONS:
        readings = [t[rot:] + t[:rot] for rot in range(6)]
        letters = {canonical_letters(r) for r in readings + [r[::-1] for r in readings]}
        names = {"pppppp" if p == "tttttt" else p for p in letters} & set(HEXAGON_CLASSES)
        assert len(names) == 1
        assert classify_hexagon(t).name in names


def test_hexagon_witness_round_trip():
    for colors in _LEGAL_HEXAGONS:
        cls = classify_hexagon(colors)
        observed = [colors[cls.observed_position(i)] for i in range(6)]
        assert canonical_letters(observed) == (
            "tttttt" if cls.name == "pppppp" else cls.name
        )


def test_parity_check():
    emb = gen_k6("54")
    fs = trace_faces(emb)
    square = FaceCycle.from_darts(emb, fs.faces[next(
        f for f in range(fs.num_faces) if fs.size(f) == 4)])
    pent = FaceCycle.from_darts(emb, fs.faces[next(
        f for f in range(fs.num_faces) if fs.size(f) == 5)])
    sq_edges, p_edges = square.edges, pent.edges
    c = PartialColoring.from_dict(
        emb.num_edges,
        dict(zip(sq_edges, (0, 1, 0, 1))) | dict(zip(p_edges, (0, 0, 0, 1, 2))),
    )
    assert parity_check(square, c)
    assert parity_check(pent, c)
    bad = PartialColoring.from_dict(emb.num_edges, dict(zip(sq_edges, (0, 0, 0, 1))))
    assert not parity_check(square, bad)
