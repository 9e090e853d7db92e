import ast
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from collections import Counter
from contextlib import redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grunbaum.catalog import (
    case_table,
    catalog_embedding,
    enumerate_disks,
    frame_classes,
    gen_altshuler,
    gen_k6,
    gen_named,
    random_refinement,
    triangulate_faces,
)
from grunbaum.chroma import CRITICAL_PATTERNS, chromatic_number, find_subgraph, five_core
from grunbaum.coloring import (
    classify_pentagon,
    classify_square,
    verify_grunbaum,
)
from grunbaum.cli import main
from grunbaum.embedding import (
    FaceCycle,
    build_embedding,
    cap_with_apex,
    cycle_region,
    extract_disk,
    splice_disk,
    stellate_face,
    trace_faces,
)
from grunbaum.errors import (
    BudgetExceeded,
    ClassificationAnomaly,
    NoTableEntry,
    NotARefinement,
    NotAGridLabeling,
    VerificationFailed,
)
from grunbaum.pipeline import (
    achievable_square_kinds,
    altshuler_coloring,
    apex_solve,
    extend_into_faces,
    recognize_grid_coloring,
    remove_stellations,
    restore_stellations,
    solve,
    solve_disk,
)
from grunbaum import chroma, pipeline
from grunbaum.coloring import EdgeColoring
from grunbaum.fileio import read_embedding, write_embedding
from grunbaum.solver import (
    Budget,
    color_vertices_k,
    count_grunbaum_colorings,
    four_color_vertices,
    solve_exact,
)

from corpus import grid_chromatic, torus_census, valid_grids, with_octahedral_disk
from paper_cases import apply_case_table, case_coloring, frame_of, square_disk_type

DISPATCH_PATTERNS = ("K7", *CRITICAL_PATTERNS)
K4 = build_embedding([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


def _disk_with_positions(disk):
    # boundary edge ids in walk order serve as the labeling positions
    return disk, tuple(d >> 1 for d in disk.boundary_darts)


def _wheel_square():
    wheel = next(
        d for d in enumerate_disks(4, 1)
        if d.interior_vertex_count() == 1 and d.embedding.degree(4) == 4
    )
    return _disk_with_positions(wheel)


def _route_host(name):
    """A catalog embedding with an octahedral disk in its first triangle,
    its other faces coned, and 15 seeded stellations."""
    return random_refinement(
        triangulate_faces(with_octahedral_disk(catalog_embedding(name))), 15, seed=3)


def _hexagon_hosts():
    """K6 on the torus with its hexagon filled by each non-dominating disk."""
    import sys
    sys.path.insert(0, "tests")
    from corpus import nondominating_hexagon_disks

    e6 = gen_k6("6")
    fs = trace_faces(e6)
    hexf = next(f for f in range(fs.num_faces) if fs.size(f) == 6)
    return [splice_disk(e6, hexf, disk) for disk in nondominating_hexagon_disks(2)]


def test_solve_sphere_routes():
    for name in ("octahedron", "icosahedron"):
        emb = gen_named(name)
        report = solve(emb)
        assert report.found and report.method == "TAIT"
        assert verify_grunbaum(emb, report.coloring).ok
    st = random_refinement(K4, 9, seed=0)
    report = solve(st)
    assert report.found and verify_grunbaum(st, report.coloring).ok


def test_altshuler_coloring_requires_labels():
    grid = gen_altshuler(4, 4, 1)
    assert verify_grunbaum(grid.embedding, altshuler_coloring(grid)).ok
    with pytest.raises(NotAGridLabeling):
        altshuler_coloring(grid.embedding)


def test_grid_recognition():
    emb = gen_altshuler(3, 3, 0).embedding
    got = recognize_grid_coloring(emb)
    assert got is not None
    coloring, name = got
    assert verify_grunbaum(emb, coloring).ok
    assert recognize_grid_coloring(gen_named("octahedron")) is None


def test_wheel_square_disk_types():
    # the 4-wheel interior achieves C plus exactly one of B1/B2
    disk, pos = _wheel_square()
    kinds = achievable_square_kinds(disk, pos)
    assert kinds == frozenset({"C", "B1", "B2"})
    assert square_disk_type(kinds) == 3


def test_diagonal_square_disk_types():
    diag = next(d for d in enumerate_disks(4, 0))
    disk, pos = _disk_with_positions(diag)
    kinds = achievable_square_kinds(disk, pos)
    assert "A" in kinds
    assert kinds - {"A"} in ({"B1"}, {"B2"})
    assert square_disk_type(kinds) in (1, 2)


def test_solve_disk_fixed_boundary():
    diag = next(d for d in enumerate_disks(4, 0))
    disk, pos = _disk_with_positions(diag)
    kinds = achievable_square_kinds(disk, pos)
    pattern = (0, 1, 0, 1)
    coloring = solve_disk(disk, pos, pattern)
    assert coloring is not None
    assert tuple(coloring[p] for p in pos) == pattern


def test_apex_solve_parity():
    pent = next(d for d in enumerate_disks(5, 2) if d.interior_vertex_count() == 2)
    coloring = apex_solve(pent.embedding, pent.as_region())
    boundary = [coloring[d >> 1] for d in pent.boundary_darts]
    sig = classify_pentagon(boundary)  # raises unless multiplicities are (3,1,1)
    assert len(sig.positions) == 2


def test_extend_identity_when_no_refinement():
    emb = gen_named("octahedron")
    coloring = solve(emb).coloring
    out = extend_into_faces(emb, coloring, emb)
    assert out.colors == coloring.colors


def test_extend_single_stellation_forces_opposite_colors():
    emb = gen_named("octahedron")
    coloring = solve(emb).coloring
    refined = stellate_face(emb, 0)
    out = extend_into_faces(emb, coloring, refined)
    assert verify_grunbaum(refined, out).ok
    fs = trace_faces(emb)
    tri = fs.face_vertices(emb, 0)
    w = refined.num_vertices - 1
    # each spoke takes the color of the boundary edge it does not touch
    for i, v in enumerate(tri):
        opposite = refined.edge_id(tri[(i + 1) % 3], tri[(i + 2) % 3])
        assert out[refined.edge_id(v, w)] == out[opposite]


def test_extend_k7_random_refinement():
    k7 = gen_named("K7")
    frame = solve_exact(k7).coloring
    refined = random_refinement(k7, 9, seed=4)
    out = extend_into_faces(k7, frame, refined)
    assert verify_grunbaum(refined, out).ok
    # the frame edges keep their colors
    for e, (u, v) in enumerate(k7.edges):
        assert out[refined.edge_id(u, v)] == frame[e]


def test_extend_rejects_non_refinement():
    emb = gen_named("octahedron")
    coloring = solve(emb).coloring
    with pytest.raises(NotARefinement):
        extend_into_faces(emb, coloring, gen_named("icosahedron"))


def test_extend_into_mirrored_refinements():
    # a refinement drawn as the host's mirror image traces every host face
    # the other way round; each probe must come out colored and verified
    emb = gen_named("octahedron")
    coloring = solve(emb).coloring
    for k in range(4):
        for seed in range(4):
            refined = build_embedding(
                [r[::-1] for r in random_refinement(emb, k, seed=seed).rotations]
            )
            out = extend_into_faces(emb, coloring, refined)
            assert verify_grunbaum(refined, out).ok, (k, seed)
            for e, (u, v) in enumerate(emb.edges):
                assert out[refined.edge_id(u, v)] == coloring[e]


def test_extend_rejects_reordered_host_rotation():
    # swapping two host neighbours in one rotation changes the host's faces
    emb = gen_named("octahedron")
    coloring = solve(emb).coloring
    rotations = [list(r) for r in random_refinement(emb, 3, seed=1).rotations]
    for v in range(emb.num_vertices):
        rot = [list(r) for r in rotations]
        i, j = [x for x, w in enumerate(rot[v]) if w < emb.num_vertices][:2]
        rot[v][i], rot[v][j] = rot[v][j], rot[v][i]
        with pytest.raises(NotARefinement):
            extend_into_faces(emb, coloring, build_embedding(rot))


def test_apply_case_table_examples():
    entry = apply_case_table("444B", (1, 1, 3))
    assert entry.info["signatures"] == ["B1", "A", "B1"]
    entry = apply_case_table("444A", (2, 2, 3))
    assert entry.info["signatures"] == ["A", "B2", "B2"]
    entry = apply_case_table("54", (frozenset({2, 5}), "B1"))
    assert entry.figure_id == "fig6-1"
    entry = apply_case_table("6", "ttpppp")
    assert entry.figure_id == "fig7-i"
    entry = apply_case_table("H7K2", "B2")
    assert entry.info["quad_class"] == "B2"
    with pytest.raises(NoTableEntry):
        apply_case_table("54", (frozenset({1, 3}), "B1"))
    with pytest.raises(NoTableEntry):
        apply_case_table("H7K2", "A")


def test_apply_case_table_444a_rotations():
    # all 27 triples resolve through the 11 stored keys
    for t1 in (1, 2, 3):
        for t2 in (1, 2, 3):
            for t3 in (1, 2, 3):
                apply_case_table("444A", (t1, t2, t3))


def test_444a_route_rotates_its_table_entry():
    # square disks 0, 0 and 2 spliced into the three squares of the
    # (4,4,4)_A frame give square types that are no stored key, so the
    # entry must come back rotated to fit them
    from corpus import chordfree_disks

    disks = chordfree_disks(4, 3)
    host = gen_k6("444A")
    for i in (0, 0, 2):
        fs = trace_faces(host)
        face = next(f for f in range(fs.num_faces) if fs.size(f) != 3)
        host = splice_disk(host, face, disks[i])
    assert host.num_vertices == 10
    report = solve(host)
    assert report.found and report.method == "CRITICAL(444A)"
    assert verify_grunbaum(host, report.coloring).ok
    _, case_trace = case_coloring(host, frame_of(host))
    (types,) = [t for t in case_trace if t.startswith("square types")]
    triple = "".join(c for c in types if c.isdigit())
    assert triple not in case_table("444A")


def test_solve_torus_routes():
    cases = [
        (gen_altshuler(4, 4, 1), "ALTSHULER"),
        (random_refinement(gen_named("K7"), 5, seed=1), "K7"),
        (random_refinement(triangulate_faces(gen_k6("54")), 4, seed=2), "CRITICAL(54)"),
        (random_refinement(triangulate_faces(gen_named("C3+C5")), 4, seed=2),
         "CRITICAL(C3C5)"),
    ]
    for emb, method in cases:
        report = solve(emb)
        assert report.found, (method, report.trace)
        assert report.method == method
        graph = getattr(emb, "embedding", emb)
        assert verify_grunbaum(graph, report.coloring).ok


# H7+K2 with the chord (2, 8) across its quadrilateral face: the frame is
# matched on the pattern's edges, so the chord does not split that face
H7K2_WITH_A_CHORD = """\
vertices: 9
0: 1 3 8 6 7
1: 2 4 3 0 7
2: 3 5 4 1 7 8
3: 4 7 6 5 2 8 0 1
4: 5 7 3 1 2
5: 6 8 7 4 2 3
6: 7 0 8 5 3
7: 8 2 1 0 6 3 4 5
8: 0 3 2 7 5 6
"""


def test_frame_with_a_chord_across_its_face_is_matched(tmp_path):
    emb = read_embedding(io.StringIO(H7K2_WITH_A_CHORD))
    report = solve(emb)
    assert report.found and report.method == "CRITICAL(H7K2)", report.trace
    assert verify_grunbaum(emb, report.coloring).ok
    path = tmp_path / "h7k2_chord.emb"
    path.write_text(H7K2_WITH_A_CHORD)
    with redirect_stdout(io.StringIO()):
        assert main(["solve", str(path)]) == 0


# torus triangulations up to isomorphism and mirror image (Lutz's census)
@pytest.mark.parametrize("n, count", [(7, 1), (8, 7), (9, 112)])
def test_every_small_torus_triangulation_is_colored(n, count):
    census = torus_census(n)
    assert len(census) == count
    for emb in census:
        report = solve(emb)
        assert report.found and verify_grunbaum(emb, report.coloring).ok, report.trace
        # the route follows the chromatic number: six-regular tori are grids
        if all(emb.degree(v) == 6 for v in range(n)):
            route = "ALTSHULER"
        else:
            chi = chromatic_number(emb.adjacency())
            route = "TAIT" if chi <= 4 else {5: "EXACT", 6: "CRITICAL", 7: "K7"}[chi]
        assert report.method.split("(")[0] == route, (emb.rotations, report.method)


def test_solve_hexagon_route():
    for g in _hexagon_hosts():
        report = solve(g)
        assert report.found and report.method == "CRITICAL(6)"
        assert verify_grunbaum(g, report.coloring).ok


def test_solve_dispatches_on_genus():
    assert solve(gen_named("octahedron")).method == "TAIT"
    assert solve(gen_altshuler(3, 3, 0)).method == "ALTSHULER"


def test_five_chromatic_goes_exact():
    g = random_refinement(gen_altshuler(3, 3, 1).embedding, 2, seed=0)
    report = solve(g)
    assert report.found and report.method == "EXACT"
    assert verify_grunbaum(g, report.coloring).ok


def test_solve_large_refined_grid_goes_tait():
    g = random_refinement(gen_altshuler(36, 36, 0).embedding, 1, seed=0)
    report = solve(g)
    assert report.found and report.method == "TAIT"
    assert verify_grunbaum(g, report.coloring).ok


def _spoiled(emb, coloring):
    """The coloring with face 0's second edge given its first edge's color."""
    colors = list(coloring.colors)
    e0, e1, _ = trace_faces(emb).face_edges(0)
    colors[e1] = colors[e0]
    return EdgeColoring(tuple(colors))


def test_failed_lift_is_not_reported_found(monkeypatch):
    real_lift = pipeline.tait_lift

    def bad_lift(emb, vertex_colors):
        return _spoiled(emb, real_lift(emb, vertex_colors))

    monkeypatch.setattr(pipeline, "tait_lift", bad_lift)
    sphere = gen_named("octahedron")
    torus = random_refinement(gen_altshuler(3, 6, 0).embedding, 1, seed=0)
    for report in (solve(sphere), solve(torus)):
        assert report.status == "UNKNOWN" and report.coloring is None
        assert any("tait lift" in t for t in report.trace)


def test_failed_grid_recognition_is_not_reported_found(monkeypatch):
    real_recognize = pipeline.recognize_grid_coloring

    def bad_recognize(emb):
        coloring, name = real_recognize(emb)
        return _spoiled(emb, coloring), name

    monkeypatch.setattr(pipeline, "recognize_grid_coloring", bad_recognize)
    report = solve(gen_altshuler(3, 3, 0).embedding)
    assert _unknown_stage(report) == ("grid recognition", "coloring failed verification")


def test_labeled_grid_whose_roles_fail_is_unknown():
    # a hand-built grid with its roles shifted by one edge: no generator
    # builds one, and solve reports it UNKNOWN rather than raising
    grid = gen_altshuler(4, 4, 1)
    shifted = dataclasses.replace(grid, roles=grid.roles[1:] + grid.roles[:1])
    report = solve(shifted)
    assert _unknown_stage(report) == ("grid recognition", "coloring failed verification")


def test_quad_apex_never_alternating():
    # capping the quadrilateral disk forces constant or consecutive-pair
    # boundary colors; check over several fillings of the C3+C5 quad
    from grunbaum.catalog import labeling_cycles

    base = gen_named("C3+C5")
    quad_cycle = labeling_cycles("c3c5")["quad"]
    fs = trace_faces(base)
    quadf = next(f for f in range(fs.num_faces) if fs.size(f) == 4)
    for i, filler in enumerate(enumerate_disks(4, 2)):
        bset = set(range(4))
        if any(set(filler.embedding.edge_ends(x)) <= bset
               and x not in set(filler.boundary_edges)
               for x in range(filler.embedding.num_edges)):
            continue
        if filler.interior_vertex_count() == 0:
            continue
        g = splice_disk(base, quadf, filler)
        cyc = FaceCycle.from_darts(
            g, [g.dart(base.tail(d), base.head(d)) for d in quad_cycle.darts]
        )
        coloring = apex_solve(g, cycle_region(g, cyc))
        boundary = [coloring[e] for e in cyc.edges]
        assert classify_square(boundary).kind in ("C", "B1", "B2")


# -- one budget per solve -------------------------------------------------------------


def test_square_kinds_budget_is_not_a_missing_kind():
    # an exhausted budget must raise, not read as "kind not achievable",
    # which leaves the disk with too few kinds or none
    disk, pos = _wheel_square()
    for nodes in (1, 2):
        with pytest.raises(BudgetExceeded):
            achievable_square_kinds(disk, pos, Budget(nodes=nodes))


def test_apex_solve_budget_raises_budget_exceeded():
    pent = next(d for d in enumerate_disks(5, 2) if d.interior_vertex_count() == 2)
    with pytest.raises(BudgetExceeded):
        apex_solve(pent.embedding, pent.as_region(), Budget(nodes=1))


@pytest.mark.parametrize("name", ["k6-444a", "k6-444b"])
def test_444_frames_found_with_one_isomorphism_search(name, monkeypatch):
    # both (4,4,4) frames share a face census; their corner profiles tell
    # them apart before any alignment is tried
    host = _route_host(name)
    match = chroma.dispatch_match(five_core(host.adjacency()))
    assert match.pattern == "K6"
    searched = []
    isomorphisms = pipeline.embedding_isomorphisms

    def counted(cat_emb, sub):
        searched.append(cat_emb)
        return isomorphisms(cat_emb, sub)

    monkeypatch.setattr(pipeline, "embedding_isomorphisms", counted)
    frame = pipeline.match_frame(host, match.pattern, match.mapping)
    assert frame.name == name
    assert searched == [catalog_embedding(name)]


def _unknown_stage(report):
    assert report.status == "UNKNOWN" and report.coloring is None
    stage, _, message = report.trace[-1].partition(": ")
    assert report.method == stage
    return stage, message


@pytest.mark.parametrize("name", ["k6-444a", "k6-54", "k6-6", "h7k2", "c3c5"])
def test_any_budget_ends_found_or_unknown(name):
    host = _route_host(name)
    full = solve(host)
    total, route = full.nodes, full.method

    def outcome(nodes):
        report = solve(host, Budget(nodes=nodes))
        if nodes == total:
            assert report.found and verify_grunbaum(host, report.coloring).ok
            return route
        stage, message = _unknown_stage(report)
        assert message.endswith(f"node budget {nodes} exhausted"), report.trace
        return stage

    # the fewest nodes that reach the route's own stage, by bisection
    lo, hi = 0, total - 1
    assert outcome(hi) == route
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outcome(mid) == route:
            hi = mid
        else:
            lo = mid
    budgets = {1, 2, total - 1, total, hi, (hi + total) // 2,
               *range(1, total, max(1, total // 16))}
    stages = {nodes: outcome(nodes) for nodes in sorted(budgets)}
    # stages only move forward: every budget from the route's first node on
    # runs out inside the route, e.g. in its disk solves
    assert all((stage == route) == (nodes >= hi) for nodes, stage in stages.items())
    assert hi < (hi + total) // 2 < total


ROUTE_HOSTS = {
    "TAIT": lambda: random_refinement(gen_altshuler(3, 6, 0).embedding, 1, seed=0),
    "K7": lambda: _route_host("k6-6"),
    "CRITICAL(444A)": lambda: triangulate_faces(catalog_embedding("k6-444a")),
    "CRITICAL(444B)": lambda: triangulate_faces(catalog_embedding("k6-444b")),
    "CRITICAL(54)": lambda: triangulate_faces(catalog_embedding("k6-54")),
    "CRITICAL(6)": lambda: _hexagon_hosts()[0],
    "CRITICAL(H7K2)": lambda: triangulate_faces(catalog_embedding("h7k2")),
    "CRITICAL(C3C5)": lambda: triangulate_faces(catalog_embedding("c3c5")),
    "CRITICAL(C11CUBED)": lambda: random_refinement(
        with_octahedral_disk(gen_named("C11^3").embedding), 2, seed=2),
    "EXACT": lambda: random_refinement(gen_altshuler(3, 3, 1).embedding, 2, seed=0),
}
LAST_STAGE = {"TAIT": "4-coloring", "EXACT": "exact search"}


# every route, the grids' and the lift's included, checks its coloring once
VERIFY_ONCE_HOSTS = {
    "labeled grid": ("ALTSHULER", lambda: gen_altshuler(4, 4, 1)),
    "unlabeled grid": ("ALTSHULER", lambda: gen_altshuler(3, 3, 0).embedding),
    "sphere": ("TAIT", lambda: gen_named("octahedron")),
    **{method: (method, host) for method, host in ROUTE_HOSTS.items()},
}


@pytest.mark.parametrize("name", VERIFY_ONCE_HOSTS)
def test_solve_verifies_once_on_every_route(name, monkeypatch):
    method, host = VERIFY_ONCE_HOSTS[name]
    calls = []
    real_verify = pipeline.verify_grunbaum

    def counted(emb, coloring):
        calls.append(emb)
        return real_verify(emb, coloring)

    monkeypatch.setattr(pipeline, "verify_grunbaum", counted)
    report = solve(host())
    assert report.found and report.method == method
    assert len(calls) == 1


# fill_region calls by boundary length: solve fills each disk behind a
# non-triangular frame face once per coloring class it probes; these hosts
# fit their frame's first class, the hexagon host its third
FILLS_BY_BOUNDARY = {
    "CRITICAL(444A)": {4: 3},
    "CRITICAL(54)": {4: 1, 5: 1},
    "CRITICAL(6)": {6: 3},
    "CRITICAL(H7K2)": {4: 1},
    "CRITICAL(C3C5)": {4: 1},
}


@pytest.mark.parametrize("method", FILLS_BY_BOUNDARY)
def test_solve_fills_every_disk_from_the_frame_coloring(method, monkeypatch):
    boundaries = Counter()
    real_fill_region = pipeline.fill_region

    def counted(host, region, out, budget=None):
        boundaries[len(region.boundary)] += 1
        return real_fill_region(host, region, out, budget)

    monkeypatch.setattr(pipeline, "fill_region", counted)
    host = ROUTE_HOSTS[method]()
    report = solve(host)
    assert report.found and report.method == method
    assert verify_grunbaum(host, report.coloring).ok
    assert dict(boundaries) == FILLS_BY_BOUNDARY[method]


@pytest.mark.parametrize("method", FILLS_BY_BOUNDARY)
def test_no_class_that_fits_raises_naming_the_frame(method, monkeypatch):
    # with every fill refused, each class is probed once, on its first
    # region, and the solve raises rather than report anything
    probes = []

    def refused(host, region, out, budget=None):
        probes.append(region)
        return None

    host = ROUTE_HOSTS[method]()
    name = frame_of(host).name
    monkeypatch.setattr(pipeline, "fill_region", refused)
    with pytest.raises(NoTableEntry, match=f"frame {name} "):
        solve(host)
    assert len(probes) == len(frame_classes(name))


# torus triangulations with 9 and 10 vertices (tests/corpus.py's census)
# whose frame's first coloring classes do not fit their disks
LATE_CLASS_HOSTS = {
    "k6-54 class 2 of 57": ("CRITICAL(54)", [
        [2, 8, 6, 7], [4, 3, 7, 8], [7, 3, 6, 5, 4, 8, 0], [4, 6, 2, 7, 1],
        [5, 7, 6, 3, 1, 8, 2], [6, 8, 7, 4, 2], [7, 0, 8, 5, 2, 3, 4],
        [8, 1, 3, 2, 0, 6, 4, 5], [0, 2, 4, 1, 7, 5, 6]]),
    "k6-54 class 12 of 57": ("CRITICAL(54)", [
        [2, 9, 7, 8], [2, 4, 3, 8, 6], [8, 3, 5, 4, 1, 6, 9, 0], [4, 6, 5, 2, 8, 1],
        [5, 8, 7, 6, 3, 1, 2], [6, 8, 4, 2, 3], [7, 9, 2, 1, 8, 5, 3, 4], [8, 0, 9, 6, 4],
        [1, 3, 2, 0, 7, 4, 5, 6], [0, 2, 6, 7]]),
    "k6-6 class 4 of 12": ("CRITICAL(6)", [
        [3, 2, 4, 1, 6, 7], [6, 0, 4, 3, 7, 8], [3, 5, 4, 0], [4, 6, 5, 2, 0, 7, 1],
        [5, 7, 6, 3, 1, 0, 2], [6, 8, 7, 4, 2, 3], [7, 0, 1, 8, 5, 3, 4],
        [8, 1, 3, 0, 6, 4, 5], [1, 7, 5, 6]]),
    "h7k2 class 2 of 4": ("CRITICAL(H7K2)", [
        [1, 4, 8, 6, 7], [2, 4, 0, 7, 8], [3, 5, 4, 1, 8], [4, 6, 5, 2, 8],
        [5, 7, 6, 3, 8, 0, 1, 2], [6, 8, 7, 4, 2, 3], [7, 0, 8, 5, 3, 4],
        [8, 1, 0, 6, 4, 5], [0, 4, 3, 2, 1, 7, 5, 6]]),
}


@pytest.mark.parametrize("probe", LATE_CLASS_HOSTS)
def test_solve_probes_past_classes_that_do_not_fit(probe):
    method, rotations = LATE_CLASS_HOSTS[probe]
    host = build_embedding(rotations)
    report = solve(host)
    assert report.found and report.method == method
    assert report.trace[-1] == probe
    assert verify_grunbaum(host, report.coloring).ok


@pytest.mark.parametrize("method", list(ROUTE_HOSTS))
def test_stats_nodes_count_the_whole_solve(method):
    host = ROUTE_HOSTS[method]()
    report = solve(host)
    assert report.found and report.method == method
    replay = solve(host, Budget(nodes=report.nodes))
    assert replay.found and replay.coloring == report.coloring
    stage, message = _unknown_stage(solve(host, Budget(nodes=report.nodes - 1)))
    assert stage == LAST_STAGE.get(method, method)
    assert message.endswith(f"node budget {report.nodes - 1} exhausted")


def _relabelled(emb, perm):
    """The embedding with vertex v renamed perm[v]."""
    rotations = [()] * emb.num_vertices
    for v, nbrs in enumerate(emb.rotations):
        rotations[perm[v]] = [perm[w] for w in nbrs]
    return build_embedding(rotations)


def _moved(host, draw):
    """The host, mirrored and relabelled as drawn."""
    if draw(st.booleans(), label="mirrored"):
        host = build_embedding([r[::-1] for r in host.rotations])
    if draw(st.booleans(), label="relabelled"):
        host = _relabelled(host, draw(st.permutations(range(host.num_vertices))))
    return host


@pytest.mark.parametrize("base", list(ROUTE_HOSTS))
@settings(max_examples=8, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_budget_on_a_moved_route_host_ends_found_or_unknown(base, data):
    # stellated, mirrored and relabelled route hosts: every frame has to be
    # found and aligned again, whatever ids and orientation the host uses
    host = random_refinement(ROUTE_HOSTS[base](), data.draw(st.integers(0, 30)),
                             seed=data.draw(st.integers(0, 2**16)))
    host = _moved(host, data.draw)
    full = solve(host)
    assert full.found and verify_grunbaum(host, full.coloring).ok
    # drawn as the shortfall, so that small draws run out late, inside the route
    shortfall = data.draw(st.integers(0, full.nodes), label="shortfall")
    report = solve(host, Budget(nodes=full.nodes - shortfall))
    if report.found:
        assert report.method == full.method
        assert verify_grunbaum(host, report.coloring).ok
    else:
        _unknown_stage(report)


@lru_cache(maxsize=None)
def _triangle_disks():
    """Chordless disks bounded by a triangle, with interior vertices.

    enumerate_disks closes every three-vertex region as a bare triangle, so
    these are cut from spheres: a chordless 4- or 5-boundary disk capped
    with an apex, minus one face at the apex.
    """
    from corpus import chordfree_disks

    disks = []
    for disk in chordfree_disks(4, 2) + chordfree_disks(5, 2):
        sphere = cap_with_apex(disk)
        apex = sphere.num_vertices - 1
        fs = trace_faces(sphere)
        face = fs.faces[fs.face_of[sphere.dart(apex, sphere.rotation(apex)[0])]]
        disks.append(extract_disk(sphere, FaceCycle.from_darts(sphere, face), "exterior"))
    return tuple(disks)


@st.composite
def spliced_spheres(draw):
    """The octahedron or the icosahedron with triangle-bounded disks spliced
    into some faces, then 0-30 seeded stellations, mirrored and relabelled
    as drawn."""
    host = gen_named(draw(st.sampled_from(["octahedron", "icosahedron"])))
    disks = _triangle_disks()
    for _ in range(draw(st.integers(0, 3), label="splices")):
        face = draw(st.integers(0, trace_faces(host).num_faces - 1))
        host = splice_disk(host, face, draw(st.sampled_from(disks)))
    host = random_refinement(host, draw(st.integers(0, 30)), seed=draw(st.integers(0, 2**16)))
    return _moved(host, draw)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(host=spliced_spheres(), data=st.data())
def test_any_budget_on_a_spliced_sphere_ends_found_or_unknown(host, data):
    full = solve(host)
    assert full.found and full.method == "TAIT"
    assert verify_grunbaum(host, full.coloring).ok
    # drawn as the shortfall, so that small draws run out late or not at all
    shortfall = data.draw(st.integers(0, full.nodes), label="shortfall")
    report = solve(host, Budget(nodes=full.nodes - shortfall))
    if report.found:
        assert report.method == "TAIT" and verify_grunbaum(host, report.coloring).ok
    else:
        _unknown_stage(report)


@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_budget_exits_0_found_or_1_unknown(data):
    route_hosts = st.sampled_from(list(ROUTE_HOSTS.values())).map(lambda make: make())
    host = data.draw(st.one_of(spliced_spheres(), route_hosts), label="host")
    full = solve(host).nodes
    nodes = full - data.draw(st.integers(0, full), label="shortfall")
    # a temporary directory of its own: function-scoped fixtures are not
    # reset between hypothesis examples
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "host.emb"
        write_embedding(host, path)
        with redirect_stdout(io.StringIO()) as out:
            code = main(["--json", "--budget", str(nodes), "solve", str(path)])
    doc = json.loads(out.getvalue())
    assert (code, doc["status"]) in {(0, "FOUND"), (1, "UNKNOWN")}
    assert doc["stats"]["nodes"] <= nodes


def test_failed_extension_is_not_reported_found(monkeypatch):
    # the fault enters through the pinned region solve, which fills every
    # triangle behind a frame face: one interior edge gets another color
    real_fill_region = pipeline.fill_region

    def bad_fill_region(host, region, out, budget=None):
        colors = real_fill_region(host, region, out, budget)
        if colors is not None:
            e = next(e for e in region.edges if e not in region.boundary_edges)
            out[e] = (out[e] + 1) % 3
        return colors

    monkeypatch.setattr(pipeline, "fill_region", bad_fill_region)
    k7 = gen_named("K7")
    with pytest.raises(VerificationFailed):
        extend_into_faces(k7, solve_exact(k7).coloring, random_refinement(k7, 9, seed=4))
    report = solve(_route_host("k6-6"))
    assert _unknown_stage(report) == ("K7", "coloring failed verification")


def test_first_solve_makes_the_calls_of_the_next():
    # work cached lazily on the first solve of a process would make that
    # solve trace more faces than the next; only a fresh interpreter shows it
    script = textwrap.dedent("""
        import json
        import sys
        from grunbaum import embedding, pipeline
        from grunbaum.catalog import catalog_embedding, triangulate_faces

        host = triangulate_faces(catalog_embedding("k6-54"))
        real, calls = embedding.trace_faces, []

        def counted(emb):
            calls.append(emb)
            return real(emb)

        for name, module in list(sys.modules.items()):
            if name.startswith("grunbaum"):
                for key, value in list(vars(module).items()):
                    if value is real:
                        setattr(module, key, counted)
        counts = []
        for _ in range(2):
            calls.clear()
            report = pipeline.solve(embedding.build_embedding(host.rotations))
            counts.append([report.method, len(calls)])
        print(json.dumps(counts))
    """)
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    first, second = json.loads(run.stdout)
    assert first[0] == "CRITICAL(54)"
    assert first == second


def test_failed_exact_coloring_is_not_reported_found(monkeypatch):
    real_color_faces = pipeline.color_faces

    def bad_color_faces(emb, *args, **kwargs):
        coloring = real_color_faces(emb, *args, **kwargs)
        return coloring.recolored({0: (coloring[0] + 1) % 3})

    monkeypatch.setattr(pipeline, "color_faces", bad_color_faces)
    report = solve(ROUTE_HOSTS["EXACT"]())
    assert _unknown_stage(report) == ("exact search", "coloring failed verification")


def test_package_has_no_assert_statements():
    # checks written as assert vanish under python -O
    src = Path(pipeline.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# -- the 5-coloring gate and the 5-core ------------------------------------------------


@pytest.fixture(scope="module")
def gate_hosts():
    """Adjacency, 5-colorability and full-host first matches of the test
    corpus's torus hosts and the route hosts."""
    from corpus import five_chromatic_instances, toroidal_corpus

    graphs = [inst.graph for inst in (*toroidal_corpus(), *five_chromatic_instances())]
    graphs += [_route_host(n) for n in ("k6-444a", "k6-54", "k6-6", "h7k2", "c3c5")]
    graphs += [make() for make in ROUTE_HOSTS.values()]
    hosts = []
    for g in graphs:
        adj = g.adjacency()
        matches = {p: find_subgraph(adj, p) for p in DISPATCH_PATTERNS}
        hosts.append((adj, color_vertices_k(adj, 5) is not None, matches))
    return hosts


def test_five_core_keeps_the_first_match(gate_hosts):
    hits = 0
    for adj, _, matches in gate_hosts:
        core = five_core(adj)
        for p in DISPATCH_PATTERNS:
            assert find_subgraph(core, p) == matches[p]
            hits += matches[p] is not None
    assert hits > 50


def test_five_colorable_hosts_hold_no_pattern(gate_hosts):
    gated = [(adj, matches) for adj, five_colorable, matches in gate_hosts
             if five_colorable]
    assert len(gated) > 100
    assert any(four_color_vertices(adj) is None for adj, _ in gated)
    for _, matches in gated:
        assert all(m is None for m in matches.values())


def test_gated_host_runs_no_subgraph_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("find_subgraph called on a 5-colorable host")

    monkeypatch.setattr(chroma, "find_subgraph", no_search)
    report = solve(ROUTE_HOSTS["EXACT"]())
    assert report.found and report.method == "EXACT"
    assert report.trace[-1] == "no critical subgraph: five-chromatic, exhaustive search"


def test_miss_after_failed_five_coloring_is_an_anomaly(monkeypatch):
    # a host that is not 5-colorable is six-chromatic: finding no pattern
    # contradicts the classification and must not read as five-chromatic
    host = ROUTE_HOSTS["CRITICAL(H7K2)"]()
    monkeypatch.setattr(chroma, "find_subgraph", lambda *args, **kwargs: None)
    with pytest.raises(ClassificationAnomaly):
        solve(host)


def test_gate_runs_out_as_subgraph_search():
    host = ROUTE_HOSTS["EXACT"]()
    spent = Budget()
    assert four_color_vertices(host.adjacency(), budget=spent) is None
    nodes = spent.used_nodes + 1
    report = solve(host, Budget(nodes=nodes))
    assert _unknown_stage(report) == ("subgraph search", f"node budget {nodes} exhausted")


def _stellated_hosts():
    """Census tori with 7-9 vertices (every 16th of those with 9) with 1-6
    seeded stellations, K7 and T(3,3,1) with 0, 1, 3 and 6, and the
    triangulated (5,4) embedding of K6, which has no degree-3 vertex."""
    census = [*torus_census(7), *torus_census(8), *torus_census(9)[::16]]
    hosts = [random_refinement(host, 1 + i % 6, seed=i) for i, host in enumerate(census)]
    hosts += [random_refinement(base, steps, seed=steps)
              for base in (gen_named("K7"), gen_altshuler(3, 3, 1).embedding)
              for steps in (0, 1, 3, 6)]
    return hosts + [triangulate_faces(catalog_embedding("k6-54"))]


def test_removing_stellations_keeps_every_coloring():
    # a degree-3 vertex's edges are forced by the face its removal leaves,
    # so each coloring of the base puts back to exactly one of the host
    unchanged = 0
    for host in _stellated_hosts():
        budget = Budget()
        base, removed = remove_stellations(host, budget)
        assert budget.used_nodes == len(removed)
        assert base.num_vertices == host.num_vertices - len(removed)
        assert min(map(len, base.rotations)) > 3
        if min(map(len, host.rotations)) > 3:
            assert base is host and removed == []
            unchanged += 1
        restored = {restore_stellations(host, removed, coloring)
                    for coloring in solve_exact(base, mode="enumerate")}
        assert all(verify_grunbaum(host, coloring).ok for coloring in restored)
        assert len(restored) == count_grunbaum_colorings(host) == count_grunbaum_colorings(base)
    assert unchanged == 3


def test_refined_five_chromatic_grids_end_found():
    # every five-chromatic grid of the corpus in turn, with 20-45 seeded
    # stellations: the exact search runs on the grid once they are removed
    chis = grid_chromatic()
    grids = [grid for params, grid in valid_grids() if chis[params] == 5]
    assert len(grids) == 12
    for seed in range(100, 148):
        grid = grids[(seed - 100) % 12]
        host = random_refinement(grid.embedding, 20 + 7 * seed % 26, seed=seed)
        report = solve(host, Budget(seconds=8))
        assert report.found and report.method == "EXACT", (seed, report.trace)
        assert verify_grunbaum(host, report.coloring).ok
