"""Acceptance criteria, one test per criterion.

Each test prints a single [criterion N] PASS/FAIL line (visible with
``pytest -s`` or on failure) and asserts the criterion in full.
"""
import json
import random
import statistics
import sys
import time
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from corpus import (
    chordfree_disks,
    five_chromatic_instances,
    planar_corpus,
    toroidal_corpus,
)

from grunbaum.catalog import (
    catalog_embedding,
    enumerate_disks,
    figure_colorings,
    figure_ids,
    gen_named,
    labeling_cycles,
)
from grunbaum.chroma import (
    chromatic_number,
    classify_six_chromatic,
    complete_graph,
    pattern_graph,
)
from grunbaum.cli import main as cli_main
from grunbaum.coloring import (
    PartialColoring,
    canonical_letters,
    classify_hexagon,
    classify_pentagon,
    classify_square,
    kempe_change,
    parity_check,
    tait_lift,
    verify_grunbaum,
    verify_partial,
)
from grunbaum.embedding import (
    FaceCycle,
    genus,
    is_separating,
    is_triangulation,
    splice_disk,
)
from grunbaum.errors import BadParity, NoTableEntry
from grunbaum.fileio import write_embedding
from grunbaum.pipeline import achievable_square_kinds, solve
from grunbaum.solver import Budget, solve_exact
from paper_cases import (
    HEXAGON_DIRECT,
    PENTAGON_DIRECT_TYPE3,
    PENTAGON_DIRECT_TYPE12,
    PENTAGON_REDUCTIONS_TYPE3,
    PENTAGON_REDUCTIONS_TYPE12,
    apply_case_table,
    reduce_hexagon_disk,
    reduce_pentagon_disk,
    square_disk_type,
)


def _report(n: int, failures: list, summary: str):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {n:2d}] {status} - {summary}")
    assert not failures, failures[:10]


# -- 1: end-to-end over the corpus ---------------------------------------------------


def test_criterion_1_full_pipeline(tmp_path, capsys):
    corpus = toroidal_corpus()
    assert len(corpus) >= 200
    failures, times = [], []
    for i, inst in enumerate(corpus):
        path = tmp_path / f"inst{i}.emb"
        write_embedding(inst.graph, path)
        t0 = time.monotonic()
        code = cli_main(["--json", "solve", str(path)])
        dt = time.monotonic() - t0
        times.append(dt)
        out = capsys.readouterr().out
        if code != 0:
            failures.append((inst.name, "exit", code))
            continue
        doc = json.loads(out)
        if doc["status"] != "FOUND" or doc["method"] != inst.expected_method:
            failures.append((inst.name, doc["status"], doc["method"],
                             inst.expected_method))
            continue
        coloring = {tuple(sorted((u, v))): c for u, v, c in doc["coloring"]}
        emb = inst.graph
        from grunbaum.coloring import EdgeColoring

        ec = EdgeColoring(tuple(coloring[uv] for uv in emb.edges))
        if not verify_grunbaum(emb, ec).ok:
            failures.append((inst.name, "verification"))
    med = statistics.median(times)
    if med >= 2.0:
        failures.append(("median time", med))
    if max(times) >= 30.0:
        failures.append(("max time", max(times)))
    with capsys.disabled():
        _report(1, failures,
                f"{len(corpus)} instances, all FOUND with expected method; "
                f"median {med * 1000:.0f} ms, max {max(times):.2f} s")


# -- 2: pipeline vs exhaustive oracle ------------------------------------------------


def test_criterion_2_oracle_equivalence(capsys):
    failures = []
    planar = [i for i in planar_corpus() if i.graph.num_vertices <= 10]
    toroidal = [i for i in toroidal_corpus() if i.graph.num_vertices <= 12]
    toroidal += [i for i in five_chromatic_instances()
                 if i.graph.num_vertices <= 12]
    for inst in planar:
        a = solve(inst.graph).found
        b = solve_exact(inst.graph, budget=Budget(seconds=120)).found
        if a != b:
            failures.append((inst.name, a, b))
    for inst in toroidal:
        a = solve(inst.graph).found
        b = solve_exact(inst.graph, budget=Budget(seconds=120)).found
        if a != b:
            failures.append((inst.name, a, b))
    with capsys.disabled():
        _report(2, failures,
                f"{len(planar)} planar and {len(toroidal)} toroidal instances agree "
                "with the exhaustive oracle")


# -- 3: parity on marked separating cycles -------------------------------------------


def _double_capped_spheres():
    """Spheres built from two disks glued along a marked 4-, 5- or 6-cycle."""
    out = []
    for n, budget in ((4, 2), (5, 2), (6, 2)):
        disks = [d for d in chordfree_disks(n, budget)][:6]
        for i in range(len(disks)):
            for j in range(i, len(disks)):
                inner, outer = disks[i], disks[j]
                emb = inner.embedding
                sphere = splice_disk(emb, inner.outer_face, outer)
                out.append((f"cap{n}-{i}-{j}", sphere, n))
    return out


def test_criterion_3_cycle_parity(capsys):
    failures = []
    spheres = _double_capped_spheres()
    assert len(spheres) >= 20
    total = 0
    for name, emb, n in spheres:
        if genus(emb) != 0 or not is_triangulation(emb):
            failures.append((name, "not a sphere triangulation"))
            continue
        cycle = FaceCycle.from_vertices(emb, list(range(n)))
        rep = is_separating(emb, cycle)
        if not rep.separating or rep.has_empty_side:
            failures.append((name, "marked cycle not properly separating"))
            continue
        for coloring in solve_exact(emb, mode="enumerate"):
            total += 1
            if not parity_check(cycle, coloring):
                failures.append((name, "parity violation", coloring.colors))
                break
    with capsys.disabled():
        _report(3, failures,
                f"{len(spheres)} spheres, {total} colorings, every marked cycle "
                "has the right parity")


# -- 4: B iff A-or-C for square disks -------------------------------------------------


def test_criterion_4_square_types(capsys):
    failures = []
    disks = enumerate_disks(4, 4)
    assert len(disks) >= 30
    for idx, disk in enumerate(disks):
        pos = tuple(d >> 1 for d in disk.boundary_darts)
        kinds = achievable_square_kinds(disk, pos)
        has_b = bool(kinds & {"B1", "B2"})
        has_ac = bool(kinds & {"A", "C"})
        if has_b != has_ac:
            failures.append((idx, sorted(kinds)))
        try:
            square_disk_type(kinds)
        except NoTableEntry:
            failures.append((idx, "untypable", sorted(kinds)))
    with capsys.disabled():
        _report(4, failures,
                f"{len(disks)} square disks: B1/B2 achievable iff A/C achievable, "
                "and every disk has a coloring type")


# -- 5: pentagon Kempe reachability ---------------------------------------------------


def _pentagon_sig_of(disk, coloring):
    boundary = [coloring[d >> 1] for d in disk.boundary_darts]
    return frozenset(classify_pentagon(boundary).positions)


def _all_single_changes(disk, coloring):
    emb = disk.embedding
    seen = set()
    for e in range(emb.num_edges):
        c = coloring[e]
        for other in (0, 1, 2):
            if other == c:
                continue
            changed = kempe_change(emb, coloring, e, (c, other),
                                   exclude_faces=(disk.outer_face,))
            if changed.colors not in seen:
                seen.add(changed.colors)
                yield changed

def test_criterion_5_pentagon_reachability(capsys):
    failures = []
    disks = enumerate_disks(5, 3)
    assert len(disks) >= 20
    used = 0
    for idx, disk in enumerate(disks):
        emb = disk.embedding
        pos = tuple(d >> 1 for d in disk.boundary_darts)
        for j in range(1, 6):
            k = j % 5 + 1
            pattern = {pos[j - 1]: 1, pos[k - 1]: 2}
            fixed = PartialColoring.from_dict(
                emb.num_edges,
                {p: pattern.get(p, 0) for p in pos},
            )
            rep = solve_exact(emb, fixed=fixed)
            if not rep.found:
                continue  # this adjacent signature is not achievable here
            used += 1
            coloring = rep.coloring.as_partial()
            start = frozenset({j, k})
            wrap = lambda x: (x - 1) % 5 + 1
            allowed = {
                start,
                frozenset({j, wrap(j + 2)}),
                frozenset({j, wrap(j + 4)}),
                frozenset({k, wrap(k + 1)}),
                frozenset({k, wrap(k + 3)}),
            }
            forbidden = {frozenset({j, wrap(j + 3)}), frozenset({k, wrap(k + 2)})}
            outcomes = set()
            for changed in _all_single_changes(disk, coloring):
                try:
                    outcomes.add(_pentagon_sig_of(disk, changed))
                except BadParity:
                    failures.append((idx, sorted(start), "non-(3,1,1) outcome"))
            bad = outcomes - allowed
            if bad:
                failures.append((idx, sorted(start), "escaped", sorted(map(sorted, bad))))
            hit = outcomes & {frozenset({j, wrap(j + 2)}), frozenset({j, wrap(j + 4)})}
            if not hit:
                failures.append((idx, sorted(start), "neither +2 nor +4 reached"))
            if outcomes & forbidden:
                failures.append((idx, sorted(start), "forbidden signature reached"))

    # the documented reduction tables close over all ten signatures
    for table, direct in (
        (PENTAGON_REDUCTIONS_TYPE12, PENTAGON_DIRECT_TYPE12),
        (PENTAGON_REDUCTIONS_TYPE3, PENTAGON_DIRECT_TYPE3),
    ):
        all_sigs = {tuple(sorted((a, b))) for a in range(1, 6)
                    for b in range(1, 6) if a != b}
        for sig in all_sigs:
            seen, frontier = set(), {sig}
            for _ in range(6):
                frontier = {
                    out
                    for s in frontier if s not in direct
                    for out in table.get(s, ((), ()))[1]
                }
                frontier = {tuple(sorted(s)) for s in frontier} - seen
                seen |= frontier
                if not frontier:
                    break
            else:
                failures.append((sig, "reduction table does not close"))
        if set(table) | set(direct) != all_sigs:
            failures.append(("tables do not cover all ten signatures",))
    with capsys.disabled():
        _report(5, failures,
                f"{used} achievable adjacent signatures over {len(disks)} pentagon "
                "disks reach only the allowed neighbours; tables close")


# -- 6: case-table completeness --------------------------------------------------------


def _find_disk_with_pentagon_sig(bank, sig):
    j, k = sorted(sig)
    for disk in bank:
        emb = disk.embedding
        pos = tuple(d >> 1 for d in disk.boundary_darts)
        fixed = PartialColoring.from_dict(
            emb.num_edges,
            {p: (1 if i + 1 == j else 2 if i + 1 == k else 0)
             for i, p in enumerate(pos)},
        )
        rep = solve_exact(emb, fixed=fixed)
        if rep.found:
            return disk, pos, rep.coloring.as_partial()
    return None


def _find_disk_with_hexagon_class(bank, legal_tuples, name):
    members = [t for t in legal_tuples if classify_hexagon(t).name == name]
    for disk in bank:
        emb = disk.embedding
        pos = tuple(d >> 1 for d in disk.boundary_darts)
        for t in members:
            fixed = PartialColoring.from_dict(emb.num_edges, dict(zip(pos, t)))
            rep = solve_exact(emb, fixed=fixed)
            if rep.found:
                return disk, pos, rep.coloring.as_partial()
    return None


def _colors_every_frame_edge(frame: str, entry) -> bool:
    """An entry is placed whole, and the disks behind its frame's faces are
    filled from its colors, so it must color every edge of its frame."""
    return (len(entry.coloring) == catalog_embedding(frame).num_edges
            and entry.coloring.is_total)


def test_criterion_6_case_tables(capsys):
    failures = []

    # (4,4,4)_B and _A: all 27 type triples resolve to a verified entry
    # whose square signatures fit the triple; 444A stores 11 keys up to
    # rotation and returns its entry rotated to fit
    allowed = {1: {"A", "B1"}, 2: {"A", "B2"}, 3: {"C", "B1", "B2"}}
    for variant, name in (("444B", "k6-444b"), ("444A", "k6-444a")):
        squares = labeling_cycles(name)["squares"]
        for types in product((1, 2, 3), repeat=3):
            try:
                entry = apply_case_table(variant, types)
            except NoTableEntry:
                failures.append((variant, types, "no entry"))
                continue
            sigs = [classify_square([entry.coloring[e] for e in cyc.edges]).kind
                    for cyc in squares]
            if not all(s in allowed[t] for s, t in zip(sigs, types)):
                failures.append((variant, types, sigs))
            if not verify_partial(catalog_embedding(name), entry.coloring).ok:
                failures.append((variant, types, "entry fails verification"))
            if not _colors_every_frame_edge(name, entry):
                failures.append((variant, types, "entry leaves an edge uncolored"))

    # (5,4): all ten signatures x three square types resolve via reductions
    pent_bank = enumerate_disks(5, 2)
    ten_sigs = {frozenset({a, b}) for a in range(1, 6) for b in range(1, 6) if a != b}
    for sig in sorted(ten_sigs, key=sorted):
        found = _find_disk_with_pentagon_sig(pent_bank, sig)
        if found is None:
            failures.append(("54", sorted(sig), "no disk achieves this signature"))
            continue
        disk, pos, coloring = found
        for sq_type in (1, 2, 3):
            try:
                _, final, _ = reduce_pentagon_disk(disk.embedding, disk.as_region(), pos,
                                                   coloring, sq_type)
                entry = apply_case_table(
                    "54", (frozenset(final), "B1" if sq_type == 3 else "A")
                )
            except NoTableEntry as exc:
                failures.append(("54", sorted(sig), sq_type, str(exc)))
                continue
            if not verify_partial(catalog_embedding("k6-54"), entry.coloring).ok:
                failures.append(("54", sorted(sig), sq_type, "entry fails"))
            if not _colors_every_frame_edge("k6-54", entry):
                failures.append(("54", sorted(sig), sq_type, "entry leaves an edge uncolored"))

    # (6): all nine classes resolve via the documented reductions
    legal = [t for t in product((0, 1, 2), repeat=6)
             if all(t.count(c) % 2 == 0 for c in (0, 1, 2))]
    hex_bank = enumerate_disks(6, 3)
    from grunbaum.coloring import HEXAGON_CLASSES

    for name in HEXAGON_CLASSES:
        found = _find_disk_with_hexagon_class(hex_bank, legal, name)
        if found is None:
            failures.append(("6", name, "no disk achieves this class"))
            continue
        disk, pos, coloring = found
        try:
            _, cls, _ = reduce_hexagon_disk(disk.embedding, disk.as_region(), pos, coloring)
            entry = apply_case_table("6", cls.name)
        except NoTableEntry as exc:
            failures.append(("6", name, str(exc)))
            continue
        if cls.name not in HEXAGON_DIRECT:
            failures.append(("6", name, "reductions ended off the direct set"))
        if not verify_partial(catalog_embedding("k6-6"), entry.coloring).ok:
            failures.append(("6", name, "entry fails"))
        if not _colors_every_frame_edge("k6-6", entry):
            failures.append(("6", name, "entry leaves an edge uncolored"))

    # quadrilateral tables: one entry per realizable class, all verified
    for variant, host in (("H7K2", "h7k2"), ("C3C5", "c3c5")):
        for kind in ("C", "B1", "B2"):
            entry = apply_case_table(variant, kind)
            if not verify_partial(catalog_embedding(host), entry.coloring).ok:
                failures.append((variant, kind, "entry fails"))
            if not _colors_every_frame_edge(host, entry):
                failures.append((variant, kind, "entry leaves an edge uncolored"))

    with capsys.disabled():
        _report(6, failures,
                "all 27 + 11 + 10x3 + 9 signature combinations resolve to "
                "verified entries that color every frame edge")


# -- 7: bundled figure data ------------------------------------------------------------


def test_criterion_7_figure_data(capsys):
    failures = []
    expected_fig4 = [["A", "B1", "B1"], ["B2", "B2", "A"], ["B1", "A", "B1"],
                     ["B1", "B1", "A"], ["A", "A", "A"], ["B2", "B2", "C"]]
    expected_fig5 = [["A", "B1", "B1"], ["A", "B2", "B2"], ["A", "A", "A"],
                     ["C", "C", "C"]]
    expected_fig6 = [("tptpptg", [2, 5], "B1"), ("tpgpptt", [2, 3], "B1"),
                     ("tttppgp", [4, 5], "B1"), ("tpptpgt", [2, 4], "A"),
                     ("tppgpgg", [1, 2], "A"), ("ttptppg", [4, 5], "A")]
    expected_fig7 = ["ttpppp", "ttppgg", "tpptpp", "tpgtpg"]

    for fig_id in figure_ids():
        host, coloring = figure_colorings(fig_id)
        if not verify_partial(catalog_embedding(host), coloring).ok:
            failures.append((fig_id, "fails verification"))

    squares_b = labeling_cycles("k6-444b")["squares"]
    for i, roman in enumerate(["i", "ii", "iii", "iv", "v", "vi"]):
        _, coloring = figure_colorings(f"fig4-{roman}")
        sigs = [classify_square([coloring[e] for e in cyc.edges]).kind
                for cyc in squares_b]
        if sigs != expected_fig4[i]:
            failures.append((f"fig4-{roman}", sigs, expected_fig4[i]))

    squares_a = labeling_cycles("k6-444a")["squares"]
    for i in range(4):
        _, coloring = figure_colorings(f"fig5-{i + 1}")
        sigs = [classify_square([coloring[e] for e in cyc.edges]).kind
                for cyc in squares_a]
        if sigs != expected_fig5[i]:
            failures.append((f"fig5-{i + 1}", sigs, expected_fig5[i]))

    lab54 = labeling_cycles("k6-54")
    for i, (string, sig, kind) in enumerate(expected_fig6):
        _, coloring = figure_colorings(f"fig6-{i + 1}")
        got_string = canonical_letters([coloring[e] for e in lab54["heptagon"].edges])
        got_sig = sorted(classify_pentagon(
            [coloring[e] for e in lab54["pentagon"].edges]).positions)
        got_kind = classify_square(
            [coloring[e] for e in lab54["square"].edges]).kind
        if (got_string, got_sig, got_kind) != (string, sig, kind):
            failures.append((f"fig6-{i + 1}", got_string, got_sig, got_kind))

    hexagon = labeling_cycles("k6-6")["hexagon"]
    for i, roman in enumerate(["i", "ii", "iii", "iv"]):
        _, coloring = figure_colorings(f"fig7-{roman}")
        got = classify_hexagon([coloring[e] for e in hexagon.edges]).name
        if got != expected_fig7[i]:
            failures.append((f"fig7-{roman}", got, expected_fig7[i]))

    for host, prefix in (("c3c5", "fig2-C3C5"), ("h7k2", "fig2-H7K2")):
        quad = labeling_cycles(host)["quad"]
        got = []
        for i in (1, 2, 3):
            _, coloring = figure_colorings(f"{prefix}-{i}")
            got.append(classify_square([coloring[e] for e in quad.edges]).kind)
        if got != ["C", "B1", "B2"]:
            failures.append((prefix, got))

    with capsys.disabled():
        _report(7, failures,
                f"all {len(figure_ids())} bundled colorings verify and induce "
                "the expected signatures")


# -- 8: chromatic table ------------------------------------------------------------------


def test_criterion_8_chromatic_table(capsys):
    failures = []
    table = [
        ("K6", complete_graph(6), 6),
        ("K7", complete_graph(7), 7),
        ("C11^3", pattern_graph("C11^3"), 6),
        ("C3+C5", pattern_graph("C3+C5"), 6),
        ("H7+K2", pattern_graph("H7+K2"), 6),
        ("H7", gen_named("H7"), 4),
    ]
    for name, adj, chi in table:
        got = chromatic_number(adj)
        if got != chi:
            failures.append((name, got, chi))
    for name in ("K6", "C3+C5", "H7+K2", "C11^3"):
        adj = complete_graph(6) if name == "K6" else pattern_graph(name)
        edges = [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]
        for u, v in edges:
            smaller = [set(a) for a in adj]
            smaller[u].discard(v)
            smaller[v].discard(u)
            if chromatic_number(smaller) > 5:
                failures.append((name, "not critical at", (u, v)))
    with capsys.disabled():
        _report(8, failures, "chromatic numbers and edge-criticality all match")


# -- 9: classification returns exactly one pattern ---------------------------------------


def test_criterion_9_classification(capsys):
    failures = []
    expected_pattern = {
        "CRITICAL(444A)": "K6", "CRITICAL(444B)": "K6",
        "CRITICAL(54)": "K6", "CRITICAL(6)": "K6",
        "CRITICAL(H7K2)": "H7+K2", "CRITICAL(C3C5)": "C3+C5",
        "CRITICAL(C11CUBED)": "C11^3",
    }
    count = 0
    for inst in toroidal_corpus():
        if inst.chi_class != "6":
            continue
        count += 1
        try:
            match = classify_six_chromatic(inst.graph.adjacency())
        except Exception as exc:
            failures.append((inst.name, type(exc).__name__, str(exc)))
            continue
        want = expected_pattern[inst.expected_method]
        if match.pattern != want:
            failures.append((inst.name, match.pattern, want))
    with capsys.disabled():
        _report(9, failures,
                f"{count} six-chromatic instances each match exactly one pattern")


# -- 10: the vertex-coloring lift never fails ---------------------------------------------


def _random_proper_four_coloring(adj, rng):
    n = len(adj)
    order = list(range(n))
    rng.shuffle(order)
    colors = [-1] * n
    def backtrack(i):
        if i == n:
            return True
        v = order[i]
        palette = [0, 1, 2, 3]
        rng.shuffle(palette)
        for c in palette:
            if all(colors[w] != c for w in adj[v]):
                colors[v] = c
                if backtrack(i + 1):
                    return True
                colors[v] = -1
        return False
    if not backtrack(0):
        return None
    return colors


def test_criterion_10_lift_identity(capsys):
    failures = []
    rng = random.Random(20260810)
    hosts = [i for i in planar_corpus()] + [
        i for i in toroidal_corpus() if i.chi_class == "le4"
    ][:31]
    total = 0
    while total < 1000:
        inst = hosts[total % len(hosts)]
        adj = inst.graph.adjacency()
        vc = _random_proper_four_coloring(adj, rng)
        if vc is None:
            failures.append((inst.name, "no 4-coloring found"))
            break
        total += 1
        lifted = tait_lift(inst.graph, vc)
        if not verify_grunbaum(inst.graph, lifted).ok:
            failures.append((inst.name, "lift failed", tuple(vc)))
    with capsys.disabled():
        _report(10, failures, f"{total} random lifts all verified")
