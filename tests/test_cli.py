import json

import pytest

from corpus import with_octahedral_disk
from grunbaum.cli import main
from grunbaum.catalog import (
    catalog_embedding,
    gen_altshuler,
    gen_k6,
    gen_named,
    random_refinement,
    triangulate_faces,
)
from grunbaum.embedding import build_embedding
from grunbaum.fileio import read_coloring, read_embedding, write_embedding
from grunbaum.pipeline import solve


@pytest.fixture
def k6_54_file(tmp_path):
    path = tmp_path / "k6_54.emb"
    write_embedding(gen_k6("54"), path)
    return str(path)


def test_faces_output(capsys, k6_54_file):
    assert main(["faces", k6_54_file]) == 0
    out = capsys.readouterr().out
    assert "faces: 5,4,3,3,3,3,3,3,3" in out
    assert "genus: 1" in out


def test_faces_octahedron(capsys, tmp_path):
    path = tmp_path / "oct.emb"
    write_embedding(gen_named("octahedron"), path)
    assert main(["faces", str(path)]) == 0
    out = capsys.readouterr().out
    assert "genus: 0" in out and "triangulation: yes" in out


def test_faces_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.emb"
    bad.write_text("vertices: x\n")
    assert main(["faces", str(bad)]) == 2


@pytest.mark.parametrize("command", (["faces"], ["--json", "solve"]))
def test_empty_embedding_is_an_input_error(command, tmp_path, capsys):
    # V - E + F = 0 with nothing in it is not a torus
    empty = tmp_path / "empty.emb"
    empty.write_text("vertices: 0\n")
    assert main([*command, str(empty)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and "no vertices" in captured.err


def test_solve_grid_writes_verified_coloring(tmp_path, capsys):
    emb_path = tmp_path / "t33.emb"
    main(["gen", "altshuler", "3", "3", "0", "--out", str(emb_path)])
    out_path = tmp_path / "t33.gcol"
    code = main(["--json", "solve", str(emb_path), "--out", str(out_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "FOUND" and doc["method"] == "ALTSHULER"
    emb = read_embedding(emb_path)
    coloring = read_coloring(out_path, emb)
    assert len(coloring) == emb.num_edges
    assert main(["verify", str(emb_path), str(out_path)]) == 0


def test_solve_unsat_exits_1(tmp_path, capsys):
    from grunbaum.embedding import build_embedding, trace_faces

    k4 = build_embedding([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    emb_path = tmp_path / "k4.emb"
    write_embedding(k4, emb_path)
    # fix one face to two equal colors: no completion exists
    fs = trace_faces(k4)
    e0, e1 = fs.face_edges(0)[:2]
    fixed = tmp_path / "fixed.gcol"
    lines = []
    for e in (e0, e1):
        u, v = k4.edge_ends(e)
        lines.append(f"{u} {v} 0")
    fixed.write_text("\n".join(lines) + "\n")
    code = main(["--json", "solve", str(emb_path), "--fixed", str(fixed),
                 "--method", "exact"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "UNSAT"


@pytest.mark.parametrize("method, host", [
    ("TAIT", lambda: random_refinement(gen_altshuler(3, 6, 0).embedding, 1, seed=0)),
    ("K7", lambda: random_refinement(gen_named("K7"), 5, seed=1)),
    ("EXACT", lambda: random_refinement(gen_altshuler(3, 3, 1).embedding, 2, seed=0)),
])
def test_solve_reports_its_wall_time(method, host, tmp_path, capsys):
    emb = host()
    report = solve(emb)
    assert report.method == method and report.millis > 0
    path = tmp_path / "host.emb"
    write_embedding(emb, path)
    assert main(["--json", "solve", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == method and doc["stats"]["millis"] > 0


def test_solve_sphere_reports_its_wall_time():
    assert solve(gen_named("octahedron")).millis > 0


def test_verify_bad_coloring_exits_1(tmp_path):
    from grunbaum.embedding import build_embedding

    k4 = build_embedding([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    emb_path = tmp_path / "k4.emb"
    write_embedding(k4, emb_path)
    bad = tmp_path / "bad.gcol"
    bad.write_text("0 1 0\n0 2 0\n0 3 0\n1 2 1\n1 3 1\n2 3 2\n")
    assert main(["verify", str(emb_path), str(bad)]) == 1


def test_solve_exact_method(tmp_path, capsys):
    # the K6 embedding is not a triangulation: only its triangles constrain
    for emb in (gen_named("octahedron"), gen_k6("444A")):
        emb_path = tmp_path / "in.emb"
        write_embedding(emb, emb_path)
        assert main(["--json", "solve", str(emb_path), "--method", "exact"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "FOUND" and doc["method"] == "EXACT"


def test_solve_fixed_keeps_the_pins(tmp_path, capsys):
    emb_path, pins_path, out = tmp_path / "oct.emb", tmp_path / "pins.gcol", tmp_path / "out.gcol"
    write_embedding(gen_named("octahedron"), emb_path)
    pins_path.write_text("0 1 2\n0 2 1\n")
    assert main(["solve", str(emb_path), "--fixed", str(pins_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("FOUND method: EXACT")
    lines = out.read_text().splitlines()
    assert "0 1 2" in lines and "0 2 1" in lines
    assert main(["verify", str(emb_path), str(out)]) == 0


def test_gen_refine_and_chromatic(tmp_path, capsys):
    base = tmp_path / "k7.emb"
    write_embedding(gen_named("K7"), base)
    refined = tmp_path / "k7r.emb"
    assert main(["gen", "refine", str(base), "4", "--out", str(refined)]) == 0
    emb = read_embedding(refined)
    assert emb.num_vertices == 11

    assert main(["chromatic", str(base)]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_gen_refine_negative_steps_is_an_input_error(tmp_path, capsys):
    base = tmp_path / "k7.emb"
    write_embedding(gen_named("K7"), base)
    assert main(["gen", "refine", str(base), "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error")


def test_chromatic_c11cubed(tmp_path, capsys):
    path = tmp_path / "c11.emb"
    write_embedding(gen_named("C11^3").embedding, path)
    assert main(["chromatic", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_kempe_round_trip(tmp_path):
    emb_path = tmp_path / "t33.emb"
    main(["gen", "altshuler", "3", "3", "0", "--out", str(emb_path)])
    gcol = tmp_path / "a.gcol"
    main(["solve", str(emb_path), "--out", str(gcol)])
    once = tmp_path / "b.gcol"
    twice = tmp_path / "c.gcol"
    assert main(["kempe", str(emb_path), str(gcol),
                 "--edge", "0,1", "--colors", "0,1", "--out", str(once)]) == 0
    assert main(["kempe", str(emb_path), str(once),
                 "--edge", "0,1", "--colors", "0,1", "--out", str(twice)]) == 0
    assert gcol.read_text() == twice.read_text()
    assert gcol.read_text() != once.read_text()


def test_missing_file_exits_2():
    assert main(["faces", "/nonexistent/x.emb"]) == 2


def test_verify_json_report_shape(tmp_path, capsys):
    emb_path = tmp_path / "t33.emb"
    main(["gen", "altshuler", "3", "3", "0", "--out", str(emb_path)])
    gcol = tmp_path / "t33.gcol"
    main(["solve", str(emb_path), "--out", str(gcol)])
    capsys.readouterr()
    assert main(["--json", "verify", str(emb_path), str(gcol)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "pass"
    assert doc["violations"] == []
    assert doc["coverage"]["colored_edges"] == doc["coverage"]["total_edges"] == 27


# -- global flags on either side of the subcommand ----------------------------------


@pytest.fixture
def t33_files(tmp_path):
    emb_path = tmp_path / "t33.emb"
    main(["gen", "altshuler", "3", "3", "0", "--out", str(emb_path)])
    gcol = tmp_path / "t33.gcol"
    main(["solve", str(emb_path), "--out", str(gcol)])
    return str(emb_path), str(gcol)


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
@pytest.mark.parametrize("command", ["faces", "verify", "chromatic", "solve"])
def test_json_flag_either_side_of_subcommand(capsys, t33_files, command, before):
    emb_path, gcol = t33_files
    rest = [command, emb_path] + ([gcol] if command == "verify" else [])
    argv = ["--json"] + rest if before else rest + ["--json"]
    capsys.readouterr()
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc, dict)


def test_seed_either_side_of_gen_refine(capsys, tmp_path):
    base = tmp_path / "k7.emb"
    write_embedding(gen_named("K7"), base)
    outputs = {}
    for name, argv in {
        "before": ["--seed", "3", "gen", "refine", str(base), "4"],
        "after": ["gen", "refine", str(base), "4", "--seed", "3"],
        "default": ["gen", "refine", str(base), "4"],
    }.items():
        assert main(argv) == 0
        outputs[name] = capsys.readouterr().out
    assert outputs["before"] == outputs["after"]
    assert outputs["before"] != outputs["default"]


def test_budget_before_subcommand_reaches_search(capsys, tmp_path, monkeypatch):
    # exact search needs 10 nodes on the octahedron
    emb_path = tmp_path / "oct.emb"
    write_embedding(gen_named("octahedron"), emb_path)
    solve_exact = ["solve", str(emb_path), "--method", "exact"]

    monkeypatch.setenv("GRUNBAUM_BUDGET", "1000000")
    assert main(["--json", "--budget", "2"] + solve_exact) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "UNKNOWN"

    monkeypatch.setenv("GRUNBAUM_BUDGET", "2")
    assert main(["--json"] + solve_exact) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "UNKNOWN"
    assert main(["--json", "--budget", "1000000"] + solve_exact) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "FOUND"


def test_budget_exhausted_inside_a_route_is_unknown(capsys, tmp_path):
    # a 25-vertex host on the K7 route: 26 nodes solve it; with fewer the
    # budget runs out in the subgraph search or in the route's fill of the
    # octahedral disk, the one frame triangle that keeps a search once the
    # stellations are removed
    host = random_refinement(
        triangulate_faces(with_octahedral_disk(catalog_embedding("k6-6"))), 15, seed=3)
    path = tmp_path / "k7host.emb"
    write_embedding(host, path)
    for budget, stage in ((6, "subgraph search"), (22, "K7"), (25, "K7")):
        assert main(["--json", "--budget", str(budget), "solve", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "UNKNOWN" and doc["method"] == stage
        assert doc["trace"][-1].startswith(f"{stage}: ")
        assert doc["trace"][-1].endswith(f"node budget {budget} exhausted")
    assert main(["--json", "--budget", "26", "solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "FOUND"


@pytest.fixture
def ico_file(tmp_path):
    path = tmp_path / "ico.emb"
    write_embedding(gen_named("icosahedron"), path)
    return str(path)


def test_unknown_reports_no_more_nodes_than_the_budget(capsys, ico_file):
    assert main(["--budget", "3", "solve", ico_file]) == 1
    out = capsys.readouterr().out
    assert "UNKNOWN" in out and "nodes: 3 " in out
    assert main(["--json", "--budget", "3", "solve", ico_file]) == 1
    assert json.loads(capsys.readouterr().out)["stats"]["nodes"] == 3


def test_chromatic_exhausted_budget_is_unknown(capsys, ico_file):
    # the greedy clique is a triangle, so 3 colors are tried first
    assert main(["--budget", "2", "chromatic", ico_file]) == 1
    assert capsys.readouterr().out.startswith("unknown, at least 3")
    assert main(["--json", "--budget", "2", "chromatic", ico_file]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["chromatic_number"] is None and doc["at_least"] == 3
    assert main(["chromatic", ico_file]) == 0
    assert capsys.readouterr().out.strip() == "4"


@pytest.mark.parametrize("command", ["solve", "chromatic"])
def test_negative_budget_is_an_input_error(command, capsys, ico_file, monkeypatch):
    assert main(["--budget", "-5", command, ico_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error")
    monkeypatch.setenv("GRUNBAUM_BUDGET", "-1")
    assert main([command, ico_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error")
    monkeypatch.setenv("GRUNBAUM_BUDGET", "0")
    assert main([command, ico_file]) == 1


def test_gen_k6_prints_an_embedding(capsys):
    assert main(["gen", "k6", "444A"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("vertices: 6")


def test_gen_named_abstract_graph_exits_2(capsys):
    assert main(["gen", "named", "h7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "abstract graph" in captured.err


def test_gen_named_grid_prints_its_embedding(capsys):
    assert main(["gen", "named", "C11^3"]) == 0
    assert capsys.readouterr().out.startswith("vertices: 11")


def test_gen_unknown_generator_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.fixture
def t331_files(tmp_path):
    emb_path = tmp_path / "t331.emb"
    main(["gen", "altshuler", "3", "3", "1", "--out", str(emb_path)])
    gcol = tmp_path / "t331.gcol"
    main(["solve", str(emb_path), "--out", str(gcol)])
    return str(emb_path), str(gcol)


def test_kempe_on_a_non_edge_exits_2(capsys, t331_files):
    assert not read_embedding(t331_files[0]).has_edge(0, 5)
    capsys.readouterr()
    assert main(["kempe", *t331_files, "--edge", "0,5", "--colors", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no edge 0-5" in captured.err


def test_kempe_seed_outside_the_colors_exits_2(capsys, t331_files):
    emb = read_embedding(t331_files[0])
    coloring = read_coloring(t331_files[1], emb)
    seed = coloring[emb.edge_id(0, 1)]
    others = ",".join(str(c) for c in range(3) if c != seed)
    capsys.readouterr()
    assert main(["kempe", *t331_files, "--edge", "0,1", "--colors", others]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: seed edge")


def test_solve_genus_two_is_an_input_error(tmp_path, capsys):
    # K5 with every rotation in increasing order embeds with genus 2
    path = tmp_path / "k5.emb"
    write_embedding(build_embedding([[w for w in range(5) if w != v] for v in range(5)]),
                    path)
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: genus 2 is out of scope")


def test_solve_non_triangulation_is_an_error(tmp_path, capsys):
    path = tmp_path / "k6_6.emb"
    assert main(["gen", "k6", "6", "--out", str(path)]) == 0
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: solve expects a triangulation")
