"""Tests of the benchmark's own checks and input generation.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import grunbaum  # noqa: E402
import check  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    """A stellated torus grid and the package's solve report for it."""
    inp = workloads.build("exact", 7, grunbaum)[0]
    emb = grunbaum.fileio.read_embedding(io.StringIO(inp.text))
    report = grunbaum.pipeline.solve(emb, grunbaum.solver.Budget())
    return inp.rot, json.loads(report.to_json(emb))


def dump(doc, coloring):
    return json.dumps(dict(doc, coloring=coloring))


def test_accepts_the_package_output(solved):
    rot, doc = solved
    check.check_solution(rot, dump(doc, doc["coloring"]))


@pytest.mark.parametrize("shift", [1, 2])
def test_rejects_one_edge_recolored(solved, shift):
    rot, doc = solved
    coloring = [list(t) for t in doc["coloring"]]
    coloring[5][2] = (coloring[5][2] + shift) % 3
    with pytest.raises(check.CheckError, match="sees colors"):
        check.check_solution(rot, dump(doc, coloring))


def test_rejects_a_missing_edge(solved):
    rot, doc = solved
    with pytest.raises(check.CheckError, match="not colored"):
        check.check_solution(rot, dump(doc, doc["coloring"][1:]))


def test_rejects_a_face_that_repeats_a_color(solved):
    rot, doc = solved
    color = {(min(u, v), max(u, v)): c for u, v, c in doc["coloring"]}
    a, b, c = check.faces(rot)[0]
    color[(min(b, c), max(b, c))] = color[(min(a, b), max(a, b))]
    coloring = [[u, v, k] for (u, v), k in color.items()]
    with pytest.raises(check.CheckError, match="sees colors"):
        check.check_solution(rot, dump(doc, coloring))


def test_rejects_an_edge_colored_twice_and_a_non_edge(solved):
    rot, doc = solved
    with pytest.raises(check.CheckError, match="twice"):
        check.check_solution(rot, dump(doc, doc["coloring"] + doc["coloring"][:1]))
    far = next(v for v in range(len(rot)) if v != 0 and v not in rot[0])
    with pytest.raises(check.CheckError, match="not an edge"):
        check.check_solution(rot, dump(doc, doc["coloring"] + [[0, far, 0]]))


def test_rejects_a_status_other_than_found(solved):
    rot, doc = solved
    with pytest.raises(check.CheckError, match="UNKNOWN"):
        check.check_solution(rot, json.dumps(dict(doc, status="UNKNOWN")))


def test_genus_and_triangulation_checks():
    octa = [list(r) for r in grunbaum.catalog.catalog_embedding("octahedron").rotations]
    check.check_triangulation(octa, 0)
    with pytest.raises(check.CheckError, match="genus 0"):
        check.check_triangulation(octa, 1)
    octa[0] = octa[0][::-1]
    with pytest.raises(check.CheckError):
        check.check_triangulation(octa, 0)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(name):
    first = [inp.text for inp in workloads.build(name, 11, grunbaum)]
    again = [inp.text for inp in workloads.build(name, 11, grunbaum)]
    other = [inp.text for inp in workloads.build(name, 12, grunbaum)]
    assert "".join(first).encode() == "".join(again).encode()
    assert first != other
