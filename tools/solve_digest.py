"""Digest what ``pipeline.solve`` returns on fixed input sets.

For the checkout this file lives in, prints one line per input set: the
set's name, its input count, a SHA-256 over every input's status, method,
trace, ``stats.nodes`` and coloring, after ``outcomes=`` a second SHA-256
over the same fields without ``stats.nodes``, after ``routes=`` a third
over status, method and trace only, after ``nodes=`` the set's total of
``stats.nodes`` and after ``max=`` its largest, the set's worst input.  Two
checkouts that print the same lines solve those inputs identically; two
that differ only in the first hash and the node counts reach the same
outcomes with other node counts; two that agree only
on ``routes=`` take the same route through the same stages to other
colorings.  Wall times are left out.

The input sets are each benchmark workload (built by ``bench/workloads.py``)
at every seed given, then the toroidal, planar and five-chromatic instances
of ``tests/corpus.py`` and its census of every torus triangulation with 7,
8 or 9 vertices.  A workload input is parsed from the same ``.emb``
text the benchmark hands the program.

    python3 tools/solve_digest.py              # seeds 1 and 1009
    python3 tools/solve_digest.py 1 7
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "bench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import grunbaum  # noqa: E402
import corpus  # noqa: E402
import workloads  # noqa: E402
from grunbaum.pipeline import solve  # noqa: E402

CORPUS_SETS = {
    "corpus-toroidal": lambda: [i.embedding for i in corpus.toroidal_corpus()],
    "corpus-planar": lambda: [i.embedding for i in corpus.planar_corpus()],
    "corpus-five-chromatic": lambda: [i.embedding for i in corpus.five_chromatic_instances()],
    "corpus-torus-census": lambda: [e for n in (7, 8, 9) for e in corpus.torus_census(n)],
}


def outcome(emb) -> list:
    report = solve(emb)
    coloring = None if report.coloring is None else list(report.coloring.colors)
    return [report.status, report.method, list(report.trace), report.nodes, coloring]


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for fields in outcomes:
        h.update(json.dumps(fields).encode())
        h.update(b"\n")
    return h.hexdigest()


def summary(name: str, outcomes: list) -> str:
    """The set's line: all three hashes, the second with ``stats.nodes``
    left out, the third with the coloring left out as well, then the
    total and the largest node count."""
    no_nodes = [fields[:3] + fields[4:] for fields in outcomes]
    routes = [fields[:3] for fields in outcomes]
    nodes = [fields[3] for fields in outcomes]
    return (f"{name} ({len(outcomes)} inputs): {digest(outcomes)} "
            f"outcomes={digest(no_nodes)} routes={digest(routes)} "
            f"nodes={sum(nodes)} max={max(nodes, default=0)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", nargs="*", type=int, default=[1, 1009])
    args = ap.parse_args(argv)
    if Path(grunbaum.__file__).resolve().parent != ROOT / "src" / "grunbaum":
        raise SystemExit(f"solve_digest: imported {grunbaum.__file__}, not the checkout's")
    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            inputs = workloads.build(name, seed, grunbaum)
            lines = [outcome(grunbaum.fileio.read_embedding(io.StringIO(inp.text)))
                     for inp in inputs]
            print(summary(f"{name} seed={seed}", lines), flush=True)
    for name, embeddings in CORPUS_SETS.items():
        lines = [outcome(emb) for emb in embeddings()]
        print(summary(name, lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
