#!/usr/bin/env python3
"""Solve benchmark: what ``grunbaum --json solve F`` does, minus interpreter
start-up, in a closed loop from one thread.

One operation parses an .emb text with ``fileio.read_embedding``, runs
``pipeline.solve`` with the default budget and serializes the report with
``SolveReport.to_json``.  Every output is checked by this directory's own
face tracing.  Run from the root of a checkout:

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs untraced and traced
rounds in turn and reports the per-layer metrics, and writes the spans and
the per-operation routes to ``bench/out/``.  See README.md.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import check
import workloads
from tracer import LAYERS, ROOT_SPAN, Tracer, span_name

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PACKAGE = "grunbaum"
SETUPS = 3  # set-up is repeated and its median reported

# the highest percentile with at least ten operations beyond it in a single
# round (one pass over the workload's inputs; see README.md)
TAIL = {"grid": 96, "lift": 90, "critical": 93, "exact": 90}


def load_package():
    """Import the package afresh from this checkout's source tree, then load
    and validate its bundled catalog."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package source under {SRC}")
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = __import__(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise SystemExit(f"run.py: imported {package.__file__}, not the checkout's")
    package.catalog.figure_ids()
    return package


def setup(workload, seed):
    times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        package = load_package()
        inputs = workloads.build(workload, seed, package)
        times.append(perf_counter() - t0)
    return package, inputs, statistics.median(times)


def solve_text(package, text):
    """The operation: parse, solve with the default budget, serialize."""
    emb = package.fileio.read_embedding(io.StringIO(text))
    report = package.pipeline.solve(emb, package.solver.Budget())
    return report, report.to_json(emb)


class Results:
    """Times and outcomes of every operation, plus the checked outputs."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.checked = [None] * len(inputs)  # output text that passed the check
        self.times = []
        self.failed = 0
        self.wrong = 0
        self.max_nodes = 0
        self.errors = []

    def record(self, i, seconds, outcome):
        inp = self.inputs[i]
        self.times.append(seconds)
        if isinstance(outcome, Exception):
            self._fail(inp, f"{type(outcome).__name__}: {outcome}")
            return None
        report, text = outcome
        self.max_nodes = max(self.max_nodes, report.nodes)
        if text == self.checked[i]:
            return report
        try:
            check.check_solution(inp.rot, text)
        except check.CheckError as exc:
            if report.status == "FOUND":
                self.wrong += 1
            self._fail(inp, f"{report.status} {report.method}: {exc}")
            return None
        self.checked[i] = text
        return report

    def _fail(self, inp, why):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{inp.label} ({inp.size} V): {why}")


def solve_one(package, results, i, tracer=None):
    """Solve input i once, timed; returns (seconds, report or None)."""
    text = results.inputs[i].text
    t0 = perf_counter()
    try:
        if tracer is None:
            outcome = solve_text(package, text)
        else:
            outcome = tracer.operation(solve_text, package, text)
    except Exception as exc:  # counted as a failed operation
        outcome = exc
    seconds = perf_counter() - t0
    return seconds, results.record(i, seconds, outcome)


def run_round(package, results, per_input):
    for i in range(len(results.inputs)):
        seconds, _ = solve_one(package, results, i)
        per_input[i].append(seconds)


def traced_round(package, results, tracer):
    """Solve every input twice back to back, untraced and traced in turn
    (the order alternates), so that the difference, the tracing overhead,
    is measured under the same machine conditions.  Returns the summed
    overhead in seconds and every traced operation's route, time and
    per-layer self times."""
    overhead = 0.0
    ops = []
    for i, inp in enumerate(results.inputs):
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_now:
                seconds, _ = solve_one(package, results, i)
                overhead -= seconds
                continue
            tracer.install()
            try:
                seconds, report = solve_one(package, results, i, tracer)
            finally:
                tracer.uninstall()
            overhead += seconds
            ops.append({
                "label": inp.label, "size": inp.size,
                "route": report.method if report else "FAILED",
                "ms": 1000 * seconds,
                "self_ms": {k: 1000 * v for k, v in tracer.op_self.items()},
            })
    return overhead, ops


def keep_going(start, rounds, seconds):
    """Whole rounds until the next one would end, on average, past the
    deadline: the measured time is centred on ``seconds``."""
    elapsed = perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


def percentile(values, p):
    """Nearest-rank percentile: ceil(p% of n) values are at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def end_to_end(workload, package, inputs, setup_s, seconds):
    """Whole rounds until ``seconds``.  The timings are taken over each
    input's median time across the rounds, so that a stretch of the run in
    which the machine is slower moves no metric unless it covers most
    rounds."""
    results = Results(inputs)
    per_input = [[] for _ in inputs]
    start = perf_counter()
    rounds = 0
    while True:
        run_round(package, results, per_input)
        rounds += 1
        if not keep_going(start, rounds, seconds):
            break
    typical_ms = [1000 * statistics.median(t) for t in per_input]
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_ms_p50": (statistics.median(typical_ms), "ms"),
        "solve_ms_tail": (percentile(typical_ms, TAIL[workload]), "ms"),
        "vertices_per_s": (1000 * sum(inp.size for inp in inputs) / sum(typical_ms),
                           "vertices/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    summary = (f"{workload}: {rounds} rounds of {len(inputs)} operations, "
               f"tail p{TAIL[workload]}, slowest {1000 * max(results.times):.1f} ms, "
               f"most nodes {results.max_nodes}")
    return results, metrics, summary


def layer_metrics(stats, overhead_s):
    out = {}
    for module, attr, counts in LAYERS:
        name = span_name(module, attr)
        st = stats[name]
        out[f"{name}.calls"] = (st.calls, "count")
        out[f"{name}.self_ms"] = (1000 * st.self_s, "ms")
        for count in counts:
            out[f"{name}.{count}"] = (st.nodes if count == "nodes" else st.useful, "count")
    out["pipeline.solve.ms"] = (1000 * stats["pipeline.solve"].total_s, "ms")
    root = stats[ROOT_SPAN]
    out[f"{ROOT_SPAN}.ms"] = (1000 * root.total_s, "ms")
    out[f"{ROOT_SPAN}.self_ms"] = (1000 * root.self_s, "ms")
    out["trace.overhead_ms"] = (1000 * overhead_s, "ms")
    return out


def counts_of(stats):
    return {name: (st.calls, st.nodes, st.useful) for name, st in stats.items()}


def traced(workload, seed, package, inputs, seconds):
    """Whole traced rounds until ``seconds``.  The per-layer metrics are per
    round: counts must repeat exactly in every round, and times are the
    mean over rounds.  Spans are kept for the first round and written out
    with every traced operation's route and self times."""
    results = Results(inputs)
    tracer = Tracer(package)
    start = perf_counter()
    rounds = 0
    overhead = 0.0
    per_round = None
    repeat = True
    while True:
        tracer.reset()
        extra, ops = traced_round(package, results, tracer)
        overhead += extra
        if per_round is None:
            per_round, first_ops = tracer.stats, ops
            tracer.keep_spans = False
        else:
            repeat &= counts_of(tracer.stats) == counts_of(per_round)
            for name, st in tracer.stats.items():
                per_round[name].self_s += st.self_s
                per_round[name].total_s += st.total_s
        rounds += 1
        if not keep_going(start, rounds, seconds):
            break
    for st in per_round.values():
        st.self_s /= rounds
        st.total_s /= rounds
    metrics = layer_metrics(per_round, overhead / rounds)
    accounted = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_ms"))
    if not math.isclose(accounted, metrics[f"{ROOT_SPAN}.ms"][0], rel_tol=1e-6):
        raise RuntimeError("self times do not add up to the operation time")
    write_trace(workload, seed, tracer, first_ops)
    summary = (f"{workload} traced: {rounds} rounds of untraced+traced pairs of "
               f"{len(inputs)} operations; counts "
               f"{'repeat' if repeat else 'DIFFER'} across rounds\n"
               + band_table(first_ops))
    return results, metrics, summary


def band_table(ops, bands=4):
    """Mean self time per operation (ms) of each busy layer, by input-size
    band, as a markdown table."""
    lo = min(op["size"] for op in ops)
    hi = max(op["size"] for op in ops)
    width = (hi - lo) / bands or 1
    groups = [[] for _ in range(bands)]
    for op in ops:
        groups[min(bands - 1, int((op["size"] - lo) / width))].append(op)
    layers = {}
    for op in ops:
        for name, ms in op["self_ms"].items():
            layers[name] = layers.get(name, 0.0) + ms
    busy = sorted((n for n in layers if layers[n] >= 0.01 * sum(layers.values())),
                  key=lambda n: -layers[n])
    heads = []
    for b in range(bands):
        a = lo + b * width
        heads.append(f"{a:.0f}-{a + width:.0f} V ({len(groups[b])})")
    lines = ["| layer | " + " | ".join(heads) + " |",
             "|---" * (bands + 1) + "|"]
    for name in busy + ["op total"]:
        cells = []
        for group in groups:
            if not group:
                cells.append("-")
                continue
            if name == "op total":
                v = sum(op["ms"] for op in group) / len(group)
            else:
                v = sum(op["self_ms"].get(name, 0.0) for op in group) / len(group)
            cells.append(f"{v:.2f}")
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    routes = {}
    for op in ops:
        routes[op["route"]] = routes.get(op["route"], 0) + 1
    lines.append("routes: " + ", ".join(f"{r} {n}" for r, n in sorted(routes.items())))
    return "\n".join(lines)


def write_trace(workload, seed, tracer, ops):
    OUT.mkdir(exist_ok=True)
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "workload": workload, "seed": seed, "operations": ops,
        "span_names": names,
        "spans": [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p in tracer.spans],
    }
    path = OUT / f"{workload}-seed{seed}-trace.json"
    path.write_text(json.dumps(doc, separators=(",", ":")))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package, inputs, setup_s = setup(args.workload, args.seed)
    if args.trace:
        results, metrics, summary = traced(args.workload, args.seed, package,
                                           inputs, args.seconds)
    else:
        results, metrics, summary = end_to_end(args.workload, package, inputs,
                                               setup_s, args.seconds)
    print(summary, file=sys.stderr)
    for line in results.errors:
        print("failed:", line, file=sys.stderr)
    print(json.dumps({
        "correct": results.wrong == 0,
        "attempted": len(results.times),
        "failed": results.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
