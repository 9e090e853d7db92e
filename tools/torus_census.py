"""Solve every torus triangulation with n vertices and tally the routes.

For each n given (default 10 and 11), lists every triangulation of the
torus with n vertices once up to isomorphism and mirror image
(``tests/corpus.py``'s ``torus_census``), solves each with
``pipeline.solve``, and prints:

- the count, with the wall time of the enumeration and of the solves;
- one line per chromatic number, giving each route taken and its count;
- a digest line in ``tools/solve_digest.py``'s format, which two
  checkouts that solve these inputs identically print byte for byte.

An input that does not end FOUND, or whose solve raises, is printed with
its rotations, so that it can be kept as a fixture.  The published counts
are 1, 7, 112, 2,109 and 37,867 for 7-11 vertices (Lutz, The Manifold
Page; Sulanke & Lutz, Europ. J. Combin. 30, 2009).  n = 11 takes about a
minute and a half on a 2-vCPU VM, most of it enumeration.

    python3 tools/torus_census.py          # n = 10 and 11
    python3 tools/torus_census.py 9 10
"""
from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

import solve_digest  # puts the checkout's src, bench and tests first on the path
import corpus  # noqa: E402
from grunbaum.chroma import chromatic_number  # noqa: E402


def outcome(emb) -> list:
    """``solve_digest.outcome``, with an exception recorded as its outcome."""
    try:
        return solve_digest.outcome(emb)
    except Exception as exc:  # noqa: BLE001 - a raise is a result to report
        return ["EXCEPTION", type(exc).__name__, [str(exc)], 0, None]


def census_lines(n: int) -> list[str]:
    started = time.perf_counter()
    census = corpus.torus_census(n)
    enumerated = time.perf_counter()
    outcomes = [outcome(emb) for emb in census]
    solved = time.perf_counter()
    lines = [f"n={n}: {len(census)} inputs, enumeration {enumerated - started:.1f} s, "
             f"solves {solved - enumerated:.1f} s"]
    tally: Counter = Counter()
    for emb, (status, method, trace, _, _) in zip(census, outcomes):
        chi = chromatic_number(emb.adjacency())
        tally[chi, method if status == "FOUND" else f"{status} {method}"] += 1
        if status != "FOUND":
            lines.append(f"  {status} {method} {trace}: {[list(r) for r in emb.rotations]}")
    for chi in sorted({chi for chi, _ in tally}):
        routes = sorted(((count, route) for (c, route), count in tally.items() if c == chi),
                        key=lambda item: (-item[0], item[1]))
        lines.append(f"  chi={chi}: " + ", ".join(f"{route} {count}" for count, route in routes))
    lines.append(solve_digest.summary(f"torus-census n={n}", outcomes))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", nargs="*", type=int, default=[10, 11])
    args = ap.parse_args(argv)
    for n in args.sizes:
        print("\n".join(census_lines(n)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
