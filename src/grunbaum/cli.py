"""Command-line interface.

Exit codes: 0 success / FOUND, 1 UNSAT / UNKNOWN / failed verification,
2 input or usage error.  ``--json`` switches the report to JSON on stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import catalog as cat
from .coloring import kempe_change, verify_partial
from .embedding import genus, is_triangulation, trace_faces
from .errors import BudgetExceeded, ChromaticUnknown, GrunbaumError
from .fileio import (
    FormatError,
    read_coloring,
    read_embedding,
    write_coloring,
    write_embedding,
)
from .pipeline import solve
from .solver import FOUND, UNKNOWN, UNSAT, Budget, SolveReport, color_faces
from .chroma import chromatic_number


def _budget(args) -> Budget:
    nodes = args.budget
    env = os.environ.get("GRUNBAUM_BUDGET")
    if nodes is None and env:
        nodes = int(env)
    if nodes is None:
        return Budget()
    return Budget(nodes=nodes)


def cmd_faces(args) -> int:
    emb = read_embedding(args.file)
    fs = trace_faces(emb)
    doc = {
        "vertices": emb.num_vertices,
        "edges": emb.num_edges,
        "faces": list(fs.census()),
        "genus": genus(emb),
        "triangulation": is_triangulation(emb),
    }
    if args.json:
        print(json.dumps(doc))
    else:
        print(
            f"faces: {','.join(map(str, doc['faces']))} genus: {doc['genus']} "
            f"triangulation: {'yes' if doc['triangulation'] else 'no'}"
        )
    return 0


def _exact_search(emb, pins, budget: Budget) -> SolveReport:
    """Exhaustive search alone, holding the pinned edges (edge -> color)."""
    started = time.perf_counter()
    try:
        coloring = color_faces(emb, budget, pins)
        report = SolveReport(UNSAT if coloring is None else FOUND, coloring, "EXACT")
    except BudgetExceeded as exc:
        report = SolveReport(UNKNOWN, method="EXACT", trace=(f"exact search: {exc}",))
    report.nodes, report.millis = budget.used_nodes, 1000 * (time.perf_counter() - started)
    return report


def cmd_solve(args) -> int:
    emb = read_embedding(args.file)
    budget = _budget(args)
    if args.method == "exact" or args.fixed:
        fixed = read_coloring(args.fixed, emb, partial=True).colors if args.fixed else ()
        pins = {e: c for e, c in enumerate(fixed) if c is not None}
        report = _exact_search(emb, pins, budget)
    else:
        report = solve(emb, budget=budget)
    if report.found:
        # the pipeline reports FOUND only for a verified coloring; exact
        # search does not check, so every coloring is checked before writing
        if not verify_partial(emb, report.coloring).ok:
            print("internal error: coloring failed verification", file=sys.stderr)
            return 1
        if args.out:
            write_coloring(emb, report.coloring, args.out)
    if args.json:
        print(report.to_json(emb))
    else:
        line = f"{report.status} method: {report.method} nodes: {report.nodes}"
        if report.trace:
            line += " | " + "; ".join(report.trace)
        print(line)
    return 0 if report.found else 1


def cmd_verify(args) -> int:
    emb = read_embedding(args.embfile)
    coloring = read_coloring(args.gcolfile, emb, partial=True)
    report = verify_partial(emb, coloring)
    print(report.to_json() if args.json else
          f"{report.status} violations: {len(report.violations)} "
          f"coverage: {report.coverage['colored_edges']}/{report.coverage['total_edges']}")
    return 0 if report.ok else 1


def cmd_gen(args) -> int:
    try:
        if args.generator == "altshuler":
            r, c, s = (int(x) for x in args.params)
            emb = cat.gen_altshuler(r, c, s).embedding
        elif args.generator == "k6":
            (variant,) = args.params
            emb = cat.gen_k6(variant)
        elif args.generator == "named":
            (name,) = args.params
            obj = cat.gen_named(name)
            emb = obj.embedding if isinstance(obj, cat.GridTriangulation) else obj
            if not hasattr(emb, "rotations"):
                print("that name is an abstract graph, not an embedding",
                      file=sys.stderr)
                return 2
        else:  # refine; argparse's choices reject any other generator
            path, steps = args.params
            emb = cat.random_refinement(read_embedding(path), int(steps),
                                        seed=args.seed)
    except ValueError as exc:
        raise ValueError(f"bad generator arguments {args.params}: {exc}") from exc
    text = write_embedding(emb, args.out)
    if not args.out:
        sys.stdout.write(text)
    return 0


def cmd_chromatic(args) -> int:
    emb = read_embedding(args.file)
    try:
        chi = chromatic_number(emb.adjacency(), budget=_budget(args))
    except ChromaticUnknown as exc:
        if args.json:
            print(json.dumps({"chromatic_number": None, "at_least": exc.at_least,
                              "reason": str(exc)}))
        else:
            print(f"unknown, at least {exc.at_least} ({exc})")
        return 1
    print(json.dumps({"chromatic_number": chi}) if args.json else chi)
    return 0


def cmd_kempe(args) -> int:
    emb = read_embedding(args.embfile)
    coloring = read_coloring(args.gcolfile, emb, partial=True)
    u, v = (int(x) for x in args.edge.split(","))
    a, b = (int(x) for x in args.colors.split(","))
    if not emb.has_edge(u, v):
        print(f"no edge {u}-{v}", file=sys.stderr)
        return 2
    changed = kempe_change(emb, coloring, emb.edge_id(u, v), (a, b))
    text = write_coloring(emb, changed, args.out)
    if not args.out:
        sys.stdout.write(text)
    return 0


# Defaults of the global flags.  They are filled in after parsing, not set on
# the parsers: the flag actions are shared with every subparser through
# ``parents=[common]``, and a real default there would let the subparser
# overwrite a value given before the subcommand.
GLOBAL_DEFAULTS = {"json": False, "seed": 0, "budget": None}


def main(argv=None) -> int:
    # global flags are accepted on either side of the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized steps (default 0)")
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help="search node budget (default from GRUNBAUM_BUDGET or 1e7)")

    parser = argparse.ArgumentParser(
        prog="grunbaum",
        parents=[common],
        description="Edge 3-colorings of sphere and torus triangulations "
        "in which every face sees three colors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("faces", parents=[common],
                       help="print face census, genus, triangulation flag")
    p.add_argument("file")
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("solve", parents=[common],
                       help="produce a coloring and a report")
    p.add_argument("file")
    p.add_argument("--method", choices=("auto", "exact"), default="auto")
    p.add_argument("--fixed", default=None,
                   help="partial coloring (.gcol) to respect; forces exact search")
    p.add_argument("--out", default=None, help="write the coloring here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", parents=[common],
                       help="check a coloring against an embedding")
    p.add_argument("embfile")
    p.add_argument("gcolfile")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", parents=[common], help="generate an embedding")
    p.add_argument("generator", choices=("altshuler", "k6", "named", "refine"))
    p.add_argument("params", nargs="*")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("chromatic", parents=[common], help="exact chromatic number")
    p.add_argument("file")
    p.set_defaults(func=cmd_chromatic)

    p = sub.add_parser("kempe", parents=[common],
                       help="apply one Kempe change to a coloring")
    p.add_argument("embfile")
    p.add_argument("gcolfile")
    p.add_argument("--edge", required=True, metavar="U,V")
    p.add_argument("--colors", required=True, metavar="A,B")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_kempe)

    args = parser.parse_args(argv)
    for name, value in GLOBAL_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, value)
    try:
        return args.func(args)
    except (FormatError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GrunbaumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
