"""Command-line interface.

Subcommands:

* ``run``: evaluate one problem on one input, top-down, bottom-up, or
  both with an EQUAL/DIFFER verdict. Inputs are capped at ``RUN_MAX_INPUT``
  elements, at ``TD_MAX_INPUT`` wherever ``td`` runs (``verify`` keeps
  ``td`` within it too) and at ``TRACE_MAX_INPUT`` for ``trace``.
* ``verify``: replay the law registry (``sublists.laws``) over alphabet
  prefixes and print per-law pass counts; the first counterexample stops
  the sweep.
* ``dump``: print a choice tree (or its raised form) as canonical JSON.
  Inputs longer than ``RUN_MAX_INPUT`` are refused before any tree is built.
* ``bench``: emit CSV rows of the two evaluators' combine-call counts, from
  ``solver.predicted_cost``, running neither; rows stop at ``TD_MAX_INPUT``.

Exit codes: 0 success, 1 a law or equivalence check failed, 2 usage
error (unknown problem, malformed input, out-of-range parameters) or a
library refusal (a ``SublistsError``), 141 stdout's reader left before the
output was all written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import combinatorics as comb
from . import core_tree as tree
from . import instances, laws
from . import level_engine as lvl
from . import solver
from .errors import SublistsError

RUN_MAX_INPUT = 20
# td makes 1 + m * (its calls on m - 1 elements) combine calls on m elements:
# 2,606,501 at 10 elements, 28,671,512 at 11
TD_MAX_INPUT = 10
# trace answers hold 97,259,824 characters at 11 elements, 1,167,117,890 at 12
TRACE_MAX_INPUT = 11


@functools.cache  # built on first use; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublists",
        description="solve immediate-sublist recurrences two ways and check they agree",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate one problem on one input")
    run.add_argument("--problem", required=True, help="registered problem name")
    run.add_argument("--input", required=True, help="input sequence (chars, or comma-separated ints)")
    run.add_argument("--algo", choices=["td", "bu", "both"], default="both")
    run.add_argument("--format", choices=["text", "json"], default="text")

    verify = sub.add_parser("verify", help="replay the library's laws over alphabet prefixes")
    verify.add_argument("--max-len", dest="max_len", type=int, default=9)
    verify.add_argument("--format", choices=["text", "json"], default="text")

    dump = sub.add_parser("dump", help="print a choice tree as canonical JSON")
    dump.add_argument("--k", type=int, required=True, help="selection size")
    dump.add_argument("--input", required=True, help="input characters")
    dump.add_argument("--stage", choices=["tree", "after-up"], default="tree")

    bench = sub.add_parser("bench", help="emit CSV cost-comparison rows")
    bench.add_argument("--max-len", dest="max_len", type=int, default=9)
    return parser


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_run(args: argparse.Namespace) -> int:
    problem = instances.get_problem(args.problem)
    if problem is None:
        return _usage(f"unknown problem {args.problem!r}")
    try:
        xs = instances.parse_input(problem, args.input)
    except ValueError as exc:
        return _usage(str(exc))
    if len(xs) > RUN_MAX_INPUT:
        return _usage(f"input length {len(xs)} exceeds the limit of {RUN_MAX_INPUT}")
    if args.algo != "bu" and len(xs) > TD_MAX_INPUT:
        return _usage(f"input length {len(xs)} exceeds the td limit of {TD_MAX_INPUT}")
    if problem is instances.TRACE and len(xs) > TRACE_MAX_INPUT:
        size = instances.trace_answer_length(len(xs))
        return _usage(f"input length {len(xs)} exceeds the trace limit of {TRACE_MAX_INPUT}: "
                      f"its answer would hold {size:,} characters")

    n = len(xs) - 1
    algos = list(solver.Algorithm) if args.algo == "both" else [solver.Algorithm(args.algo)]
    outcomes = [(algo, *solver.run_with_stats(algo, n, problem, xs)) for algo in algos]

    verdict = None
    if len(outcomes) == 2:
        verdict = "EQUAL" if outcomes[0][1] == outcomes[1][1] else "DIFFER"

    if args.format == "json":
        doc = {
            "command": "run",
            "problem": problem.name,
            "input": args.input,
            "results": {
                algo.value: {"value": value, "stats": dataclasses.asdict(stats)}
                for algo, value, stats in outcomes
            },
        }
        if verdict is not None:
            doc["verdict"] = verdict
        print(json.dumps(doc, separators=(",", ":")))
    else:
        for algo, value, stats in outcomes:
            print(f"{algo.value} result: {value}")
            print(
                f"{algo.value} stats: f_calls={stats.f_calls} "
                f"g_calls={stats.g_calls} peak_level_tips={stats.peak_level_tips}"
            )
        if verdict is not None:
            print(f"verdict: {verdict}")
    return 1 if verdict == "DIFFER" else 0


def cmd_verify(args: argparse.Namespace) -> int:
    if not 1 <= args.max_len <= TD_MAX_INPUT:
        return _usage(f"--max-len must be between 1 and {TD_MAX_INPUT}")
    try:
        results = laws.replay_all(args.max_len)
    except laws.Counterexample as cx:
        if args.format == "json":
            doc = {"command": "verify", "status": "fail", "law": cx.law, "counterexample": cx.info}
            print(json.dumps(doc, separators=(",", ":")))
        else:
            print(f"law {cx.law}: counterexample")
            for key, value in cx.info.items():
                print(f"  {key}: {value}")
        return 1
    total = sum(count for _, count in results)
    if args.format == "json":
        doc = {
            "command": "verify",
            "status": "ok",
            "max_len": args.max_len,
            "laws": [{"name": name, "cases": count} for name, count in results],
            "total_cases": total,
        }
        print(json.dumps(doc, separators=(",", ":")))
    else:
        for name, count in results:
            print(f"law {name}: {count} cases ok")
        print(f"all laws passed ({total} cases)")
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    xs = args.input
    if len(xs) > RUN_MAX_INPUT:
        return _usage(f"input length {len(xs)} exceeds the limit of {RUN_MAX_INPUT}")
    t = comb.ch(args.k, xs)
    if args.stage == "after-up":
        t = lvl.up(t)
    print(tree.encode_tree(t))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    # row n counts the calls on n + 1 elements, up to td's cap
    if not 0 <= args.max_len <= TD_MAX_INPUT - 1:
        return _usage(f"--max-len must be between 0 and {TD_MAX_INPUT - 1}")
    print("n,td_g_calls,bu_g_calls")
    for n in range(0, args.max_len + 1):
        td_cost = solver.predicted_cost(solver.Algorithm.TOP_DOWN, n)
        bu_cost = solver.predicted_cost(solver.Algorithm.BOTTOM_UP, n)
        print(f"{n},{td_cost.g_calls},{bu_cost.g_calls}")
    return 0


_HANDLERS = {"run": cmd_run, "verify": cmd_verify, "dump": cmd_dump, "bench": cmd_bench}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a reader gone early is met here, not in the flush at exit
    except SublistsError as exc:
        # the library's refusals: an empty input, --k out of range, after-up on a single tip
        return _usage(str(exc))
    except BrokenPipeError:  # the rest goes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
