"""The traced run: spans around the calls into each module, per-layer metrics.

The program carries no tracing of its own. The traced run re-drives each
evaluator from here through the public functions it is built from, with
one span per call:

* ``bu`` through ``ch``, ``map_tree``, ``up``, ``un_tip`` and ``combine``;
* ``td`` through ``subs``, ``base`` and ``combine``;
* the CLI op through ``build_parser``, ``parse_args``, ``get_problem`` and
  ``parse_input``, then the ``td`` and ``bu`` replicas in place of the
  evaluators ``run_with_stats`` would call. ``run_with_stats`` itself is
  timed beside the op, against the bare evaluators on the same input.

Every replica answer must equal the untraced answer, and every count must
equal its closed form; a mismatch fails the op.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Any, Callable

from workloads import (
    ROOT,
    Op,
    Program,
    Workload,
    answers,
    fingerprint,
    memo_solve,
    run_op,
    setup,
)

SPANS_DIR = ROOT / ".perfbench"

# name -> unit, in report order; the derivations are in layer_metrics
PER_LAYER_UNITS = {
    "level_engine.up_ms": "ms",
    "level_engine.up_share": "ratio",
    "level_engine.tips_raised": "count",
    "core_tree.map_self_ms": "ms",
    "core_tree.objects_built": "count",
    "instances.combine_ms": "ms",
    "instances.combine_share": "ratio",
    "instances.combine_calls": "count",
    "instances.value_len_max": "items",
    "instances.value_len_total": "items",
    "combinatorics.subs_ms": "ms",
    "combinatorics.subs_calls": "count",
    "solver.seed_ms": "ms",
    "solver.stats_overhead_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.self_ms": "ms",
    "trace.op_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "ref.memo_ms": "ms",
}


class Tracer:
    """Spans kept in memory, in flat arrays, until written once at the end.

    A span has a name, start and end (ns), the index of the enclosing span
    (-1 for a root) and the id of the op it belongs to. Besides spans the
    tracer counts what crosses the layer boundaries: calls per span name,
    tips of the trees ``up`` returns, tree objects returned, and the size
    of every combined value.
    """

    def __init__(self, tip_type: type):
        self._tip = tip_type
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.op_id = -1
        self.calls: Counter[str] = Counter()
        self.tips_raised = 0
        self.objects_built = 0
        self.value_len_total = 0
        self.value_len_max = 0

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.calls[name] += 1
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def call(self, name: str, fn: Callable, *args):
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def tree(self, name: str, fn: Callable, *args):
        """A traced call returning a tree, whose objects are then counted."""
        t = self.call(name, fn, *args)
        self.count(name, t)
        return t

    def count(self, name: str, t) -> None:
        """Count the tips of a tree the call ``name`` returned, in a span of
        its own, so the counting is kept out of every layer's time."""
        with self.span("bench.count"):
            tips = 0
            stack = [t]
            while stack:
                node = stack.pop()
                if isinstance(node, self._tip):
                    tips += 1
                else:
                    stack.append(node.left)
                    stack.append(node.right)
        self.objects_built += 2 * tips - 1
        if name == "level_engine.up":
            self.tips_raised += tips

    def combine(self, problem) -> Callable[[list], Any]:
        def traced(ys):
            value = self.call("instances.combine", problem.combine, ys)
            size = len(value) if isinstance(value, (str, list, tuple)) else 1
            self.value_len_total += size
            self.value_len_max = max(self.value_len_max, size)
            return value

        return traced

    def counts(self) -> dict[str, int]:
        return {
            "combine": self.calls["instances.combine"],
            "subs": self.calls["combinatorics.subs"],
            "base": self.calls["instances.base"],
            "tips_raised": self.tips_raised,
        }

    def durations(self) -> tuple[Counter, Counter]:
        """Total and self time per span name, in ms. Self time is the span's
        duration minus the part of it its child spans cover."""
        total: Counter[str] = Counter()
        child = [0] * len(self.start)
        for i in range(len(self.start) - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            total[self.names[self.name_id[i]]] += dur
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur
        own: Counter[str] = Counter()
        for i in range(len(self.start)):
            own[self.names[self.name_id[i]]] += self.end[i] - self.start[i] - child[i]
        return (
            Counter({k: v / 1e6 for k, v in total.items()}),
            Counter({k: v / 1e6 for k, v in own.items()}),
        )

    def write(self, path: Path) -> None:
        """All spans as gzip'd TSV: op, span, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )


def bu_replica(tr: Tracer, prog: Program, n: int, problem, xs):
    """solver.bu, one span per call into the modules it is built from."""
    ct = prog.core_tree
    with tr.span("solver.seed"):
        seeds = [problem.base(x) for x in xs]
        chosen = tr.call("combinatorics.ch", prog.combinatorics.ch, 1, seeds)
        level = tr.call("core_tree.map_tree", ct.map_tree, ct.extract_singleton, chosen)
    tr.count("combinatorics.ch", chosen)
    tr.count("core_tree.map_tree", level)
    combine = tr.combine(problem)
    for _ in range(n):
        level = tr.tree("level_engine.up", prog.level_engine.up, level)
        level = tr.tree("core_tree.map_tree", ct.map_tree, combine, level)
    return tr.call("core_tree.un_tip", ct.un_tip, level)


def td_replica(tr: Tracer, prog: Program, n: int, problem, xs, combine=None):
    """solver.td, one span per call of subs, base and combine."""
    combine = combine or tr.combine(problem)
    if n == 0:
        return tr.call("instances.base", problem.base, prog.core_tree.extract_singleton(xs))
    parts = [
        td_replica(tr, prog, n - 1, problem, ys, combine)
        for ys in tr.call("combinatorics.subs", prog.combinatorics.subs, xs)
    ]
    return combine(parts)


def bu_combines(n: int) -> int:
    """bu combine calls, and tips raised by up: sum_{j=2}^{n+1} C(n+1, j)."""
    return sum(math.comb(n + 1, j) for j in range(2, n + 2))


def td_combines(n: int) -> int:
    """td combine calls (and subs calls): c(0) = 0, c(m) = 1 + (m+1) c(m-1)."""
    c = 0
    for m in range(1, n + 1):
        c = 1 + (m + 1) * c
    return c


def expected_counts(algo: str, n: int) -> dict[str, int]:
    if algo == "bu":
        return {"combine": bu_combines(n), "subs": 0, "base": 0, "tips_raised": bu_combines(n)}
    return {"combine": td_combines(n), "subs": td_combines(n), "base": math.factorial(n + 1), "tips_raised": 0}


def evaluate(tr: Tracer, prog: Program, algo: str, problem, xs) -> tuple[Any, bool]:
    """Run one evaluator replica under its span; (answer, counts match)."""
    n = len(xs) - 1
    before = tr.counts()
    with tr.span(f"solver.{algo}"):
        value = (bu_replica if algo == "bu" else td_replica)(tr, prog, n, problem, xs)
    after = tr.counts()
    observed = {k: after[k] - before[k] for k in after}
    return value, observed == expected_counts(algo, n)


def traced_op(tr: Tracer, wl: Workload, prog: Program, op: Op) -> bool:
    """Traced replica, untraced op, run_with_stats against bare, memo reference.

    Returns whether every answer equals the reference and every count met
    its closed form.
    """
    algos = ["bu"] if wl.kind == "solve" else ["td", "bu"]
    problem = prog.instances.get_problem(op.problem)
    with tr.span("op"):
        if wl.kind == "cli":
            parser = tr.call("cli.build_parser", prog.cli.build_parser)
            args = tr.call("cli.parse_args", parser.parse_args, list(op.argv))
            parsed = tr.call("instances.get_problem", prog.instances.get_problem, args.problem)
            xs = tr.call("instances.parse_input", prog.instances.parse_input, parsed, args.input)
        else:
            parsed, xs = problem, op.xs
        evaluated = [evaluate(tr, prog, algo, parsed, xs) for algo in algos]
    got = [fingerprint(value) for value, _ in evaluated]
    counts_ok = all(ok for _, ok in evaluated)
    del evaluated

    with tr.span("op.untraced"):
        _, out = run_op(wl.kind, prog, op)
    untraced = answers(wl.kind, out) if out is not None else [None]
    del out
    got += [fingerprint(v) for v in untraced]
    del untraced

    if wl.kind == "cli":  # only the CLI path goes through run_with_stats
        n = len(op.xs) - 1
        for algo in algos:
            value, _ = tr.call(
                "solver.run_with_stats", prog.solver.run_with_stats, prog.solver.Algorithm(algo), n, problem, op.xs
            )
            got.append(fingerprint(value))
            del value
            bare = prog.solver.bu if algo == "bu" else prog.solver.td
            got.append(fingerprint(tr.call("solver.bare", bare, n, problem, op.xs)))
    ref = fingerprint(tr.call("ref.memo", memo_solve, problem, op.xs))
    return counts_ok and all(fp == ref for fp in got)


def layer_metrics(tr: Tracer, wl: Workload, ops: int) -> dict[str, float]:
    """Per-layer metrics, per op (mean over the traced ops) unless a ratio.

    Shares are over the traced op time, without the benchmark's own tip
    counting; the overhead ratio is over the untraced op time.
    """
    total, own = tr.durations()
    op_ms = total["op"] - total["bench.count"]
    library = total["instances.get_problem"] + total["instances.parse_input"] + total["solver.run_with_stats"]
    return {
        "level_engine.up_ms": total["level_engine.up"] / ops,
        "level_engine.up_share": total["level_engine.up"] / op_ms,
        "level_engine.tips_raised": tr.tips_raised / ops,
        "core_tree.map_self_ms": own["core_tree.map_tree"] / ops,
        "core_tree.objects_built": tr.objects_built / ops,
        "instances.combine_ms": total["instances.combine"] / ops,
        "instances.combine_share": total["instances.combine"] / op_ms,
        "instances.combine_calls": tr.calls["instances.combine"] / ops,
        "instances.value_len_max": tr.value_len_max,
        "instances.value_len_total": tr.value_len_total / ops,
        "combinatorics.subs_ms": total["combinatorics.subs"] / ops,
        "combinatorics.subs_calls": tr.calls["combinatorics.subs"] / ops,
        "solver.seed_ms": total["solver.seed"] / ops,
        "solver.stats_overhead_ms": (total["solver.run_with_stats"] - total["solver.bare"]) / ops,
        "cli.parse_ms": (total["cli.build_parser"] + total["cli.parse_args"]) / ops,
        "cli.self_ms": (total["op.untraced"] - library) / ops if wl.kind == "cli" else 0.0,
        "trace.op_ms": op_ms / ops,
        "trace.untraced_op_ms": total["op.untraced"] / ops,
        "trace.overhead_ratio": op_ms / total["op.untraced"],
        "ref.memo_ms": total["ref.memo"] / ops,
    }


def traced_run(wl: Workload, seed: int) -> dict:
    """The traced run: one set-up, then the workload's first traced batches."""
    prog, inputs, _ = setup(wl, seed)
    tr = Tracer(prog.core_tree.Tip)
    attempted = failed = 0
    for batch in islice(inputs.batches, wl.traced_batches):
        for op in batch:
            tr.op_id = attempted
            attempted += 1
            if not traced_op(tr, wl, prog, op):
                failed += 1
    metrics = layer_metrics(tr, wl, attempted)
    spans_path = SPANS_DIR / f"spans-{wl.name}.tsv.gz"
    tr.write(spans_path)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: (metrics[name], unit) for name, unit in PER_LAYER_UNITS.items()},
        "report": {"spans": len(tr.start), "spans_file": str(spans_path.relative_to(ROOT))},
    }
