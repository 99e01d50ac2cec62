"""The library's laws, as one replayable registry.

Each law takes one input ``xs`` (a problem law its problem first) and yields ``(info, lhs, rhs)``
cases: ``info`` names the input (and the level ``k``) a case was built from, and the law holds on that
case when ``lhs == rhs``. ``replay`` alone chooses the inputs, one of each length up to a maximum, all
``instances.example_input``: ``trace``'s, alphabet prefixes, from two letters for the structural laws
and from one for ``calls``, and the problem's own (ints 1..n for ``modsum`` and ``maxmin``) for
``td-bu`` and ``combine-level``. It counts the cases and raises ``Counterexample`` at the first case
whose sides differ. ``sublists verify`` prints what ``replay_all`` returns, and the acceptance tests
replay the same registry. ``run_with_stats`` reports both evaluators' counts from their closed forms,
``predicted_cost``, and the ``calls`` law checks them against the calls of the run it makes.

Laws reach ``level_engine.up``, ``gather_plan`` and ``raise_level``, ``solver.solve`` (the ``td-bu``
laws ask it for each evaluator by name, and its ``run_with_stats`` looks ``td`` and ``bu`` up at the
call), ``solver.levels`` (``bu``'s walk, which the ``combine-level`` law walks too) and
``solver.run_with_stats`` through their modules rather than binding them at import time, so a
replacement patched into one of them is exactly what gets checked. Plans are stored up to 10 elements,
``verify``'s longest input, so there every level the laws raise by the plans is one block, its columns
the stored getters; the laws also raise each level by clause 4 alone, as ``bu`` splits a level above 10
elements.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import replace
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import combinatorics as comb
from . import core_tree as tree
from . import instances, level_engine, solver

Case = tuple[dict[str, Any], Any, Any]
Law = Callable[[Sequence], Iterator[Case]]


class Counterexample(Exception):
    """A case on which a law fails; ``info`` holds its input and both sides."""

    def __init__(self, law: str, info: dict[str, Any]):
        super().__init__(law)
        self.law = law
        self.info = info


def upgrade_level(xs: Sequence) -> Iterator[Case]:
    """Raising the level-k tree equals mapping subs over the level-k+1 tree."""
    for k in range(1, len(xs)):
        lhs = level_engine.up(comb.ch(k, xs))
        yield {"input": xs, "k": k}, lhs, tree.map_tree(comb.subs, comb.ch(k + 1, xs))


def upgrade_tips(xs: Sequence) -> Iterator[Case]:
    """Tips of the raised tree equal the list-level oracle, in order."""
    for k in range(1, len(xs)):
        lhs = tree.tips(level_engine.up(comb.ch(k, xs)))
        yield {"input": xs, "k": k}, lhs, level_engine.upgrade_oracle(k, xs)


def _raised(level: list, k: int, n: int, combine_level: Callable[[list], Iterable]) -> list[list]:
    """Level k of an n-element input raised by ``raise_level`` with ``combine_level``, twice: by the
    length's stored plans, and by clause 4 alone, with no plan; each raise consumes a copy of ``level``."""
    return [level_engine.raise_level(list(level), k, n, plans, combine_level)
            for plans in (level_engine.gather_plan(n), ())]


def gathered_tips(xs: Sequence) -> Iterator[Case]:
    """Gathering the level's tips in blocks, by the length's plans or by clause 4 alone, gives the
    raised tree's tips."""
    for k in range(1, len(xs)):
        t = comb.ch(k, xs)
        lhs = _raised(tree.tips(t), k, len(xs), lambda columns: map(list, zip(*columns)))
        yield {"input": xs, "k": k}, lhs, 2 * [tree.tips(level_engine.up(t))]


def singleton_collapse(xs: Sequence) -> Iterator[Case]:
    """One final raise of the level-(n-1) tree collapses to subs itself."""
    yield {"input": xs}, tree.un_tip(level_engine.up(comb.ch(len(xs) - 1, xs))), comb.subs(xs)


def _spine(t: tree.BinomialTree, side: str) -> list[int]:
    """Tip counts down one spine of ``t``, its ``side`` ("left" or "right") at each node, to a tip."""
    below = _spine(getattr(t, side), side) if isinstance(t, tree.Node) else []
    return [len(tree.tips(t)), *below]


def pascal_spine(xs: Sequence) -> Iterator[Case]:
    """Spine tip counts are Pascal diagonals: left C(n-j, k-j), right C(n-j, k), j steps down."""
    n = len(xs)
    for k in range(1, n + 1):
        t = comb.ch(k, xs)
        left = [math.comb(n - j, k - j) for j in range(k + 1 if k < n else 1)]
        right = [math.comb(n - j, k) for j in range(n - k + 1)]
        yield {"input": xs, "k": k}, (_spine(t, "left"), _spine(t, "right")), (left, right)


def shape_advance(xs: Sequence) -> Iterator[Case]:
    """Raising a (k, n) tree yields a (k+1, n) tree of (k+1)-long tips."""
    n = len(xs)
    for k in range(1, n):
        t = comb.ch(k, xs)
        u = level_engine.up(t)
        lhs = {
            "before": comb.check_shape(t, (k, n)),
            "after": comb.check_shape(u, (k + 1, n)),
            "tip-length": all(len(v) == k + 1 for v in tree.tips(u)),
        }
        yield {"input": xs, "k": k}, lhs, dict.fromkeys(lhs, True)


def td_bu(problem: solver.SublistProblem, xs: Sequence) -> Iterator[Case]:
    """The two evaluators agree on the input."""
    yield {"input": xs}, solver.solve(problem, xs, "td"), solver.solve(problem, xs, "bu")


def calls(xs: Sequence) -> Iterator[Case]:
    """The calls run_with_stats reports are those of its one run; bu takes the row path, one combine per row."""
    for algo in solver.Algorithm:
        f_calls, g_calls = itertools.count(), itertools.count()
        counting = solver.SublistProblem("counting", lambda _: next(f_calls), lambda _: next(g_calls))
        _, stats = solver.run_with_stats(algo, len(xs) - 1, counting, xs)
        yield {"input": xs, "algo": algo.value}, (next(f_calls), next(g_calls)), (stats.f_calls, stats.g_calls)


def combine_level(problem: solver.SublistProblem, xs: Sequence) -> Iterator[Case]:
    """A block combine equals the row combine on every row of the problem's own levels, as ``_raised``
    gathers them: levels 1 to n − 1 of ``solver.levels`` on ``xs``, with no ``combine_level``."""
    n = len(xs)
    for k, level in zip(range(1, n), solver.levels(replace(problem, combine_level=None), xs)):
        rows = _raised(level, k, n, lambda columns: [problem.combine(list(row)) for row in zip(*columns)])
        yield {"input": xs, "k": k}, _raised(level, k, n, problem.combine_level), rows


def registry() -> dict[str, tuple[Law, int, Callable[[int], Sequence]]]:
    """Every law by name, in the sorted order ``verify`` reports them, with the inputs ``replay`` feeds
    it: its first length, and the input it is given at each length."""
    structural = {
        "pascal-spine": pascal_spine, "shape-advance": shape_advance, "singleton-collapse": singleton_collapse,
        "up-flat": gathered_tips, "upgrade-level": upgrade_level, "upgrade-tips": upgrade_tips,
    }
    letters = functools.partial(instances.example_input, instances.TRACE)
    laws = {name: (law, 2, letters) for name, law in structural.items()}
    laws["calls"] = calls, 1, letters
    for problem in instances.builtin_problems():
        example = functools.partial(instances.example_input, problem)
        laws[f"td-bu[{problem.name}]"] = functools.partial(td_bu, problem), 1, example
        if problem.combine_level:
            laws[f"combine-level[{problem.name}]"] = functools.partial(combine_level, problem), 2, example
    return dict(sorted(laws.items()))


def _render(value: Any) -> str:
    if isinstance(value, (tree.Tip, tree.Node)):
        return tree.encode_tree(value)
    return json.dumps(value, separators=(",", ":"))


def replay(name: str, max_len: int) -> int:
    """Run the law ``name`` on its input of each length, from its first up to ``max_len``; return its
    case count.

    Raises Counterexample naming the law, the case's input and both
    sides (trees in canonical JSON, other values as compact JSON).
    """
    law, first, make = registry()[name]
    cases = 0
    for length in range(first, max_len + 1):
        for info, lhs, rhs in law(make(length)):
            if lhs != rhs:
                raise Counterexample(name, {**info, "lhs": _render(lhs), "rhs": _render(rhs)})
            cases += 1
    return cases


def replay_all(max_len: int) -> list[tuple[str, int]]:
    """Replay every law in registry order; the first failure stops the sweep."""
    return [(name, replay(name, max_len)) for name in registry()]
