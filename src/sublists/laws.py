"""The library's laws, as one replayable registry.

Each law takes a maximum input length and yields ``(info, lhs, rhs)``
cases: ``info`` names the input (and the level ``k``) a case was built
from, and the law holds on that case when ``lhs == rhs``. ``replay`` runs
one law, counts its cases and raises ``Counterexample`` at the first case
whose sides differ. ``sublists verify`` prints what ``replay_all`` returns,
and the acceptance tests replay the same registry. ``run_with_stats``
reports both evaluators' counts from their closed forms, ``predicted_cost``,
and the ``calls`` law checks them against the calls of the run it makes.

Laws reach ``level_engine.up``, ``gather_plan`` and ``raise_level`` (the one level step, ``bu``'s
too), ``solver.td``, ``solver.bu`` and ``solver.run_with_stats`` through their modules rather than
binding them at import time, so a replacement patched into one of them is exactly what gets checked.
Plans are stored up to 10 elements, ``verify``'s longest input, so there every level the laws raise
by the plans is one block, its columns the stored getters; the laws also raise each level by clause
4 alone, as ``bu`` splits a level above 10 elements.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from string import ascii_lowercase
from typing import Any, Callable, Iterator

from . import combinatorics as comb
from . import core_tree as tree
from . import instances, level_engine, solver

Case = tuple[dict[str, Any], Any, Any]
Law = Callable[[int], Iterator[Case]]


class Counterexample(Exception):
    """A case on which a law fails; ``info`` holds its input and both sides."""

    def __init__(self, law: str, info: dict[str, Any]):
        super().__init__(law)
        self.law = law
        self.info = info


def _prefixes(max_len: int) -> Iterator[tuple[int, str]]:
    for n in range(2, max_len + 1):
        yield n, ascii_lowercase[:n]


def upgrade_level(max_len: int) -> Iterator[Case]:
    """Raising the level-k tree equals mapping subs over the level-k+1 tree."""
    for n, xs in _prefixes(max_len):
        for k in range(1, n):
            lhs = level_engine.up(comb.ch(k, xs))
            rhs = tree.map_tree(comb.subs, comb.ch(k + 1, xs))
            yield {"input": xs, "k": k}, lhs, rhs


def upgrade_tips(max_len: int) -> Iterator[Case]:
    """Tips of the raised tree equal the list-level oracle, in order."""
    for n, xs in _prefixes(max_len):
        for k in range(1, n):
            lhs = tree.tips(level_engine.up(comb.ch(k, xs)))
            yield {"input": xs, "k": k}, lhs, level_engine.upgrade_oracle(k, xs)


def _raised(level: list, k: int, n: int, combine_level: Callable[[list], list]) -> list[list]:
    """Level k of an n-element input raised by ``raise_level`` with ``combine_level``, twice: by the
    length's stored plans, and by clause 4 alone, with no plan."""
    return [level_engine.raise_level(level, k, n, plans, combine_level)
            for plans in (level_engine.gather_plan(n), ())]


def gathered_tips(max_len: int) -> Iterator[Case]:
    """Gathering the level's tips in blocks, by the length's plans or by clause 4 alone, gives the
    raised tree's tips."""
    for n, xs in _prefixes(max_len):
        for k in range(1, n):
            t = comb.ch(k, xs)
            lhs = _raised(tree.tips(t), k, n, lambda columns: list(map(list, zip(*columns))))
            yield {"input": xs, "k": k}, lhs, 2 * [tree.tips(level_engine.up(t))]


def singleton_collapse(max_len: int) -> Iterator[Case]:
    """One final raise of the level-(n-1) tree collapses to subs itself."""
    for n, xs in _prefixes(max_len):
        lhs = tree.un_tip(level_engine.up(comb.ch(n - 1, xs)))
        yield {"input": xs}, lhs, comb.subs(xs)


def pascal_spine(max_len: int) -> Iterator[Case]:
    """Spine tip counts are Pascal diagonals: left C(n-j, k-j), right C(n-j, k), j steps down."""
    for n, xs in _prefixes(max_len):
        for k in range(1, n + 1):
            spine = [comb.ch(k, xs)]
            while isinstance(spine[-1], tree.Node):
                spine.append(spine[-1].left)
            lhs = [len(tree.tips(t)) for t in spine], comb.spine_sizes(spine[0])
            left = [math.comb(n - j, k - j) for j in range(k + 1 if k < n else 1)]
            yield {"input": xs, "k": k}, lhs, (left, [math.comb(n - j, k) for j in range(n - k + 1)])


def shape_advance(max_len: int) -> Iterator[Case]:
    """Raising a (k, n) tree yields a (k+1, n) tree of (k+1)-long tips."""
    for n, xs in _prefixes(max_len):
        for k in range(1, n):
            t = comb.ch(k, xs)
            u = level_engine.up(t)
            lhs = {
                "before": comb.check_shape(t, (k, n)),
                "after": comb.check_shape(u, (k + 1, n)),
                "tip-length": all(len(v) == k + 1 for v in tree.tips(u)),
            }
            yield {"input": xs, "k": k}, lhs, dict.fromkeys(lhs, True)


def td_bu(problem: solver.SublistProblem, max_len: int) -> Iterator[Case]:
    """The two evaluators agree on every distinct-symbol input."""
    for length in range(1, max_len + 1):
        xs = instances.example_input(problem, length)
        lhs = solver.td(length - 1, problem, xs)
        yield {"input": xs}, lhs, solver.bu(length - 1, problem, xs)


def calls(max_len: int) -> Iterator[Case]:
    """The calls run_with_stats reports are those of its one run; bu takes the row path, one combine per row."""
    for length in range(1, max_len + 1):
        xs = ascii_lowercase[:length]
        for algo in solver.Algorithm:
            f_calls, g_calls = itertools.count(), itertools.count()
            counting = solver.SublistProblem("counting", lambda _: next(f_calls), lambda _: next(g_calls))
            _, stats = solver.run_with_stats(algo, length - 1, counting, xs)
            yield {"input": xs, "algo": algo.value}, (next(f_calls), next(g_calls)), (stats.f_calls, stats.g_calls)


def combine_level(problem: solver.SublistProblem, max_len: int) -> Iterator[Case]:
    """A block combine equals the row combine on every row of the problem's own levels, as ``_raised``
    gathers them: ``base`` on ``example_input``, each level raised by the row combine."""
    for n in range(2, max_len + 1):
        xs = instances.example_input(problem, n)
        level = [problem.base(x) for x in xs]
        for k in range(1, n):
            rows = _raised(level, k, n, lambda columns: [problem.combine(list(row)) for row in zip(*columns)])
            yield {"input": xs, "k": k}, _raised(level, k, n, problem.combine_level), rows
            level = rows[0]


def registry() -> dict[str, Law]:
    """Every law by name, in the sorted order ``verify`` reports them."""
    laws: dict[str, Law] = {
        "calls": calls,
        "pascal-spine": pascal_spine,
        "shape-advance": shape_advance,
        "singleton-collapse": singleton_collapse,
        "up-flat": gathered_tips,
        "upgrade-level": upgrade_level,
        "upgrade-tips": upgrade_tips,
    }
    for problem in instances.builtin_problems():
        laws[f"td-bu[{problem.name}]"] = functools.partial(td_bu, problem)
        if problem.combine_level:
            laws[f"combine-level[{problem.name}]"] = functools.partial(combine_level, problem)
    return dict(sorted(laws.items()))


def _render(value: Any) -> str:
    if isinstance(value, (tree.Tip, tree.Node)):
        return tree.encode_tree(value)
    return json.dumps(value, separators=(",", ":"))


def replay(name: str, max_len: int) -> int:
    """Run the law ``name`` up to ``max_len``; return its case count.

    Raises Counterexample naming the law, the case's input and both
    sides (trees in canonical JSON, other values as compact JSON).
    """
    cases = 0
    for info, lhs, rhs in registry()[name](max_len):
        if lhs != rhs:
            raise Counterexample(name, {**info, "lhs": _render(lhs), "rhs": _render(rhs)})
        cases += 1
    return cases


def replay_all(max_len: int) -> list[tuple[str, int]]:
    """Replay every law in registry order; the first failure stops the sweep."""
    return [(name, replay(name, max_len)) for name in registry()]
