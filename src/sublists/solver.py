"""Top-down and bottom-up evaluation of immediate-sublist recurrences.

A problem assigns a value to every non-empty sequence: ``base`` answers
singletons, and ``combine`` builds the answer for a sequence out of the
answers for all its immediate sublists (every way of deleting one
element), received in ``subs`` order. ``td`` evaluates that recurrence
literally and recomputes shared subproblems; it is the executable
reference, kept deliberately free of caching. ``bu`` computes each level
of distinct subsequences exactly once, raising each level by position, and
always agrees with ``td`` (the equivalence is replayed by the test suite
and by ``sublists verify``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Generic, Iterable, Sequence, TypeVar

from . import level_engine
from .combinatorics import subs
from .errors import EmptyInput, LengthMismatch

X = TypeVar("X")
Y = TypeVar("Y")


class Algorithm(enum.Enum):
    TOP_DOWN = "td"
    BOTTOM_UP = "bu"


@dataclass(frozen=True)
class SublistProblem(Generic[X, Y]):
    """A recurrence over immediate sublists.

    ``base`` maps one element to the answer for its singleton sequence.
    ``combine`` receives the answers for all immediate sublists of a
    sequence, in ``subs`` order, and returns the sequence's answer.
    ``input_kind`` tells the CLI how to parse and generate inputs
    ("chars" for character strings, "ints" for comma-separated integers).

    ``combine_level``, when given, is ``combine`` for a whole level at
    once: it receives the level's argument columns (column i holds every
    row's i-th answer), equal-length lazy iterables each consumed once,
    and returns the rows' answers in order. On an m-element input a level
    can hold C(m, m // 2) rows, so it should consume the columns lazily and
    build only the list of answers. It must equal ``list(map(combine, rows))``;
    ``bu`` uses it in place of ``combine``, while ``td`` uses only ``combine``,
    which stays the definition. ``replace(problem, combine=...)`` keeps the
    old ``combine_level``, so clear or replace it in the same call.
    """

    name: str
    base: Callable[[X], Y]
    combine: Callable[[list[Y]], Y]
    input_kind: str = "chars"
    combine_level: Callable[[list[Iterable[Y]]], list[Y]] | None = None


@dataclass
class RunStats:
    """Counters observed during one evaluation.

    ``peak_level_tips`` is the largest number of answers any level of the
    bottom-up run held; top-down runs build no levels, so it stays 0.
    """

    f_calls: int = 0
    g_calls: int = 0
    peak_level_tips: int = 0


def _check_index(n: int, xs: Sequence) -> None:
    """Index n answers sequences of length n + 1, and an empty sequence has no answer."""
    if len(xs) != 1 + n:
        raise LengthMismatch(f"index {n} expects length {1 + n}, got {len(xs)}")
    if n < 0:
        raise EmptyInput("cannot solve an empty input")


def td(n: int, problem: SublistProblem[X, Y], xs: Sequence[X]) -> Y:
    """Reference evaluator: index n answers sequences of length n + 1.

    Literal and cache-free, with one length check: ``h [x] = f x``, a three-element
    sublist in one frame as ``h [a, b, c] = g [g [f a, f b], g [f a, f c], g [f b, f c]]``
    (no ``base`` answer shared), and otherwise ``h xs = g (map h (subs xs))``. Every
    sublist is solved afresh, in the recurrence's order: (n + 1)! ``base`` and
    c(n) = 1 + (n + 1)·c(n − 1) ``combine`` calls, and on m = n + 1 ≥ 3 elements
    Σ_{j=3..m} m!/j! frames (8,801 at m = 8) and Σ_{j=4..m} m!/j! ``subs`` calls (2,081).
    """
    _check_index(n, xs)
    return _td(problem.base, problem.combine, xs)


def _td(base: Callable[[X], Y], combine: Callable[[list[Y]], Y], xs: Sequence[X]) -> Y:
    """td below its length check, with ``base`` and ``combine`` bound."""
    if len(xs) == 3:
        a, b, c = xs
        return combine(
            [combine([base(a), base(b)]), combine([base(a), base(c)]), combine([base(b), base(c)])]
        )
    if len(xs) == 1:
        return base(xs[0])
    return combine([_td(base, combine, ys) for ys in subs(xs)])


def _level_combine(problem: SublistProblem[X, Y]) -> Callable[[list[Iterable[Y]]], list[Y]]:
    """``combine_level``, or else the row path: one ``combine`` call, on a fresh list, per row."""
    return problem.combine_level or (lambda columns: list(map(problem.combine, map(list, zip(*columns)))))


def bu(n: int, problem: SublistProblem[X, Y], xs: Sequence[X]) -> Y:
    """Bottom-up evaluator: each distinct subsequence is solved once.

    Level k lists the answers for the k-element subsequences of ``xs`` in
    ``choose`` order; the seed level applies ``base`` to every element.
    Then n times the level is gathered by its ``level_engine.gather_plan``
    (``up`` compiled to positions counted from the level's end, views of one
    shared table; the tree ``up`` is its specification) into k + 1 lazy
    argument columns and combined, until one answer, for ``xs`` itself, is
    left. The columns go to ``combine_level`` when the problem has one, and
    otherwise every row goes to ``combine``. Either way every subsequence of
    length j gets exactly one answer, from j answers.
    """
    _check_index(n, xs)
    combine_level = _level_combine(problem)
    level = [problem.base(x) for x in xs]
    for k, plan in enumerate(level_engine.gather_plan(n + 1), start=1):
        raised = combine_level(level_engine.gather(level, plan, k + 1))
        # a list frees its items last to first; reversed, the spent answers go in the order
        # they were made, so the allocator merges them and gives the memory back
        level.reverse()
        level = raised
    (answer,) = level
    return answer


def run_with_stats(
    algo: Algorithm | str, n: int, problem: SublistProblem[X, Y], xs: Sequence[X]
) -> tuple[Y, RunStats]:
    """Evaluate like td/bu and report call counts alongside the value.

    One counted problem wraps ``base``, ``combine`` and the level combine: td calls
    only ``combine``, bu only the level combine, once per level, and the value is the
    bare evaluators'. bu's level sizes are read from the calls: the seed level has one
    tip per ``base`` call, every other level one per answer of its level combine.

    ``algo`` is an ``Algorithm`` or its value, ``"td"`` or ``"bu"``; anything
    else raises ValueError.
    """
    algo = Algorithm(algo)
    stats = RunStats()
    level_sizes: list[int] = []
    base, combine, combine_level = problem.base, problem.combine, _level_combine(problem)

    def counted_base(x):
        stats.f_calls += 1
        return base(x)

    def counted_combine(ys):
        stats.g_calls += 1
        return combine(ys)

    def counted_level(columns):
        answers = combine_level(columns)
        level_sizes.append(len(answers))
        return answers

    counted = replace(problem, base=counted_base, combine=counted_combine, combine_level=counted_level)
    if algo is Algorithm.TOP_DOWN:
        return td(n, counted, xs), stats
    value = bu(n, counted, xs)
    stats.g_calls = sum(level_sizes)
    stats.peak_level_tips = max([stats.f_calls, *level_sizes])
    return value, stats


def solve(
    problem: SublistProblem[X, Y],
    xs: Sequence[X],
    algo: Algorithm | str = Algorithm.BOTTOM_UP,
) -> Y:
    """Answer ``xs`` with the requested algorithm, as in ``run_with_stats``; EmptyInput if empty."""
    n = len(xs) - 1
    if Algorithm(algo) is Algorithm.TOP_DOWN:
        return td(n, problem, xs)
    return bu(n, problem, xs)
