"""Top-down and bottom-up evaluation of immediate-sublist recurrences.

A problem assigns a value to every non-empty sequence: ``base`` answers
singletons, and ``combine`` builds the answer for a sequence out of the
answers for all its immediate sublists (every way of deleting one
element), received in ``subs`` order. ``td`` evaluates that recurrence
literally and recomputes shared subproblems; it is the executable
reference, kept deliberately free of caching. ``bu`` computes each level
of distinct subsequences exactly once, raising each level by position,
and always agrees with ``td`` (the equivalence is replayed by the test
suite and by ``sublists verify``).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Generic, Iterable, Sequence, TypeVar

from . import level_engine
from .combinatorics import subs
from .core_tree import extract_singleton
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

    ``combine_level``, when given, is ``combine`` for a block of rows at
    once: it receives the rows' argument columns (column i holds every
    row's i-th answer), equal-length iterables each consumed once, and
    returns the rows' answers in order. It must equal
    ``list(map(combine, rows))``; ``bu`` uses it in place of ``combine``,
    while ``td`` uses only ``combine``, which stays the definition.
    ``replace(problem, combine=...)`` keeps the old ``combine_level``, so
    clear or replace it in the same call.
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


def td(n: int, problem: SublistProblem[X, Y], xs: Sequence[X]) -> Y:
    """Reference evaluator: index n answers sequences of length n + 1."""
    if len(xs) != 1 + n:
        raise LengthMismatch(f"index {n} expects length {1 + n}, got {len(xs)}")
    if n == 0:
        return problem.base(extract_singleton(xs))
    return problem.combine([td(n - 1, problem, ys) for ys in subs(xs)])


def td_prime(n: int, combine: Callable[[list[Y]], Y], ys: Sequence[Y]) -> Y:
    """td with the base map stripped off: works on already-seeded values.

    td(n, p, xs) == td_prime(n, p.combine, [p.base(x) for x in xs]) is
    the paper's law td = td' . map base; td_prime exists to state that
    law in the test suite and is not exported from the package.
    """
    if len(ys) != 1 + n:
        raise LengthMismatch(f"index {n} expects length {1 + n}, got {len(ys)}")
    if n == 0:
        return extract_singleton(ys)
    return combine([td_prime(n - 1, combine, zs) for zs in subs(ys)])


# rows per combine_level call: whole levels would hold several levels of fresh answers at once
_BLOCK = 512


def _combine_rows(combine: Callable[[list[Y]], Y], columns: list[Iterable[Y]]) -> list[Y]:
    """The row path: one ``combine`` call, on a fresh list, per row of the columns."""
    return list(map(combine, map(list, zip(*columns))))


def bu(n: int, problem: SublistProblem[X, Y], xs: Sequence[X]) -> Y:
    """Bottom-up evaluator: each distinct subsequence is solved once.

    Level k lists the answers for the k-element subsequences of ``xs`` in
    ``choose`` order; the seed level applies ``base`` to every element.
    Then n times the level is gathered by its ``level_engine.gather_plan``
    (``up`` compiled to positions counted from the level's end, views of one
    shared table; the tree ``up`` is its specification) and combined, until
    one answer, for ``xs`` itself, is left. A level is raised ``_BLOCK`` rows
    at a time: the block's k + 1 argument columns go to ``combine_level``
    when the problem has one, and otherwise every row goes to ``combine``.
    Either way every subsequence of length j gets exactly one answer, from
    j answers.
    """
    if len(xs) != 1 + n:
        raise LengthMismatch(f"index {n} expects length {1 + n}, got {len(xs)}")
    combine_level = problem.combine_level or partial(_combine_rows, problem.combine)
    level = [problem.base(x) for x in xs]
    for k, plan in enumerate(level_engine.gather_plan(n + 1), start=1):
        raised: list[Y] = []
        for lo in range(0, len(plan), _BLOCK * (k + 1)):
            block = plan[lo : lo + _BLOCK * (k + 1)]
            raised.extend(combine_level([map(level.__getitem__, block[i :: k + 1]) for i in range(k + 1)]))
        # a list frees its items last to first; reversed, the spent answers go in the order
        # they were made, so the allocator merges them and gives the memory back
        level.reverse()
        level = raised
    (answer,) = level
    return answer


def run_with_stats(
    algo: Algorithm, n: int, problem: SublistProblem[X, Y], xs: Sequence[X]
) -> tuple[Y, RunStats]:
    """Evaluate like td/bu and report call counts alongside the value.

    Counting wraps ``base``, ``combine`` and ``combine_level`` only; the
    algorithms run unchanged, so the value is identical to the bare
    evaluators'. The bottom-up level sizes are read from the calls: the
    seed level has one tip per ``base`` call, and level j one tip per
    ``combine`` call on j answers, or per answer of a ``combine_level``
    call on j columns.
    """
    stats = RunStats()

    def counted_base(x):
        stats.f_calls += 1
        return problem.base(x)

    if algo is Algorithm.TOP_DOWN:

        def counted_combine(ys):
            stats.g_calls += 1
            return problem.combine(ys)

        value = td(n, replace(problem, base=counted_base, combine=counted_combine), xs)
        return value, stats

    calls_by_length: Counter[int] = Counter()

    def counted_level_combine(ys):
        calls_by_length[len(ys)] += 1
        return problem.combine(ys)

    def counted_combine_level(columns):
        answers = problem.combine_level(columns)
        calls_by_length[len(columns)] += len(answers)
        return answers

    counted = replace(
        problem,
        base=counted_base,
        combine=counted_level_combine,
        combine_level=counted_combine_level if problem.combine_level else None,
    )
    value = bu(n, counted, xs)
    stats.g_calls = calls_by_length.total()
    stats.peak_level_tips = max([stats.f_calls, *calls_by_length.values()])
    return value, stats


def solve(
    problem: SublistProblem[X, Y],
    xs: Sequence[X],
    algo: Algorithm = Algorithm.BOTTOM_UP,
) -> Y:
    """Answer ``xs`` with the requested algorithm; EmptyInput if empty."""
    if len(xs) == 0:
        raise EmptyInput("cannot solve an empty input")
    n = len(xs) - 1
    if algo is Algorithm.TOP_DOWN:
        return td(n, problem, xs)
    return bu(n, problem, xs)
