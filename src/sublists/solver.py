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
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Generic, Iterable, Iterator, Sequence, TypeVar

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

    ``combine_level``, when given, is ``combine`` for a block of
    consecutive rows raised from level k at once: it receives the block's
    argument columns (column i holds every row's i-th answer), k + 1
    equal-length sequences, and returns one answer per row, in order, as
    any iterable, which ``bu`` only reads; another count raises
    ``MalformedLevel``. ``bu`` may call it several times per level, once per
    block; up to 10 elements a level is one block, and every block holds
    at most C(10, 5) = 252 rows. Each call gives ``map(combine, rows)``'s
    answers for its block; ``bu`` uses it in place of ``combine``, while
    ``td`` uses only ``combine``, which stays the definition.
    ``replace(problem, combine=...)`` keeps the old ``combine_level``, so
    clear or replace it in the same call.
    What it buys, measured for ``modsum`` on Python 3.11.7 (in-process,
    best of 31, three rounds): its row path takes ×2.28–2.44 the packed
    column path's time at 12 ints, ×2.21–2.27 at 15 and ×2.30–2.36 at 16.
    """

    name: str
    base: Callable[[X], Y]
    combine: Callable[[list[Y]], Y]
    input_kind: str = "chars"
    combine_level: Callable[[list[Sequence[Y]]], Iterable[Y]] | None = None


@dataclass
class RunStats:
    """Call counts and level sizes of one evaluation, as ``predicted_cost`` gives them.

    ``f_calls`` counts ``base`` calls and ``g_calls`` ``combine`` calls, for bu one per row
    whether or not a ``combine_level`` answers the rows; the ``calls`` law checks both against
    the calls of a run. ``peak_level_tips`` is the largest number of answers any level of the
    bottom-up run holds; top-down runs build no levels, so theirs is 0.
    """

    f_calls: int
    g_calls: int
    peak_level_tips: int


def _check_index(n: int, xs: Sequence) -> None:
    """Index n answers sequences of length n + 1, and an empty sequence has no answer."""
    if len(xs) != 1 + n:
        raise LengthMismatch(f"index {n} expects length {1 + n}, got {len(xs)}")
    if n < 0:
        raise EmptyInput("cannot solve an empty input")


def td(n: int, problem: SublistProblem[X, Y], xs: Sequence[X]) -> Y:
    """Reference evaluator: index n answers sequences of length n + 1.

    Literal and cache-free, with one length check: ``h [x] = f x``, ``h xs = g (map h (subs xs))``,
    and ``h [a, b, c, d]`` in one frame as ``g`` of its triples abc, abd, acd, bcd, each inline as
    ``g [g [f x, f y], g [f x, f z], g [f y, f z]]`` (no answer shared), all in the recurrence's
    order. ``base`` and ``combine`` calls: ``predicted_cost("td", n)``; for m = n + 1 ≥ 4:
    Σ_{j=4..m} m!/j! frames (2,081 at m = 8), Σ_{j=5..m} m!/j! ``subs`` (401).
    """
    _check_index(n, xs)
    return _td(problem.base, problem.combine, xs)


def _td(base: Callable[[X], Y], combine: Callable[[list[Y]], Y], xs: Sequence[X]) -> Y:
    """td below its length check, with ``base`` and ``combine`` bound."""
    if len(xs) == 4:
        a, b, c, d = xs
        return combine([
            combine([combine([base(a), base(b)]), combine([base(a), base(c)]), combine([base(b), base(c)])]),
            combine([combine([base(a), base(b)]), combine([base(a), base(d)]), combine([base(b), base(d)])]),
            combine([combine([base(a), base(c)]), combine([base(a), base(d)]), combine([base(c), base(d)])]),
            combine([combine([base(b), base(c)]), combine([base(b), base(d)]), combine([base(c), base(d)])]),
        ])
    if len(xs) == 1:
        return base(xs[0])
    return combine([_td(base, combine, ys) for ys in subs(xs)])


def levels(problem: SublistProblem[X, Y], xs: Sequence[X]) -> Iterator[list[Y]]:
    """The bottom-up walk, one level per yield: each distinct subsequence of ``xs`` is solved once.

    Level k lists the answers for the k-element subsequences in ``choose`` order, C(m, k) of them on m
    elements; the seed level applies ``base`` to every element. Each ``level_engine.raise_level`` raises
    a level one step, the paper's ``up`` then ``map g``, up to the last level, the one answer for ``xs``
    itself: it gathers blocks of consecutive rows, each k + 1 argument columns, and joins their answers
    in order. Up to 10 elements a level is one block, gathered by the stored plans,
    ``level_engine.gather_plan(len(xs))`` (``up`` compiled to column getters); a longer one splits by
    ``up``'s clause 4 down to 10. Each block goes to ``combine_level`` when the problem has one, and
    otherwise every row goes to ``combine``, on a fresh list. Each level is a new list, which the next
    raise consumes: it deletes each stretch of the level's answers once no later block reads it, so the
    yielded list is empty after the next yield: ``list(levels(MODSUM, [1, 2, 3, 4]))`` is ``[[], [], [],
    [638]]``. Copy a level to keep it; ``raise_level`` refuses a kept level with MalformedLevel. (A copy
    yielded here would stay alive through the next raise, in ``bu``'s loop variable, and raise its peak.)
    """
    combine_level = problem.combine_level or (lambda columns: map(problem.combine, map(list, zip(*columns))))
    level = [problem.base(x) for x in xs]
    plans = level_engine.gather_plan(len(xs))
    yield level
    for k in range(1, len(xs)):
        level = level_engine.raise_level(level, k, len(xs), plans, combine_level)
        yield level


def bu(n: int, problem: SublistProblem[X, Y], xs: Sequence[X]) -> Y:
    """Bottom-up evaluator: the one answer of the last of ``levels(problem, xs)``."""
    _check_index(n, xs)
    for level in levels(problem, xs):
        pass
    (answer,) = level
    return answer


def predicted_cost(algo: Algorithm | str, n: int) -> RunStats:
    """A run's counts at index n, from their closed forms: the library's one statement of either cost.

    On m = n + 1 elements td makes m! ``base`` and c(n) = 1 + (n + 1)·c(n − 1), c(0) = 0, ``combine``
    calls and builds no levels; bu makes m ``base`` calls, one ``combine`` per subsequence of two or
    more elements (2^m − m − 1), and its widest level holds C(m, m // 2) answers. ``algo`` is as for
    ``run_with_stats``; a negative index, an empty input, raises EmptyInput as ``td`` and ``bu`` do.
    """
    if n < 0:
        raise EmptyInput("an empty input has no run to cost")
    m = n + 1
    if Algorithm(algo) is Algorithm.TOP_DOWN:
        g_calls = 0
        for j in range(2, m + 1):
            g_calls = 1 + j * g_calls
        return RunStats(f_calls=factorial(m), g_calls=g_calls, peak_level_tips=0)
    return RunStats(f_calls=m, g_calls=2**m - m - 1, peak_level_tips=comb(m, m // 2))


def run_with_stats(
    algo: Algorithm | str, n: int, problem: SublistProblem[X, Y], xs: Sequence[X]
) -> tuple[Y, RunStats]:
    """Run ``problem`` bare through td or bu, once: the evaluator's value and ``predicted_cost(algo, n)``.

    The ``calls`` law checks the counts against the calls of the run this makes. ``algo`` is an
    ``Algorithm`` or its value, ``"td"`` or ``"bu"``; anything else raises ValueError.
    """
    evaluate = td if Algorithm(algo) is Algorithm.TOP_DOWN else bu
    return evaluate(n, problem, xs), predicted_cost(algo, n)


def solve(
    problem: SublistProblem[X, Y],
    xs: Sequence[X],
    algo: Algorithm | str = Algorithm.BOTTOM_UP,
) -> Y:
    """Answer ``xs`` with the requested algorithm: the value of ``run_with_stats``; EmptyInput if empty."""
    return run_with_stats(algo, len(xs) - 1, problem, xs)[0]
