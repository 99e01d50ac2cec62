"""Shared test helpers: independent oracles and shape builders.

The oracles reuse none of the library's recursive definitions; the point
is to have second routes to the same answers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from string import ascii_lowercase

from sublists import Node, Tip


def prefix(n: int) -> str:
    return ascii_lowercase[:n]


def paper_subs(xs):
    """The paper's clause, ``subs (x:xs) = map (x:) (subs xs) ++ [xs]``,
    recursing once per element (the library deletes directly)."""
    if len(xs) == 0:
        return []
    head, tail = xs[:1], xs[1:]
    return [head + ys for ys in paper_subs(tail)] + [tail]


def paper_td(problem, xs):
    """The paper's ``h xs = g (map h (subs xs))`` with only the singleton clause,
    ``h [x] = f x``, recursing through ``paper_subs``: one frame per sublist."""
    if len(xs) == 1:
        return problem.base(xs[0])
    return problem.combine([paper_td(problem, ys) for ys in paper_subs(xs)])


def logging_problem(problem, log: list):
    """``problem`` with ``base`` and ``combine`` appending their arguments to ``log``."""

    def base(x):
        log.append(("base", x))
        return problem.base(x)

    def combine(ys):
        log.append(("combine", list(ys)))
        return problem.combine(ys)

    return replace(problem, base=base, combine=combine, combine_level=None)


def memo_solve(problem, xs):
    """Memoized evaluation of the recurrence, keyed on subsequences.

    Independent of both library evaluators: no trees, the paper's ``subs``
    clause (``paper_subs``) instead of the library's, caching instead of
    recomputation.
    """
    base, combine = problem.base, problem.combine

    @functools.lru_cache(maxsize=None)
    def go(t: tuple):
        if len(t) == 1:
            return base(t[0])
        return combine([go(s) for s in paper_subs(t)])

    return go(tuple(xs))


def tree_of_shape(k: int, n: int, make_value):
    """The unique (k, n)-shaped tree, tips filled from ``make_value``."""
    if k == 0 or k == n:
        return Tip(make_value())
    return Node(tree_of_shape(k - 1, n - 1, make_value), tree_of_shape(k, n - 1, make_value))


def gather(values: list, plan) -> list[list]:
    """The rows a gather plan picks out of ``values``: its column getters applied, read row by row."""
    return [list(row) for row in zip(*[column(values) for column in plan])]


def td_g_calls(n: int) -> int:
    """Closed form for the reference evaluator's combine-call count:
    c(0) = 0 and c(m) = 1 + (m + 1) * c(m - 1)."""
    c = 0
    for m in range(1, n + 1):
        c = 1 + (m + 1) * c
    return c


def bu_g_calls(n: int) -> int:
    """Closed form for the bottom-up combine-call count: one call per
    tip of every level after the first."""
    return sum(math.comb(n + 1, j) for j in range(2, n + 2))


def doc_to_tree(doc):
    """Rebuild a tree from its document form (tuples come back as lists)."""
    if "tip" in doc:
        return Tip(doc["tip"])
    left, right = doc["node"]
    return Node(doc_to_tree(left), doc_to_tree(right))
