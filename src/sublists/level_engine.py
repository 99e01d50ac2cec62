"""The level-raising step on choice trees.

``up`` is the paper's level-raising step. Applied to a tree shaped
like ``ch(k, xs)`` whose tips carry values attached to the k-element
subsequences of ``xs`` (in generation order), it returns a tree shaped
like ``ch(k + 1, xs)`` in which each tip carries the *list* of values of
that (k+1)-subsequence's immediate sublists, in ``subs`` order. That list
is exactly the argument a sublist recurrence's combining function wants,
so one ``up`` plus one tip-wise map advances a whole level. ``bu`` gathers
by ``gather_plan`` instead, ``up`` compiled to positions, and ``up`` is
the specification that the law ``up-flat`` checks each plan against.

``up`` rearranges values purely by position; it never looks at them. Its
domain is trees of shape (k, n) with 1 <= k < n. The shape (n, n) and
(0, n) trees are single tips, and raising a single tip is meaningless, so
those inputs (and any tree not shaped like a level at all) raise
MalformedLevel naming the clause that failed.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from math import comb
from operator import add
from typing import Iterator, Sequence, TypeVar

from .combinatorics import choose, subs
from .core_tree import (
    BinomialTree,
    Node,
    Tip,
    map_tree,
    snoc,
    un_tip,
    zip_tree_with,
)
from .errors import MalformedLevel, NotATip, OutOfRange, ShapeMismatch

A = TypeVar("A")
S = TypeVar("S", bound=Sequence)


def up(t: BinomialTree[A]) -> BinomialTree[list[A]]:
    """Raise a level tree one step (see the module docstring).

    Four clauses, tried top to bottom; the order is load-bearing because
    the first clause's pattern overlaps the next two:

    1. node(tip p, tip q)  ->  tip [p, q]
    2. node(t, tip q)      ->  tip (un_tip(up(t)) with q appended)
    3. node(tip p, u)      ->  node(map (q -> [p, q]) u, up(u))
    4. node(t, u)          ->  node(zip snoc (up t) u, up(u))

    On a well-shaped level the inner un_tip of clause 2 and the zip of
    clause 4 cannot fail; if they do, the input was not a level, and the
    resulting MalformedLevel says which clause discovered it.
    """
    match t:
        case Tip():
            raise MalformedLevel(
                "no clause applies: a single tip is already a complete level"
            )
        case Node(Tip(p), Tip(q)):
            return Tip([p, q])
        case Node(left, Tip(q)):
            try:
                gathered = un_tip(up(left))
            except NotATip as exc:
                raise MalformedLevel(
                    "clause 2: raising the left subtree did not collapse to a tip"
                ) from exc
            return Tip(snoc(gathered, q))
        case Node(Tip(p), right):
            return Node(map_tree(lambda q: [p, q], right), up(right))
        case Node(left, right):
            try:
                zipped = zip_tree_with(snoc, up(left), right)
            except ShapeMismatch as exc:
                raise MalformedLevel(
                    "clause 4: raised left subtree and right subtree differ in shape"
                ) from exc
            return Node(zipped, up(right))
    raise TypeError(f"not a tree: {t!r}")


_table: tuple[array, ...] = ()  # the plans for k = 0..M-1 of the longest length M built so far


def gather_plan(m: int) -> tuple[memoryview, ...]:
    """``up`` compiled for an m-element input: where each raised row gathers from.

    Entry k - 1 is level k's plan, for k = 1..m-1: read-only positions
    counted from the level's end (p - C(m, k)), row-major with k + 1 to a
    row. Row j lists the positions in level k (``choose`` order) of the
    (j+1)-th (k+1)-subsequence's immediate sublists in ``subs`` order, so
    gathering level k by it yields the tips of ``up``, the specification.

    ``choose`` lists the subsequences without the first element last, so
    plan (k, m) is a tail of plan (k, M) for every M > m. One table, for the
    longest length M asked for so far, stays resident (M * 2**(M-1)
    positions: 480 KiB at 15, 40 MiB at 20); a shorter length gets views of
    its tails and builds nothing. A longer one grows it a length at a time
    by ``up``'s clause 4, node(zip snoc (up t) u, up u), on positions: plan
    (k, M+1) is plan (k-1, M) shifted by -C(M, k), row j snoc'd with u's tip
    j - C(M, k), then plan (k, M). Each grown table is published in one assignment.
    """
    global _table
    table = _table
    for mp in range(len(table) + 1, m + 1):
        tc = _typecode(mp)
        if table and table[0].typecode != tc:  # positions outgrow 16 bits at m' = 18
            table = tuple(array(tc, plan) for plan in table)
        plans = [array(tc, [-1]) * mp]  # k = 0: every singleton gathers the one answer of level 0
        for k in range(1, mp):
            keep = comb(mp - 1, k)  # rows that keep the first element, from (k-1, m'-1)
            kept = map(add, table[k - 1], repeat(-keep))
            plan = array(tc, chain.from_iterable(zip(*[kept] * k, range(-keep, 0))))
            plans.append(plan + table[k] if k < mp - 1 else plan)  # (m'-1, m'-1) has no rows
        table = _table = tuple(plans)
    views = (memoryview(plan).toreadonly() for plan in table[1:m])
    return tuple(view[len(view) - (k + 1) * comb(m, k + 1) :] for k, view in enumerate(views, start=1))


def gather(level: Sequence[A], plan: Sequence[int], width: int) -> list[Iterator[A]]:
    """The ``width`` lazy argument columns that ``plan``, row-major, picks out of ``level``.

    Column i holds every row's i-th argument, so zipped, the columns are the rows.
    """
    return [map(level.__getitem__, plan[i::width]) for i in range(width)]


def _typecode(m: int) -> str:
    """The narrowest array typecode that holds every position of an m-element plan."""
    return "h" if comb(m, m // 2) <= 32768 else "i"


def upgrade_oracle(k: int, xs: S) -> list[list[S]]:
    """List-level answer the raised tree must flatten to.

    For each (k+1)-element subsequence of ``xs`` (in ``choose`` order),
    the list of its immediate sublists. Defined for 1 <= k < len(xs);
    k == 0 is impossible (a 1-element selection has only the empty
    sublist, which identifies nothing) and raises OutOfRange.
    """
    if k < 1 or k + 1 > len(xs):
        raise OutOfRange(f"cannot upgrade level {k} of a {len(xs)}-element input")
    return [subs(ys) for ys in choose(k + 1, xs)]

