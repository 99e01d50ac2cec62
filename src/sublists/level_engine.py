"""The level-raising step on choice trees.

``up`` is the paper's level-raising step. Applied to a tree shaped
like ``ch(k, xs)`` whose tips carry values attached to the k-element
subsequences of ``xs`` (in generation order), it returns a tree shaped
like ``ch(k + 1, xs)`` in which each tip carries the *list* of values of
that (k+1)-subsequence's immediate sublists, in ``subs`` order. That list
is exactly the argument a sublist recurrence's combining function wants,
so one ``up`` plus one tip-wise map advances a whole level. ``bu`` and the
laws take that step by ``raise_level``, which gathers by ``gather_plan``
(``up`` compiled to column getters) up to 10 elements and by ``up``'s clause 4
above; ``up`` is the specification the law ``up-flat`` checks both against.

``up`` rearranges values purely by position; it never looks at them. Its
domain is trees of shape (k, n) with 1 <= k < n. The shape (n, n) and
(0, n) trees are single tips, and raising a single tip is meaningless, so
those inputs (and any tree not shaped like a level at all) raise
MalformedLevel naming the clause that failed.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, repeat
from math import comb
from operator import itemgetter
from typing import Callable, Iterator, Sequence, TypeVar

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


_STORED = 10  # the longest stored plan; longer levels are gathered by up's clause 4


def gather_plan(m: int) -> tuple[tuple[Callable, ...], ...]:
    """``up`` compiled for s = min(m, 10) elements: each raised level's column getters.

    Entry k - 1 is level k's plan, for k = 1..s-1: k + 1 ``itemgetter``s, where column i, applied
    to level k (``choose`` order), returns every raised row's i-th answer. Row j lists the answers of
    the (j+1)-th (k+1)-subsequence's immediate sublists in ``subs`` order, so applying the plan's
    columns yields the tips of ``up``, the specification. A column is a tuple, or a one-item list on
    the last level, whose one row would make a bare ``itemgetter`` return the answer itself. Plans are
    stored up to 10 elements; ``raise_level`` splits a longer input's levels down to 10 and gathers
    the parts by these plans.

    The positions, counted from the level's end (p - C(s, k)), are level k of positions split by
    ``up``'s clause 4: ``_blocks`` with no plan, as ``raise_level`` splits a level above 10. The
    getters share one int per distinct position. Each length's getters are built on its first call
    and kept by ``_columns``' cache (s * 2**(s-1) - s positions, 5,110 at 10), so a later call builds
    nothing. Threads that ask for a new length at once may each build it; each gets whole getters.
    """
    return _columns(min(m, _STORED))


@cache  # gather_plan's answer for each length asked for so far
def _columns(m: int) -> tuple[tuple[Callable, ...], ...]:
    """``gather_plan(m)``, built: each level of positions split by ``_blocks`` with no plan, into getters."""
    pool = list(range(-comb(m, m // 2), 0))  # one int object for every getter's position
    plans = []
    for k in range(1, m):
        blocks = [columns for _, columns in _blocks(pool[len(pool) - comb(m, k) :], 0, k, m, ())]
        plans.append(tuple(_column(list(chain.from_iterable(column))) for column in zip(*blocks)))
    return tuple(plans)


def _column(positions: list[int]) -> Callable:
    """The getter of one column; ``itemgetter`` of one position would return the answer, not a sequence."""
    if len(positions) > 1:
        return itemgetter(*positions)
    (p,) = positions
    return itemgetter(slice(p, p + 1 or None))


def raise_level(level: list[A], k: int, m: int, plans: Sequence[Sequence[Callable]], combine_level: Callable) -> list:
    """Level k of an m-element input raised a step: ``combine_level``'s lists for its blocks, joined in order.

    ``plans`` is ``gather_plan(m)``, or ``()`` for no plan. A block is consecutive rows as k + 1
    columns (column i takes every row's i-th answer). When the plans are for m elements the level is
    one block, its columns plan k's getters applied to it. A longer level splits by ``up``'s clause 4
    on its first element: its first C(m-1, k-1) answers X keep that element and the rest T drop it.
    The rows that keep it take their first k columns from X raised as level k-1 of m-1 (for k = 1,
    X's one answer repeated) and their column k from T in order; the rows that drop it are T raised
    as level k of m-1. So above 10 elements the level splits down to 10, and with ``()`` it splits
    all the way down, by clause 4 alone.
    """
    blocks = _blocks(level, 0, k, m, plans)
    raised = combine_level(next(blocks)[1])
    for _, columns in blocks:
        raised += combine_level(columns)
    return raised


def _blocks(level: list[A], start: int, k: int, m: int, plans: Sequence[Sequence[Callable]]) -> Iterator[tuple]:
    """``raise_level``'s blocks of the level ``level[start:]``, each with its row count.

    Plans count positions from the end and T is a tail, so T is raised in place; only X, and the
    part of T that is a block's column k, are sliced.
    """
    if m == len(plans) + 1:
        yield comb(m, k + 1), [column(level) for column in plans[k - 1]]
        return
    cut = comb(m - 1, k - 1)  # X = level[start:start + cut], T = level[start + cut:]
    if k == 1:
        yield m - 1, [repeat(level[start], m - 1), level[start + cut :]]
    else:
        t = start + cut
        for rows, columns in _blocks(level[start:t], 0, k - 1, m - 1, plans):
            columns.append(level[t : t + rows])
            yield rows, columns
            t += rows
    if k < m - 1:  # the last level's one row keeps the first element
        yield from _blocks(level, start + cut, k, m - 1, plans)


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

