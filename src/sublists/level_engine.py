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
above, and hands the last level over as is, since ``up`` collapses it to one
tip in ``subs`` order; ``up`` is the specification the law ``up-flat`` checks
both against.

``up`` rearranges values purely by position; it never looks at them. Its
domain is trees of shape (k, n) with 1 <= k < n. The shape (n, n) and
(0, n) trees are single tips, and raising a single tip is meaningless, so
those inputs (and any tree not shaped like a level at all) raise
MalformedLevel naming the clause that failed.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from math import comb
from operator import itemgetter
from typing import Callable, Iterator, Sequence, TypeVar

from .core_tree import (
    BinomialTree,
    Node,
    Tip,
    map_tree,
    snoc,
    un_tip,
    zip_tree_with,
)
from .errors import MalformedLevel, NotATip, ShapeMismatch

A = TypeVar("A")


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

    Entry k - 1 is level k's plan, for k = 1..s-2: k + 1 ``itemgetter``s, where column i, applied to level k
    (``choose`` order), returns every raised row's i-th answer as a tuple, of at least s rows. Row j lists
    the answers of the (j+1)-th (k+1)-subsequence's immediate sublists in ``subs`` order, so applying the
    plan's columns yields the tips of ``up``, the specification. The last level has no plan: its one raised
    row is the level itself. Plans are stored up to 10 elements; ``raise_level`` splits a longer input's
    levels down to 10 and gathers the parts by these plans.

    Level k's positions, 0 to C(s, k) - 1 from its front, are split by ``up``'s clause 4: ``_blocks``
    with no plan, as ``raise_level`` splits a level above 10. Each length's getters are built on its
    first call and kept by ``_columns``' cache (s * 2**(s-1) - 2s positions, 5,100 at 10), so a later
    call builds nothing. Threads that ask for a new length at once may each build it; each gets it whole.
    """
    return _columns(min(m, _STORED))


@cache  # gather_plan's answer for each length asked for so far
def _columns(m: int) -> tuple[tuple[Callable, ...], ...]:
    """``gather_plan(m)``, built: levels 1..m-2 of positions split by ``_blocks`` with no plan, into getters."""
    plans = []
    for k in range(1, m - 1):
        # each position is below C(10, 5) = 252, a cached small int, so no pool is needed to share them
        blocks = _blocks(list(range(comb(m, k))), k, m, ())
        plans.append(tuple(itemgetter(*chain.from_iterable(column)) for column in zip(*blocks)))
    return tuple(plans)


def raise_level(level: list[A], k: int, m: int, plans: Sequence[Sequence[Callable]], combine_level: Callable) -> list:
    """Level k of an m-element input raised a step: ``combine_level``'s answers for its blocks, in a new list.

    ``level`` is level k's C(m, k) answers. ``plans`` is ``gather_plan(m)``, or ``()`` for no plan. A block
    is consecutive rows as k + 1 columns (column i takes every row's i-th answer). The last level, k = m-1,
    is one block of one row, each answer a column of its own; another level, when the plans are for m
    elements, is one block, its columns plan k's getters applied to it. A longer level splits by ``up``'s
    clause 4 on its first element: its first C(m-1, k-1) answers X keep that element and the C(m-1, k)
    answers T after them drop it. The rows that keep it take their first k columns from X raised as level
    k-1 of m-1 (for k = 1, X's one answer repeated) and their column k from T in order; the rows that drop
    it are T raised as level k of m-1. So above 10 elements the level splits down to 10, and with ``()`` it
    splits all the way down, by clause 4 alone. A k outside 1..m-1 raises MalformedLevel naming k and m; so
    does a level that does not hold its C(m, k) answers (as when an earlier raise emptied it), naming both
    counts, and a block that gets more or fewer answers than it has rows. The raise consumes ``level``: each
    stretch of its answers is deleted once no later block reads it, X once the rows that keep the first
    element are raised, so ``level`` ends empty.
    """
    raised = []
    for columns in _blocks(level, k, m, plans):
        rows, start = len(columns[0]), len(raised)
        raised += combine_level(columns)
        if len(raised) - start != rows:
            raise MalformedLevel(f"level {k + 1}: a block of {rows} rows got {len(raised) - start} answers")
        del columns
    return raised


def _blocks(level: list[A], k: int, m: int, plans: Sequence[Sequence[Callable]]) -> Iterator[list]:
    """``raise_level``'s blocks of level k of m, the C(m, k) answers of ``level``, as column lists.

    The last level is one block, one answer per column; another level, when the plans are for m elements,
    is one block, plan k's getters applied to it. Else ``up``'s clause 4 splits it: X's blocks (for k = 1,
    X's one answer repeated), each given its column k from T in order, then T's blocks. A k outside 1..m-1,
    or a ``level`` of other than C(m, k) answers, raises MalformedLevel; X and T are split, so checked, by
    calls of their own. Each column is a tuple or a list, one answer per row. Each dead stretch of ``level``
    is a prefix of what is left, so deleting each one once its last block is done frees the answers in the
    order they were made, as long as no column outlives the list that owns its answers: each frame drops
    its columns after its yield.
    """
    if not 0 < k < m:
        raise MalformedLevel(f"a {m}-element input has no level {k} to raise")
    if len(level) != comb(m, k):
        raise MalformedLevel(f"level {k} of {m} elements holds {len(level)} answers, not {comb(m, k)}")
    if k == m - 1 or m == len(plans) + 2:
        # one block: the last level's one raised row is the level itself, since choose (m - 1) order
        # is subs order; another level's columns are plan k's getters applied to it
        yield list(zip(level)) if k == m - 1 else [column(level) for column in plans[k - 1]]
        # a list frees its items last to first; reversed, the spent answers go in the order
        # they were made, so the allocator merges them and gives the memory back
        level.reverse()
        level.clear()
        return
    t = comb(m - 1, k - 1)  # X = level[:t], T = level[t:]
    # the blocks own X; an exhausted list iterator lets go of its one block
    blocks = _blocks(level[:t], k - 1, m - 1, plans) if k > 1 else iter([[level[:1] * (m - 1)]])
    del level[:t]
    t = 0
    for columns in blocks:
        rows = len(columns[-1])
        columns.append(level[t : t + rows])
        yield columns
        del columns
        t += rows
    yield from _blocks(level, k, m - 1, plans)
