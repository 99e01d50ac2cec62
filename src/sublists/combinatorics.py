"""Sublist and combination generators, plus shape-index validation.

Inputs are ``str``, ``list`` or ``tuple``: sequences whose slices
concatenate with ``+`` (a ``range`` does not qualify, since ``range +
range`` raises TypeError). Results keep the kind of the input (``subs`` of
a string is a list of strings, ``subs`` of a list of ints is a list of int
lists). Generation order is fixed and load-bearing throughout: it is the
order the level-raising step reproduces.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .core_tree import BinomialTree, Node, Tip, map_tree
from .errors import OutOfRange

S = TypeVar("S", bound=Sequence)


def subs(xs: S) -> list[S]:
    """All sequences obtained by deleting exactly one element of ``xs``.

    Ordered so that the sublist missing a later element comes first; the
    tail of ``xs`` (first element deleted) is last. Empty input gives [].
    Built by direct deletion, without recursion, so any length works; the
    paper's clause ``subs (x:xs) = map (x:) (subs xs) ++ [xs]`` is its test oracle.
    """
    return [xs[:i] + xs[i + 1 :] for i in range(len(xs) - 1, -1, -1)]


def choose(k: int, xs: S) -> list[S]:
    """All k-element subsequences of ``xs``, keeping element order.

    Subsequences containing the first element come before those without
    it. Defined for 0 <= k <= len(xs); anything else raises OutOfRange.
    The k == 0 clause wins on empty input, so choose(0, "") == [""].
    """
    if k < 0 or k > len(xs):
        raise OutOfRange(f"cannot choose {k} of {len(xs)} elements")
    if k == 0:
        return [xs[:0]]
    if k == len(xs):
        return [xs]
    head, tail = xs[:1], xs[1:]
    return [head + ys for ys in choose(k - 1, tail)] + choose(k, tail)


def ch(k: int, xs: S) -> BinomialTree[S]:
    """The choice tree whose tips are ``choose(k, xs)`` in order.

    Left subtree: selections keeping the first element; right subtree:
    selections skipping it. Same domain and clause order as ``choose``,
    so ch(0, xs) and ch(len(xs), xs) are single tips.
    """
    if k < 0 or k > len(xs):
        raise OutOfRange(f"cannot choose {k} of {len(xs)} elements")
    if k == 0:
        return Tip(xs[:0])
    if k == len(xs):
        return Tip(xs)
    head, tail = xs[:1], xs[1:]
    return Node(map_tree(lambda ys: head + ys, ch(k - 1, tail)), ch(k, tail))


def check_shape(t: BinomialTree, idx: tuple[int, int]) -> bool:
    """Decide whether ``t`` has the shape the index (k, n) dictates.

    A tip is valid for (0, n) with any n, and for (k, k) with k >= 1.
    A node is valid for (k, n) only when k >= 1 and n >= 1, its left
    subtree is valid for (k - 1, n - 1), and its right subtree is valid
    for (k, n - 1). A valid index always satisfies k <= n, and the index
    determines the shape completely.
    """
    k, n = idx
    if isinstance(t, Tip):
        return k == 0 or k == n
    if k < 1 or n < 1:
        return False
    return check_shape(t.left, (k - 1, n - 1)) and check_shape(t.right, (k, n - 1))

