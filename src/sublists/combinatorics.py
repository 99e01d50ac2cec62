"""Sublist and combination generators, plus shape-index validation.

Inputs are ``str``, ``list`` or ``tuple``: sequences whose slices concatenate with
``+`` (a ``range`` does not qualify, since ``range + range`` raises TypeError). Results
keep the kind of the input (``subs`` of a string is a list of strings, ``subs`` of a
list of ints is a list of int lists). Generation order is fixed and load-bearing
throughout: it is the order the level-raising step reproduces. ``ch`` is ``choose``
laid into the (k, n) shape; the paper's clauses for ``subs`` and ``ch`` are test oracles.
"""

from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

from .core_tree import BinomialTree, Node, Tip
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


def _shape(k: int, n: int, tips: Iterator[S]) -> BinomialTree[S]:
    """The one (k, n)-shaped tree, its tips drawn in order from ``tips``."""
    if k == 0 or k == n:
        return Tip(next(tips))
    return Node(_shape(k - 1, n - 1, tips), _shape(k, n - 1, tips))


def ch(k: int, xs: S) -> BinomialTree[S]:
    """``choose(k, xs)`` laid in order into the one (k, len(xs))-shaped tree.

    Left subtree: selections keeping the first element; right: those skipping
    it. Same domain as ``choose``. The paper's clause
    ``ch k (x:xs) = node (map (x:) (ch (k-1) xs)) (ch k xs)`` is its test oracle.
    """
    return _shape(k, len(xs), iter(choose(k, xs)))


def check_shape(t: BinomialTree, idx: tuple[int, int]) -> bool:
    """Decide whether ``t`` has the shape the index (k, n) dictates.

    A tip is valid for (0, n) with any n, and for (k, k) with k >= 1.
    A node is valid for (k, n) when its left subtree is valid for
    (k - 1, n - 1) and its right subtree for (k, n - 1). No tree is valid
    at k < 0, nor at k >= 1 with n < k, so a valid node has 1 <= k < n.
    The index determines the shape completely.
    """
    k, n = idx
    if isinstance(t, Tip):
        return k == 0 or k == n > 0
    return check_shape(t.left, (k - 1, n - 1)) and check_shape(t.right, (k, n - 1))
