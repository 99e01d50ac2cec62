"""Tip-valued binary trees and the generic combinators over them.

Trees are immutable; every combinator returns a fresh structure and never
mutates its argument. Traversals are plain recursion: tree depth never
exceeds the source-sequence length, and ``ch`` and ``up`` already
recurse that deep.

A tree also has a canonical JSON document form: a tip is ``{"tip": value}``
and a node is ``{"node": [left, right]}``, serialized with no extra
whitespace. Tip values must be strings, numbers, or (nested) lists or
tuples of those; tuples are written as lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Generic, Sequence, TypeVar, Union

from .errors import NotATip, NotSingleton, ShapeMismatch

A = TypeVar("A")
B = TypeVar("B")
C = TypeVar("C")


@dataclass(frozen=True)
class Tip(Generic[A]):
    """Leaf holding one value."""

    value: A


@dataclass(frozen=True)
class Node(Generic[A]):
    """Internal node with exactly two subtrees."""

    left: "BinomialTree[A]"
    right: "BinomialTree[A]"


BinomialTree = Union[Tip[A], Node[A]]


def map_tree(f: Callable[[A], B], t: BinomialTree[A]) -> BinomialTree[B]:
    """Apply ``f`` to every tip value, preserving the shape of ``t``."""
    if isinstance(t, Tip):
        return Tip(f(t.value))
    return Node(map_tree(f, t.left), map_tree(f, t.right))


def zip_tree_with(
    f: Callable[[A, B], C], t: BinomialTree[A], u: BinomialTree[B]
) -> BinomialTree[C]:
    """Combine two same-shaped trees tip-wise with ``f``; ShapeMismatch if they differ."""
    if isinstance(t, Tip) and isinstance(u, Tip):
        return Tip(f(t.value, u.value))
    if isinstance(t, Node) and isinstance(u, Node):
        return Node(zip_tree_with(f, t.left, u.left), zip_tree_with(f, t.right, u.right))
    raise ShapeMismatch("tree shapes differ")


def un_tip(t: BinomialTree[A]) -> A:
    """Return the value of a tree that must be a single tip."""
    if not isinstance(t, Tip):
        raise NotATip("expected a single tip, found a node")
    return t.value


def extract_singleton(xs: Sequence[A]) -> A:
    """Return the sole element of a one-element sequence."""
    if len(xs) != 1:
        raise NotSingleton(f"expected exactly one element, got {len(xs)}")
    return xs[0]


def snoc(ys: list[A], z: A) -> list[A]:
    """A new list: ``ys`` with ``z`` appended."""
    return [*ys, z]


def tips(t: BinomialTree[A]) -> list[A]:
    """All tip values of ``t`` in left-to-right order."""
    if isinstance(t, Tip):
        return [t.value]
    return tips(t.left) + tips(t.right)


def _to_doc(x: Any) -> Any:
    """Document form of a tree, or of a tip value inside one (see the module docstring)."""
    if isinstance(x, Tip):
        return {"tip": _to_doc(x.value)}
    if isinstance(x, Node):
        return {"node": [_to_doc(x.left), _to_doc(x.right)]}
    if isinstance(x, (str, int, float)) and not isinstance(x, bool):
        return x
    if isinstance(x, (list, tuple)):
        return [_to_doc(v) for v in x]
    raise TypeError(f"{x!r} has no document form")


def encode_tree(t: BinomialTree[Any]) -> str:
    """Canonical JSON text for ``t``: compact separators, no whitespace."""
    return json.dumps(_to_doc(t), separators=(",", ":"))
