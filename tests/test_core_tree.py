"""Tree combinator behavior: worked examples, laws, and the JSON form."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from helpers import doc_to_tree
from sublists import (
    Node,
    NotATip,
    ShapeMismatch,
    Tip,
    encode_tree,
    map_tree,
    tips,
    un_tip,
    zip_tree_with,
)
from sublists.core_tree import extract_singleton, snoc
from sublists.errors import NotSingleton


values = st.integers(-50, 50)
trees = st.recursive(st.builds(Tip, values), lambda sub: st.builds(Node, sub, sub), max_leaves=32)
unary_fns = st.sampled_from(
    [lambda z: z + 1, lambda z: z * 2, lambda z: -z, lambda z: z % 7, lambda z: z * z]
)
binary_fns = st.sampled_from(
    [lambda a, b: (a, b), lambda a, b: a + b, lambda a, b: a * 100 + b]
)


def test_map_tree_examples():
    assert map_tree(lambda v: v * 2, Tip(3)) == Tip(6)
    assert map_tree(str.upper, Node(Tip("a"), Tip("b"))) == Node(Tip("A"), Tip("B"))


def test_zip_tree_with_example():
    t = Node(Tip(1), Tip(2))
    u = Node(Tip(3), Tip(4))
    assert zip_tree_with(lambda a, b: (a, b), t, u) == Node(Tip((1, 3)), Tip((2, 4)))


def test_zip_tree_with_refuses_differing_shapes():
    at_root = (Tip(1), Node(Tip(1), Tip(2)))
    a_level_down = (Node(Tip(1), Node(Tip(2), Tip(3))), Node(Tip(9), Tip(8)))
    for t, u in (at_root, a_level_down):
        with pytest.raises(ShapeMismatch):
            zip_tree_with(lambda a, b: (a, b), t, u)


def test_un_tip():
    assert un_tip(Tip("v")) == "v"
    with pytest.raises(NotATip):
        un_tip(Node(Tip(1), Tip(2)))


def test_extract_singleton():
    assert extract_singleton([7]) == 7
    assert extract_singleton("a") == "a"
    with pytest.raises(NotSingleton):
        extract_singleton([])
    with pytest.raises(NotSingleton):
        extract_singleton("ab")


def test_snoc_keeps_sequence_kind():
    assert snoc([], 5) == [5]
    assert snoc([1, 2], 3) == [1, 2, 3]


def test_snoc_does_not_mutate():
    ys = [1, 2]
    snoc(ys, 3)
    assert ys == [1, 2]


def test_tips_order_is_left_to_right():
    t = Node(Node(Tip(1), Tip(2)), Tip(3))
    assert tips(t) == [1, 2, 3]
    assert len(tips(t)) == 3
    assert tips(Tip("x")) == ["x"]


@given(t=trees)
def test_map_tree_identity(t):
    assert map_tree(lambda v: v, t) == t


@given(t=trees, f=unary_fns, g=unary_fns)
def test_map_tree_composition(t, f, g):
    lhs = map_tree(lambda v: f(g(v)), t)
    rhs = map_tree(f, map_tree(g, t))
    assert lhs == rhs


@given(t=trees, f=binary_fns, g=unary_fns, h=unary_fns)
def test_zip_after_maps_is_a_single_map(t, f, g, h):
    # zipping two mapped copies of one tree collapses to one map
    lhs = map_tree(lambda z: f(g(z), h(z)), t)
    rhs = zip_tree_with(f, map_tree(g, t), map_tree(h, t))
    assert lhs == rhs


@given(t=trees, f=unary_fns)
def test_tips_commute_with_map(t, f):
    assert tips(map_tree(f, t)) == [f(v) for v in tips(t)]


@given(t=trees, f=unary_fns)
def test_map_preserves_tip_count(t, f):
    assert len(tips(map_tree(f, t))) == len(tips(t))


def test_document_form_example_is_canonical():
    t = Node(Tip("y"), Tip("z"))
    assert encode_tree(t) == '{"node":[{"tip":"y"},{"tip":"z"}]}'


def test_document_round_trip_for_value_kinds():
    cases = [
        Tip("abc"),
        Tip(42),
        Node(Tip(["ab", "cd"]), Tip(["e"])),
        Node(Node(Tip(1), Tip(2)), Tip(3)),
        Tip([["x", "y"], ["z"]]),
    ]
    for t in cases:
        assert doc_to_tree(json.loads(encode_tree(t))) == t


@given(t=trees)
def test_document_round_trip_random(t):
    assert doc_to_tree(json.loads(encode_tree(t))) == t


def test_encode_has_no_extra_whitespace():
    t = Node(Tip([1, 2]), Node(Tip([3]), Tip([4])))
    text = encode_tree(t)
    assert " " not in text
    assert doc_to_tree(json.loads(text)) == t


def test_unsupported_tip_values_fail_to_encode():
    with pytest.raises(TypeError):
        encode_tree(Tip({"a": 1}))
    with pytest.raises(TypeError):
        encode_tree(Tip(True))
