"""Generators and shape checks against frozen examples and closed forms."""

from __future__ import annotations

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from helpers import paper_subs, prefix, tree_of_shape
from sublists import (
    Node,
    OutOfRange,
    Tip,
    ch,
    check_shape,
    choose,
    subs,
    tips,
)
from sublists import laws

SUBS_ABCDE = ["abcd", "abce", "abde", "acde", "bcde"]
CHOOSE_3_ABCDE = ["abc", "abd", "abe", "acd", "ace", "ade", "bcd", "bce", "bde", "cde"]


def test_subs_worked_examples():
    assert subs("abcde") == SUBS_ABCDE
    assert subs("ab") == ["a", "b"]
    assert subs("a") == [""]
    assert subs("") == []
    assert subs([]) == []
    assert subs([1, 2, 3]) == [[1, 2], [1, 3], [2, 3]]
    assert subs((1, 2)) == [(1,), (2,)]


@given(xs=st.text(alphabet="abcdef", max_size=8))
def test_subs_matches_the_papers_clause(xs):
    assert subs(xs) == paper_subs(xs)
    assert subs(list(xs)) == paper_subs(list(xs))
    assert subs(tuple(xs)) == paper_subs(tuple(xs))


def test_subs_of_a_long_input_keeps_its_kind():
    # one frame per element would overflow the interpreter's stack here
    long = subs("x" * 1500)
    assert len(long) == 1500
    assert all(ys == "x" * 1499 for ys in long)
    assert subs(list(range(1500)))[-1] == list(range(1, 1500))
    assert subs(tuple(range(1500)))[0] == tuple(range(1499))


def test_subs_is_the_penultimate_choose():
    for n in range(1, 11):
        xs = prefix(n)
        assert subs(xs) == choose(n - 1, xs)


def test_choose_worked_examples():
    assert choose(3, "abcde") == CHOOSE_3_ABCDE
    assert choose(2, "abcd") == ["ab", "ac", "ad", "bc", "bd", "cd"]
    assert choose(0, "xyz") == [""]
    assert choose(0, "") == [""]
    assert choose(0, []) == [[]]
    assert choose(3, "abc") == ["abc"]
    assert choose(2, [1, 2, 3]) == [[1, 2], [1, 3], [2, 3]]


def test_choose_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        choose(4, "abc")
    with pytest.raises(OutOfRange):
        choose(-1, "abc")
    with pytest.raises(OutOfRange):
        choose(1, "")


def _is_subsequence(small, big):
    it = iter(big)
    return all(x in it for x in small)


def test_choose_results_are_ordered_subsequences():
    for n in range(0, 9):
        xs = prefix(n)
        for k in range(0, n + 1):
            results = choose(k, xs)
            assert len(results) == comb(n, k)
            assert all(len(ys) == k for ys in results)
            assert all(_is_subsequence(ys, xs) for ys in results)
            assert len(set(results)) == len(results)
            assert results == ["".join(ys) for ys in combinations(xs, k)]


def test_ch_worked_examples():
    assert ch(1, "yz") == Node(Tip("y"), Tip("z"))
    assert ch(2, "ab") == Tip("ab")
    assert ch(0, "abc") == Tip("")
    assert ch(0, []) == Tip([])


def test_ch_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        ch(4, "abc")
    with pytest.raises(OutOfRange):
        ch(-1, "abc")


def test_ch_tips_enumerate_choose_in_order():
    for n in range(0, 9):
        xs = prefix(n)
        for k in range(0, n + 1):
            assert tips(ch(k, xs)) == choose(k, xs)
    assert tips(ch(2, [1, 2, 3, 4])) == choose(2, [1, 2, 3, 4])


def test_ch_left_subtree_keeps_the_first_element():
    t = ch(2, "abcd")
    assert all(ys.startswith("a") for ys in tips(t.left))
    assert not any(ys.startswith("a") for ys in tips(t.right))


def test_check_shape_tip_rules():
    assert check_shape(Tip("x"), (0, 0))
    assert check_shape(Tip("x"), (0, 7))
    assert check_shape(Tip("x"), (3, 3))
    assert not check_shape(Tip("x"), (2, 3))
    assert not check_shape(Tip("x"), (3, 2))


def test_check_shape_node_rules():
    assert check_shape(Node(Tip("y"), Tip("z")), (1, 2))
    # a two-tip node cannot be a 2-of-3 tree: its left child would need
    # shape (1, 2), which no tip has
    assert not check_shape(Node(Tip("x"), Tip("y")), (2, 3))
    assert not check_shape(Node(Tip("x"), Tip("y")), (0, 2))
    assert not check_shape(Node(Tip("x"), Tip("y")), (1, 0))
    assert not check_shape(Node(Tip("x"), Tip("y")), (0, 0))


def test_check_shape_is_specific():
    # the (2, 5) tree passes exactly the indices whose unique shape it is
    t = ch(2, prefix(5))
    matches = [(k, n) for k in range(0, 7) for n in range(0, 7) if check_shape(t, (k, n))]
    assert matches == [(2, 5)]


def test_valid_shapes_respect_the_bound():
    for k in range(0, 8):
        for n in range(0, 8):
            t = tree_of_shape(min(k, n), n, lambda: 0)
            if check_shape(t, (k, n)):
                assert k <= n


def test_pascal_spine_worked_example():
    # the pascal-spine law's sides at each k on "abcde": (left spine sizes, right spine sizes)
    cases = {info["k"]: (lhs, rhs) for info, lhs, rhs in laws.pascal_spine("abcde")}
    assert list(cases) == [1, 2, 3, 4, 5]
    assert all(lhs == rhs for lhs, rhs in cases.values())
    # C(5,2), C(4,2), C(3,2), C(2,2) on the right; C(5,2), C(4,1), C(3,0) on the left
    assert cases[2][0] == ([10, 4, 1], [10, 6, 3, 1])
    # C(5,3), C(4,3), C(3,3)
    assert cases[3][0] == ([10, 6, 3, 1], [10, 4, 1])
    # k = n: the tree is one tip, so each spine is that tip alone
    assert cases[5][0] == ([1], [1])

