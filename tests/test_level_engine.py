"""Level-raising behavior: clause examples, laws, and malformed inputs."""

from __future__ import annotations

import gc
import json
import operator
import sys
import threading
import tracemalloc
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from helpers import gather, tree_of_shape
from sublists import (
    MODSUM,
    TRACE,
    MalformedLevel,
    Node,
    OutOfRange,
    SublistProblem,
    Tip,
    ch,
    check_shape,
    choose,
    encode_tree,
    map_tree,
    solve,
    subs,
    td,
    tips,
    up,
    upgrade_oracle,
    zip_tree_with,
)
from sublists import instances, laws, level_engine
from sublists.core_tree import snoc


def test_up_pair_of_tips():
    assert up(Node(Tip("y"), Tip("z"))) == Tip(["y", "z"])


def test_up_smallest_nontrivial_level():
    # raising the 1-of-3 tree pairs the first element with each later one
    expected = Node(Node(Tip(["a", "b"]), Tip(["a", "c"])), Tip(["b", "c"]))
    assert up(ch(1, "abc")) == expected


def test_up_collapses_the_last_level_to_subs():
    assert up(ch(3, "abcd")) == Tip(["abc", "abd", "acd", "bcd"])
    assert up(ch(3, "abcd")) == Tip(subs("abcd"))


def test_up_agrees_on_integer_lists_too():
    xs = [1, 2, 3, 4]
    for k in range(1, 4):
        assert up(ch(k, xs)) == map_tree(subs, ch(k + 1, xs))


def test_up_rejects_a_bare_tip():
    with pytest.raises(MalformedLevel) as err:
        up(Tip("a"))
    assert "tip" in str(err.value)
    with pytest.raises(TypeError):
        up("ab")


def _swap_children(t):
    if isinstance(t, Node):
        return Node(_swap_children(t.right), _swap_children(t.left))
    return t


def test_a_counterexample_names_its_law_and_renders_both_sides(monkeypatch):
    # with every raised node's children swapped, both laws first fail on abc at k = 1
    real_up = level_engine.up
    monkeypatch.setattr(level_engine, "up", lambda t: _swap_children(real_up(t)))
    raised = _swap_children(real_up(ch(1, "abc")))
    with pytest.raises(laws.Counterexample, match="^upgrade-level$") as err:
        laws.replay("upgrade-level", 3)
    assert err.value.info == {
        "input": "abc",
        "k": 1,
        "lhs": encode_tree(raised),
        "rhs": encode_tree(map_tree(subs, ch(2, "abc"))),
    }
    with pytest.raises(laws.Counterexample, match="^upgrade-tips$") as err:
        laws.replay("upgrade-tips", 3)
    assert err.value.info == {
        "input": "abc",
        "k": 1,
        "lhs": json.dumps(tips(raised), separators=(",", ":")),
        "rhs": json.dumps(upgrade_oracle(1, "abc"), separators=(",", ":")),
    }


def test_the_combine_level_law_replays_the_blocks_split_by_clause_4():
    # only the blocks split by clause 4 hold list columns, so a combine_level that reverses them
    # is right on every block gathered by a plan; the law must still catch it, from [1, 2, 3] on
    def reversing(columns):
        return instances._modsum_combine_level([c[::-1] if isinstance(c, list) else c for c in columns])

    cases = laws.combine_level(replace(MODSUM, combine_level=reversing), 6)
    assert next(info for info, lhs, rhs in cases if lhs != rhs) == {"input": [1, 2, 3], "k": 1}


def test_the_combine_level_law_holds_combine_level_to_returning_a_list():
    # bu extends one block's list of answers by the next block's and reverses a spent level, so
    # right answers in a tuple or an iterator break it; the law runs bu's own step and must catch both
    for wrap in [tuple, iter]:
        problem = replace(MODSUM, combine_level=lambda columns, wrap=wrap: wrap(MODSUM.combine_level(columns)))
        cases = laws.combine_level(problem, 6)
        assert next(info for info, lhs, rhs in cases if lhs != rhs) == {"input": [1, 2], "k": 1}, wrap


def test_up_names_clause_2_on_a_left_subtree_that_cannot_collapse():
    # right child is a tip, so clause 2 raises the left subtree and
    # demands a tip back; this left subtree raises to a node instead
    bad = Node(Node(Tip("a"), Node(Tip("b"), Tip("c"))), Tip("q"))
    with pytest.raises(MalformedLevel) as err:
        up(bad)
    assert "clause 2" in str(err.value)


def test_up_names_clause_4_on_shape_disagreement():
    # both children are nodes, so clause 4 zips the raised left subtree
    # against the right one; their shapes cannot line up here
    bad = Node(Node(Tip(1), Tip(2)), Node(Tip(3), Tip(4)))
    with pytest.raises(MalformedLevel) as err:
        up(bad)
    assert "clause 4" in str(err.value)


def test_upgrade_oracle_worked_example():
    groups = upgrade_oracle(2, "abcde")
    assert len(groups) == 10
    assert groups[:3] == [["ab", "ac", "bc"], ["ab", "ad", "bd"], ["ab", "ae", "be"]]
    assert groups == [subs(ys) for ys in choose(3, "abcde")]
    assert upgrade_oracle(1, "ab") == [["a", "b"]]


def test_upgrade_oracle_rejects_impossible_levels():
    with pytest.raises(OutOfRange):
        upgrade_oracle(0, "abcde")
    with pytest.raises(OutOfRange):
        upgrade_oracle(3, "abc")


def test_raise_then_combine_examples():
    # one bottom-up step: raise the level, then combine every tip
    assert map_tree(sum, up(Node(Tip(1), Tip(2)))) == Tip(3)
    assert map_tree("".join, up(Node(Tip("a"), Tip("b")))) == Tip("ab")


def test_raise_then_combine_advances_a_level_of_solved_values():
    # tips hold answers for level k; one raise-and-combine yields the
    # answers for level k+1, because each new tip combines exactly the
    # right list
    def solved(s):
        return td(len(s) - 1, TRACE, s)

    xs = "abcde"
    for k in range(1, 4):
        before = map_tree(solved, ch(k, xs))
        after = map_tree(solved, ch(k + 1, xs))
        assert map_tree(TRACE.combine, up(before)) == after


shape_indices = st.sampled_from([(k, n) for n in range(2, 7) for k in range(1, n)])


@given(d=st.data(), km=st.sampled_from([(k, m) for m in range(2, level_engine._STORED + 1) for k in range(1, m)]))
@settings(deadline=None)
def test_gather_by_plan_is_up_on_the_tips(d, km):
    # naturality on the flat form: the raise moves values by position only,
    # so any values laid out in choose order raise like the tree's tips
    k, m = km
    values = d.draw(st.lists(st.integers(-100, 100), min_size=comb(m, k), max_size=comb(m, k)))
    t = tree_of_shape(k, m, iter(values).__next__)
    assert gather(values, level_engine.gather_plan(m)[k - 1]) == tips(up(t))


def test_every_stored_plan_is_up_on_distinct_tips():
    # on distinct values the gathered rows name every position, so this pins each stored plan whole
    for m in range(2, level_engine._STORED + 1):
        for k in range(1, m):
            values = list(range(comb(m, k)))
            t = tree_of_shape(k, m, iter(values).__next__)
            assert gather(values, level_engine.gather_plan(m)[k - 1]) == tips(up(t)), (k, m)


def _resident(*plans) -> int:
    """Bytes the allocator holds for the getters in ``plans`` and all they refer to, each object once.

    The ints from -5 to 256 are the interpreter's own, made at start-up. An int may ask the allocator
    for more than ``getsizeof`` says (32 bytes against 28 on CPython 3.11), so its size is traced.
    """
    seen, total, ints, todo = set(), 0, 0, list(plans)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or obj is None or isinstance(obj, type) or type(obj) is int and -5 <= obj <= 256:
            continue
        seen.add(id(obj))
        if type(obj) is int:
            ints += 1
            continue
        total += sys.getsizeof(obj)
        todo.extend(gc.get_referents(obj))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fresh = tuple(range(-1000 - ints, -1000))
        return total + tracemalloc.get_traced_memory()[0] - before - sys.getsizeof(fresh)
    finally:
        tracemalloc.stop()


def _applied(plans, m: int) -> list[list[list]]:
    """Every level's rows, each level's plan applied to its distinct positions."""
    return [gather(list(range(comb(m, k))), plan) for k, plan in enumerate(plans, start=1)]


def test_gather_plans_are_cached_column_getters_over_pooled_positions():
    # tests share one process, so start from an empty cache
    level_engine._columns.cache_clear()
    plans = level_engine.gather_plan(7)
    assert [len(plan) for plan in plans] == [k + 1 for k in range(1, 7)]
    assert all(type(column) is operator.itemgetter for plan in plans for column in plan)
    assert level_engine.gather_plan(1) == ()
    assert _applied(level_engine.gather_plan(2), 2) == [[[0, 1]]]

    # every column is a sequence, a one-row one too: the last level's one row is the level itself
    level = list("abcdefg")
    assert [column(level) for column in plans[-1]] == [[c] for c in level]
    assert [type(column(list(range(21)))) for column in plans[-2]] == [tuple] * 6  # C(7, 5) answers

    # a warm call, or a longer length, builds nothing; each position is one int object
    assert level_engine.gather_plan(7) is plans
    assert level_engine.gather_plan(20) is level_engine.gather_plan(10) is level_engine.gather_plan(12)
    assert level_engine._columns.cache_info().currsize == 4  # 7, 1, 2 and 10
    items = [p for plan in level_engine.gather_plan(10)[:-1] for column in plan for p in column.__reduce__()[1]]
    assert len({id(p) for p in items}) == len(set(items)) == comb(10, 5)

    # only the lengths asked for stay resident, each its getters and one pool; the window's ends
    # collect, since the interpreter keeps freed tuples on free lists that tracemalloc still counts
    level_engine._columns.cache_clear()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for m in (9, 12, 10):
            level_engine.gather_plan(m)
        gc.collect()
        resident = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert level_engine._columns.cache_info().currsize == 2  # 9 and 10
    assert sum(len(column.__reduce__()[1]) for plan in level_engine.gather_plan(10) for column in plan) == 5_110
    alone = _resident(level_engine.gather_plan(9), level_engine.gather_plan(10))
    assert alone <= resident < alone + 1024  # a 10-element pool tuple would add 2 KiB


def test_concurrent_readers_see_only_whole_plans():
    # threads build and read the shared cache at once; each must get exactly the plans
    lengths = list(range(1, 11))
    expected = {m: _applied(level_engine.gather_plan(m), m) for m in lengths}
    orders = [lengths[i:] + lengths[:i] for i in range(0, 10, 3)] + [lengths[::-1]]
    wrong = []

    def read(barrier, order):
        barrier.wait(timeout=60)
        for m in order:
            try:
                got = _applied(level_engine.gather_plan(m), m)
            except Exception as exc:  # a half-built plan may also raise; report it as a wrong read
                got = exc
            if got != expected[m]:
                wrong.append((m, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            level_engine._columns.cache_clear()
            barrier = threading.Barrier(len(orders))
            threads = [threading.Thread(target=read, args=(barrier, order)) for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_solve_on_20_ints_leaves_only_the_10_element_getters_resident():
    # above 10 elements levels split by up's clause 4 down to 10, so a longer length gets the
    # 10-element plans and no longer plan is built
    assert level_engine.gather_plan(20) is level_engine.gather_plan(10)
    # the problem passes column 0 through, so the gather is all that runs; the window's ends
    # collect, as in the cache test above
    first = SublistProblem("first", int, lambda ys: ys[0], combine_level=lambda columns: list(columns[0]))
    level_engine._columns.cache_clear()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        assert solve(first, list(range(1, 21))) == 1
        gc.collect()
        resident = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert level_engine._columns.cache_info().currsize == 1  # 10
    alone = _resident(level_engine.gather_plan(10))
    assert alone <= resident < alone + 1024


@given(d=st.data(), kn=shape_indices)
@settings(deadline=None)
def test_up_advances_the_shape_for_any_contents(d, kn):
    k, n = kn
    t = tree_of_shape(k, n, lambda: d.draw(st.text(alphabet="pqr", max_size=3)))
    u = up(t)
    assert check_shape(u, (k + 1, n))
    assert all(len(v) == k + 1 for v in tips(u))


@given(u=st.recursive(
    st.builds(Tip, st.text(alphabet="abcd", max_size=4)),
    lambda sub: st.builds(Node, sub, sub),
    max_leaves=16,
), x=st.sampled_from("xyz"))
def test_prepending_then_listing_sublists_splits_into_zip(u, x):
    # deleting one element of x:ys either keeps x (giving x prepended to
    # a sublist of ys) or deletes x (giving ys itself); tip-wise that is
    # exactly a zip of the mapped tree against the original
    lhs = map_tree(lambda ys: subs(x + ys), u)
    rhs = zip_tree_with(snoc, map_tree(lambda ys: [x + zs for zs in subs(ys)], u), u)
    assert lhs == rhs
