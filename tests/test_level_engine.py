"""Level-raising behavior: clause examples, laws, and malformed inputs."""

from __future__ import annotations

import gc
import itertools
import json
import operator
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from helpers import gather, tree_of_shape
from sublists import (
    MODSUM,
    MODULUS,
    TRACE,
    MalformedLevel,
    Node,
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
        "rhs": json.dumps([["a", "b"], ["a", "c"], ["b", "c"]], separators=(",", ":")),
    }


def _combine_level_cases(problem):
    """The combine-level law's cases on ints 1..n, n = 1..6, in order."""
    return (case for n in range(1, 7) for case in laws.combine_level(problem, list(range(1, n + 1))))


def test_the_combine_level_law_replays_the_blocks_split_by_clause_4():
    # only the blocks split by clause 4 hold list columns, so a combine_level that reverses them
    # is right on every block gathered by a plan; the law must still catch it, from [1, 2, 3] on
    def reversing(columns):
        return instances._modsum_combine_level([c[::-1] if isinstance(c, list) else c for c in columns])

    cases = _combine_level_cases(replace(MODSUM, combine_level=reversing))
    assert next(info for info, lhs, rhs in cases if lhs != rhs) == {"input": [1, 2, 3], "k": 1}


def test_combine_level_may_answer_with_any_iterable():
    # raise_level copies each block's answers into a level of its own, so right answers in a
    # tuple, an iterator or a generator hold the law, and bu gives modsum's values past the split above 10
    def generator(answers):
        yield from answers

    for wrap in [tuple, iter, generator]:
        problem = replace(MODSUM, combine_level=lambda columns, wrap=wrap: wrap(MODSUM.combine_level(columns)))
        assert all(lhs == rhs for _, lhs, rhs in _combine_level_cases(problem)), wrap
        for n in range(1, 15):
            xs = list(range(1, n + 1))
            assert solve(problem, xs) == solve(MODSUM, xs), (wrap, n)


def test_combine_level_may_read_its_columns_as_sequences():
    # every column bu hands over is a tuple or a list, the repeated k = 1 column above 10
    # elements too, so a combine_level that indexes its columns and takes their len holds
    def indexing(columns):
        return [MODSUM.combine([column[i] for column in columns]) for i in range(len(columns[0]))]

    for n in range(1, 15):
        xs = list(range(1, n + 1))
        assert solve(replace(MODSUM, combine_level=indexing), xs) == solve(MODSUM, xs), n


@pytest.mark.parametrize("n", [3, 5, 12])
@pytest.mark.parametrize("answers", [
    lambda columns: MODSUM.combine_level(columns) + [7],
    lambda columns: MODSUM.combine_level(columns)[:-1] or [0],
], ids=["one-extra", "one-short"])
def test_bu_refuses_a_block_given_the_wrong_number_of_answers(answers, n):
    # one answer too many or too few in a block is a malformed level, not a bare unpacking or
    # index error deep in bu, nor a wrong answer (unchecked, one short answers 0 for [1, 2, 3], not 50)
    with pytest.raises(MalformedLevel, match="rows got"):
        solve(replace(MODSUM, combine_level=answers), list(range(1, n + 1)))


def test_bu_checks_each_block_not_only_each_level():
    # at 12 ints level 1 is raised in blocks of 11, 10 and 45 rows; an extra answer in the second
    # and a missing one in the third leave the level's length right, yet the second is refused
    calls = itertools.count(1)

    def shifting(columns):
        answers, call = MODSUM.combine_level(columns), next(calls)
        return answers + [0] if call == 2 else answers[:-1] if call == 3 else answers

    with pytest.raises(MalformedLevel, match="^level 2: a block of 10 rows got 11 answers$"):
        solve(replace(MODSUM, combine_level=shifting), list(range(1, 13)))


@pytest.mark.parametrize("n, calls", [(5, 4), (12, 39)])
def test_bu_never_changes_a_list_that_combine_level_returned(n, calls):
    # a combine_level that keeps each list it returns, with a copy, finds every one unchanged after
    # solve: one block per level at 5 ints, several per level at 12
    kept = []

    def keeping(columns):
        answers = MODSUM.combine_level(columns)
        kept.append((answers, list(answers)))
        return answers

    solve(replace(MODSUM, combine_level=keeping), list(range(1, n + 1)))
    assert len(kept) == calls
    assert [answers for answers, _ in kept] == [copy for _, copy in kept]


def test_a_combine_replaced_without_its_combine_level_fails_both_problem_laws():
    # replace keeps the old combine_level, so bu answers by modsum's while td answers by the new
    # combine, and neither raises; on [1, 2, 3, 4] the laws must see it
    problem = replace(MODSUM, combine=lambda ys: (2 * sum(ys)) % MODULUS)
    xs = [1, 2, 3, 4]
    assert next(info for info, lhs, rhs in laws.combine_level(problem, xs) if lhs != rhs) == {"input": xs, "k": 1}
    assert [(info, lhs, rhs) for info, lhs, rhs in laws.td_bu(problem, xs)] == [({"input": xs}, 480, 638)]


def _letters(min_size, max_size):
    """Strings over a two- or three-letter alphabet, so that letters repeat."""
    return st.sampled_from(["ab", "abc"]).flatmap(lambda a: st.text(alphabet=a, min_size=min_size, max_size=max_size))


# near zero, so that values repeat, and around the modulus, past it and below zero
_ints = st.integers(-3, 3) | st.integers(MODULUS - 3, 2 * MODULUS) | st.integers(-2 * MODULUS, -4)
_LAWS = laws.registry()
# each law's drawn inputs; combine-level's pass 10 elements, where bu splits each level by clause 4
_DRAWN = {name: _letters(2, 8) for name in _LAWS if "[" not in name} | {
    "combine-level[modsum]": st.lists(_ints, min_size=11, max_size=14),
    "td-bu[maxmin]": st.lists(_ints, min_size=1, max_size=7),
    "td-bu[modsum]": st.lists(_ints, min_size=1, max_size=7),
    "td-bu[trace]": _letters(1, 7),
}


@given(d=st.data(), name=st.sampled_from(sorted(_DRAWN)))
@settings(max_examples=100, deadline=None)
def test_the_laws_hold_on_drawn_inputs(d, name):
    # the laws are stated for any input; verify feeds them only distinct ascending ones, up to 10
    assert _DRAWN.keys() == _LAWS.keys()
    law, _, _ = _LAWS[name]
    for info, lhs, rhs in law(d.draw(_DRAWN[name], label="xs")):
        assert lhs == rhs, (name, info)


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


def test_up_worked_example_lists_each_selections_sublists():
    groups = tips(up(ch(2, "abcde")))
    assert groups == [
        ["ab", "ac", "bc"], ["ab", "ad", "bd"], ["ab", "ae", "be"], ["ac", "ad", "cd"], ["ac", "ae", "ce"],
        ["ad", "ae", "de"], ["bc", "bd", "cd"], ["bc", "be", "ce"], ["bd", "be", "de"], ["cd", "ce", "de"],
    ]
    assert groups == [subs(ys) for ys in choose(3, "abcde")]
    assert tips(up(ch(1, "ab"))) == [["a", "b"]]


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


def test_every_stored_plan_is_up_on_distinct_tips():
    # on distinct values the gathered rows name every position, so this pins each stored plan whole;
    # the last level has no plan, its one raised row being the level itself, so its raise is checked,
    # with the stored plans and with none
    def row(columns):  # every column is a sequence, a one-row one too
        assert all(type(column) in (tuple, list) for column in columns)
        return [[value for (value,) in columns]]

    for m in range(2, level_engine._STORED + 1):
        for k in range(1, m):
            values = list(range(comb(m, k)))
            t = tree_of_shape(k, m, iter(values).__next__)
            if k < m - 1:
                assert gather(values, level_engine.gather_plan(m)[k - 1]) == tips(up(t)), (k, m)
        for plans in (level_engine.gather_plan(m), ()):  # k = m - 1 and its tree, from the loop's last pass
            assert level_engine.raise_level(list(values), k, m, plans, row) == tips(up(t)), (m, len(plans))


@pytest.mark.parametrize("m", [2, 5, 10, 12])
def test_a_raise_consumes_its_level_in_order(m):
    # each stretch of the level is deleted once no later block reads it, so with the stored plans or
    # with none, on one block or on many, the level ends empty, its answers freed in the order they
    # sit in it; solver.levels relies on both
    for plans in (level_engine.gather_plan(m), ()):
        for k in range(1, m):
            freed = []

            class Answer:
                def __init__(self, label):
                    weakref.finalize(self, freed.append, label)

            level = [Answer(label) for label in range(comb(m, k))]
            raised = level_engine.raise_level(level, k, m, plans, lambda columns: map(len, zip(*columns)))
            assert (level, raised) == ([], [k + 1] * comb(m, k + 1)), (k, len(plans))
            assert freed == list(range(comb(m, k))), (k, len(plans))


@pytest.mark.parametrize("stored", [True, False], ids=["plans", "no-plan"])
def test_a_raise_refuses_a_level_of_the_wrong_length(stored):
    # the over-long level was once raised, its extra answer dropped unread; at 12 elements the stored
    # plans are for 10, so with them too the level splits by clause 4 first
    plans = level_engine.gather_plan(12) if stored else ()
    emptied = list(range(1, 13))
    assert len(level_engine.raise_level(emptied, 1, 12, plans, MODSUM.combine_level)) == 66
    for level, k, message in [
        (list(range(1, 13)) + [999], 1, "level 1 of 12 elements holds 13 answers, not 12"),
        (list(range(65)), 2, "level 2 of 12 elements holds 65 answers, not 66"),
        (emptied, 1, "level 1 of 12 elements holds 0 answers, not 12"),
    ]:
        with pytest.raises(MalformedLevel, match=f"^{message}$"):
            level_engine.raise_level(level, k, 12, plans, MODSUM.combine_level)


@pytest.mark.parametrize("stored", [True, False], ids=["plans", "no-plan"])
def test_a_raise_refuses_levels_0_and_m(stored):
    # each holds its C(m, k) = 1 answer, so only the index can refuse it
    plans = level_engine.gather_plan(4) if stored else ()
    for k in (0, 4):
        with pytest.raises(MalformedLevel, match=f"^a 4-element input has no level {k} to raise$"):
            level_engine.raise_level([5], k, 4, plans, MODSUM.combine_level)


def _resident(*plans) -> int:
    """Bytes the allocator holds for the getters in ``plans`` and all they refer to, each object once.

    Every position is one of the ints from -5 to 256 that the interpreter makes at start-up, so the
    walk meets no int of the getters' own.
    """
    seen, total, todo = set(), 0, list(plans)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or obj is None or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if type(obj) is int:
            assert -5 <= obj <= 256, obj
            continue
        total += sys.getsizeof(obj)
        todo.extend(gc.get_referents(obj))
    return total


def _applied(plans, m: int) -> list[list[list]]:
    """Every level's rows, each level's plan applied to its distinct positions."""
    return [gather(list(range(comb(m, k))), plan) for k, plan in enumerate(plans, start=1)]


def _positions(column) -> list[int]:
    """The positions one getter reads."""
    return list(column.__reduce__()[1])


def test_gather_plans_are_cached_column_getters_over_level_positions():
    # tests share one process, so start from an empty cache
    level_engine._columns.cache_clear()
    plans = level_engine.gather_plan(7)
    assert [len(plan) for plan in plans] == [k + 1 for k in range(1, 7 - 1)]
    assert all(type(column) is operator.itemgetter for plan in plans for column in plan)
    assert level_engine.gather_plan(1) == level_engine.gather_plan(2) == ()

    # the last level has no plan, so every column has at least 3 rows and its getter returns a tuple
    assert [type(column(list(range(21)))) for column in plans[-1]] == [tuple] * 6  # C(7, 5) answers

    # a warm call, or a longer length, builds nothing; each position is one int object
    assert level_engine.gather_plan(7) is plans
    assert level_engine.gather_plan(20) is level_engine.gather_plan(10) is level_engine.gather_plan(12)
    assert level_engine._columns.cache_info().currsize == 4  # 7, 1, 2 and 10
    items = [p for plan in level_engine.gather_plan(10) for column in plan for p in _positions(column)]
    assert len({id(p) for p in items}) == len(set(items)) == comb(10, 5)

    # each level is read from its front: every getter of level k reads only its C(m, k) positions
    for m in range(2, level_engine._STORED + 1):
        for k, plan in enumerate(level_engine.gather_plan(m), start=1):
            assert all(0 <= p < comb(m, k) for column in plan for p in _positions(column)), (k, m)

    # only the lengths asked for stay resident, each only its getters; the window's ends
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
    assert sum(len(column.__reduce__()[1]) for plan in level_engine.gather_plan(10) for column in plan) == 5_100
    alone = _resident(level_engine.gather_plan(9), level_engine.gather_plan(10))
    assert alone <= resident < alone + 1024  # 252 fresh ints, one per position, would add nearly 8 KiB


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
