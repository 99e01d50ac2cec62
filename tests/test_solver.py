"""Both evaluators against worked examples, each other, and cost oracles."""

from __future__ import annotations

import random
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from functools import partial
from math import comb, factorial

import pytest

from helpers import logging_problem, memo_solve, paper_td, prefix, td_g_calls
from sublists import (
    MAXMIN,
    MODSUM,
    MODULUS,
    TRACE,
    Algorithm,
    EmptyInput,
    LengthMismatch,
    MalformedLevel,
    SublistProblem,
    bu,
    builtin_problems,
    example_input,
    run_with_stats,
    solve,
    td,
)
from sublists import level_engine, solver
from sublists.instances import trace_answer_length


def td_prime(n, combine, ys):
    """The paper's td': td with the base map stripped off, on already-seeded values."""
    return td(n, SublistProblem("td'", lambda y: y, combine), ys)


def test_td_trace_examples():
    assert td(0, TRACE, "a") == "a"
    assert td(1, TRACE, "ab") == "(ab)"
    # level 1: (ab), (ac), (bc); level 2 wraps their concatenation
    assert td(2, TRACE, "abc") == "((ab)(ac)(bc))"


def test_td_modsum_example():
    # pairs: 1+(1+4)=6, 1+(1+6)=8, 1+(2+6)=9; top: 1+(6+16+27)=50
    assert td(2, MODSUM, [1, 2, 3]) == 50


def test_bare_td_recomputes_every_subproblem():
    # td itself, not run_with_stats: no cache may hide a call
    for n in range(0, 8):
        calls = {"base": 0, "combine": 0}

        def base(x):
            calls["base"] += 1
            return x

        def combine(ys):
            calls["combine"] += 1
            return "".join(ys)

        td(n, replace(TRACE, base=base, combine=combine), prefix(n + 1))
        assert calls == {"base": factorial(n + 1), "combine": td_g_calls(n)}
    seen = []
    td(2, replace(TRACE, base=lambda x: seen.append(x) or x), "abc")
    assert seen == list("abacbc")


def test_td_makes_the_papers_calls_in_the_papers_order():
    # td answers a four-element sublist in one frame; paper_td reaches every singleton through
    # paper_subs. Repeated, unsorted elements catch a clause that sorts, dedups or swaps them.
    for problem in builtin_problems():
        if problem.input_kind == "chars":
            repeated = ["aab", "abab", "aabab"]
        else:
            repeated = [[5, 5, -3], [5, 5, -3, 5], [5, 5, -3, 5, -3]]
        for example in [*(example_input(problem, length) for length in range(1, 9)), *repeated]:
            for xs in {type(example): example, list: list(example), tuple: tuple(example)}.values():
                td_log, paper_log = [], []
                value = td(len(xs) - 1, logging_problem(problem, td_log), xs)
                assert value == paper_td(logging_problem(problem, paper_log), xs)
                assert td_log == paper_log, (problem.name, xs)


def test_td_calls_subs_on_five_or_more_elements_and_on_inputs_under_four(monkeypatch):
    calls = {"subs": 0, "_td": 0}
    subs, frame = solver.subs, solver._td

    def counted_subs(xs):
        calls["subs"] += 1
        return subs(xs)

    def counted_frame(*args):
        calls["_td"] += 1
        return frame(*args)

    monkeypatch.setattr(solver, "subs", counted_subs)
    monkeypatch.setattr(solver, "_td", counted_frame)
    for m in range(1, 9):
        calls.update(subs=0, _td=0)
        td(m - 1, TRACE, prefix(m))
        # m!/j! sublists of j elements: one frame for each of four or more elements, and a subs
        # call for each of five or more; an input of under four has no four-element sublist
        # above it, and every sublist of two or more elements goes through subs
        low = 4 if m >= 4 else 1
        assert calls == {
            "subs": sum(factorial(m) // factorial(j) for j in range(low + 1, m + 1)),
            "_td": sum(factorial(m) // factorial(j) for j in range(low, m + 1)),
        }, m
    assert calls == {"subs": 401, "_td": 2_081}


def test_td_hands_combine_mostly_pairs_and_triples():
    # the lengths that modsum's and maxmin's combine write out: each four-element frame makes
    # 12 pair, 4 triple and 1 quad combines, and each sublist of five or more elements one combine
    for m in range(1, 9):
        lengths = []

        def combine(ys):
            lengths.append(len(ys))
            return "".join(ys)

        td(m - 1, replace(TRACE, combine=combine), prefix(m))
        if m >= 4:
            frames = factorial(m) // factorial(4)
            expected = {2: 12 * frames, 3: 4 * frames, 4: frames}
            expected.update({j: factorial(m) // factorial(j) for j in range(5, m + 1)})
        else:
            expected = {1: {}, 2: {2: 1}, 3: {2: 3, 3: 1}}[m]
        counts = Counter(lengths)
        assert counts == expected, m
        assert len(lengths) == solver.predicted_cost("td", m - 1).g_calls
    assert (counts[2] + counts[3], len(lengths)) == (26_880, 28_961)  # 93% at 8 elements


def test_length_mismatch_is_rejected():
    with pytest.raises(LengthMismatch, match="index 2 expects length 3, got 2"):
        td(2, TRACE, "ab")
    with pytest.raises(LengthMismatch):
        bu(1, TRACE, "abc")
    with pytest.raises(LengthMismatch):
        td_prime(2, TRACE.combine, ["a", "b"])


def test_td_factors_through_td_prime():
    for problem in builtin_problems():
        for length in range(1, 7):
            xs = example_input(problem, length)
            seeded = [problem.base(x) for x in xs]
            assert td(length - 1, problem, xs) == td_prime(
                length - 1, problem.combine, seeded
            )


def test_both_evaluators_agree_with_each_other_and_with_memoization():
    for problem in builtin_problems():
        inputs = [example_input(problem, length) for length in range(1, 8)]
        if problem is MAXMIN:
            inputs.append([3, 1, 4, 1, 5])  # a repeated element
        for xs in inputs:
            reference = td(len(xs) - 1, problem, xs)
            assert bu(len(xs) - 1, problem, xs) == reference
            assert memo_solve(problem, xs) == reference


def test_bu_trace_example():
    assert bu(2, TRACE, "abc") == "((ab)(ac)(bc))"
    # the shortest inputs: no plan at one element, the one-row plan at two
    assert bu(0, TRACE, "z") == "z"
    assert bu(1, TRACE, "zy") == "(zy)"
    assert bu(1, MODSUM, [5, 7]) == (1 + 5 * 1 + 7 * 2) % MODULUS


def test_bu_frees_each_spent_level_in_the_order_it_was_made():
    # answers are labelled in the order they are made and freed in that order, also at 11 and 13
    # elements, where each level is raised in several blocks and freed in stretches as the raise goes;
    # bu and a plain consumer of levels, which drops each level at the next yield, both free them so
    def bu_answer(boxed, xs):
        return bu(len(xs) - 1, boxed, xs)

    def last_of_levels(boxed, xs):
        for level in solver.levels(boxed, xs):
            pass
        return level[0]

    for evaluate in [bu_answer, last_of_levels]:
        for length in [5, 11, 13]:
            made, freed = [], []

            class Answer:
                def __init__(self, value):
                    self.value = value
                    weakref.finalize(self, freed.append, len(made))
                    made.append(None)

            boxed = SublistProblem("boxed", Answer, lambda ys: Answer(MODSUM.combine([y.value for y in ys])))
            xs = list(range(1, length + 1))
            answer = evaluate(boxed, xs)
            assert answer.value == solve(MODSUM, xs)
            assert len(made) == 2**length - 1, (evaluate.__name__, length)
            assert freed == list(range(len(made) - 1)), (evaluate.__name__, length)


def test_bu_keeps_alive_only_the_answers_a_later_block_reads():
    # answers alive at once, counted as they are made and freed: above 10 elements each level's
    # answers that keep its first element die once the rows that keep it are raised, so the peak
    # stays near the widest level, C(m, m // 2), not at the two widest levels (924, 3,432 and 24,310);
    # at 16 elements it is under 1.1 x C(16, 8) = 14,157
    for length, peak in [(11, 714), (13, 2100), (16, 13683)]:
        alive, freed = [], []

        class Answer:
            def __init__(self, value):
                self.value = value
                weakref.finalize(self, freed.append, None)
                alive.append(len(alive) + 1 - len(freed))  # the answers alive once this one is made

        boxed = SublistProblem("boxed", Answer, lambda ys: Answer(MODSUM.combine([y.value for y in ys])))
        xs = list(range(1, length + 1))
        assert bu(length - 1, boxed, xs).value == solve(MODSUM, xs)
        assert max(alive) == peak, length


def test_the_row_path_hands_combine_each_row_as_a_fresh_list():
    # combine may treat its argument as its own list, as td's calls allow: here it sorts it in place
    median = SublistProblem("median", int, lambda ys: ys.sort() or ys[len(ys) // 2], input_kind="ints")
    for xs in [[3, 1, 4, 1, 5], [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]]:
        assert bu(len(xs) - 1, median, xs) == memo_solve(median, xs), xs


def test_levels_are_a_row_of_pascals_triangle_as_wide_as_predicted():
    # m elements make m levels of C(m, 1), ..., C(m, m) answers, the widest as predicted_cost states;
    # modsum takes the column path, maxmin the row path
    for problem in [MODSUM, MAXMIN]:
        for m in range(1, 15):
            xs = example_input(problem, m)
            copies = [list(level) for level in solver.levels(problem, xs)]
            sizes = [len(level) for level in copies]
            assert sizes == [comb(m, k) for k in range(1, m + 1)], (problem.name, m)
            assert max(sizes) == solver.predicted_cost("bu", m - 1).peak_level_tips, (problem.name, m)


def test_levels_hands_each_level_to_the_next_raise():
    # the stated contract: the next raise consumes the level just yielded, so a kept list is empty,
    # and raising it again is refused, not answered from nothing
    kept = list(solver.levels(MODSUM, [1, 2, 3, 4]))
    assert kept == [[], [], [], [638]]
    with pytest.raises(MalformedLevel, match="^level 1 of 4 elements holds 0 answers, not 4$"):
        level_engine.raise_level(kept[0], 1, 4, level_engine.gather_plan(4), MODSUM.combine_level)


def test_run_with_stats_returns_the_bare_value():
    for algo in Algorithm:
        value, _ = run_with_stats(algo, 2, TRACE, "abc")
        assert value == "((ab)(ac)(bc))"


def test_run_with_stats_hands_the_callers_problem_to_one_evaluator_once(monkeypatch):
    seen = []
    for name in ["td", "bu"]:
        monkeypatch.setattr(solver, name, lambda n, problem, xs, name=name: seen.append((name, problem)))
    for algo in Algorithm:
        seen.clear()
        run_with_stats(algo, 2, TRACE, "abc")
        ((name, problem),) = seen
        assert name == algo.value and problem is TRACE, algo


def test_an_algorithm_may_be_named_by_its_value():
    for algo in Algorithm:
        assert run_with_stats(algo.value, 2, TRACE, "abc") == run_with_stats(algo, 2, TRACE, "abc")
        seen = []
        solve(replace(TRACE, base=lambda x: seen.append(x) or x), "abc", algo.value)
        assert len(seen) == (6 if algo is Algorithm.TOP_DOWN else 3), algo
    for evaluate in [partial(run_with_stats, "nonsense", 2), partial(solve, algo="nonsense")]:
        with pytest.raises(ValueError):
            evaluate(TRACE, "abc")
    with pytest.raises(ValueError):
        solver.predicted_cost("nonsense", 2)


def test_f_call_counts():
    for n in range(0, 7):
        xs = prefix(n + 1)
        _, td_stats = run_with_stats(Algorithm.TOP_DOWN, n, TRACE, xs)
        _, bu_stats = run_with_stats(Algorithm.BOTTOM_UP, n, TRACE, xs)
        # td reaches every singleton along every deletion order
        assert td_stats.f_calls == factorial(n + 1)
        assert bu_stats.f_calls == n + 1


def test_solve_dispatches_and_validates():
    assert solve(TRACE, "abc", Algorithm.TOP_DOWN) == "((ab)(ac)(bc))"
    assert solve(TRACE, "abc", Algorithm.BOTTOM_UP) == "((ab)(ac)(bc))"
    assert solve(MODSUM, [1, 2, 3]) == 50
    with pytest.raises(EmptyInput):
        solve(TRACE, "")
    with pytest.raises(EmptyInput):
        solve(MODSUM, [])


def test_modsum_values_stay_below_the_modulus():
    seen: list[int] = []

    def recording_combine(ys):
        seen.extend(ys)
        return MODSUM.combine(ys)

    def recording_combine_level(columns):
        columns = [list(col) for col in columns]
        for col in columns:
            seen.extend(col)
        return MODSUM.combine_level(columns)

    recording = replace(MODSUM, combine=recording_combine, combine_level=recording_combine_level)
    result = bu(11, recording, list(range(1, 13)))
    assert result < MODULUS
    # C(12, j) combines on j answers each, for j = 2..12
    assert len(seen) == sum(comb(12, j) * j for j in range(2, 13))
    assert all(0 <= v < MODULUS for v in seen)


@pytest.mark.parametrize("length", [11, 12, 13, 14, 16, 20])
def test_modsum_column_path_matches_row_path_and_memo_beyond_verify(length):
    # the widest levels, C(11, 5) = 462 up to C(20, 10) = 184,756 rows, are out of the reach of
    # `verify`, whose longest input, 10 elements, raises at most C(10, 5) = 252 rows; above 10
    # elements every level is gathered in blocks split by up's clause 4, from 11, the first such length
    rng = random.Random(length)
    xs = [rng.randint(-(10**6), 10**6) for _ in range(length)]
    for problem in (MODSUM, MAXMIN):
        run = run_with_stats(Algorithm.BOTTOM_UP, length - 1, problem, xs)
        if problem.combine_level:
            assert run == run_with_stats(Algorithm.BOTTOM_UP, length - 1, replace(problem, combine_level=None), xs)
        else:  # maxmin takes the row path and ignores order; reversed, every block holds other answers
            assert run[0] == bu(length - 1, problem, xs[::-1])
        if length <= 14:
            assert run[0] == memo_solve(problem, xs), problem.name


def _warm_peak(problem, xs) -> int:
    """The traced peak of ``solve(problem, xs)`` on its second run, its getters built by the first."""
    solve(problem, xs)
    tracemalloc.start()
    try:
        solve(problem, xs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_modsum_level_combine_builds_no_column_lists():
    # a combine_level that builds a list per column peaks about 1.5x over the row path here; the packed
    # lanes hold a block's columns as ints of 4 bytes a row, at most 252 rows, and read about 0.99x
    rng = random.Random(16)
    xs = [rng.randint(-(10**6), 10**6) for _ in range(16)]
    assert _warm_peak(MODSUM, xs) <= 1.02 * _warm_peak(replace(MODSUM, combine_level=None), xs)


def test_a_warm_solve_peaks_near_its_widest_level():
    # bu frees each level's answers once no later block reads them, so at 16 elements its floor is the
    # 13,683 answers alive at once (see above), about 1.06x the widest level; the ints read about 1.13x
    # that floor with the blocks' columns, and about 1.9x with each level kept whole until its raise ends
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fresh = tuple(range(-11_000, -1000))  # ints the interpreter does not cache
        per_answer = (tracemalloc.get_traced_memory()[0] - before) / len(fresh)  # an int and its slot
    finally:
        tracemalloc.stop()
    rng = random.Random(16)
    xs = [rng.randint(-(10**6), 10**6) for _ in range(16)]
    floor = 13683 * per_answer
    for problem in (MODSUM, MAXMIN):
        assert _warm_peak(problem, xs) <= 1.25 * floor, problem.name
    # level 9's ten answers and the answer joined from them, one byte a character
    assert _warm_peak(TRACE, prefix(10)) <= 1.1 * 2 * trace_answer_length(10)


def test_an_empty_input_is_refused_by_every_evaluator():
    for problem in builtin_problems():
        xs = example_input(problem, 0)
        for evaluate in [td, bu, *(partial(run_with_stats, algo) for algo in Algorithm)]:
            with pytest.raises(EmptyInput):
                evaluate(-1, problem, xs)
        with pytest.raises(EmptyInput):
            td_prime(-1, problem.combine, [])
    # and by predicted_cost: index n answers n + 1 elements, so every negative index is an empty input
    for algo in Algorithm:
        for n in [-1, -3]:
            with pytest.raises(EmptyInput):
                solver.predicted_cost(algo, n)
        assert solver.predicted_cost(algo, 0).f_calls == 1


def test_order_sensitive_problems_notice_reversal():
    assert td(1, TRACE, "ab") != td(1, TRACE, "ba")
    assert td(1, MODSUM, [1, 2]) == 6
    assert td(1, MODSUM, [2, 1]) == 5


def test_maxmin_is_order_insensitive():
    assert solve(MAXMIN, [3, 1, 4, 1, 5]) == solve(MAXMIN, [5, 4, 3, 1, 1])
    assert solve(MAXMIN, [3, 1, 4, 1, 5]) == 1
