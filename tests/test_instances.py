"""Problem registry, combine functions and input parsing."""

from __future__ import annotations

import random
from fractions import Fraction
from string import ascii_lowercase

import pytest
from hypothesis import given, strategies as st

from sublists import (
    MAXMIN,
    MODSUM,
    MODULUS,
    TRACE,
    builtin_problems,
    example_input,
    get_problem,
    parse_input,
    solve,
)
from sublists import instances


def test_registry():
    assert [p.name for p in builtin_problems()] == ["trace", "modsum", "maxmin"]
    assert get_problem("trace") is TRACE
    assert get_problem("modsum") is MODSUM
    assert get_problem("nope") is None


def test_combine_functions():
    assert TRACE.combine(["x", "y"]) == "(xy)"
    assert TRACE.base("a") == "a"
    # weights are 1-based positions: 1 + 1*1 + 2*2
    assert MODSUM.combine([1, 2]) == 6
    assert MODSUM.combine([MODULUS - 1, 1]) == 2
    assert MODSUM.base(MODULUS + 5) == 5
    assert MAXMIN.combine([5, 2, 9]) == 7
    assert MAXMIN.base(-3) == -3


# small values repeat often; unbounded ones run negative and past MODULUS
answers = st.integers(-3, 3) | st.integers()
answer_lists = st.lists(answers, min_size=1, max_size=20)


@given(ys=answer_lists)
def test_int_combines_meet_their_one_line_definitions(ys):
    # the definitions in the instances docstring are the reference; td and bu share each
    # combine, so their agreement cannot catch a wrong one
    assert MAXMIN.combine(ys) == max(ys) - min(ys)
    assert MODSUM.combine(ys) == (1 + sum(i * y for i, y in enumerate(ys, 1))) % MODULUS


@pytest.mark.parametrize("length", range(1, 7))
def test_int_combines_meet_their_definitions_at_every_written_out_length(length):
    # the pair and triple clauses and the loop around them, on every run: equal answers,
    # negatives and answers past MODULUS, which a Hypothesis run may not draw at these lengths
    big = 3 * MODULUS + 7
    for ys in (
        [4] * length,
        [-5] * length,
        [big] * length,
        [(-1) ** i * (i + 1) for i in range(length)],
        [big - 11 * i for i in range(length)],
        [-big + 2 * i for i in range(length)],
        [*[MODULUS - 1] * (length - 1), -MODULUS],
    ):
        assert MODSUM.combine(ys) == (1 + sum(i * y for i, y in enumerate(ys, 1))) % MODULUS, ys
        assert MAXMIN.combine(ys) == max(ys) - min(ys), ys
        assert MAXMIN.combine(ys[::-1]) == max(ys) - min(ys), ys


@given(
    columns=st.integers(1, 20).flatmap(
        lambda rows: st.lists(st.lists(answers, min_size=rows, max_size=rows), min_size=2, max_size=16)
    ),
    form=st.sampled_from([tuple, list, iter]),
    first_repeated=st.booleans(),
)
def test_modsum_level_combine_is_combine_on_each_row(columns, form, first_repeated):
    # bu hands over columns as tuples (getters) and lists (slices), and above 10 elements a
    # k = 1 block whose first column is one answer repeated, as a list as long as the others
    if first_repeated:
        columns[0] = columns[0][:1] * len(columns[0])
    expected = list(map(MODSUM.combine, map(list, zip(*columns))))
    assert MODSUM.combine_level([form(col) for col in columns]) == expected


def _row_combines(monkeypatch) -> list:
    """The rows that modsum's level combine hands to its row path, by the definition, from now on."""
    rows = []

    def counted(ys):
        rows.append(ys)
        return row_combine(ys)

    row_combine = instances._modsum_combine
    monkeypatch.setattr(instances, "_modsum_combine", counted)
    return rows


@pytest.mark.parametrize("width, packed", [(2, True), (90, True), (91, False)])
def test_modsum_level_combine_packs_up_to_90_columns(monkeypatch, width, packed):
    # answers of 2**20 - 1 under weights 1..90 fill a 32-bit lane to (2**20 - 1) * 4,095 + 1, its
    # largest value; a 91st column would carry into the next row's lane
    top = 2**20 - 1
    columns = [(top, 0, top, i) for i in range(width)]
    rows = _row_combines(monkeypatch)
    expected = [MODSUM.combine(list(row)) for row in zip(*columns)]
    assert MODSUM.combine_level(columns) == expected
    assert len(rows) == (0 if packed else 4)


@pytest.mark.parametrize("odd", [2**20, 2**21 - 1, 2**32 - 1, 2**32, 2**64, -1, -MODULUS, Fraction(7, 2)])
def test_modsum_level_combine_takes_answers_outside_its_lanes_row_by_row(monkeypatch, odd):
    # the lanes hold answers in [0, 2**20); anything else, in any column, goes row by row, by the
    # definition, which reads each column again, an iterator too
    rows = _row_combines(monkeypatch)
    for at in (0, 44, 89):
        columns = [[2**20 - 1, 5, i] for i in range(90)]
        columns[at][1] = odd
        expected = [MODSUM.combine(list(row)) for row in zip(*columns)]
        for form in (tuple, list, iter):
            rows.clear()
            assert MODSUM.combine_level([form(col) for col in columns]) == expected, (at, form)
            assert len(rows) == 3, (at, form)


@pytest.mark.parametrize("form", [tuple, list, iter])
def test_modsum_level_combine_answers_a_one_row_block(monkeypatch, form):
    rows = _row_combines(monkeypatch)
    for ys in ([0, 0], [MODULUS - 1, MODULUS - 1], [3, 1, 4, 1, 5, 9, 2, 6]):
        assert MODSUM.combine_level([form([y]) for y in ys]) == [MODSUM.combine(ys)]
    assert rows == []


def test_bu_never_takes_modsum_row_path(monkeypatch):
    # bu's answers all lie in [0, MODULUS) and its blocks have at most 10 columns, so each block
    # fits the lanes; the row path would only cost time, so only a patch can see it taken
    rng = random.Random(39)
    inputs = [[rng.randint(-(10**9), 10**9) for _ in range(m)] for m in range(2, 17)]
    values = [solve(MODSUM, xs) for xs in inputs]

    def refuse(ys):
        raise AssertionError(f"bu handed modsum's row path the row {ys}")

    monkeypatch.setattr(instances, "_modsum_combine", refuse)
    assert [solve(MODSUM, xs) for xs in inputs] == values


@given(x=st.characters() | st.integers())
def test_trace_base_meets_its_one_line_definition(x):
    assert TRACE.base(x) == str(x)


def test_parse_input():
    assert parse_input(TRACE, "abc") == "abc"
    assert parse_input(MODSUM, "1,2,3") == [1, 2, 3]
    assert parse_input(MODSUM, "-4, 5") == [-4, 5]
    assert parse_input(MODSUM, "") == []
    assert parse_input(TRACE, "") == ""
    with pytest.raises(ValueError):
        parse_input(MODSUM, "1,x,3")


def test_example_input():
    assert example_input(TRACE, 3) == "abc"
    assert example_input(MODSUM, 4) == [1, 2, 3, 4]
    assert example_input(TRACE, 26) == ascii_lowercase
    with pytest.raises(ValueError):
        example_input(TRACE, 27)
    for problem in [TRACE, MODSUM]:
        assert len(example_input(problem, 0)) == 0
        with pytest.raises(ValueError):
            example_input(problem, -1)
