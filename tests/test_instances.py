"""Problem registry, input parsing, and the golden JSONL files."""

from __future__ import annotations

import json

import pytest

from helpers import GOLDEN_DIR, evaluate_golden, golden_cases, memo_solve
from sublists import (
    MAXMIN,
    MODSUM,
    MODULUS,
    TRACE,
    Algorithm,
    builtin_problems,
    example_input,
    get_problem,
    parse_input,
    solve,
)


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
    with pytest.raises(ValueError):
        example_input(TRACE, 27)


def test_golden_suite_cases_evaluate_to_their_expected_values():
    suite = golden_cases()
    assert len(suite) == 7
    for path, case in suite:
        assert evaluate_golden(case) == case["expected"], path


def test_golden_solver_cases_pass_under_both_algorithms():
    for _, case in golden_cases():
        problem = get_problem(case["problem"])
        if problem is None:
            continue
        assert solve(problem, case["input"], Algorithm.TOP_DOWN) == case["expected"]
        assert solve(problem, case["input"], Algorithm.BOTTOM_UP) == case["expected"]


def test_golden_numeric_cases_agree_with_independent_memoization():
    for _, case in golden_cases():
        problem = get_problem(case["problem"])
        if problem is None:
            continue
        assert memo_solve(problem, case["input"]) == case["expected"]


def test_golden_encoding_is_canonical():
    # one line per file: fixed key order, no extra whitespace
    keys = ["problem", "input", "algorithm", "expected", "provenance"]
    for path, case in golden_cases():
        assert list(case) == keys, path
        assert path.read_text() == json.dumps(case, separators=(",", ":")) + "\n", path


def test_golden_paths_follow_the_convention():
    for path, case in golden_cases():
        xs = case["input"]
        token = xs if isinstance(xs, str) else "-".join(str(v) for v in xs)
        assert path == GOLDEN_DIR / case["problem"] / f"{token}.jsonl"
    paths = {path.relative_to(GOLDEN_DIR.parent).as_posix() for path, _ in golden_cases()}
    assert "golden/trace/abc.jsonl" in paths
    assert "golden/modsum/1-2-3.jsonl" in paths
    assert "golden/choose-3/abcde.jsonl" in paths


def test_provenance_vocabulary():
    allowed = {"worked-example", "reference-run", "definitional"}
    assert {case["provenance"] for _, case in golden_cases()} <= allowed
