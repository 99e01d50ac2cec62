"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line with its case count and elapsed time (run with -s to see
them). Every comparison is exact equality; each criterion also carries a
wall-clock budget that is asserted, not just reported.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

import pytest

from helpers import bu_g_calls, bu_levels, gather, memo_solve, prefix, td_g_calls, tree_of_shape
import sublists
from sublists import (
    MODSUM,
    TRACE,
    Algorithm,
    EmptyInput,
    LengthMismatch,
    MalformedLevel,
    Node,
    NotATip,
    OutOfRange,
    ShapeMismatch,
    Tip,
    bu,
    builtin_problems,
    ch,
    check_shape,
    choose,
    example_input,
    map_tree,
    run_with_stats,
    solve,
    spine_sizes,
    subs,
    td,
    un_tip,
    up,
    upgrade_oracle,
    zip_tree_with,
)
from sublists import laws, level_engine, solver
from sublists.cli import main as cli_main
from sublists.core_tree import extract_singleton
from sublists.errors import NotSingleton

SEED = 20260816


@contextmanager
def criterion(label: str, budget_s: float | None = None):
    box = {"cases": 0}
    start = time.perf_counter()
    try:
        yield box
    except BaseException:
        print(f"acceptance[{label}]: FAIL after {time.perf_counter() - start:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"acceptance[{label}]: FAIL ({box['cases']} cases, {elapsed:.2f}s over budget)")
        raise AssertionError(f"{label} took {elapsed:.2f}s, budget {budget_s}s")
    print(f"acceptance[{label}]: PASS ({box['cases']} cases, {elapsed:.2f}s)")


def test_published_example_values():
    with criterion("published-examples", budget_s=1.0) as box:
        assert subs("abcde") == ["abcd", "abce", "abde", "acde", "bcde"]
        assert choose(3, "abcde") == [
            "abc", "abd", "abe", "acd", "ace", "ade", "bcd", "bce", "bde", "cde",
        ]
        groups = upgrade_oracle(2, "abcde")
        assert len(groups) == 10
        assert groups[:3] == [["ab", "ac", "bc"], ["ab", "ad", "bd"], ["ab", "ae", "be"]]
        assert spine_sizes(ch(2, "abcde")) == [10, 6, 3, 1]
        box["cases"] = 4


def test_level_upgrade_law_sweep():
    with criterion("level-upgrade-law", budget_s=10.0) as box:
        for law in ("upgrade-level", "up-flat", "combine-level[modsum]"):
            cases = laws.replay(law, 8)
            assert cases == 28, law  # (n - 1) levels for each n in 2..8
            box["cases"] += cases


def test_evaluator_equivalence_sweep():
    with criterion("td-equals-bu", budget_s=30.0) as box:
        for problem in builtin_problems():
            box["cases"] += laws.replay(f"td-bu[{problem.name}]", 9)
        assert box["cases"] == 9 * len(builtin_problems())
        rng = random.Random(SEED)
        for _ in range(200):
            length = rng.randint(1, 8)
            xs = [rng.randint(-(10**6), 10**6) for _ in range(length)]
            assert td(length - 1, MODSUM, xs) == bu(length - 1, MODSUM, xs), xs
            box["cases"] += 1


def test_single_raise_collapses_to_sublists():
    with criterion("final-raise-collapse", budget_s=5.0) as box:
        box["cases"] = laws.replay("singleton-collapse", 8)
        assert box["cases"] == 7


def test_shape_index_suite():
    with criterion("shape-indices", budget_s=10.0) as box:
        for n in range(0, 11):
            xs = prefix(n)
            for k in range(0, n + 1):
                assert check_shape(ch(k, xs), (k, n)), (k, n)
                box["cases"] += 1
        assert laws.replay("shape-advance", 8) == 28
        box["cases"] += 28
        for problem in (TRACE, MODSUM):
            for length in range(1, 9):
                xs = example_input(problem, length)
                levels, value = bu_levels(length - 1, problem, xs)
                assert len(levels) == length - 1
                for k, level in enumerate(levels, start=1):
                    assert len(level) == math.comb(length, k), (problem.name, length, k)
                    expected = [memo_solve(problem, ys) for ys in choose(k, xs)]
                    assert level == expected, (problem.name, length, k)
                if levels:
                    plan = level_engine.gather_plan(length)[length - 2]
                    rows = gather(levels[-1], plan, length)
                    assert len(rows) == 1
                    assert problem.combine(rows[0]) == value
                box["cases"] += 1


def test_cost_split_matches_the_closed_forms():
    with criterion("cost-split", budget_s=10.0) as box:
        for n in range(0, 9):
            xs = prefix(n + 1)
            _, td_stats = run_with_stats(Algorithm.TOP_DOWN, n, TRACE, xs)
            _, bu_stats = run_with_stats(Algorithm.BOTTOM_UP, n, TRACE, xs)
            assert td_stats.g_calls == td_g_calls(n), n
            assert bu_stats.g_calls == bu_g_calls(n), n
            # the widest level holds the middle binomial coefficient; td builds none
            assert bu_stats.peak_level_tips == math.comb(n + 1, (n + 1) // 2), n
            assert td_stats.peak_level_tips == 0, n
            if n == 4:
                assert td_stats.g_calls == 86
                assert bu_stats.g_calls == 26
            box["cases"] += 1
        for n in range(0, 14):  # modsum raises its levels through combine_level
            _, bu_stats = run_with_stats(Algorithm.BOTTOM_UP, n, MODSUM, example_input(MODSUM, n + 1))
            assert bu_stats.g_calls == 2 ** (n + 1) - n - 2, n
            assert bu_stats.peak_level_tips == math.comb(n + 1, (n + 1) // 2), n
            box["cases"] += 1


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Tip(rng.randint(-100, 100))
    return Node(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


_FNS = [lambda z: z + 1, lambda z: z * 2, lambda z: -z, lambda z: z % 7, lambda z: z * z]
_BINFNS = [lambda a, b: (a, b), lambda a, b: a + b, lambda a, b: a * 100 + b]


def test_rearrangement_is_value_blind():
    with criterion("naturality", budget_s=10.0) as box:
        rng = random.Random(SEED)
        for _ in range(120):  # map laws
            t = _random_tree(rng, 6)
            f, g = rng.choice(_FNS), rng.choice(_FNS)
            assert map_tree(lambda v: v, t) == t
            assert map_tree(lambda v: f(g(v)), t) == map_tree(f, map_tree(g, t))
            box["cases"] += 1
        for _ in range(120):  # zipping mapped copies collapses to one map
            t = _random_tree(rng, 6)
            f = rng.choice(_BINFNS)
            g, h = rng.choice(_FNS), rng.choice(_FNS)
            lhs = map_tree(lambda z: f(g(z), h(z)), t)
            rhs = zip_tree_with(f, map_tree(g, t), map_tree(h, t))
            assert lhs == rhs
            box["cases"] += 1
        for _ in range(120):  # the raise step never inspects values
            n = rng.randint(2, 7)
            k = rng.randint(1, n - 1)
            t = tree_of_shape(k, n, lambda: rng.randint(-100, 100))
            f = rng.choice(_FNS)
            lhs = up(map_tree(f, t))
            rhs = map_tree(lambda ys: [f(y) for y in ys], up(t))
            assert lhs == rhs
            box["cases"] += 1


def test_error_paths_and_exit_codes(capsys, monkeypatch):
    with criterion("error-paths") as box:
        with pytest.raises(ShapeMismatch):
            zip_tree_with(lambda a, b: a, Tip(1), Node(Tip(1), Tip(2)))
        with pytest.raises(NotATip):
            un_tip(Node(Tip(1), Tip(2)))
        with pytest.raises(NotSingleton):
            extract_singleton([1, 2])
        with pytest.raises(OutOfRange):
            choose(4, "abc")
        with pytest.raises(OutOfRange):
            ch(4, "abc")
        with pytest.raises(OutOfRange):
            upgrade_oracle(0, "abcde")
        with pytest.raises(EmptyInput):
            solve(TRACE, "")
        with pytest.raises(EmptyInput):
            solve(MODSUM, [])
        with pytest.raises(LengthMismatch):
            td(2, TRACE, "ab")
        with pytest.raises(MalformedLevel):
            up(Tip("a"))
        with pytest.raises(MalformedLevel, match="clause 2"):
            up(Node(Node(Tip("a"), Node(Tip("b"), Tip("c"))), Tip("q")))
        with pytest.raises(MalformedLevel, match="clause 4"):
            up(Node(Node(Tip(1), Tip(2)), Node(Tip(3), Tip(4))))
        box["cases"] = 12

        usage_cases = [
            ["run", "--problem", "nope", "--input", "abc"],
            ["run", "--problem", "trace", "--input", ""],
            ["run", "--problem", "modsum", "--input", "1,x"],
            ["dump", "--k", "5", "--input", "abc"],
            ["dump", "--k", "0", "--input", "ab", "--stage", "after-up"],
            ["verify", "--max-len", "13"],
            ["bench", "--max-len", "13"],
            ["run", "--problem", "maxmin", "--input", ",".join("1" * 11), "--algo", "td"],
            ["verify", "--max-len", "11"],
            ["bench", "--max-len", "10"],
        ]
        for argv in usage_cases:
            assert cli_main(argv) == 2, argv
            capsys.readouterr()
            box["cases"] += 1

        # exit 1 must fire when an evaluator or a law actually breaks
        real_bu = solver.bu

        def broken_bu(n, problem, xs):
            value = real_bu(n, problem, xs)
            return value + "!" if isinstance(value, str) else value + 1

        monkeypatch.setattr(solver, "bu", broken_bu)
        assert cli_main(["run", "--problem", "trace", "--input", "abc"]) == 1
        capsys.readouterr()
        monkeypatch.undo()
        box["cases"] += 1

        real_up = level_engine.up

        def broken_up(t):
            raised = real_up(t)
            if isinstance(raised, Node):
                return Node(raised.right, raised.left)
            return raised

        monkeypatch.setattr(level_engine, "up", broken_up)
        assert cli_main(["verify", "--max-len", "4"]) == 1
        capsys.readouterr()
        monkeypatch.undo()
        box["cases"] += 1

        assert cli_main(["verify", "--max-len", "4"]) == 0
        capsys.readouterr()
        box["cases"] += 1


def test_public_names_are_sorted_unique_and_resolve():
    with criterion("public-api", budget_s=1.0) as box:
        names = sublists.__all__
        assert names == sorted(names)
        assert len(set(names)) == len(names)
        for name in names:
            assert hasattr(sublists, name), name
            box["cases"] += 1
