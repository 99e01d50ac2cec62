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

from helpers import bu_g_calls, bu_levels, gather, memo_solve, prefix, td_g_calls, tree_of_shape
import sublists
from sublists import (
    MODSUM,
    TRACE,
    Algorithm,
    bu,
    ch,
    check_shape,
    choose,
    example_input,
    map_tree,
    run_with_stats,
    td,
    up,
)
from sublists import laws, level_engine

SEED = 20260816


@contextmanager
def criterion(label: str, budget_s: float):
    box = {"cases": 0}
    start = time.perf_counter()
    try:
        yield box
    except BaseException:
        print(f"acceptance[{label}]: FAIL after {time.perf_counter() - start:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(f"acceptance[{label}]: FAIL ({box['cases']} cases, {elapsed:.2f}s over budget)")
        raise AssertionError(f"{label} took {elapsed:.2f}s, budget {budget_s}s")
    print(f"acceptance[{label}]: PASS ({box['cases']} cases, {elapsed:.2f}s)")


# Every law's case count at 9 elements, each replayed by exactly one test below
# (277 cases in all): the per-level laws take k = 1..n-1 on every n-element prefix,
# n = 2..9; pascal-spine takes k = 1..n, singleton-collapse one case per n, td-bu
# lengths 1..9, and calls lengths 1..9 once for each evaluator.
LEVEL_LAWS = {
    "combine-level[modsum]": 36,
    "shape-advance": 36,
    "up-flat": 36,
    "upgrade-level": 36,
    "upgrade-tips": 36,
}
COLLAPSE_LAWS = {"singleton-collapse": 8}
OTHER_LAWS = {
    "calls": 18,
    "pascal-spine": 44,
    "td-bu[maxmin]": 9,
    "td-bu[modsum]": 9,
    "td-bu[trace]": 9,
}


def replay_laws(expected: dict[str, int], box: dict) -> None:
    counts = {name: laws.replay(name, 9) for name in expected}
    box["cases"] = sum(counts.values())
    assert counts == expected


def test_level_upgrade_law_sweep():
    with criterion("level-upgrade-law", budget_s=10.0) as box:
        replay_laws(LEVEL_LAWS, box)


def test_single_raise_collapses_to_sublists():
    with criterion("final-raise-collapse", budget_s=5.0) as box:
        replay_laws(COLLAPSE_LAWS, box)


def test_every_law_replays_with_its_case_count():
    with criterion("law-registry", budget_s=10.0) as box:
        # the three tables name each registered law once, in verify's sorted order
        assert list(laws.registry()) == sorted({**LEVEL_LAWS, **COLLAPSE_LAWS, **OTHER_LAWS})
        replay_laws(OTHER_LAWS, box)


def test_evaluator_equivalence_sweep():
    with criterion("td-equals-bu", budget_s=30.0) as box:
        rng = random.Random(SEED)
        for _ in range(200):
            length = rng.randint(1, 8)
            xs = [rng.randint(-(10**6), 10**6) for _ in range(length)]
            assert td(length - 1, MODSUM, xs) == bu(length - 1, MODSUM, xs), xs
            box["cases"] += 1


def test_shape_index_suite():
    with criterion("shape-indices", budget_s=10.0) as box:
        for n in range(0, 11):
            xs = prefix(n)
            for k in range(0, n + 1):
                assert check_shape(ch(k, xs), (k, n)), (k, n)
                box["cases"] += 1
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
                    rows = gather(levels[-1], plan)
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
            assert bu_stats.g_calls == bu_g_calls(n), n
            assert bu_stats.peak_level_tips == math.comb(n + 1, (n + 1) // 2), n
            box["cases"] += 1


_FNS = [lambda z: z + 1, lambda z: z * 2, lambda z: -z, lambda z: z % 7, lambda z: z * z]


def test_rearrangement_is_value_blind():
    # mapping before the raise equals mapping inside every raised tip
    with criterion("naturality", budget_s=10.0) as box:
        rng = random.Random(SEED)
        for _ in range(120):
            n = rng.randint(2, 7)
            k = rng.randint(1, n - 1)
            t = tree_of_shape(k, n, lambda: rng.randint(-100, 100))
            f = rng.choice(_FNS)
            lhs = up(map_tree(f, t))
            rhs = map_tree(lambda ys: [f(y) for y in ys], up(t))
            assert lhs == rhs
            box["cases"] += 1


def test_public_names_are_sorted_unique_and_resolve():
    with criterion("public-api", budget_s=1.0) as box:
        names = sublists.__all__
        assert names == sorted(names)
        assert len(set(names)) == len(names)
        for name in names:
            assert hasattr(sublists, name), name
            box["cases"] += 1
