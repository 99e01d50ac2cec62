"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads as wk

BENCHMARK = json.loads((wk.ROOT / "BENCHMARK.json").read_text())
SMALL_SOLVE = wk.Workload("test-solve", "solve", ("modsum",), (6,), pool=2, traced_batches=2)
SMALL_CLI = wk.Workload("test-cli", "cli", ("trace", "modsum", "maxmin"), (2, 3, 4), traced_batches=1)


@pytest.fixture(autouse=True)
def keep_modules():
    """The benchmark re-imports the package; give other tests theirs back."""
    def ours():
        return [m for m in sys.modules if m == wk.PACKAGE or m.startswith(wk.PACKAGE + ".")]

    saved = {m: sys.modules[m] for m in ours()}
    yield
    for m in ours():
        del sys.modules[m]
    sys.modules.update(saved)


def first(inputs: wk.Inputs, batches: int = 3):
    return inputs.warmup, inputs.distinct, list(itertools.islice(inputs.batches, batches))


@pytest.mark.parametrize("wl", [*wk.WORKLOADS.values(), SMALL_SOLVE, SMALL_CLI], ids=lambda w: w.name)
def test_inputs_are_deterministic_per_seed(wl):
    assert first(wk.generate(wl, 7)) == first(wk.generate(wl, 7))
    assert first(wk.generate(wl, 7)) != first(wk.generate(wl, 8))


def test_cli_decks_hold_every_problem_and_length_once():
    deck = next(wk.generate(wk.WORKLOADS["cli-run-both"], 3).batches)
    combos = sorted((op.problem, len(op.xs)) for op in deck)
    assert combos == sorted(itertools.product(("trace", "modsum", "maxmin"), range(2, 9)))
    texts = [op.xs if isinstance(op.xs, str) else ",".join(map(str, op.xs)) for op in deck]
    assert [op.argv[3] for op in deck] == [f"--input={text}" for text in texts]


def test_negative_first_int_reaches_the_cli_intact():
    prog = wk.load_program()
    op = wk.Op("maxmin", [-5, 3, 9], ("run", "--problem", "maxmin", "--input=-5,3,9",
                                      "--algo", "both", "--format", "json"))
    out = wk.run_cli(prog, op)
    assert wk.check("cli", op, out, wk.References(prog))


def test_failed_ops_are_detected():
    prog = wk.load_program()
    op = wk.make_op(random.Random(1), "modsum", 4)
    refs = wk.References(prog)
    good = wk.run_cli(prog, op)
    assert wk.check("cli", op, good, refs)
    assert not wk.check("cli", op, (2, ""), refs)
    assert not wk.check("cli", op, (0, good[1].replace('"EQUAL"', '"DIFFER"')), refs)
    assert not wk.check("cli", op, (0, "not json"), refs)
    assert not wk.check("solve", op, refs.answer(op) + 1, refs)


@pytest.mark.parametrize("problem", ["trace", "modsum", "maxmin"])
def test_replicas_equal_solve_and_meet_the_closed_forms(problem):
    prog = wk.load_program()
    p = prog.instances.get_problem(problem)
    rng = random.Random(problem)
    for length in range(1, 7):
        xs = wk.make_op(rng, problem, length).xs
        for algo in ("td", "bu"):
            tr = layers.Tracer(prog.core_tree.Tip)
            value, counts_ok = layers.evaluate(tr, prog, algo, p, xs)
            assert value == prog.solver.solve(p, xs, prog.solver.Algorithm(algo))
            assert counts_ok


def test_closed_forms():
    assert [layers.td_combines(n) for n in range(5)] == [0, 1, 4, 17, 86]
    assert all(layers.bu_combines(n) == 2 ** (n + 1) - n - 2 for n in range(12))
    assert layers.expected_counts("td", 3)["base"] == math.factorial(4)


@pytest.mark.parametrize("wl", [SMALL_SOLVE, SMALL_CLI], ids=lambda w: w.name)
def test_traced_ops_agree_with_untraced(wl):
    prog, inputs, _ = wk.setup(wl, 5)
    tr = layers.Tracer(prog.core_tree.Tip)
    for op in next(inputs.batches):
        assert layers.traced_op(tr, wl, prog, op)


@pytest.mark.parametrize("cal", wk.CALIBRATIONS.values())
def test_calibration_scales_to_the_reference_host(cal):
    assert cal.scale(cal.ref_ms, cal.ref_ms) == 1.0
    assert cal.scale(2 * cal.ref_ms, 2 * cal.ref_ms) == 0.5
    assert cal.ms() > 0


def test_workloads_name_a_calibration():
    assert all(wl.calibration in wk.CALIBRATIONS for wl in wk.WORKLOADS.values())
    assert len(set(wk.CAL_XS)) == len(wk.CAL_XS)


def test_window_scales_each_op_by_its_passes():
    prog, inputs, _ = wk.setup(SMALL_CLI, 4)
    win = wk.timed_window(SMALL_CLI, prog, inputs, wk.References(prog), 0)
    assert win.failed == 0 and len(win.raw) == len(win.latencies) == len(win.calibration) - 1
    cal = wk.CALIBRATIONS[SMALL_CLI.calibration]
    for i, (scaled, raw) in enumerate(zip(win.latencies, win.raw)):
        assert scaled == pytest.approx(raw * cal.scale(win.calibration[i], win.calibration[i + 1]))


def test_tail_keeps_ten_samples_beyond_it():
    value, pct = wk.tail([float(v) for v in range(21, 0, -1)])
    assert value == 11.0 and pct == pytest.approx(100 * 11 / 21)


@pytest.mark.parametrize("wl", [SMALL_SOLVE, SMALL_CLI], ids=lambda w: w.name)
def test_every_metric_appears_with_its_unit(wl):
    e2e = wk.end_to_end(wl, 2, 0)
    assert {k: u for k, (_, u) in e2e["metrics"].items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e["failed"] == 0 and e2e["attempted"] >= wk.MIN_OPS
    assert all(v > 0 for v, _ in e2e["metrics"].values())
    traced = layers.traced_run(wl, 2)
    assert {k: u for k, (_, u) in traced["metrics"].items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert traced["failed"] == 0
    (wk.ROOT / traced["report"]["spans_file"]).unlink()


def test_main_prints_one_result_line(capsys):
    assert run.main(["--workload", "cli-run-both", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    doc = json.loads(last)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(wk.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(wk.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "bu-modsum",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
