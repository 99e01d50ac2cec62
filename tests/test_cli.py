"""CLI behavior beyond the byte corpus: fault reporting, refusals before any work,
outputs checked against independent oracles, and the README's examples."""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import replace
from pathlib import Path

from helpers import bu_g_calls, prefix, td_g_calls
from test_cli_corpus import REQUESTS, recorded
from sublists import TRACE, Node, ch, map_tree, solve, subs
from sublists import combinatorics, encode_tree, instances, level_engine, solver
from sublists.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_reports_differ_when_an_evaluator_is_broken(capsys, monkeypatch):
    real_bu = solver.bu

    def broken_bu(n, problem, xs):
        value = real_bu(n, problem, xs)
        return value + "!" if isinstance(value, str) else value + 1

    monkeypatch.setattr(solver, "bu", broken_bu)
    code, out, _ = run_cli(capsys, "run", "--problem", "trace", "--input", "abc")
    assert code == 1
    assert "verdict: DIFFER" in out


def test_run_refuses_long_trace_inputs_before_solving(capsys, monkeypatch):
    def no_solve(n, problem, xs):
        raise AssertionError("bu ran")

    monkeypatch.setattr(solver, "bu", no_solve)
    code, _, err = run_cli(capsys, "run", "--problem", "trace", "--input", "a" * 12, "--algo", "bu")
    assert code == 2
    assert "exceeds the trace limit of 11" in err and "1,167,117,890 characters" in err


def test_trace_answer_length_follows_the_recurrence():
    assert instances.trace_answer_length(11) == 97_259_824
    for m in range(1, 9):
        assert instances.trace_answer_length(m) == len(solve(TRACE, prefix(m))), m


def test_a_broken_gather_plan_is_caught(capsys, monkeypatch):
    real_gather_plan = level_engine.gather_plan

    def swapped_gather_plan(m):
        # the first and last position of every row trade places
        plans = []
        for k, plan in enumerate(real_gather_plan(m), start=1):
            rows = array(plan.format, plan)
            rows[0 :: k + 1], rows[k :: k + 1] = rows[k :: k + 1], rows[0 :: k + 1]
            plans.append(rows)
        return tuple(plans)

    monkeypatch.setattr(level_engine, "gather_plan", swapped_gather_plan)
    code, out, _ = run_cli(capsys, "verify", "--max-len", "4")
    assert code == 1
    assert "counterexample" in out and "input:" in out and "td-bu[modsum]" in out
    code, out, _ = run_cli(capsys, "run", "--problem", "trace", "--input", "abc", "--algo", "both")
    assert code == 1
    assert "verdict: DIFFER" in out


def test_dump_after_up_matches_the_library(capsys):
    code, out, _ = run_cli(capsys, "dump", "--k", "2", "--input", "abcde", "--stage", "after-up")
    assert code == 0
    assert out.strip() == encode_tree(map_tree(subs, ch(3, "abcde")))


def test_dump_usage_errors(capsys, monkeypatch):
    # over-long inputs are refused before any tree is built
    def no_tree(k, xs):
        raise AssertionError("a tree was built")

    monkeypatch.setattr(combinatorics, "ch", no_tree)
    for length in (21, 900, 1500):
        code, _, err = run_cli(capsys, "dump", "--k", "1", "--input", "a" * length)
        assert code == 2 and "exceeds the limit of 20" in err, length


def test_verify_catches_a_broken_combine_level(capsys, monkeypatch):
    modsum = instances.MODSUM

    def reversed_weights(columns):
        return modsum.combine_level(columns[::-1])

    monkeypatch.setattr(instances, "MODSUM", replace(modsum, combine_level=reversed_weights))
    code, out, _ = run_cli(capsys, "verify", "--max-len", "4")
    assert code == 1
    assert out.startswith("law combine-level[modsum]: counterexample")


def test_verify_reports_the_first_counterexample_when_up_is_broken(capsys, monkeypatch):
    real_up = level_engine.up

    def broken_up(t):
        raised = real_up(t)
        if isinstance(raised, Node):
            return Node(raised.right, raised.left)
        return raised

    monkeypatch.setattr(level_engine, "up", broken_up)
    code, out, _ = run_cli(capsys, "verify", "--max-len", "4")
    assert code == 1
    assert "counterexample" in out
    assert "input:" in out


def test_verify_counterexample_in_json(capsys, monkeypatch):
    real_up = level_engine.up

    def broken_up(t):
        raised = real_up(t)
        if isinstance(raised, Node):
            return Node(raised.right, raised.left)
        return raised

    monkeypatch.setattr(level_engine, "up", broken_up)
    code, out, _ = run_cli(capsys, "verify", "--max-len", "4", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert "counterexample" in doc


def test_bench_header_rows_and_count_columns(capsys):
    code, out, _ = run_cli(capsys, "bench", "--max-len", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,td_g_calls,bu_g_calls"
    assert len(lines) == 6
    for line in lines[1:]:
        n, td_g, bu_g = (int(tok) for tok in line.split(","))
        assert td_g == td_g_calls(n)
        assert bu_g == bu_g_calls(n)
    assert lines[1] == "0,0,0"
    assert lines[5] == "4,86,26"


def test_readme_transcripts_are_byte_exact():
    # each README text block that starts with "$ sublists" shows a request of the CLI corpus and
    # its recorded output; the corpus test replays the request
    blocks = re.findall(r"```text\n\$ sublists ([^\n]*)\n(.*?)```", README.read_text(), re.S)
    assert sorted(command.split()[0] for command, _ in blocks) == ["bench", "dump", "run", "verify"]
    records = {tuple(record["argv"]): record for group in REQUESTS for record in recorded(group)}
    for command, shown in blocks:
        record = records[tuple(command.split())]
        assert record["exit"] == 0, command
        assert record["stdout"] == shown, command


def test_readme_library_use_runs_as_stated():
    (block,) = re.findall(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["stats"].g_calls == 86
    assert namespace["value"] == eval("solve(longest, [3, 1, 4, 1, 5])", namespace) == 1
