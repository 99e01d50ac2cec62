"""CLI behavior beyond the byte corpus: fault reporting, refusals before any work, requests
accepted at each cap, outputs checked against independent oracles, and the README's examples."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import bu_g_calls, prefix, td_g_calls
from test_cli_corpus import REQUESTS, recorded, replay
from sublists import TRACE, Node, OutOfRange, ch, map_tree, solve, subs
from sublists import cli, combinatorics, encode_tree, instances, laws, level_engine, solver
from sublists.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


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


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_a_domain_error_inside_a_command_exits_2(capsys, monkeypatch):
    def refuse(algo, n, problem, xs):
        raise OutOfRange("boom")

    monkeypatch.setattr(solver, "run_with_stats", refuse)
    assert run_cli(capsys, "run", "--problem", "trace", "--input", "abc") == (2, "", "error: boom\n")


class Reached(Exception):
    """Raised by a patched function in place of its work: the request got past every cap."""


def reached(*args):
    raise Reached(*args)


def test_an_empty_input_is_refused_by_the_library_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(solver, "_td", reached)
    monkeypatch.setattr(level_engine, "gather_plan", reached)
    for algo in ["td", "bu", "both"]:
        argv = ["run", "--problem", "modsum", "--input", "", "--algo", algo]
        assert run_cli(capsys, *argv) == (2, "", "error: cannot solve an empty input\n"), algo


@pytest.mark.parametrize("argv, module, name", [
    (["run", "--problem", "modsum", "--input", ",".join(map(str, range(1, 21))), "--algo", "bu"],
     solver, "run_with_stats"),
    (["run", "--problem", "modsum", "--input", ",".join(map(str, range(1, 11))), "--algo", "both"],
     solver, "run_with_stats"),
    (["run", "--problem", "trace", "--input", "abcdefghijk", "--algo", "bu"], solver, "run_with_stats"),
    (["verify", "--max-len", "10"], laws, "replay_all"),
    (["dump", "--k", "1", "--input", prefix(20)], combinatorics, "ch"),
])
def test_a_request_at_each_cap_is_accepted(argv, module, name, monkeypatch):
    # the refusing side of each cap is a corpus record; this side would take seconds to run
    monkeypatch.setattr(module, name, reached)
    with pytest.raises(Reached):
        main(argv)


def _first_cap(problem: str, algo: str, n: int) -> str | None:
    """The first cap a run request of n elements breaks, in the order the rules name them, or None."""
    if n > 20:
        return "the limit of 20"
    if algo != "bu" and n > 10:
        return "the td limit of 10"
    if problem == "trace" and n > 11:
        return "the trace limit of 11"
    return None


@pytest.mark.parametrize("problem", [problem.name for problem in instances.builtin_problems()])
@pytest.mark.parametrize("algo", ["td", "bu", "both"])
def test_each_run_request_reaches_the_solver_or_names_its_first_cap(problem, algo, capsys, monkeypatch):
    # every length from 1 to 21: an accepted request reaches the solver once, a refused one makes no call
    calls = []

    def solve_once(*args):
        calls.append(args)
        raise Reached

    monkeypatch.setattr(solver, "run_with_stats", solve_once)
    for n in range(1, 22):
        text = prefix(n) if problem == "trace" else ",".join(map(str, range(1, n + 1)))
        argv = ["run", "--problem", problem, "--input", text, "--algo", algo]
        calls.clear()
        cap = _first_cap(problem, algo, n)
        if cap is None:
            with pytest.raises(Reached):
                main(argv)
            assert len(calls) == 1, n
        else:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, calls) == (2, "", []), n
            assert err.startswith(f"error: input length {n} exceeds {cap}"), (n, err)


def test_verify_replays_to_9_elements_by_default(monkeypatch):
    monkeypatch.setattr(laws, "replay_all", reached)
    with pytest.raises(Reached) as info:
        main(["verify"])
    assert info.value.args == (9,)


def test_bench_runs_no_evaluator(monkeypatch):
    for module, name in [(solver, "td"), (solver, "bu"), (instances, "example_input")]:
        monkeypatch.setattr(module, name, reached)
    # every problem up to --max-len 9, and a bare bench
    for record in recorded("bench"):
        assert replay(record["argv"]) == record, record["argv"]


def test_trace_answer_length_follows_the_recurrence():
    assert instances.trace_answer_length(11) == 97_259_824
    for m in range(1, 9):
        assert instances.trace_answer_length(m) == len(solve(TRACE, prefix(m))), m


def test_a_broken_gather_plan_is_caught(capsys, monkeypatch):
    real_gather_plan = level_engine.gather_plan

    def swapped_gather_plan(m):
        # the first and last answer of every row trade places: columns 0 and k swap getters
        return tuple((plan[-1], *plan[1:-1], plan[0]) for plan in real_gather_plan(m))

    monkeypatch.setattr(level_engine, "gather_plan", swapped_gather_plan)
    code, out, _ = run_cli(capsys, "verify", "--max-len", "4")
    assert code == 1
    assert "counterexample" in out and "input:" in out and "td-bu[modsum]" in out
    code, out, _ = run_cli(capsys, "run", "--problem", "trace", "--input", "abc", "--algo", "both")
    assert code == 1
    assert "verdict: DIFFER" in out


def test_a_reader_that_stops_early_ends_the_command_quietly():
    # the two answers hold 196,484 characters, more than a pipe buffers, so the command is still
    # writing when its reader goes
    argv = ["run", "--problem", "trace", "--input", "abcdefgh", "--algo", "both"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with subprocess.Popen([sys.executable, "-m", "sublists.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(20) == b"td result: (((((((ab"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")


def test_only_verify_loads_the_laws():
    # a fresh process: importing the CLI and running run, dump and bench leave sublists.laws unloaded
    code = (
        "import contextlib, io, sys\n"
        "from sublists import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['run', '--problem', 'modsum', '--input', '1,2,3'], ['dump', '--k', '1', '--input', 'ab'],\n"
        "                 ['bench', '--max-len', '2']):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    print('sublists.laws' in sys.modules, file=sys.stderr)\n"
        "    assert cli.main(['verify', '--max-len', '2']) == 0\n"
        "print('sublists.laws' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "False\n", "True\n")


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


def break_up(monkeypatch):
    real_up = level_engine.up

    def broken_up(t):
        raised = real_up(t)
        if isinstance(raised, Node):
            return Node(raised.right, raised.left)
        return raised

    monkeypatch.setattr(level_engine, "up", broken_up)


def test_verify_reports_the_first_counterexample_when_up_is_broken(capsys, monkeypatch):
    break_up(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--max-len", "4")
    assert code == 1
    assert "counterexample" in out
    assert "input:" in out


def test_verify_counterexample_in_json(capsys, monkeypatch):
    break_up(monkeypatch)
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
    assert namespace["value"] == eval("solve(widest, [3, 1, 4, 1, 5])", namespace) == 1
