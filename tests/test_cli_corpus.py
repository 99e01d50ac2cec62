"""The CLI byte corpus: recorded requests, replayed against the current code.

``golden/cli/<group>.jsonl`` holds one record per request of ``REQUESTS[group]``,
in order: ``{"argv": [...], "exit": code, "stdout": text, "stderr": text}``,
one compact JSON line each. The test replays every request in-process and
compares all four fields. Rewrite the records from the current code with

    PYTHONPATH=src python tests/test_cli_corpus.py

and state every change to them, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from pathlib import Path

from sublists.cli import main

CORPUS_DIR = Path(__file__).resolve().parent.parent / "golden" / "cli"
# argparse wraps its usage line to the terminal width it reads from COLUMNS
COLUMNS = "80"


def _inputs(problem: str, longest: int) -> list[str]:
    if problem == "trace":
        return ["abcdefgh"[:m] for m in range(1, longest + 1)]
    return [",".join(str(v) for v in range(1, m + 1)) for m in range(1, longest + 1)]


def _requests() -> dict[str, list[list[str]]]:
    run = [["run", "--problem", "trace", "--input", "abc"]]  # every default
    # each evaluator prints the trace answer: 1,754 characters on 6 elements, 98,242 on 8
    for problem, longest in [("trace", 6), ("modsum", 8), ("maxmin", 8)]:
        for text in _inputs(problem, longest):
            for algo in ["td", "bu", "both"]:
                for fmt in ["text", "json"]:
                    run.append(["run", "--problem", problem, "--input", text, "--algo", algo, "--format", fmt])
    for fmt in ["text", "json"]:
        run.append(["run", "--problem", "maxmin", "--input", "3,1,4,1,5", "--algo", "both", "--format", fmt])
    run.append(["run", "--problem", "modsum", "--input=-1,2", "--format", "json"])
    # 16 elements: bu splits each level above 10 by up's clause 4, on the column and the row path
    rng = random.Random(16)
    negatives = ",".join(str(rng.randint(-3_000_009, -1)) for _ in range(16))  # past -MODULUS too
    run.append(["run", "--problem", "modsum", "--input", _inputs("modsum", 16)[-1], "--algo", "bu"])
    run.append(["run", "--problem", "modsum", f"--input={negatives}", "--algo", "bu"])
    run.append(["run", "--problem", "maxmin", f"--input={negatives}", "--algo", "bu"])  # 1 on 1..16

    verify = [
        ["verify", "--max-len", str(m), "--format", fmt] for m in range(1, 9) for fmt in ["text", "json"]
    ]
    bench = [["bench", "--max-len", str(m)] for m in range(0, 10)]
    bench.append(["bench"])  # every default
    dump = [["dump", "--k", "1", "--input", "yz"]]
    dump += [
        ["dump", "--k", str(k), "--input", "abcde", "--stage", stage]
        for stage in ["tree", "after-up"]
        for k in range(0, 6)
    ]

    refusals = [
        ["run", "--problem", "trace", "--input", "a" * 21],
        ["run", "--problem", "modsum", "--input", _inputs("modsum", 21)[-1], "--algo", "bu"],
        ["run", "--problem", "modsum", "--input", _inputs("modsum", 11)[-1], "--algo", "td"],
        ["run", "--problem", "trace", "--input", "abcdefghijk", "--algo", "both"],
        ["run", "--problem", "trace", "--input", "a" * 12, "--algo", "bu"],
        ["run", "--problem", "nope", "--input", "abc"],
        ["run", "--problem", "trace", "--input", ""],
        ["run", "--problem", "modsum", "--input", ""],
        ["run", "--problem", "modsum", "--input", "1,x"],
        # argparse takes a separate "-1,2" for an option; "--input=-1,2" binds it
        ["run", "--problem", "modsum", "--input", "-1,2"],
        ["verify", "--max-len", "0"],
        ["verify", "--max-len", "11"],
        ["verify", "--max-len", "13"],
        ["bench", "--max-len", "-1"],
        ["bench", "--max-len", "10"],
        ["bench", "--max-len", "13"],
        ["bench", "--max-len", "3", "--problem", "nope"],
        ["dump", "--k", "-1", "--input", "ab"],
        ["dump", "--k", "3", "--input", "ab"],
        ["dump", "--k", "0", "--input", "ab", "--stage", "after-up"],
        ["dump", "--k", "2", "--input", "ab", "--stage", "after-up"],
        ["dump", "--k", "1", "--input", "a" * 21],
        ["frobnicate"],
    ]
    return {"run": run, "verify": verify, "bench": bench, "dump": dump, "refusals": refusals}


REQUESTS = _requests()


def replay(argv: list[str]) -> dict:
    """Run ``sublists <argv>`` in-process and record what it printed and returned."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a request by exiting
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def recorded(group: str) -> list[dict]:
    """The records of ``golden/cli/<group>.jsonl``, in order."""
    return [json.loads(line) for line in (CORPUS_DIR / f"{group}.jsonl").read_text().splitlines()]


def test_cli_corpus_replays_byte_for_byte(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert sorted(path.stem for path in CORPUS_DIR.glob("*.jsonl")) == sorted(REQUESTS)
    for group, requests in REQUESTS.items():
        records = recorded(group)
        assert [record["argv"] for record in records] == requests, group
        for record in records:
            assert replay(record["argv"]) == record, record["argv"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    for group, requests in REQUESTS.items():
        lines = [json.dumps(replay(argv), separators=(",", ":")) + "\n" for argv in requests]
        (CORPUS_DIR / f"{group}.jsonl").write_text("".join(lines))
