"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads bu-modsum,bu-trace,cli-run-both --seeds 1-10

Runs one ``run.py`` process at a time from the repository root. For each
workload and end-to-end metric it prints the median of the runs and the
spread: the distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median.
``--out FILE`` also writes every run's result and report as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.splitlines()
    report = next(json.loads(ln[len("# report "):]) for ln in lines if ln.startswith("# report "))
    machine = next(json.loads(ln[len("# machine "):]) for ln in lines if ln.startswith("# machine "))
    return {"result": json.loads(lines[-1]), "report": report, "machine": machine}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    doc: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            runs.append(run(workload, seed, args.seconds, args.trace))
            res = runs[-1]["result"]
            print(f"{workload} seed {seed}: attempted {res['attempted']} failed {res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        names = runs[0]["result"]["metrics"]
        summary = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs]) for name in names}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload} {name}: median {s['median']:.6g} spread {spread}", flush=True)
        doc["machine"] = runs[0]["machine"]
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
