"""Benchmark of the sublists package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload bu-modsum --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in this one process. ``--trace 0``
measures the end-to-end metrics untraced; ``--trace 1`` is the separate
traced run that reports the per-layer metrics. Lines starting with ``#``
are for people; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Exits 2
without a result when the package sources are not under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS, end_to_end, program_present


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown"
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref)
        if sha is None:
            packed = _read(ROOT / ".git" / "packed-refs") or ""
            sha = next((ln.split()[0] for ln in packed.splitlines() if ln.endswith(" " + ref)), None)
        return sha or "unknown"
    return head


def machine() -> dict:
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")), None)
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    caches = {}
    for index in sorted(cache.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(index / "size")
    try:
        ram_mib = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20
    except (ValueError, OSError):
        ram_mib = None
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.machine(),
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "ram_mib": ram_mib,
        "python": platform.python_version(),
        "commit": commit(),
    }


def measure(name: str, seed: int, seconds: int, trace: int) -> dict:
    if trace:
        from layers import traced_run

        return traced_run(WORKLOADS[name], seed)
    return end_to_end(WORKLOADS[name], seed, seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not program_present():
        print("error: the sublists sources are not under src/ next to perfbench/", file=sys.stderr)
        return 2

    print("# machine " + json.dumps(machine()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, args.trace)
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"# workload {name} seed {args.seed} trace {args.trace}: "
              f"{result['attempted']} ops, {result['failed']} failed")
        for metric, (value, unit) in result["metrics"].items():
            print(f"#   {metric:<28} {value:>16.6f} {unit}")
        if "fail_ratio" in result["report"]:
            print(f"#   {'fail_ratio':<28} {result['report']['fail_ratio']:>16.6f} ratio")
        if "raw" in result["report"]:
            raw = result["report"]["raw"]
            print(f"#   raw (uncalibrated): ops_per_s {raw['ops_per_s']:.6f}, op_ms_p50 "
                  f"{raw['op_ms_quartiles'][1]:.6f}, calibration pass ms p50 {raw['calibration_ms_quartiles'][1]:.6f}")
        print("# report " + json.dumps({"workload": name, "seed": args.seed, **result["report"]}))
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
