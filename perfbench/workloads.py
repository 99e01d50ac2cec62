"""Workloads, the memoized reference and the untraced measurements.

Every workload is a closed loop: one client, one thread, each op issued
after the previous one returned. The program receives only the inputs
generated here from the seed; it is imported from ``src/`` afresh for
every set-up, so set-up time includes the import.

Every reported time is in reference-host time. On a shared host the speed
of CPU-bound Python swings by up to 2x within seconds and drifts over
minutes, whatever the program does. So a fixed calibration pass, which
touches nothing of the program, runs just before and just after each op
and each set-up, and the measured time is scaled by
``ref_ms / (mean of the two passes)``: the time the same work takes on a
host where one pass takes ``ref_ms``. Interpreter-bound and memory-bound
work slow down independently of each other, so each workload names the
pass that loads the host the way its op does. The raw times are kept in
the report.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import importlib
import io
import itertools
import json
import random
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path
from string import ascii_lowercase
from typing import Any, Iterator, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "sublists"
MODULES = ("cli", "solver", "instances", "combinatorics", "core_tree", "level_engine")

INPUT_KIND = {"trace": "chars", "modsum": "ints", "maxmin": "ints"}
INT_LOW, INT_HIGH = -1000, 1000
SETUP_REPS = 7  # setup_s is the median of this many untraced set-ups
TAIL_BEYOND = 10  # the tail is the highest sample with this many samples above it
MIN_OPS = 2 * TAIL_BEYOND + 1  # the fewest ops a window makes: the tail is then at least the median
CAL_XS = tuple((7919 * i) % 2001 + INT_LOW for i in range(12))  # 4095 distinct subsequences
CAL_BLOCK = "x" * 2**20


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the op that consumes them.

    A ``solve`` workload cycles through ``pool`` distinct inputs per
    (problem, length); a ``cli`` workload deals shuffled decks holding one
    fresh input for every (problem, length). ``traced_batches`` is how many
    pool cycles or decks the traced run replays.
    """

    name: str
    kind: str
    problems: tuple[str, ...]
    lengths: tuple[int, ...]
    pool: int = 1
    traced_batches: int = 1
    calibration: str = "interpreter"  # a key of CALIBRATIONS


WORKLOADS = {
    # level_engine.up dominates: the combine is cheap integer work.
    "bu-modsum": Workload("bu-modsum", "solve", ("modsum",), (15,), pool=2, traced_batches=4),
    # 97 M-char answers: instances.combine and allocation dominate.
    "bu-trace": Workload(
        "bu-trace", "solve", ("trace",), (11,), pool=2, traced_batches=3, calibration="memory"
    ),
    # The user path: many small requests, td and subs set the tail.
    "cli-run-both": Workload(
        "cli-run-both", "cli", ("trace", "modsum", "maxmin"), tuple(range(2, 9)), traced_batches=2
    ),
}


class Op(NamedTuple):
    """One request: a problem name, its input, and the CLI argv carrying it."""

    problem: str
    xs: Any  # a str for "chars" problems, a list of ints otherwise
    argv: tuple[str, ...]

    @property
    def key(self) -> tuple:
        return (self.problem, self.xs if isinstance(self.xs, str) else tuple(self.xs))


def make_op(rng: random.Random, problem: str, length: int) -> Op:
    if INPUT_KIND[problem] == "chars":
        xs: Any = "".join(rng.choice(ascii_lowercase) for _ in range(length))
        text = xs
    else:
        xs = [rng.randint(INT_LOW, INT_HIGH) for _ in range(length)]
        text = ",".join(map(str, xs))
    # "--input=<text>": a separate "--input -1,2" is taken for an option and exits 2
    argv = ("run", "--problem", problem, f"--input={text}", "--algo", "both", "--format", "json")
    return Op(problem, xs, argv)


class Inputs(NamedTuple):
    warmup: list[Op]  # one op per distinct (problem, length)
    distinct: list[Op]  # the inputs a solve workload cycles through; empty for cli
    batches: Iterator[list[Op]]


def generate(wl: Workload, seed: int) -> Inputs:
    """The workload's inputs; the same seed gives the same inputs."""
    combos = [(p, n) for p in wl.problems for n in wl.lengths]
    if wl.kind == "solve":
        rng = random.Random(f"{wl.name}:{seed}")
        pool = [make_op(rng, p, n) for _ in range(wl.pool) for p, n in combos]
        return Inputs(pool[:1], pool, ([op] for op in itertools.cycle(pool)))
    warm_rng = random.Random(f"{wl.name}:{seed}:warmup")
    deck_rng = random.Random(f"{wl.name}:{seed}:decks")

    def decks():
        while True:
            deck = [make_op(deck_rng, p, n) for p, n in combos]
            deck_rng.shuffle(deck)
            yield deck

    return Inputs([make_op(warm_rng, p, n) for p, n in combos], [], decks())


def program_present() -> bool:
    return (SRC / PACKAGE / "__init__.py").is_file()


class Program(NamedTuple):
    """The modules of one fresh import of the package under test."""

    cli: Any
    solver: Any
    instances: Any
    combinatorics: Any
    core_tree: Any
    level_engine: Any


def load_program() -> Program:
    """Import the package from ``src/`` afresh, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return Program(*(importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES))


def run_solve(prog: Program, op: Op) -> Any:
    return prog.solver.solve(prog.instances.get_problem(op.problem), op.xs)


def run_cli(prog: Program, op: Op) -> tuple[Any, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = prog.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects a request by exiting
            code = exc.code
    return code, buf.getvalue()


RUNNERS = {"solve": run_solve, "cli": run_cli}


def answers(kind: str, out: Any) -> list[Any] | None:
    """The answers an op's output carries, or None if the op failed."""
    if kind == "solve":
        return [out]
    code, text = out
    if code != 0:
        return None
    try:
        doc = json.loads(text)
        if doc["verdict"] != "EQUAL":
            return None
        return [doc["results"][algo]["value"] for algo in ("td", "bu")]
    except (ValueError, KeyError, TypeError):  # output that is not a run document
        return None


def fingerprint(value: Any) -> Any:
    """A value small enough to keep: long strings are reduced to a digest."""
    if isinstance(value, str) and len(value) > 4096:
        return ("str", len(value), hashlib.blake2b(value.encode(), digest_size=16).hexdigest())
    return value


def deletion_subs(t: tuple) -> list[tuple]:
    """Immediate sublists by direct deletion, later positions first."""
    return [t[:i] + t[i + 1 :] for i in range(len(t) - 1, -1, -1)]


def memo_solve(problem, xs):
    """Memoized evaluation of the recurrence, keyed on subsequences.

    Independent of both library evaluators: no trees, no shared subs
    implementation, caching instead of recomputation.
    """
    base, combine = problem.base, problem.combine

    @functools.lru_cache(maxsize=None)
    def go(t: tuple):
        if len(t) == 1:
            return base(t[0])
        return combine([go(s) for s in deletion_subs(t)])

    return go(tuple(xs))


class _CalibrationProblem(NamedTuple):
    """A modsum-like recurrence of the benchmark's own, for the calibration pass."""

    base: Any = lambda x: x % 1_000_003
    combine: Any = lambda ys: (1 + sum(v * i for i, v in enumerate(ys, start=1))) % 1_000_003


def interpreter_pass() -> None:
    """``memo_solve`` on a fixed input: allocation-heavy pure Python, like the tree ops."""
    memo_solve(_CalibrationProblem(), CAL_XS)


def memory_pass() -> None:
    """An 8 MiB string joined and wrapped the way TRACE's combine does: memory copies."""
    "(" + "".join([CAL_BLOCK] * 8) + ")"


class Calibration(NamedTuple):
    """A fixed pass that uses nothing of the program, so its time follows the host alone."""

    run: Any
    ref_ms: float  # the pass's time on the reference host; the scale of every reported time

    def ms(self) -> float:
        t0 = time.perf_counter_ns()
        self.run()
        return (time.perf_counter_ns() - t0) / 1e6

    def scale(self, before_ms: float, after_ms: float) -> float:
        """Factor from measured time to reference-host time, from the passes around it."""
        return self.ref_ms / ((before_ms + after_ms) / 2)


CALIBRATIONS = {
    "interpreter": Calibration(interpreter_pass, 20.0),
    "memory": Calibration(memory_pass, 10.0),
}


class References:
    """Fingerprints of the memoized reference answers, computed once per input."""

    def __init__(self, prog: Program):
        self.prog = prog
        self._cache: dict[tuple, Any] = {}

    def answer(self, op: Op) -> Any:
        fp = self._cache.get(op.key)
        if fp is None:
            fp = fingerprint(memo_solve(self.prog.instances.get_problem(op.problem), op.xs))
            self._cache[op.key] = fp
        return fp


def check(kind: str, op: Op, out: Any, refs: References) -> bool:
    values = answers(kind, out)
    return values is not None and all(fingerprint(v) == refs.answer(op) for v in values)


def setup(wl: Workload, seed: int) -> tuple[Program, Inputs, float]:
    """Import, generate the inputs and warm every distinct (problem, length)."""
    t0 = time.perf_counter()
    prog = load_program()
    inputs = generate(wl, seed)
    run = RUNNERS[wl.kind]
    for op in inputs.warmup:
        run(prog, op)
    return prog, inputs, time.perf_counter() - t0


def peak_pass(wl: Workload, seed: int) -> int:
    """tracemalloc peak in bytes over one whole set-up, import included.

    The set-up runs one op for every distinct (problem, length), so the peak
    covers every shape of op the timed window issues.
    """
    tracemalloc.start()
    try:
        setup(wl, seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_op(kind: str, prog: Program, op: Op) -> tuple[float, Any]:
    """Issue one op; returns its latency in ms and its output (None if it raised)."""
    t0 = time.perf_counter_ns()
    try:
        out = RUNNERS[kind](prog, op)
    except Exception:  # a raising op is a failed op; the loop goes on
        traceback.print_exc(file=sys.stderr)
        out = None
    return (time.perf_counter_ns() - t0) / 1e6, out


class Window(NamedTuple):
    latencies: list[float]  # per op, reference-host ms
    raw: list[float]  # per op, measured ms
    calibration: list[float]  # every calibration pass, ms
    failed: int


def timed_window(wl: Workload, prog: Program, inputs: Inputs, refs: References, seconds: float) -> Window:
    """Closed loop over whole batches until ``seconds`` have passed.

    A calibration pass runs before the first op and after every op; each
    op's latency is scaled by the passes on either side of it. An op is
    checked against the reference after the pass that follows it, so
    checking is outside every timing.
    """
    cal = CALIBRATIONS[wl.calibration]
    latencies, raw = [], []
    failed = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    passes = [cal.ms()]
    for batch in inputs.batches:
        for op in batch:
            ms, out = run_op(wl.kind, prog, op)
            passes.append(cal.ms())
            raw.append(ms)
            latencies.append(ms * cal.scale(passes[-2], passes[-1]))
            if out is None or not check(wl.kind, op, out, refs):
                failed += 1
            del out
        if time.perf_counter() >= deadline and len(latencies) >= MIN_OPS:
            return Window(latencies, raw, passes, failed)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def calibrated_setup(wl: Workload, seed: int) -> tuple[Program, Inputs, float, float]:
    """``setup`` between two calibration passes: (prog, inputs, reference s, raw s)."""
    cal = CALIBRATIONS[wl.calibration]
    before = cal.ms()
    prog, inputs, s = setup(wl, seed)
    return prog, inputs, s * cal.scale(before, cal.ms()), s


def end_to_end(wl: Workload, seed: int, seconds: float) -> dict:
    """The untraced run: set-ups, the peak pass and the timed window."""
    CALIBRATIONS[wl.calibration].run()  # untimed: a first memory pass also maps fresh pages
    setups, raw_setups = [], []
    for rep in range(SETUP_REPS):
        prog, inputs, s, raw = calibrated_setup(wl, seed)
        setups.append(s)
        raw_setups.append(raw)
        if rep == 0:
            peak = peak_pass(wl, seed)
    refs = References(prog)
    for op in inputs.distinct:
        refs.answer(op)
    win = timed_window(wl, prog, inputs, refs, seconds)
    lat, n = win.latencies, len(win.latencies)
    tail_ms, tail_pct = tail(lat)
    return {
        "attempted": n,
        "failed": win.failed,
        "metrics": {
            "ops_per_s": (n / (sum(lat) / 1000.0), "1/s"),
            "op_ms_p50": (statistics.median(lat), "ms"),
            "op_ms_tail": (tail_ms, "ms"),
            "peak_mib": (peak / 2**20, "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        },
        "report": {
            "fail_ratio": win.failed / n,
            "op_ms_quartiles": statistics.quantiles(lat, n=4),
            "tail_percentile": tail_pct,
            "samples": n,
            "setup_s_runs": setups,
            "raw": {
                "ops_per_s": n / (sum(win.raw) / 1000.0),
                "op_ms_quartiles": statistics.quantiles(win.raw, n=4),
                "op_ms_tail": tail(win.raw)[0],
                "setup_s_runs": raw_setups,
                "calibration": wl.calibration,
                "calibration_ms_quartiles": statistics.quantiles(win.calibration, n=4),
                "calibration_passes": len(win.calibration),
            },
        },
    }
