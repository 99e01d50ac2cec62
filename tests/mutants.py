"""Mutation gate: every listed mutant of ``src/sublists`` must make Tier-1 fail.

Run from anywhere, as a script: ``python tests/mutants.py``. pytest does not collect
it (its name does not start with ``test_``). It uses only the standard library.

Each mutant is ``(file under src/sublists, exact old text, new text, reason)``; the
old text must occur exactly once in its file, so a refactor that moves it must update
the list. The script copies ``src/``, ``tests/``, ``golden/``, ``README.md`` and
``pyproject.toml`` to a temporary directory, checks that the unmutated copy passes,
then applies one mutant at a time and runs Tier-1 with ``-x`` under a per-mutant
timeout. A mutant is killed when the run fails or times out (a hang is reported as
such). The script exits 1 if any mutant survives or any old text is not found exactly
once, and 0 otherwise.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ["src", "tests", "golden", "README.md", "pyproject.toml"]
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
TIMEOUT_S = 180

_ABC = "combine([combine([base(a), base(b)]), combine([base(a), base(c)]), combine([base(b), base(c)])]),"
_ABD = "combine([combine([base(a), base(b)]), combine([base(a), base(d)]), combine([base(b), base(d)])]),"
_ACD = "combine([combine([base(a), base(c)]), combine([base(a), base(d)]), combine([base(c), base(d)])]),"
_BCD = "combine([combine([base(b), base(c)]), combine([base(b), base(d)]), combine([base(c), base(d)])]),"

MUTANTS = [
    # lines that only a dedicated assertion holds
    ("solver.py", "        level.reverse()\n", "",
     "bu frees each spent level in the order its answers were made"),
    ("cli.py", "    except SublistsError as exc:", "    except ArithmeticError as exc:",
     "a domain error inside a command exits 2 with its message"),
    ("laws.py", "    if isinstance(value, (tree.Tip, tree.Node)):\n        return tree.encode_tree(value)\n", "",
     "a counterexample renders tree sides as canonical tree JSON"),
    ("laws.py", '    return json.dumps(value, separators=(",", ":"))\n', "",
     "a counterexample renders other sides as compact JSON"),
    ("laws.py", "        super().__init__(law)\n", "",
     "a counterexample's message is its law's name"),
    ("combinatorics.py", "    if k < 1 or n < 1:\n        return False\n", "",
     "check_shape refuses a node at an index with k < 1 or n < 1"),
    ("level_engine.py", '    raise TypeError(f"not a tree: {t!r}")\n', "",
     "up refuses a value that is not a tree"),
    ("cli.py", "@functools.cache  # built on first use; parsing leaves it unchanged\n", "",
     "the CLI parser is built once"),
    ("core_tree.py", '    raise ShapeMismatch("tree shapes differ")', "    return Tip(None)",
     "zip_tree_with refuses trees of different shapes"),
    # td's four-element clause
    ("solver.py", "        a, b, c, d = xs", "        a, b, d, c = xs",
     "td's four-element clause keeps the input order"),
    ("solver.py", f"            {_ABD}\n            {_ACD}\n", f"            {_ACD}\n            {_ABD}\n",
     "td's four-element clause takes the triples in subs order"),
    ("solver.py", _ABD, _ABD.replace("base(a), base(d)", "base(a), base(c)"),
     "td's four-element clause pairs the right elements"),
    ("solver.py", "    if len(xs) == 4:", "    if len(xs) >= 4:",
     "td's four-element clause answers only four-element sublists"),
    ("solver.py", _ABD, "[" + _ABD[len("combine(["):-len("]),")] + "],",
     "td's four-element clause combines every triple"),
    ("solver.py",
     f"    if len(xs) == 4:\n        a, b, c, d = xs\n        return combine([\n            {_ABC}\n"
     f"            {_ABD}\n            {_ACD}\n            {_BCD}\n        ])\n",
     f"    if len(xs) == 3:\n        a, b, c = xs\n        return {_ABC[:-1]}\n",
     "td answers a four-element sublist in one frame, not a three-element one"),
    # td's counts, reported from their closed form
    ("solver.py", "            g_calls = 1 + j * g_calls", "            g_calls = j * g_calls",
     "td's combine count adds one combine per sublist of two or more elements"),
    ("solver.py", "RunStats(f_calls=factorial(m),", "RunStats(f_calls=factorial(n),",
     "td's base count is (n + 1)!, one per deletion order of n + 1 elements"),
    ("solver.py", "    evaluate = td if", "    evaluate = (lambda *args: [td(*args), td(*args)][1]) if",
     "run_with_stats runs td once, making the calls it reports"),
    # bu's counts, reported from their closed form
    ("solver.py", "g_calls=2**m - m - 1,", "g_calls=2**m - m,",
     "bu's combine count is one per subsequence of two or more elements"),
    ("solver.py", "peak_level_tips=comb(m, m // 2)", "peak_level_tips=comb(m, m // 2 + 1)",
     "bu's widest level holds C(m, m // 2) answers"),
    ("solver.py", "RunStats(f_calls=m,", "RunStats(f_calls=n,",
     "bu's base count is m = n + 1, one per element"),
    ("solver.py", "else bu\n", "else (lambda *args: [bu(*args), bu(*args)][1])\n",
     "run_with_stats runs bu once, making the calls it reports"),
    # the built-in problems' loops, held by their one-line definitions in test_instances.py;
    # equivalent mutants are not listed: elif -> if and < -> <= (or > -> >=) in maxmin change
    # nothing, since lo <= hi holds from the start, where both are ys[0]
    ("instances.py", "    for y in reversed(ys):\n", "    for y in ys:\n",
     "modsum's combine weights its answers by position from the left"),
    ("instances.py", "        t += s\n", "        t += y\n",
     "modsum's combine adds up the suffix sums, not the answers"),
    ("instances.py", "    return (1 + t) % MODULUS", "    return t % MODULUS",
     "modsum's combine adds one before the modulus"),
    ("instances.py", "    return hi - lo", "    return lo - hi",
     "maxmin's combine is max minus min"),
    ("instances.py", "            lo = y\n", "            hi = y\n",
     "maxmin's combine lowers lo on a smaller answer"),
    ("instances.py", "            hi = y\n", "            lo = y\n",
     "maxmin's combine raises hi on a larger answer"),
    ("instances.py", 'SublistProblem("trace", str,', 'SublistProblem("trace", repr,',
     "trace's base is str"),
    # the split of a level above the stored length by up's clause 4, held by the up-flat law's
    # blocks split by clause 4 alone, with no plan, and by bu above 10 elements
    ("level_engine.py", "    cut = comb(m - 1, k - 1)  #", "    cut = comb(m - 1, k - 1) + 1  #",
     "the split cuts a level after the C(m-1, k-1) answers that keep the first element"),
    ("level_engine.py", "columns.append(level[t : t + rows])", "columns.append(level[start : start + rows])",
     "the rows that keep the first element take their last column from T, not X"),
    ("level_engine.py",
     "    if k == 1:\n        yield m - 1, [repeat(level[start], m - 1), level[start + cut :]]\n"
     "    else:\n        t = start + cut\n        for rows, columns in _blocks(level[start:t], 0, k - 1, m - 1, plans):\n"
     "            columns.append(level[t : t + rows])\n            yield rows, columns\n            t += rows\n"
     "    if k < m - 1:  # the last level's one row keeps the first element\n"
     "        yield from _blocks(level, start + cut, k, m - 1, plans)\n",
     "    if k < m - 1:\n        yield from _blocks(level, start + cut, k, m - 1, plans)\n"
     "    if k == 1:\n        yield m - 1, [repeat(level[start], m - 1), level[start + cut :]]\n"
     "    else:\n        t = start + cut\n        for rows, columns in _blocks(level[start:t], 0, k - 1, m - 1, plans):\n"
     "            columns.append(level[t : t + rows])\n            yield rows, columns\n            t += rows\n",
     "the rows that keep the first element come before the rows that drop it"),
    ("level_engine.py", "repeat(level[start], m - 1)", "repeat(level[start], m - 2)",
     "at k = 1 the first element's answer is repeated once per later element"),
    # the one way into the stored plans, gather_plan's clamp and cache, the column getters and
    # raise_level's use of them, held by the plan tests and the up-flat and combine-level laws; one
    # mutant here is equivalent and not listed: == -> <= in _blocks' base changes nothing, since
    # every caller passes plans of exactly the length the split reaches (gather_plan(m) for
    # m <= 10 at the top, 10 from above, and () never reaches m = 1)
    ("level_engine.py", "_columns(min(m, _STORED))", "_columns(min(m + 1, _STORED))",
     "gather_plan answers for min(m, 10) elements, not one more"),
    ("level_engine.py", "_columns(min(m, _STORED))", "_columns(min(m, _STORED - 1))",
     "the stored plans reach 10 elements (the values stay right, split one level more)"),
    ("level_engine.py", "@cache  # gather_plan's answer for each length asked for so far\n", "",
     "each length's getters are built once; a warm call builds nothing"),
    ("level_engine.py", "[column(level) for column in plans[k - 1]]", "[column(level) for column in plans[k - 1][:k]]",
     "a block gathered by a plan gets every one of its k + 1 columns"),
    ("level_engine.py", "    if len(positions) > 1:\n", "    if len(positions) > 0:\n",
     "a one-row column, on the last level, still comes back as a sequence"),
    ("level_engine.py", "itemgetter(slice(p, p + 1 or None))", "itemgetter(slice(p, p + 1))",
     "a one-row column at the level's last position slices to the level's end"),
    ("level_engine.py", "range(-comb(m, m // 2), 0)", "range(-comb(m, m // 2 - 1), 0)",
     "the position pool reaches the widest level, C(m, m // 2) answers"),
    ("level_engine.py", "pool[len(pool) - comb(m, k) :]", "pool[len(pool) - comb(m, k) - 1 :]",
     "the getters are built from level k of positions, its C(m, k) last"),
    ("level_engine.py", "    for k in range(1, m):\n", "    for k in range(1, m - 1):\n",
     "every level, the last included, gets its plan"),
    ("level_engine.py", "_column(list(chain.from_iterable(column)))", "_column(list(column[0]))",
     "a getter's column runs across every block of the split level"),
    ("laws.py", "(level_engine.gather_plan(n), ())", "(level_engine.gather_plan(n),)",
     "the laws also gather by clause 4 alone, with no plan, as bu does above 10 elements"),
    # the one level step, raise_level, taken by bu and the laws alike
    ("level_engine.py", "        raised += combine_level(columns)\n", "        combine_level(columns)\n",
     "raise_level joins every block's answers, not only the first block's"),
    ("laws.py", "solver.levels(replace(problem, combine_level=None), xs)", "itertools.repeat([problem.base(x) for x in xs])",
     "the combine-level law walks the problem's own levels, each raised by the row combine"),
    # levels, the one walk of levels, and bu, the one answer of its last level
    ("solver.py", "    yield level\n    for k in range(1, len(xs)):\n", "    for k in range(1, len(xs)):\n",
     "levels yields the seed level, base on every element"),
    ("solver.py", "    for k in range(1, len(xs)):\n", "    for k in range(1, len(xs) - 1):\n",
     "levels raises the seed level m - 1 times, down to one answer"),
    ("solver.py", "        level = raised\n        yield level\n", "        level = raised\n",
     "levels yields every raised level"),
    ("solver.py", "map(problem.combine, map(list, zip(*columns)))", "map(problem.combine, zip(*columns))",
     "the row path hands combine each row as a fresh list"),
    ("solver.py", "    for level in levels(problem, xs):\n        pass\n", "    for level in levels(problem, xs):\n        break\n",
     "bu answers from the last of the levels, not the first"),
    ("instances.py", "    acc = iter(columns[0])\n", "    columns = columns[::-1]\n    acc = iter(columns[0])\n",
     "modsum's level combine weights its columns in order"),
    ("instances.py", "    return [(1 + a) % MODULUS for a in acc]", "    return [1 + a for a in acc]",
     "modsum's level combine reduces by the modulus"),
    ("solver.py", "    if n < 0:", "    if n < -1:",
     "an empty input is refused before any evaluator runs"),
    ("solver.py", "expects length {1 + n}", "expects length {1 - n}",
     "a length mismatch names the length the index expects"),
    ("solver.py", "expects length {1 + n}", "expects length {2 + n}",
     "a length mismatch names n + 1, not n + 2"),
    # both sides of every CLI cap: the refusing side is a corpus record, the accepting side a
    # corpus record (bench) or a request that reaches a patched function (test_cli.py)
    ("cli.py", "return _usage(str(exc))\n    if len(xs) > RUN_MAX_INPUT:", "return _usage(str(exc))\n    if len(xs) >= RUN_MAX_INPUT:",
     "run --algo bu accepts 20 elements"),
    ("cli.py", 'args.algo != "bu" and len(xs) > TD_MAX_INPUT', 'args.algo != "bu" and len(xs) >= TD_MAX_INPUT',
     "run accepts 10 elements wherever td runs"),
    ("cli.py", "len(xs) > TRACE_MAX_INPUT", "len(xs) >= TRACE_MAX_INPUT",
     "run accepts 11 trace characters"),
    ("cli.py", "    xs = args.input\n    if len(xs) > RUN_MAX_INPUT:", "    xs = args.input\n    if len(xs) >= RUN_MAX_INPUT:",
     "dump accepts 20 characters"),
    ("cli.py", "1 <= args.max_len <= TD_MAX_INPUT:", "1 <= args.max_len < TD_MAX_INPUT:",
     "verify accepts --max-len 10"),
    ("cli.py", "0 <= args.max_len <= TD_MAX_INPUT - 1:", "0 <= args.max_len < TD_MAX_INPUT - 1:",
     "bench accepts --max-len 9"),
    ("cli.py", "args.max_len <= TD_MAX_INPUT - 1:", "args.max_len <= TD_MAX_INPUT - 2:",
     "bench's cap is one under td's"),
    ("cli.py", 'verify.add_argument("--max-len", dest="max_len", type=int, default=9)',
     'verify.add_argument("--max-len", dest="max_len", type=int, default=10)',
     "verify replays to 9 elements by default"),
    ("cli.py", 'bench.add_argument("--max-len", dest="max_len", type=int, default=9)',
     'bench.add_argument("--max-len", dest="max_len", type=int, default=10)',
     "bench prints rows to 9 by default"),
    ("cli.py", "{td_cost.g_calls},{bu_cost.g_calls}", "{bu_cost.g_calls},{td_cost.g_calls}",
     "bench prints td's column before bu's"),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_tier1(workdir: Path) -> tuple[str, float]:
    """Run Tier-1 in ``workdir``: ``"passed"``, ``"failed"`` or ``"hung"``, with its time."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.Popen(TIER1, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "hung", time.perf_counter() - start
    return ("passed" if code == 0 else "failed"), time.perf_counter() - start


def main() -> int:
    sources = {}
    missing = []
    for file, old, _, reason in MUTANTS:
        text = sources.setdefault(file, (ROOT / "src" / "sublists" / file).read_text())
        if text.count(old) != 1:
            missing.append(f"{file}: old text found {text.count(old)} times ({reason})")
    if missing:
        print("each old text must occur exactly once:", *missing, sep="\n  ")
        return 1

    with tempfile.TemporaryDirectory(prefix="sublists-mutants-") as tmp:
        workdir = Path(tmp)
        copy_tree(workdir)
        outcome, elapsed = run_tier1(workdir)
        if outcome != "passed":
            print(f"the unmutated copy {outcome} Tier-1 ({elapsed:.1f} s)")
            return 1
        print(f"unmutated copy passed Tier-1 in {elapsed:.1f} s")

        survivors = []
        for file, old, new, reason in MUTANTS:
            path = workdir / "src" / "sublists" / file
            path.write_text(sources[file].replace(old, new))
            try:
                outcome, elapsed = run_tier1(workdir)
            finally:
                path.write_text(sources[file])
            verdict = {"failed": "killed", "hung": "killed (hung)", "passed": "SURVIVED"}[outcome]
            print(f"{verdict:14} {elapsed:6.1f} s  {file}: {reason}", flush=True)
            if outcome == "passed":
                survivors.append(reason)

    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
