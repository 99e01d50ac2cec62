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
_COST_CHECK = '    if n < 0:\n        raise EmptyInput("an empty input has no run to cost")\n'
_EXAMPLE_CHECK = '    if length < 0:\n        raise ValueError(f"cannot build an example input of length {length}")\n'
_INTS_EXAMPLE = '    if problem.input_kind == "ints":\n        return list(range(1, length + 1))\n'
_KEEPS = (  # _blocks' rows that keep the first element, then those that drop it
    "    for columns in blocks:\n        rows = len(columns[-1])\n        columns.append(level[t : t + rows])\n"
    "        yield columns\n        del columns\n        t += rows\n"
)
_DROPS = "    yield from _blocks(level, k, m - 1, plans)\n"
_X_BLOCKS = "iter([[level[:1] * (m - 1)]])"  # at k = 1, X's one block: its one answer repeated
_ONE_BLOCK = "    if k == m - 1 or m == len(plans) + 2:\n"  # the last level, or a level with a stored plan
_LAST = "list(zip(level))"  # the last level's one row: each answer a column of its own
_TD_COST = (
    "    if Algorithm(algo) is Algorithm.TOP_DOWN:\n        g_calls = 0\n"
    "        for j in range(2, m + 1):\n            g_calls = 1 + j * g_calls\n"
    "        return RunStats(f_calls=factorial(m), g_calls=g_calls, peak_level_tips=0)\n"
)

MUTANTS = [
    # lines that only a dedicated assertion holds
    ("level_engine.py", "        level.reverse()\n", "",
     "bu frees each spent level in the order its answers were made"),
    ("cli.py", "    except SublistsError as exc:", "    except ArithmeticError as exc:",
     "a domain error inside a command exits 2 with its message"),
    ("laws.py", "    if isinstance(value, (tree.Tip, tree.Node)):\n        return tree.encode_tree(value)\n", "",
     "a counterexample renders tree sides as canonical tree JSON"),
    ("laws.py", '    return json.dumps(value, separators=(",", ":"))\n', "",
     "a counterexample renders other sides as compact JSON"),
    ("laws.py", "        super().__init__(law)\n", "",
     "a counterexample's message is its law's name"),
    ("laws.py", "comb.choose(k + 1, xs)", "comb.choose(k, xs)",
     "upgrade-tips compares against each (k+1)-selection's sublists"),
    ("combinatorics.py", "    if k == 0 or k == n:\n        return Tip(next(tips))\n",
     "    if k == 0:\n        return Tip(next(tips))\n",
     "ch's shape has a tip at (k, k)"),
    ("combinatorics.py", "Node(_shape(k - 1, n - 1, tips), _shape(k, n - 1, tips))",
     "Node(_shape(k, n - 1, tips), _shape(k - 1, n - 1, tips))",
     "ch's left subtree is the (k - 1, n - 1) one, keeping the first element"),
    ("combinatorics.py", "iter(choose(k, xs))", "reversed(choose(k, xs))",
     "ch's tips are choose's selections in order"),
    ("combinatorics.py", "k == n > 0", "k == n",
     "check_shape refuses a tip at (k, k) with k < 0"),
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
    # the written-out pairs and triples that td's four-element clause hands combine, held by
    # the deterministic lengths 1-6 in test_instances.py
    ("instances.py", "(1 + a + 2 * b) % MODULUS", "(1 + a + b) % MODULUS",
     "modsum's pair clause weights its second answer by 2"),
    ("instances.py", "(1 + a + 2 * b) % MODULUS", "(a + 2 * b) % MODULUS",
     "modsum's pair clause adds one before the modulus"),
    ("instances.py", "(1 + a + 2 * b + 3 * c)", "(a + 2 * b + 3 * c)",
     "modsum's triple clause adds one before the modulus"),
    ("instances.py", "+ 2 * b + 3 * c", "+ b + 3 * c",
     "modsum's triple clause weights its second answer by 2"),
    ("instances.py", "3 * c", "2 * c",
     "modsum's triple clause weights its third answer by 3"),
    ("instances.py", "abs(a - b)", "(a - b)",
     "maxmin's pair clause is the larger minus the smaller"),
    ("instances.py", 'SublistProblem("trace", str,', 'SublistProblem("trace", repr,',
     "trace's base is str"),
    # the split of a level above the stored length by up's clause 4, held by the up-flat law's
    # blocks split by clause 4 alone, with no plan, and by bu above 10 elements
    ("level_engine.py", "    t = comb(m - 1, k - 1)  #", "    t = comb(m - 1, k - 1) + 1  #",
     "the split cuts a level after the C(m-1, k-1) answers that keep the first element"),
    ("level_engine.py", "columns.append(level[t : t + rows])", "columns.append(level[t - rows : t])",
     "the rows that keep the first element take their last column from T, not X"),
    ("level_engine.py", _KEEPS + _DROPS, _DROPS + _KEEPS,
     "the rows that keep the first element come before the rows that drop it"),
    ("level_engine.py", _X_BLOCKS, "iter([[level[:1] * (m - 2)]])",
     "at k = 1 the first element's answer is repeated once per later element"),
    ("level_engine.py", _X_BLOCKS, 'iter([__import__("itertools").repeat(level[0], m - 1)])',
     "at k = 1 the repeated column is a list, so every column bu hands over is a sequence"),
    ("level_engine.py", "t = comb(m - 1, k - 1)", "t = comb(m - 1, k)",
     "X, the answers that keep the first element, is the level's first C(m-1, k-1), not C(m-1, k)"),
    ("level_engine.py", _X_BLOCKS, "iter([[level[1:2] * (m - 1)]])",
     "at k = 1 the repeated answer is X's one answer, the level's first"),
    ("level_engine.py", "plans) if k > 1 else", "plans) if k > 2 else",
     "X is raised as a level of its own for every k above 1; only at k = 1 is it one answer"),
    ("level_engine.py", "rows = len(columns[-1])", "rows = len(columns[-1]) - 1",
     "a block's row count is the length of its last column"),
    ("level_engine.py", "_blocks(level[:t], k - 1", "_blocks(level[: t - 1], k - 1",
     "X ends where T starts"),
    ("level_engine.py", "_blocks(level[:t], k - 1", "_blocks(level[1:t], k - 1",
     "X starts at the level's front"),
    ("level_engine.py", "_blocks(level[:t], k - 1", "_blocks(level[: t + 1], k - 1",
     "X ends where T starts, not one answer into T"),
    # each split checks that its level is one of 1..m-1 and holds its C(m, k) answers, held by the
    # refusal tests
    ("level_engine.py", "    if not 0 < k < m:\n", "    if False:\n",
     "a raise refuses a level index outside 1..m-1"),
    ("level_engine.py", "if not 0 < k < m:", "if not 0 <= k < m:",
     "a raise refuses level 0, which has no immediate sublists to gather"),
    ("level_engine.py", "if not 0 < k < m:", "if not 0 < k <= m:",
     "a raise refuses level m, the one answer of the whole input"),
    ("level_engine.py", "    if len(level) != comb(m, k):\n", "    if False:\n",
     "a raise refuses a level that does not hold its C(m, k) answers"),
    ("level_engine.py", "if len(level) != comb(m, k):", "if len(level) > comb(m, k):",
     "a raise refuses a level one answer short, not only one too long"),
    ("level_engine.py", "not {comb(m, k)}", "not {comb(m, k) + 1}",
     "the refusal names the C(m, k) answers the level should hold"),
    # the one way into the stored plans, gather_plan's clamp and cache, the column getters and
    # raise_level's use of them, held by the plan tests and the up-flat and combine-level laws; one
    # mutant here is equivalent and not listed: == -> <= in _blocks' stored base changes nothing,
    # since every caller passes plans of exactly the length the split reaches (gather_plan(m) for
    # m <= 10 at the top, 10 from above, and () reaches m = 2 only on the last level)
    ("level_engine.py", "_columns(min(m, _STORED))", "_columns(min(m + 1, _STORED))",
     "gather_plan answers for min(m, 10) elements, not one more"),
    ("level_engine.py", "_columns(min(m, _STORED))", "_columns(min(m, _STORED - 1))",
     "the stored plans reach 10 elements (the values stay right, split one level more)"),
    ("level_engine.py", "@cache  # gather_plan's answer for each length asked for so far\n", "",
     "each length's getters are built once; a warm call builds nothing"),
    ("level_engine.py", "[column(level) for column in plans[k - 1]]", "[column(level) for column in plans[k - 1][:k]]",
     "a block gathered by a plan gets every one of its k + 1 columns"),
    ("level_engine.py", "m == len(plans) + 2:", "m == len(plans) + 1:",
     "a level is gathered by its stored plan when the plans are for its m elements"),
    ("level_engine.py", "_blocks(list(range(comb(m, k))), k, m, ())", "_blocks(list(range(comb(m, k) - 1)), k, m, ())",
     "the getters are built from level k's C(m, k) positions, not one fewer"),
    ("level_engine.py", "_blocks(list(range(comb(m, k))), k, m, ())", "_blocks(list(range(1, comb(m, k) + 1)), k, m, ())",
     "a level's positions count from its front, from 0"),
    ("level_engine.py", "_blocks(list(range(comb(m, k))), k, m, ())", "_blocks(list(range(comb(m, k) + 1)), k, m, ())",
     "the getters are built from level k's C(m, k) positions, not one more"),
    ("level_engine.py", "    for k in range(1, m - 1):\n", "    for k in range(1, m):\n",
     "only the levels below the last get a plan; the last is raised as itself"),
    ("level_engine.py", "itemgetter(*chain.from_iterable(column))", "itemgetter(*column[0])",
     "a getter's column runs across every block of the split level"),
    # the last level, raised as one row that is the level itself, held by the stored-plan test's
    # last-level check and the up-flat law
    ("level_engine.py", _ONE_BLOCK, "    if k == m - 2 or m == len(plans) + 2:\n",
     "the last level, k = m - 1, is raised as one block, with the stored plans or with none"),
    ("level_engine.py", _ONE_BLOCK, "    if m == len(plans) + 2:\n",
     "with no stored plan the last level is still one block, not split by clause 4"),
    ("level_engine.py", f"{_LAST} if k == m - 1 else", "",
     "the last level has no stored plan; its one row is the level itself"),
    ("level_engine.py", _LAST, "list(zip(level[:-1]))",
     "the last level's one row takes every one of its m answers"),
    ("level_engine.py", _LAST, "list(zip(level, level))",
     "each of the last level's columns holds one row"),
    ("level_engine.py", _LAST, "list(zip(level[::-1]))",
     "the last level's row keeps the level's order, since choose (m - 1) order is subs order"),
    ("laws.py", "(level_engine.gather_plan(n), ())", "(level_engine.gather_plan(n),)",
     "the laws also gather by clause 4 alone, with no plan, as bu does above 10 elements"),
    ("laws.py", "raise_level(list(level), k, n,", "raise_level(level, k, n,",
     "the laws raise a copy of each level, as a raise consumes its level and they raise each one twice"),
    # the raise consumes its level, deleting each stretch once no later block reads it, held by the
    # count of answers alive at once, the free order and the emptied level
    ("level_engine.py", "    del level[:t]\n    t = 0\n", "",
     "the answers that keep the first element go once the rows that keep it are raised"),
    ("level_engine.py", "    del level[:t]\n    t = 0\n", "    t = 0\n",
     "the split deletes X, so the rows that keep the first element read their column from T's front"),
    ("level_engine.py", "    del level[:t]\n    t = 0\n", "    del level[: t + 1]\n    t = 0\n",
     "the split deletes X alone, not T's first answer with it"),
    ("level_engine.py", _X_BLOCKS, "[[level[:1] * (m - 1)]]",
     "at k = 1 X's one block is let go once the loop has read it, not kept through T's raise"),
    ("level_engine.py", "        level.clear()\n        return\n", "        return\n",
     "a level raised as one block is cleared once its block is raised"),
    ("level_engine.py", "        del columns\n    return raised\n", "    return raised\n",
     "raise_level drops each block's columns before the walk frees the answers they hold"),
    ("level_engine.py", "        yield columns\n        del columns\n", "        yield columns\n",
     "each clause-4 frame drops its columns before the walk frees the answers they hold"),
    # the one sweep of inputs, in replay: each law's first length and the last, held by the case
    # counts; combine-level's 2 -> 1 is equivalent and not listed, since a one-element input has no
    # level to raise and yields no case, and no law or sweep guards against short inputs
    ("laws.py", "(law, 2, letters)", "(law, 1, letters)",
     "the structural laws are fed alphabet prefixes from two letters, not one"),
    ("laws.py", 'laws["calls"] = calls, 1, letters', 'laws["calls"] = calls, 2, letters',
     "the calls law is fed alphabet prefixes from one letter"),
    ("laws.py", "functools.partial(td_bu, problem), 1, example", "functools.partial(td_bu, problem), 2, example",
     "the td-bu laws are fed example inputs from one element"),
    ("laws.py", "functools.partial(combine_level, problem), 2, example",
     "functools.partial(combine_level, problem), 3, example",
     "the combine-level laws are fed example inputs from two elements"),
    ("laws.py", "range(first, max_len + 1)", "range(first, max_len)",
     "replay feeds each law up to max_len, that length included"),
    # the one walk down a spine, recursive, so that no mutant of it can loop; held by the case counts
    # and by the law's worked example in test_combinatorics.py
    ("laws.py", '(_spine(t, "left"), _spine(t, "right"))', '(_spine(t, "right"), _spine(t, "left"))',
     "the pascal-spine law walks the left spine for its left sizes and the right for its right"),
    ("laws.py", "    below = _spine(getattr(t, side), side) if isinstance(t, tree.Node) else []\n",
     "    below = []\n",
     "a spine goes on down to a tip, not only its first tree"),
    # the evaluators, each asked of solve by name
    ("laws.py", 'solver.solve(problem, xs, "td"), solver.solve', 'solver.solve(problem, xs, "bu"), solver.solve',
     "the td-bu laws compare td with bu, not bu with itself"),
    # the one level step, raise_level, taken by bu and the laws alike
    ("level_engine.py", "        raised += combine_level(columns)\n", "        combine_level(columns)\n",
     "raise_level joins every block's answers, not only the first block's"),
    ("level_engine.py", "    raised = []\n    for columns in _blocks(level, k, m, plans):\n",
     "    blocks = _blocks(level, k, m, plans)\n    raised = combine_level(next(blocks))\n    for columns in blocks:\n",
     "raise_level builds each level in a list of its own, never in one that combine_level returned"),
    ("level_engine.py", "        if len(raised) - start != rows:\n            raise MalformedLevel(", "        if False:\n            raise MalformedLevel(",
     "raise_level refuses a block given more or fewer answers than it has rows"),
    ("level_engine.py", "rows, start = len(columns[0]), len(raised)", "rows, start = len(columns), len(raised)",
     "a block's answers are counted against its rows, not its columns"),
    ("laws.py", "solver.levels(replace(problem, combine_level=None), xs)", "itertools.repeat([problem.base(x) for x in xs])",
     "the combine-level law walks the problem's own levels, each raised by the row combine"),
    # levels, the one walk of levels, and bu, the one answer of its last level
    ("solver.py", "    yield level\n    for k in range(1, len(xs)):\n", "    for k in range(1, len(xs)):\n",
     "levels yields the seed level, base on every element"),
    ("solver.py", "    for k in range(1, len(xs)):\n", "    for k in range(1, len(xs) - 1):\n",
     "levels raises the seed level m - 1 times, down to one answer"),
    ("solver.py", "combine_level)\n        yield level\n", "combine_level)\n",
     "levels yields every raised level"),
    ("solver.py", "raise_level(level, k, len(xs),", "raise_level(list(level), k, len(xs),",
     "levels hands raise_level the level itself, so the raise frees it as it goes"),
    ("solver.py", "map(problem.combine, map(list, zip(*columns)))", "map(problem.combine, zip(*columns))",
     "the row path hands combine each row as a fresh list"),
    ("solver.py", "    for level in levels(problem, xs):\n        pass\n", "    for level in levels(problem, xs):\n        break\n",
     "bu answers from the last of the levels, not the first"),
    # modsum's level combine: the weighted sums in packed 32-bit lanes, and its row path for the rest
    ("instances.py", "enumerate(columns, 1):", "enumerate(columns[::-1], 1):",
     "modsum's level combine weights its columns in order"),
    ("instances.py", "enumerate(columns, 1):", "enumerate(columns, 2):",
     "modsum's level combine weights column i by its 1-based position i + 1"),
    ("instances.py", "enumerate(columns, 1):", "enumerate(columns[1:], 2):",
     "modsum's level combine adds in each row's first answer"),
    ("instances.py", "acc, seen = ones, 0", "acc, seen = 0, 0",
     "modsum's level combine adds the 1 to each row"),
    ("instances.py", "[s % MODULUS for s in", "[s for s in",
     "modsum's level combine reduces by the modulus"),
    ("instances.py", "_HIGH = (1 << 8 * _LANE) - (1 << 20)", "_HIGH = (1 << 8 * _LANE) - (1 << 21)",
     "modsum's level combine takes an answer of 2**20 row by row"),
    ("instances.py", "            seen |= lanes\n", "",
     "modsum's level combine checks every column's answers against its lanes"),
    ("instances.py", "_WIDEST = 90", "_WIDEST = 91",
     "modsum's level combine takes 91 columns row by row"),
    ("instances.py", "except (OverflowError, TypeError):", "except OverflowError:",
     "modsum's level combine takes an answer that is no int row by row"),
    ("instances.py", "        seen = ~0", "        pass",
     "modsum's level combine takes a block with a negative answer row by row"),
    ("instances.py", "columns = list(map(tuple, columns))", "columns = list(columns)",
     "modsum's row path reads iterator columns again"),
    ("instances.py", "_ORDER = sys.byteorder", '_ORDER = "big"',
     "modsum's level combine packs and unpacks its lanes in the array's own byte order"),
    ("solver.py", "    if n < 0:\n        raise EmptyInput(\"cannot solve", "    if n < -1:\n        raise EmptyInput(\"cannot solve",
     "an empty input is refused before any evaluator runs"),
    # the library's other two refusals of an impossible length
    ("solver.py", _COST_CHECK, "",
     "predicted_cost refuses a negative index, an empty input, with EmptyInput"),
    ("solver.py", _COST_CHECK, _COST_CHECK.replace("n < 0", "n < -1"),
     "predicted_cost refuses index -1, not only the indices below it"),
    ("solver.py", _COST_CHECK, _COST_CHECK.replace("n < 0", "n <= 0"),
     "predicted_cost answers index 0, one element"),
    ("solver.py", f"{_COST_CHECK}    m = n + 1\n{_TD_COST}", f"    m = n + 1\n{_TD_COST}{_COST_CHECK}",
     "predicted_cost refuses a negative index before td's counts, not only before bu's"),
    ("instances.py", _EXAMPLE_CHECK, "",
     "example_input refuses a negative length"),
    ("instances.py", _EXAMPLE_CHECK, _EXAMPLE_CHECK.replace("length < 0", "length < -1"),
     "example_input refuses length -1, not only the lengths below it"),
    ("instances.py", _EXAMPLE_CHECK, _EXAMPLE_CHECK.replace("length < 0", "length <= 0"),
     "example_input builds the empty input at length 0"),
    ("instances.py", _EXAMPLE_CHECK + _INTS_EXAMPLE, _INTS_EXAMPLE + _EXAMPLE_CHECK,
     "example_input refuses a negative length for ints too, not only for letters"),
    ("instances.py", "    if length > len(ascii_lowercase):", "    if length >= len(ascii_lowercase):",
     "example_input builds all 26 letters"),
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
    # run and verify each build one document, which JSON prints and the text form renders; held
    # by the corpus records and the CLI tests
    ("cli.py", "    if len(results) == 2:\n", "    if len(results) > 2:\n",
     "run --algo both gives a verdict"),
    ("cli.py", 'results["td"]["value"] == results["bu"]["value"]', 'results["td"]["value"] != results["bu"]["value"]',
     "the verdict is EQUAL when td and bu agree"),
    ("cli.py", '    return 1 if doc.get("verdict") == "DIFFER" else 0\n', "    return 0\n",
     "run exits 1 when td and bu differ"),
    ("cli.py", '        if "verdict" in doc:\n            print(f"verdict: {doc[\'verdict\']}")\n', "",
     "run's text form prints the verdict"),
    ("cli.py", '    return 0 if doc["status"] == "ok" else 1\n', "    return 0\n",
     "verify exits 1 on a counterexample"),
    ("cli.py", '    elif doc["status"] == "fail":\n', '    elif doc["status"] == "ok":\n',
     "verify's text form prints the counterexample when a law fails"),
    ("cli.py", '"total_cases": sum(count for _, count in results)', '"total_cases": len(results)',
     "verify totals the cases of every law, not the laws"),
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
