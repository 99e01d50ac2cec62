"""Built-in problems and the parsing of their inputs.

Three problems ship with the package. Each is specified by its one-line
``base`` and ``combine``; the code below computes the same values.

* ``trace``: ``base(x) = str(x)``, ``combine(ys) = "(" + "".join(ys) + ")"``.
  Answers are parenthesized strings recording exactly how the recurrence
  combined things, so any reordering or dropped branch changes the output.
  The canary for evaluation order.
* ``modsum``: ``base(x) = x % MODULUS``,
  ``combine(ys) = (1 + sum(i * y for i, y in enumerate(ys, 1))) % MODULUS``.
  Order-sensitive modular arithmetic: each combined value is weighted by its
  1-based position before summing.
* ``maxmin``: ``base(x) = x``, ``combine(ys) = max(ys) - min(ys)``.
  Order-insensitive on purpose, as a control.
"""

from __future__ import annotations

from itertools import repeat
from operator import mul
from string import ascii_lowercase
from typing import Iterable

from .solver import SublistProblem

MODULUS = 1_000_003


def _trace_combine(ys: list[str]) -> str:
    return "".join(["(", *ys, ")"])


def trace_answer_length(m: int) -> int:
    """Characters in the ``trace`` answer on m elements: L(1) = 1, L(m) = m * L(m - 1) + 2."""
    return 1 if m <= 1 else m * trace_answer_length(m - 1) + 2


def _modsum_base(x: int) -> int:
    return x % MODULUS


def _modsum_combine(ys: list[int]) -> int:
    # td calls this c(n) times, at 8 elements 93% of them on its four-element clause's pairs and
    # triples, so those are written out; longer lists take a loop, cheaper than a sum over a
    # map: the suffix sums s, added up, weight each y by its 1-based position
    n = len(ys)
    if n == 2:
        a, b = ys
        return (1 + a + 2 * b) % MODULUS
    if n == 3:
        a, b, c = ys
        return (1 + a + 2 * b + 3 * c) % MODULUS
    s = t = 0
    for y in reversed(ys):
        s += y
        t += s
    return (1 + t) % MODULUS


def _modsum_combine_level(columns: list[Iterable[int]]) -> list[int]:
    # column i holds every row's i-th answer: weight the columns lazily and let sum, started
    # at 1, add up each row in C; the answers are the only list as long as a column
    weighted = [map(mul, col, repeat(i)) for i, col in enumerate(columns[1:], start=2)]
    return [s % MODULUS for s in map(sum, zip(columns[0], *weighted), repeat(1))]


def _maxmin_base(x: int) -> int:
    return x


def _maxmin_combine(ys: list[int]) -> int:
    # td calls this c(n) times, mostly on pairs, which are written out; longer lists take one
    # pass of comparisons, which costs less per call than the builtins max and min
    if len(ys) == 2:
        a, b = ys
        return abs(a - b)
    lo = hi = ys[0]
    for y in ys:
        if y < lo:
            lo = y
        elif y > hi:
            hi = y
    return hi - lo


TRACE = SublistProblem("trace", str, _trace_combine, input_kind="chars")
MODSUM = SublistProblem(
    "modsum", _modsum_base, _modsum_combine, input_kind="ints", combine_level=_modsum_combine_level
)
MAXMIN = SublistProblem("maxmin", _maxmin_base, _maxmin_combine, input_kind="ints")


def builtin_problems() -> list[SublistProblem]:
    """The registered problems, in registry order."""
    return [TRACE, MODSUM, MAXMIN]


def get_problem(name: str) -> SublistProblem | None:
    """Look a problem up by name; None when nothing is registered."""
    for problem in builtin_problems():
        if problem.name == name:
            return problem
    return None


def parse_input(problem: SublistProblem, text: str):
    """Turn CLI --input text into the problem's input sequence."""
    if problem.input_kind == "ints":
        if text.strip() == "":
            return []
        try:
            return [int(tok) for tok in text.split(",")]
        except ValueError:
            raise ValueError(f"expected comma-separated integers, got {text!r}") from None
    return text


def example_input(problem: SublistProblem, length: int):
    """A distinct-symbol input of the given length, for sweeps."""
    if length < 0:
        raise ValueError(f"cannot build an example input of length {length}")
    if problem.input_kind == "ints":
        return list(range(1, length + 1))
    if length > len(ascii_lowercase):
        raise ValueError(f"cannot build a {length}-letter example input")
    return ascii_lowercase[:length]
