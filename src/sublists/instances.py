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

import sys
from array import array
from string import ascii_lowercase
from typing import Iterable, Sequence

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


_ORDER = sys.byteorder  # a column's lanes in the array's own order, so packing copies bytes
_ONE = array("I", [1])  # one row's lane, holding the 1 of its sum
_LANE = _ONE.itemsize  # bytes in a lane
_HIGH = (1 << 8 * _LANE) - (1 << 20)  # a lane's bits from 2**20 up; every bu answer is below MODULUS < 2**20
_WIDEST = 90  # the most columns whose weights, 1 + 2 + ... + 90 = 4,095, keep (2**20 - 1) * 4,095 + 1 < 2**32


def _modsum_combine_level(columns: Sequence[Iterable[int]]) -> list[int]:
    # column i holds every row's i-th answer. Packed one row per 32-bit lane, a column is one int,
    # so the rows' sums take k + 1 whole-int multiply-adds in C, from the packed ones. A block with
    # more than 90 columns, or an answer outside [0, 2**20) or no int at all, could carry out of a
    # lane, so it goes row by row, by the definition; bu's own blocks never do
    columns = list(map(tuple, columns))
    rows = len(columns[0])
    ones = int.from_bytes(_ONE * rows, _ORDER)
    acc, seen = ones, 0
    try:
        for i, col in enumerate(columns, 1):
            lanes = int.from_bytes(array("I", col), _ORDER)
            acc += i * lanes
            seen |= lanes
    except (OverflowError, TypeError):  # a negative answer, one of 2**32 or more, or no int
        seen = ~0  # every lane out of range
    if len(columns) <= _WIDEST and not seen & ones * _HIGH:
        return [s % MODULUS for s in array("I", acc.to_bytes(rows * _LANE, _ORDER))]
    return list(map(_modsum_combine, zip(*columns)))


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
