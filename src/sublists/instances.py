"""Built-in problems and the parsing of their inputs.

Three problems ship with the package:

* ``trace``: answers are parenthesized strings recording exactly how the
  recurrence combined things, so any reordering or dropped branch changes
  the output. The canary for evaluation order.
* ``modsum``: order-sensitive modular arithmetic; each combined value is
  weighted by its 1-based position before summing.
* ``maxmin``: max minus min, order-insensitive on purpose, as a control.
"""

from __future__ import annotations

from itertools import count, repeat
from operator import add, mul
from string import ascii_lowercase
from typing import Iterable

from .solver import SublistProblem

MODULUS = 1_000_003


def _trace_base(x) -> str:
    return str(x)


def _trace_combine(ys: list[str]) -> str:
    return "".join(["(", *ys, ")"])


def trace_answer_length(m: int) -> int:
    """Characters in the ``trace`` answer on m elements: L(1) = 1, L(m) = m * L(m - 1) + 2."""
    return 1 if m <= 1 else m * trace_answer_length(m - 1) + 2


def _modsum_base(x: int) -> int:
    return x % MODULUS


def _modsum_combine(ys: list[int]) -> int:
    # 1-based position weights keep this order-sensitive
    return (1 + sum(map(mul, ys, count(1)))) % MODULUS


def _modsum_combine_level(columns: list[Iterable[int]]) -> list[int]:
    # column i holds every row's i-th answer: weight the columns and add them up lazily,
    # so the answers are the only list built
    acc = iter(columns[0])
    for i, col in enumerate(columns[1:], start=2):
        acc = map(add, acc, map(mul, col, repeat(i)))
    return [(1 + a) % MODULUS for a in acc]


def _maxmin_base(x: int) -> int:
    return x


def _maxmin_combine(ys: list[int]) -> int:
    return max(ys) - min(ys)


TRACE = SublistProblem("trace", _trace_base, _trace_combine, input_kind="chars")
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
    """A distinct-symbol input of the given length, for sweeps and bench."""
    if problem.input_kind == "ints":
        return list(range(1, length + 1))
    if length > len(ascii_lowercase):
        raise ValueError(f"cannot build a {length}-letter example input")
    return ascii_lowercase[:length]
