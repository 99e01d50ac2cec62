"""Immediate-sublist recurrences, solved two ways.

A recurrence that answers a sequence by combining the answers of all its
immediate sublists (each obtained by deleting one element) can be
evaluated naively top-down, recomputing shared subproblems, or bottom-up
along a binomial tree of levels, solving each distinct subsequence once.
This package provides both evaluators, the tree machinery the bottom-up
one is built from, and executable laws showing they agree.
"""

from __future__ import annotations

from .combinatorics import ch, check_shape, choose, subs
from .core_tree import (
    BinomialTree,
    Node,
    Tip,
    encode_tree,
    map_tree,
    tips,
    un_tip,
    zip_tree_with,
)
from .errors import (
    EmptyInput,
    LengthMismatch,
    MalformedLevel,
    NotATip,
    OutOfRange,
    ShapeMismatch,
    SublistsError,
)
from .instances import (
    MAXMIN,
    MODSUM,
    MODULUS,
    TRACE,
    builtin_problems,
    example_input,
    get_problem,
    parse_input,
)
from .level_engine import up, upgrade_oracle
from .solver import (
    Algorithm,
    RunStats,
    SublistProblem,
    bu,
    run_with_stats,
    solve,
    td,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "BinomialTree",
    "EmptyInput",
    "LengthMismatch",
    "MAXMIN",
    "MODSUM",
    "MODULUS",
    "MalformedLevel",
    "Node",
    "NotATip",
    "OutOfRange",
    "RunStats",
    "ShapeMismatch",
    "SublistProblem",
    "SublistsError",
    "TRACE",
    "Tip",
    "bu",
    "builtin_problems",
    "ch",
    "check_shape",
    "choose",
    "encode_tree",
    "example_input",
    "get_problem",
    "map_tree",
    "parse_input",
    "run_with_stats",
    "solve",
    "subs",
    "td",
    "tips",
    "un_tip",
    "up",
    "upgrade_oracle",
    "zip_tree_with",
]
