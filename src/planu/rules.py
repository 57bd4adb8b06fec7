"""Value checks shared by the planner's parameters and the config schema.

A Rule pairs a predicate with the phrase that says what it accepts, so an
error message and the check it reports on can never drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def is_finite_num(x) -> bool:
    """An int or float that converts to a finite float: not ±inf or NaN,
    nor an int too large for a float."""
    try:
        return (is_int(x) or isinstance(x, float)) and math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Rule:
    check: Callable[[object], bool]
    describe: str


def at_least(lo: int) -> Rule:
    return Rule(lambda x: is_int(x) and x >= lo, f"integer >= {lo}")


def real(lo: float, hi: float | None = None, lo_open: bool = False) -> Rule:
    def check(x):
        return is_finite_num(x) and (x > lo if lo_open else x >= lo) and (hi is None or x <= hi)

    if hi is None:
        return Rule(check, f"finite real {'>' if lo_open else '>='} {lo:g}")
    return Rule(check, f"finite real in {'(' if lo_open else '['}{lo:g}, {hi:g}]")


def one_of(options) -> Rule:
    options = tuple(options)
    return Rule(lambda x: x in options, f"one of {options}")
