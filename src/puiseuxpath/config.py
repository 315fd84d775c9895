"""Tunable limits, overridable through environment variables.

PUISEUXPATH_DEGREE_CAP   per-variable degree cap during exact elimination
"""

import os

from .errors import InputError

# The largest cap whose resultant steps ``elimination.MPoly``'s 64-bit
# exponent fields provably hold (the bound is derived in its docstring).
MAX_DEGREE_CAP = 2**20


def degree_cap() -> int:
    """Per-variable degree cap for exact coordinate elimination."""
    raw = os.environ.get("PUISEUXPATH_DEGREE_CAP")
    if raw is None:
        return 64
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise InputError(
            f"PUISEUXPATH_DEGREE_CAP must be a positive integer, got {raw!r}"
        )
    if value > MAX_DEGREE_CAP:
        raise InputError(
            f"PUISEUXPATH_DEGREE_CAP must be at most {MAX_DEGREE_CAP}, got {raw!r}"
        )
    return value
