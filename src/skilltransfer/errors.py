"""Package-level error types and the valid range of every numeric parameter.

The error types map onto the CLI exit codes: configuration problems exit
with 2, data validation failures with 3, and anything unexpected with 4.

:data:`BOUNDS` holds each bounded parameter's range once, keyed by field
name, and its kind: an integer for an integer's range, a number for any
other. :func:`checked` is the one rule for a value: the config reader
reports what it rejects as a violation line, and every config section
(``ExperimentConfig`` and ``ProfilesConfig`` too) and library function
raises ``ValueError`` with the same text, a number's as a float's:
``LearnConfig(smoothing=10**400)`` says ``smoothing: inf outside [...]``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import fields

from .behavior_data import CONTEXT_FIELDS, MAX_DOMAIN


class ConfigError(Exception):
    """A configuration document or profile definition is unusable.

    ``violations`` holds one human-readable line per offending field,
    each prefixed with the field's path inside the document.
    """

    def __init__(self, violations: list[str] | str):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DataValidationError(Exception):
    """A trace file is malformed; raised when a command reads one."""


#: What reading a malformed profile or trace document raises; ``json.loads``
#: raises ``RecursionError`` on nesting deeper than the interpreter's stack.
MALFORMED_DOCUMENT = (KeyError, TypeError, ValueError, AttributeError, OverflowError,
                      RecursionError)


def json_number(value: object, what: str, integer: bool = False) -> int | float:
    """``value``, a JSON number but never a bool; ``what`` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{what}: expected {kind}, got {value!r}")
    return value


def json_strings(value: object, what: str) -> tuple[str, ...]:
    """``value``, a JSON list of strings, as a tuple; ``what`` names it in the error."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what}: expected a list of strings, got {value!r}")
    return tuple(value)


#: Largest smoothing whose CPT rows still sum to a finite value: a row
#: holds at most one cell per value of the widest domain a ``DataSet``
#: accepts, each cell the smoothing plus a count, so half the float range
#: per cell is safe.
MAX_SMOOTHING = sys.float_info.max / (2 * MAX_DOMAIN)
#: Smallest smoothing whose CPT entries are all positive: an entry is at
#: least the smoothing over its row total, and 2**-1022 over a total below
#: 2**53, where counts are exact, rounds to at least the least subnormal.
MIN_SMOOTHING = sys.float_info.min

Bound = int | tuple[int, int] | tuple[float, float, bool, bool]

#: Numeric ranges by field name, which is unique across config sections: an
#: integer's minimum or ``(minimum, maximum)``, or a number's
#: ``(low, high, low_open, high_open)``.
BOUNDS: dict[str, Bound] = {
    "seed": 0,
    # One 8-byte uniform a tick: to 10**18 ticks numpy's byte count fits int64 and
    # it raises MemoryError, which the CLI reports; from 2**60 ticks on, ValueError.
    "ticks_per_session": (0, 10**18),
    **{f: (0.0, 1.0, False, False) for f in CONTEXT_FIELDS},
    "linkage_strength": (0.0, 1.0, True, False),
    "window": 1,
    "split_ratio": (0.0, 1.0, True, True),
    "max_parents": 1,
    "smoothing": (MIN_SMOOTHING, MAX_SMOOTHING, False, False),
    # One restart holds about 15 KB of search state and takes about 0.35 ms
    # at 40 ticks; 10**4 restarts peak near 235 MB and 3.5 s, 10**5 near 1.6 GB.
    "restarts": (0, 10**4),
    "learning_rate": (0.0, 1.0, True, False),
    "stop_threshold": (0.5, 1.0, False, True),
    "max_iterations": 1,
}


def is_integer(bound: Bound) -> bool:
    """Whether ``bound`` is an integer's: a minimum or a ``(minimum, maximum)`` pair."""
    return isinstance(bound, int) or len(bound) == 2


def range_violation(bound: Bound, value: float) -> str | None:
    """Why ``value`` lies outside ``bound``, or None when it lies inside.

    ``bound`` is in the encoding of :data:`BOUNDS`. NaN lies outside every
    range.
    """
    if is_integer(bound):
        low, high = (bound, math.inf) if isinstance(bound, int) else bound
        if not value >= low:
            return f"{value} is below the minimum {low}"
        return None if value <= high else f"{value} is above the maximum {high}"
    low, high, low_open, high_open = bound
    low_ok = value > low if low_open else value >= low
    high_ok = value < high if high_open else value <= high
    if low_ok and high_ok:
        return None
    left = "(" if low_open else "["
    right = ")" if high_open else "]"
    return f"{value} outside {left}{low}, {high}{right}"


def checked(bound: Bound | None, value: object) -> tuple[object, str | None]:
    """``value`` as a field of ``bound`` holds it, and why it may not, or None when it may.

    No bound holds a string, an integer's bound an integer and any other
    bound a number, never a bool; a numpy scalar is the kind it stands for.
    A number is held as a float, an integer beyond the float range as an infinity.
    """
    if bound is None:
        kind, types = "a string", str
    elif is_integer(bound):
        kind, types = "an integer", numbers.Integral
    else:
        kind, types = "a number", numbers.Real
    if isinstance(value, bool) or not isinstance(value, types):
        return value, f"expected {kind}, got {value!r}"
    if types is numbers.Real:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
    return value, None if bound is None else range_violation(bound, value)


def check_range(name: str, value: float, bound: str | Bound | None = None) -> None:
    """Raise ``ValueError`` naming ``name`` when ``value`` is outside ``bound`` or not of its kind.

    ``bound`` defaults to the :data:`BOUNDS` entry of ``name``; a string
    names another entry.
    """
    if bound is None or isinstance(bound, str):
        bound = BOUNDS[name if bound is None else bound]
    violation = checked(bound, value)[1]
    if violation is not None:
        raise ValueError(f"{name}: {violation}")


def check_fields(instance) -> None:
    """Check every field of a dataclass instance that :data:`BOUNDS` names."""
    for f in fields(instance):
        if f.name in BOUNDS:
            check_range(f.name, getattr(instance, f.name))
