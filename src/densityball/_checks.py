"""The package's one rule for numbers.

The scalar checks take Python ints and floats and numpy scalars, and refuse a
bool, a non-number, NaN, an infinity and an int beyond the float range with
one ``ValueError`` that names the argument; such an int is too long to
repeat, and any other value is shown shortened.  ``reals`` applies the rule
to a sequence's entries, leaving NaN, infinities and ranges to the caller.
"""

from __future__ import annotations

import math
import reprlib

import numpy as np


def whole(value, what: str, low: int | None = None) -> int:
    """``value`` as an int if it is a whole number, at least ``low`` when given: ``3`` and ``3.0`` pass."""
    try:
        if not isinstance(value, (bool, np.bool_)) and math.isfinite(value) and value == (number := int(value)):
            if low is None or number >= low:
                return number
            raise ValueError(f"{what} must be >= {low}, got {reprlib.repr(number)}")
    except OverflowError:
        raise ValueError(f"{what} must be a finite whole number, got an int beyond the float range") from None
    except TypeError:  # not a number: refused below
        pass
    raise ValueError(f"{what} must be a finite whole number, got {reprlib.repr(value)}")


def real(value, what: str) -> float:
    """``value`` as a float if it is a finite real number."""
    try:
        if not isinstance(value, (bool, np.bool_)) and math.isfinite(value):
            return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be finite, got an int beyond the float range") from None
    except TypeError:  # not a number: refused below
        pass
    raise ValueError(f"{what} must be finite and real, got {reprlib.repr(value)}")


def reals(values, what: str) -> np.ndarray:
    """``values`` as a new float array if its entries are numbers: a bool or a string among them is refused."""
    entries = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    kind = entries.dtype.kind
    if kind in "iuf" or kind == "O" and not any(isinstance(v, (bool, np.bool_, str, bytes)) for v in entries.flat):
        try:
            return np.array(values, dtype=float)
        except OverflowError:
            raise ValueError(f"{what} must be finite, got an int beyond the float range") from None
        except TypeError:  # not a number: refused below
            pass
    raise ValueError(f"{what} must be real numbers, got {reprlib.repr(values)}")
