"""The checks every value a caller hands the package takes where it
enters. Each validates one value, raises a ValueError that names it, and
returns it in its one stored form: a Python float or int, whatever numeric
type was passed, or a float 3-vector, below MAX_MAGNITUDE in size (all but
as_vec3). It imports nothing from the package, so every module can use it."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

# A vector checked with unit=True may miss norm 1 by at most this much.
UNIT_NORM_TOL = 1e-9

# The size no force (N), tension, radius, tolerance, angle, material
# parameter, position (m), velocity, time, count or seed may reach (real,
# integer, force3, vec3).
# Below it no sum of squares the package forms overflows: a residual
# component on m cables is at most (m + 1) times it, and a material force,
# a parameter times a position, velocity or time, stays finite. A count
# below it converts to a float, as a noisy hold's sqrt(ticks) does.
MAX_MAGNITUDE = 1e100

_FLOAT = np.dtype(float)

# An int of more bits than this, about 120 digits, is shown in an error
# message by its digit count: Python prints no int of more than 4300
# digits (sys.get_int_max_str_digits), and a longer one reads no better.
_SHOWN_BITS = 400


def shown(value) -> str:
    """repr(value) for an error message, bounded: an int of more than
    _SHOWN_BITS bits shows as its digit count, read from its bit length,
    a list, tuple or array whose repr Python refuses, for an int it holds,
    as the list of its entries so shown, and any other such value by its
    type."""
    if isinstance(value, int) and value.bit_length() > _SHOWN_BITS:
        return f"<int of about {int(value.bit_length() * math.log10(2)) + 1} digits>"
    try:
        return repr(value)
    except ValueError:  # it holds an int too long to print
        if isinstance(value, (list, tuple, np.ndarray)):
            return f"[{', '.join(map(shown, value))}]"
        return f"<{type(value).__name__} too long to print>"


def _vec3(v, name: str, limit: float) -> tuple[np.ndarray, bool]:
    """Validate v, the value of the field name, as a finite 3-vector and
    return it as a float array, and whether every component lies strictly
    within -limit and limit; only a vector outside that is tested for
    finiteness. A vector of floats, integers or bools converts; a complex,
    non-numeric or ragged one raises ValueError naming the field, so no
    imaginary part is dropped."""
    try:
        arr = np.asarray(v)
    except (TypeError, ValueError):  # a ragged sequence, for one
        raise _not_vec3(name, v) from None
    # a float64 array, the usual case, is told by identity alone
    if arr.dtype is not _FLOAT:
        if arr.dtype.kind not in "fiub":
            raise _not_vec3(name, v)
        arr = arr.astype(float)
    if arr.shape == (3,):
        x, y, z = arr.tolist()
        if -limit < x < limit and -limit < y < limit and -limit < z < limit:
            return arr, True
        if math.isfinite(x) and math.isfinite(y) and math.isfinite(z):
            return arr, False
    raise _not_vec3(name, v)


def as_vec3(v, name: str) -> np.ndarray:
    """Validate v, the value of the field name, as a finite 3-vector and
    return it as a float array. It has no size limit, so it checks only
    vectors the package derives, such as a plant's measurement: from inputs
    just below MAX_MAGNITUDE a noisy plant measures about 1.4e100, finite
    but beyond the limit."""
    return _vec3(v, name, math.inf)[0]


def force3(v, name: str) -> np.ndarray:
    """as_vec3(v, name), if every component lies below MAX_MAGNITUDE in
    size."""
    arr, within = _vec3(v, name, MAX_MAGNITUDE)
    if not within:
        raise _too_large(name, v)
    return arr


def _not_vec3(name: str, value) -> ValueError:
    """The error refusing name's value, which is no finite 3-vector."""
    return ValueError(f"{name} must be a finite 3-vector, got {shown(value)}")


def _too_large(name: str, value) -> ValueError:
    """The error refusing name's value, of MAX_MAGNITUDE or more in size."""
    return ValueError(f"{name} must be below {MAX_MAGNITUDE:g} in size, got {shown(value)}")


def real(value, name: str, minimum: float | None = None, *, strict: bool = False) -> float:
    """value as a float, if it is a real number below MAX_MAGNITUDE in size
    and of at least minimum (above it when strict); not a string or bool."""
    try:
        finite = (
            isinstance(value, numbers.Real)
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite real number, got {shown(value)}")
    value = float(value)
    if minimum is not None and (value <= minimum if strict else value < minimum):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {minimum}, got {value!r}")
    if not -MAX_MAGNITUDE < value < MAX_MAGNITUDE:
        raise _too_large(name, value)
    return value


def integer(value, name: str, minimum: int) -> int:
    """value as an int, if it is an integer of at least minimum and below
    MAX_MAGNITUDE in size; operator.index decides what counts as one, so
    2.0 and "2" do not, and neither does a bool."""
    try:
        checked = operator.index(value)
    except TypeError:
        checked = None
    if checked is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if checked < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {shown(checked)}")
    if not -MAX_MAGNITUDE < checked < MAX_MAGNITUDE:
        raise _too_large(name, checked)
    return checked


def vec3(value, name: str, *, unit: bool = False) -> np.ndarray:
    """A read-only float copy of value, if it is a finite 3-vector below
    MAX_MAGNITUDE on every axis, and with unit=True one of norm 1 within
    UNIT_NORM_TOL."""
    arr, within = _vec3(value, name, MAX_MAGNITUDE)
    if not within:
        raise _too_large(name, value)
    arr = arr.copy()
    if unit and abs(np.linalg.norm(arr) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{name} must be a unit vector, got norm {np.linalg.norm(arr)}")
    arr.setflags(write=False)
    return arr


def set_checked(owner, check, *names: str, **limits) -> None:
    """Run check(value, name, **limits) on each named field of the frozen
    dataclass owner and store what it returns in the field."""
    for name in names:
        object.__setattr__(owner, name, check(getattr(owner, name), name, **limits))
