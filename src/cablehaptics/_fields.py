"""Field checks for the package's frozen dataclasses. Each validates one
value, raises a ValueError that names it, and returns it in its one stored
form: a Python float or int, whatever numeric type was passed, or a
read-only float 3-vector. It imports nothing from the package, so every
module can use it."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

# A vector checked with unit=True may miss norm 1 by at most this much.
UNIT_NORM_TOL = 1e-9

# The size (N) no force, tension or sphere radius may reach (force3,
# magnitude). Below it no sum of squares the package forms overflows: a
# residual component on m cables is at most (m + 1) times it.
MAX_MAGNITUDE = 1e100

_FLOAT = np.dtype(float)


def _vec3(v, limit: float) -> tuple[np.ndarray, bool]:
    """Validate v as a finite 3-vector and return it as a float array, and
    whether every component lies strictly within -limit and limit; only a
    vector outside that is tested for finiteness. A vector of floats,
    integers or bools converts; a complex or non-numeric one raises
    ValueError, so no imaginary part is dropped."""
    arr = np.asarray(v)
    # a float64 array, the usual case, is told by identity alone
    if arr.dtype is not _FLOAT:
        if arr.dtype.kind not in "fiub":
            raise ValueError(f"expected a finite 3-vector, got {v!r}")
        arr = arr.astype(float)
    if arr.shape == (3,):
        x, y, z = arr.tolist()
        if -limit < x < limit and -limit < y < limit and -limit < z < limit:
            return arr, True
        if math.isfinite(x) and math.isfinite(y) and math.isfinite(z):
            return arr, False
    raise ValueError(f"expected a finite 3-vector, got {v!r}")


def as_vec3(v) -> np.ndarray:
    """Validate v as a finite 3-vector and return it as a float array."""
    return _vec3(v, math.inf)[0]


def force3(v, name: str) -> np.ndarray:
    """as_vec3(v), if every component lies below MAX_MAGNITUDE in size."""
    arr, within = _vec3(v, MAX_MAGNITUDE)
    if not within:
        raise _too_large(name, v)
    return arr


def magnitude(value, name: str, minimum: float | None = None, *, strict: bool = False) -> float:
    """real(value, name, minimum, strict=strict), if it lies below
    MAX_MAGNITUDE in size."""
    value = real(value, name, minimum, strict=strict)
    if not -MAX_MAGNITUDE < value < MAX_MAGNITUDE:
        raise _too_large(name, value)
    return value


def _too_large(name: str, value) -> ValueError:
    """The error refusing name's value, of MAX_MAGNITUDE or more in size."""
    return ValueError(f"{name} must be below {MAX_MAGNITUDE:g} N in size, got {value!r}")


def real(value, name: str, minimum: float | None = None, *, strict: bool = False) -> float:
    """value as a float, if it is a finite real number of at least minimum
    (above it when strict). Strings and bools are not numbers here."""
    try:
        finite = (
            isinstance(value, numbers.Real)
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    value = float(value)
    if minimum is not None and (value <= minimum if strict else value < minimum):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {minimum}, got {value!r}")
    return value


def integer(value, name: str, minimum: int) -> int:
    """value as an int, if it is an integer of at least minimum;
    operator.index decides what counts as one, so 2.0 and "2" do not, and
    neither does a bool."""
    try:
        checked = operator.index(value)
    except TypeError:
        checked = None
    if checked is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if checked < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {checked!r}")
    return checked


def vec3(value, name: str, *, unit: bool = False) -> np.ndarray:
    """A read-only float copy of value, if it is a finite 3-vector, and with
    unit=True one of norm 1 within UNIT_NORM_TOL."""
    try:
        arr = as_vec3(value).copy()
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a finite 3-vector, got {value!r}") from None
    if unit and abs(np.linalg.norm(arr) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{name} must be a unit vector, got norm {np.linalg.norm(arr)}")
    arr.setflags(write=False)
    return arr


def set_checked(owner, check, *names: str, **limits) -> None:
    """Run check(value, name, **limits) on each named field of the frozen
    dataclass owner and store what it returns in the field."""
    for name in names:
        object.__setattr__(owner, name, check(getattr(owner, name), name, **limits))
