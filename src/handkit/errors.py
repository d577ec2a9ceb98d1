"""The one error family of handkit (a ``ValueError``); each member carries
its CLI exit code.  ``as_array`` and ``as_number`` check every value where it
enters, in this order: not numeric, not finite or out of range raise
``InputError``; a wrong shape raises ``ShapeError``.
"""

import math
import numbers
import operator

import numpy as np

EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4


class HandkitError(ValueError):
    exit_code = EXIT_PARSE


class InputError(HandkitError):
    """A malformed file or argument."""


class ShapeError(HandkitError):
    """A shape or consistency mismatch."""

    exit_code = EXIT_SHAPE


class NumericError(HandkitError):
    """Degenerate geometry or numerical divergence."""

    exit_code = EXIT_NUMERIC


def as_array(value, shape, what: str) -> np.ndarray:
    """``value`` as a finite float array, not copied if it is one.  ``shape``
    is ``None`` (any), an int (any layout of that many values, returned flat)
    or a tuple; ``None`` entries match any extent, a leading ``...`` any
    number of leading axes."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:   # ragged nesting
        raise InputError(f"{what} is not a numeric array ({exc})") from exc
    if arr.dtype.kind not in "biuf":
        raise InputError(f"{what} is not numeric (dtype {arr.dtype})")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise InputError(f"{what} must be finite")
    if isinstance(shape, int):
        arr, shape = arr.reshape(-1), (shape,)
    if shape is not None:
        lead = shape[:1] == (...,)
        want = shape[lead:]
        got = arr.shape[arr.ndim - len(want):] if lead else arr.shape
        if len(got) != len(want) or any(n not in (None, m) for n, m in zip(want, got)):
            raise ShapeError(f"{what} must have shape {shape}, got {arr.shape}"
                             .replace("Ellipsis", "..."))
    return arr


def as_number(value, what: str, low=None, high=None, *, above=None,
              integer: bool = False):
    """``value`` as a finite float, or an int when ``integer`` (by
    ``operator.index``: 2.5 and "3" are refused), in ``[low, high]`` and
    greater than ``above``; a bound left at ``None`` is open."""
    if integer:
        try:
            number = operator.index(value)
        except TypeError:
            raise InputError(f"{what} must be an integer, got {value!r}") from None
    elif isinstance(value, (float, int, numbers.Real)):   # the ABC check is slow
        number = float(value)
        if not math.isfinite(number):
            raise InputError(f"{what} must be finite, got {number}")
    else:
        raise InputError(f"{what} must be a number, got {value!r}")
    if low is not None and number < low:
        raise InputError(f"{what} must be >= {low}, got {number}")
    if above is not None and number <= above:
        raise InputError(f"{what} must be > {above}, got {number}")
    if high is not None and number > high:
        raise InputError(f"{what} must be <= {high}, got {number}")
    return number
