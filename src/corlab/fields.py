"""Field rules of the config dataclasses, each stated once.  A check raises
`ValueError` naming the field and coerces nothing: a bool is not an integer
or real, 3.0 is not an integer, a string is neither; numpy scalars pass.
Each call states its bound (None for none); cross-field rules stay in configs."""

import math
import numbers
from sys import float_info


def integer(name: str, v, lo: int | None) -> None:
    """An integer, not a bool, and >= `lo` unless `lo` is None."""
    if (isinstance(v, bool) or not isinstance(v, numbers.Integral)
            or (lo is not None and v < lo)):
        bound = "" if lo is None else f" >= {lo}"
        raise ValueError(f"{name} must be an integer{bound}, got {v!r}")


def real(name: str, v, lo: float | None, strict: bool) -> None:
    """A real finite in float64, not a bool; > or >= `lo` (`strict`) unless None."""
    finite = isinstance(v, numbers.Real) and not isinstance(v, bool) and (
        abs(v) <= float_info.max if isinstance(v, numbers.Integral) else math.isfinite(v))
    if not finite or (lo is not None and (v <= lo if strict else v < lo)):
        bound = "" if lo is None else f" {'>' if strict else '>='} {lo}"
        raise ValueError(f"{name} must be a finite number{bound}, got {v!r}")


def choice(name: str, v, options: tuple) -> None:
    if v not in options:
        raise ValueError(f"{name} must be one of {options}, got {v!r}")


def channels(name: str, chans, dim: int | None) -> tuple:
    """Distinct integers, each in [0, dim) unless `dim` is None, as a tuple."""
    chans = tuple(chans)
    bad = [c for c in chans if isinstance(c, bool) or not isinstance(c, numbers.Integral)
           or (dim is not None and not 0 <= c < dim)]
    if bad or len(set(chans)) != len(chans):
        where = "" if dim is None else f" in [0, {dim})"
        raise ValueError(f"{name} {list(chans)} must be distinct integers{where}")
    return chans
