"""Parameter converters: each validates one value of a state file, a flag or
a config file, names its key and raises ValidationError for a bad value."""

from __future__ import annotations

import cmath
import math
import numbers

from .errors import ValidationError


def _real(v, key: str) -> float:
    try:
        x = float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool) else math.nan
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{key!r} must be a finite real number, got {v!r}")
    return x


def _integer(v, key: str, minimum: int = 0) -> int:
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < minimum:
        raise ValidationError(f"{key!r} must be an integer >= {minimum}, got {v!r}")
    return int(v)


def parse_cutoff(v) -> int | None:
    """A pinned Fock cutoff (state file, flag or config value): None or an integer >= 2."""
    return None if v is None else _integer(v, "cutoff", minimum=2)


def _complex(v, key: str) -> complex:
    """A number or an [re, im] pair."""
    try:
        if isinstance(v, (list, tuple)) and len(v) == 2:
            return complex(_real(v[0], key), _real(v[1], key))
        if isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real) \
                and cmath.isfinite(v):
            return complex(v)
        return complex(_real(v, key))
    except ValidationError:
        raise ValidationError(
            f"{key!r} must be a finite number or an [re, im] pair, got {v!r}") from None


def _items(v, key: str, convert) -> list:
    if not isinstance(v, (list, tuple)):
        raise ValidationError(f"{key!r} must be a list, got {v!r}")
    return [convert(x, key) for x in v]
