"""The field rule every config dataclass applies first, read by `check_fields`
from the annotations: an `int` is an int, not a bool, and at least 1 unless
the field is a `seed`; an `Optional[int]` also takes None; a `float` is a
finite int or float, not a bool; a `bool` is a bool and a `str` a str."""

from __future__ import annotations

import dataclasses
import math

__all__ = ["ConfigError", "is_int", "is_real", "check_fields"]


class ConfigError(ValueError):
    """Invalid configuration."""


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # a JSON `true` is no count


def is_real(value) -> bool:
    return is_int(value) or isinstance(value, float) and math.isfinite(value)


# annotation -> (test, what a value must be); other fields and bounds are the class's own
_RULES = {"int": (is_int, "an integer"), "Optional[int]": (lambda v: v is None or is_int(v), "an integer or null"),
          "float": (is_real, "a finite number"), "bool": (lambda v: isinstance(v, bool), "true or false"),
          "str": (lambda v: isinstance(v, str), "a string")}


def check_fields(obj) -> None:
    """Raise ConfigError naming the first field of dataclass `obj` that breaks the rule."""
    for f in dataclasses.fields(obj):
        test, what = _RULES.get(f.type, (None, None))
        value = getattr(obj, f.name)
        if test is not None and not test(value):
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        if f.type in ("int", "Optional[int]") and f.name != "seed" and value is not None and value < 1:
            raise ConfigError(f"{f.name} must be >= 1, got {value!r}")
