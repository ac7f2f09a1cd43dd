"""One rule for config values: ``check_value``, which the config dataclasses
apply to each field's annotation, the CLI to each top-level key's type and
``data.load_recording`` to a recording's header fields."""

from __future__ import annotations

import dataclasses
import math
import types
import typing

import numpy as np

EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
            list[str]: "a list of strings", dict: "an object"}


def check_value(owner: str, name: str, annotation, value):
    """``value``, checked against ``annotation``; a numpy integer comes back
    as an int and an enum value as its member.

    An int takes an int or a numpy integer, not a bool, float or str; a float
    those integers or a finite float, not NaN or ±inf; a bool, str or dict
    only its own kind; a ``list[str]`` a list of strings; an enum its members
    and their values; an ``X | None`` also None.  Anything else raises a
    ValueError naming ``owner`` and ``name``.
    """
    union = typing.get_origin(annotation) in (typing.Union, types.UnionType)
    kinds = typing.get_args(annotation) if union else (annotation,)
    kind = kinds[0]
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if kind is int and integer:
        return int(value)
    if ((value is None and type(None) in kinds)
            or (kind is float and (integer or isinstance(value, (float, np.floating)) and math.isfinite(value)))
            or (kind in (bool, str, dict) and isinstance(value, kind))
            or (kind == list[str] and isinstance(value, list) and all(isinstance(v, str) for v in value))):
        return value
    if kind not in EXPECTED:  # an enum
        for member in kind:
            if value is member or value == member.value:
                return member
    expected = EXPECTED.get(kind) or f"one of {[member.value for member in kind]}"
    none = " or null" if type(None) in kinds else ""
    raise ValueError(f"{owner}: {name} must be {expected}{none}, got {value!r}")


def check_field_types(config) -> None:
    """Check every field of the dataclass instance ``config`` against its
    annotation, keeping the value ``check_value`` returns."""
    hints = typing.get_type_hints(type(config))
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        setattr(config, field.name, check_value(type(config).__name__, field.name, hints[field.name], value))
