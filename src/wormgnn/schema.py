"""Field types of the config dataclasses, checked against their own annotations."""

from __future__ import annotations

import dataclasses
import typing
from enum import Enum

import numpy as np


def check_field_types(config) -> None:
    """Check every field of the dataclass instance ``config`` against its
    annotation; numpy integers become ints and enum values their members.

    An int field takes an int or a numpy integer, not a bool, float or str; a
    float field takes a float or one of those integers; a bool field only a
    bool; an enum field its members and their values; an ``X | None`` field
    also None.  Anything else raises a ValueError naming the class and the
    field.
    """
    cls = type(config)
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        value = getattr(config, field.name)
        kinds = typing.get_args(hints[field.name]) or (hints[field.name],)
        if value is None and type(None) in kinds:
            continue
        kind = kinds[0]
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if kind is int and integer:
            setattr(config, field.name, int(value))
        elif (kind is float and (integer or isinstance(value, (float, np.floating)))) or (
                kind is bool and isinstance(value, bool)):
            pass
        elif isinstance(kind, type) and issubclass(kind, Enum) and any(
                value is member or value == member.value for member in kind):
            setattr(config, field.name, kind(value))
        else:
            expected = ({int: "an integer", float: "a number", bool: "true or false"}.get(kind)
                        or f"one of {[member.value for member in kind]}")
            none = " or null" if type(None) in kinds else ""
            raise ValueError(f"{cls.__name__}: {field.name} must be {expected}{none}, got {value!r}")
