"""One strict JSON codec for the dataclasses masim writes to disk.

encode() walks dataclass fields: nested dataclasses become objects, tuples
become lists and complex numbers [re, im] pairs. decode() rebuilds a
dataclass from the field type hints. It requires every field, rejects
unknown ones and type-checks each leaf, so malformed input ends in a
ConfigError that names the offending field instead of a TypeError deep
inside a constructor.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing


class ConfigError(ValueError):
    """A scenario config, PSI file, or campaign manifest failed validation."""


def encode(obj):
    """Plain JSON value of a dataclass, tuple, complex number or scalar."""
    if dataclasses.is_dataclass(obj):
        return {f.name: encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [encode(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _kind(value) -> str:
    return "null" if value is None else type(value).__name__


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {_kind(value)}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return out


def decode(tp, data, where: str):
    """Build an instance of type tp from its encode()d form.

    where names the value in error messages; nested fields extend it, e.g.
    "ScenarioConfig.region.x_step_m". ValueErrors (and arithmetic errors)
    raised by a dataclass constructor come back as ConfigError.
    """
    if dataclasses.is_dataclass(tp):
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: expected an object, got {_kind(data)}")
        names = [f.name for f in dataclasses.fields(tp)]
        missing = [n for n in names if n not in data]
        if missing:
            raise ConfigError(f"{where}: missing fields {missing}")
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ConfigError(f"{where}: unknown fields {unknown}")
        hints = _hints(tp)
        kwargs = {n: decode(hints[n], data[n], f"{where}.{n}") for n in names}
        try:
            return tp(**kwargs)
        except (ValueError, ArithmeticError) as e:
            raise ConfigError(f"{where}: {e}") from e
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if data is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return decode(inner, data, where)
    if origin is tuple:
        if not isinstance(data, list):
            raise ConfigError(f"{where}: expected a list, got {_kind(data)}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(data)
        elif len(data) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} items, got {len(data)}")
        return tuple(decode(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(args, data)))
    if tp is float:
        return _number(data, where)
    if tp is complex:
        if not (isinstance(data, list) and len(data) == 2):
            raise ConfigError(f"{where}: expected an [re, im] pair")
        return complex(_number(data[0], where), _number(data[1], where))
    if tp in (int, bool, str):
        if type(data) is not tp:
            raise ConfigError(f"{where}: expected {tp.__name__}, got {_kind(data)}")
        return data
    raise TypeError(f"the JSON codec cannot decode {tp!r}")


class JsonCodec:
    """Mixin giving a dataclass to_json_dict/from_json_dict through encode/decode."""

    def to_json_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_json_dict(cls, data: dict):
        return decode(cls, data, cls.__name__)
