"""JSON and dataclasses: the one codec of every configured input and result.

Fault plans, service submissions with their guard configs, catalog
records and the experiment results they hold travel as JSON.
:func:`encode` writes a dataclass in JSON-normal form (tuples become
lists), fields in declaration order; :func:`decode` reads it back from
the field types -- nested dataclasses, ``Optional``, ``tuple[X, ...]``
and ``list[X]`` -- and rejects a key the class does not declare, at
every level, so a typo cannot silently drop a setting.  Other values
stay as JSON gave them: an ``int`` where a ``float`` is declared stays
an ``int``, because the experiment fingerprint hashes its ``repr``.
:class:`JsonRecord` adds the ``to_dict``/``from_dict``/``to_json``/
``from_json``/``load`` methods.

Like :mod:`repro.extents`, this module imports nothing from the rest of
the package, so the fault, guard and service packages all build on it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from collections.abc import Mapping
from typing import Any, Optional, TypeVar, Union

__all__ = ["JsonRecord", "decode", "encode"]

T = TypeVar("T")
R = TypeVar("R", bound="JsonRecord")

#: Field name -> type of a dataclass (whose every annotation is a field).
_type_hints = functools.cache(typing.get_type_hints)


def encode(obj: Any) -> dict[str, Any]:
    """A dataclass instance as a JSON-normal dict."""
    return {f.name: _encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return encode(value)
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def decode(cls: type[T], raw: Any) -> T:
    """Build ``cls`` from a JSON object, rejecting keys it does not declare."""
    if not isinstance(raw, Mapping):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {raw!r}")
    types = _type_hints(cls)
    unknown = set(raw) - types.keys()
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    missing = [
        f.name
        for f in dataclasses.fields(cls)  # type: ignore[arg-type]
        if f.name not in raw
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"missing {cls.__name__} fields: {missing}")
    return cls(**{k: _decode(types[k], v) for k, v in raw.items()})


def _decode(tp: Any, value: Any) -> Any:
    origin = typing.get_origin(tp)
    if origin is Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
        return _decode(tp, value)
    seq = origin or tp
    if seq is tuple or seq is list:  # tuple[X, ...], list[X], bare tuple/list
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a JSON list, got {value!r}")
        item = (*typing.get_args(tp), Any)[0]
        return seq(_decode(item, v) for v in value)
    if dataclasses.is_dataclass(tp):
        return decode(tp, value)
    return value


class JsonRecord:
    """The JSON round trip of a frozen dataclass through this codec."""

    def to_dict(self) -> dict[str, Any]:
        return encode(self)

    @classmethod
    def from_dict(cls: type[R], d: Any) -> R:
        return decode(cls, d)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls: type[R], text: str) -> R:
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls: type[R], path: Any) -> R:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
