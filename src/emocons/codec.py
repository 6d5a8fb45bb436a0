"""One dataclass <-> plain-dict codec for every config in the package.

``to_dict`` is ``dataclasses.asdict``.  ``from_dict`` rebuilds a config
from that form, also after a JSON round trip has turned its tuples into
lists, by following the field type hints: nested dataclasses,
``tuple[X, ...]`` and ``Sequence[X]`` (decoded to tuples) and
``Mapping[str, X]``.  Unknown keys, values of the wrong JSON type and
values the constructor refuses are a ``ConfigError`` naming the section.
"""

from __future__ import annotations

import dataclasses
import typing
from collections.abc import Mapping, Sequence

from .errors import ConfigError

to_dict = dataclasses.asdict

# JSON values a scalar field accepts: an int stands in for a float, and a
# bool only for a bool
_SCALARS = {bool: bool, int: int, float: (int, float), str: str}


def from_dict(cls, data, path: str = ""):
    """Build dataclass ``cls`` from its dict form; ``path`` names the section."""
    where = f"{path} ({cls.__name__})" if path else cls.__name__
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    hints = typing.get_type_hints(cls)
    prefix = f"{path}." if path else ""
    kwargs = {k: _decode(hints[k], v, prefix + k) for k, v in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _decode(tp, value, path: str):
    if tp in _SCALARS:
        if isinstance(value, bool) != (tp is bool) or not isinstance(value, _SCALARS[tp]):
            raise ConfigError(f"{path} must be {tp.__name__}, got {value!r}")
        return value
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (tuple, Sequence):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {type(value).__name__}")
        return tuple(_decode(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is Mapping:
        if not isinstance(value, Mapping):
            raise ConfigError(f"{path} must be a mapping, got {type(value).__name__}")
        return {str(k): _decode(args[1], v, f"{path}.{k}") for k, v in value.items()}
    return value
