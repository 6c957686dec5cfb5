"""Execution metadata containers: HeterogeneousMap and the ResultBuffer tree."""

from __future__ import annotations

import base64
import json
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .errors import KindMismatchError, MissingKeyError, ValidationError


class Kind(Enum):
    INT = "int"
    REAL = "real"
    COMPLEX = "complex"
    BOOL = "bool"
    STRING = "string"
    REAL_LIST = "real-list"
    REAL_ARRAY = "real-array"
    STRING_LIST = "string-list"
    MAP = "map"


_PY_KINDS = {
    int: Kind.INT,
    float: Kind.REAL,
    complex: Kind.COMPLEX,
    bool: Kind.BOOL,
    str: Kind.STRING,
    list: Kind.REAL_LIST,
    np.ndarray: Kind.REAL_ARRAY,
}


# exact types whose values are already normalized, checked before isinstance
_EXACT_KINDS = {bool: Kind.BOOL, int: Kind.INT, float: Kind.REAL, str: Kind.STRING}


def _kind_of(value) -> tuple:
    """Classify a value, returning (kind, normalized value)."""
    kind = _EXACT_KINDS.get(type(value))
    if kind is not None:
        return kind, value
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return Kind.BOOL, bool(value)
    if isinstance(value, (int, np.integer)):
        return Kind.INT, int(value)
    if isinstance(value, (float, np.floating)):
        return Kind.REAL, float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return Kind.COMPLEX, complex(value)
    if isinstance(value, str):
        return Kind.STRING, value
    if isinstance(value, HeterogeneousMap):
        return Kind.MAP, value
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "fiu":
        array = value.astype(np.float64)  # a copy: later writes to `value` do not leak in
        array.flags.writeable = False
        return Kind.REAL_ARRAY, array
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if all(isinstance(v, str) for v in items) and items:
            return Kind.STRING_LIST, items
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in items):
            return Kind.REAL_LIST, [float(v) for v in items]
        raise ValidationError(f"unsupported list contents for HeterogeneousMap: {value!r}")
    raise ValidationError(f"unsupported value type for HeterogeneousMap: {type(value).__name__}")


class HeterogeneousMap:
    """String-keyed map of variant values with kind-checked access."""

    def __init__(self, entries: Mapping | None = None, **kwargs):
        self._data: dict = {}
        for src in (entries or {}), kwargs:
            for k, v in src.items():
                self.put(k, v)

    def put(self, key: str, value) -> None:
        if not isinstance(key, str):
            raise ValidationError("keys must be strings")
        self._data[key] = _kind_of(value)

    def get(self, key: str, kind):
        """Return the value at `key`; its stored kind must match `kind` exactly."""
        if key not in self._data:
            raise MissingKeyError(f"no such key {key!r}")
        if not isinstance(kind, Kind):
            try:
                kind = _PY_KINDS[kind] if kind is not HeterogeneousMap else Kind.MAP
            except (KeyError, TypeError):
                raise ValidationError(f"unknown kind {kind!r}") from None
        stored_kind, value = self._data[key]
        if stored_kind is not kind:
            raise KindMismatchError(
                f"key {key!r} holds {stored_kind.value}, requested {kind.value}"
            )
        return value

    def kind_of(self, key: str) -> Kind:
        if key not in self._data:
            raise MissingKeyError(f"no such key {key!r}")
        return self._data[key][0]

    def __contains__(self, key):
        return key in self._data

    def keys(self):
        return self._data.keys()

    def update(self, other: "HeterogeneousMap") -> None:
        for k in other.keys():
            self._data[k] = other._data[k]

    def to_dict(self, exclude: Iterable[str] = ()) -> dict:
        """JSON-ready dict; complex values encode as [re, im], and real arrays
        as the base64 text of their little-endian float64 bytes, which
        `np.frombuffer(base64.b64decode(text), "<f8")` decodes bit-exactly."""
        out = {}
        for key, (kind, value) in self._data.items():
            if key in exclude:
                continue
            if kind is Kind.COMPLEX:
                out[key] = [value.real, value.imag]
            elif kind is Kind.MAP:
                out[key] = value.to_dict(exclude=exclude)
            elif kind is Kind.REAL_ARRAY:
                out[key] = base64.b64encode(value.astype("<f8", copy=False).tobytes()).decode()
            else:
                out[key] = value
        return out

    def __repr__(self):
        return f"HeterogeneousMap({self.to_dict()!r})"


class ResultBuffer:
    """Composite tree of measurement counts plus execution metadata."""

    def __init__(self, metadata: HeterogeneousMap | None = None,
                 counts: Mapping[str, int] | None = None,
                 children: Iterable["ResultBuffer"] | None = None):
        self.metadata = metadata if metadata is not None else HeterogeneousMap()
        self.counts = dict(counts) if counts else {}
        self.children: list = list(children) if children else []

    def add_child(self, child: "ResultBuffer") -> "ResultBuffer":
        self.children.append(child)
        return child

    def to_dict(self, exclude: Iterable[str] = ()) -> dict:
        return {
            "metadata": self.metadata.to_dict(exclude=exclude),
            "counts": dict(self.counts),
            "children": [c.to_dict(exclude=exclude) for c in self.children],
        }

    def to_json(self, indent: int | None = 2, exclude: Iterable[str] = ()) -> str:
        return json.dumps(self.to_dict(exclude=exclude), indent=indent)

    def __repr__(self):
        return (f"ResultBuffer(keys={sorted(self.metadata.keys())}, "
                f"counts={len(self.counts)}, children={len(self.children)})")


# Metadata keys whose values vary run to run even with fixed seeds; CLI
# output drops them so that --seed implies byte-identical results.
VOLATILE_KEYS = ("wall-time-ms",)
