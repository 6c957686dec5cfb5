"""Execution metadata containers: HeterogeneousMap and the ResultBuffer tree."""

from __future__ import annotations

import binascii
import json
import math
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
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


# module-level aliases: a global costs less to read than an Enum attribute
_INT, _REAL, _COMPLEX, _BOOL, _STRING, _REAL_LIST, _REAL_ARRAY, _STRING_LIST, _MAP = Kind

# exact types whose values are already normalized, checked before isinstance
_EXACT_KINDS = {bool: _BOOL, int: _INT, float: _REAL, complex: _COMPLEX, str: _STRING}
_PY_KINDS = {**_EXACT_KINDS, list: _REAL_LIST, np.ndarray: _REAL_ARRAY}


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

    def to_dict(self, exclude: Iterable[str] | str | None = ()) -> dict:
        """JSON-ready dict without the `exclude` keys, at any depth; complex values encode
        as [re, im], and real arrays as the base64 text of their little-endian float64 bytes,
        which `np.frombuffer(base64.b64decode(text), "<f8")` decodes bit-exactly."""
        keys, out = _excluded(exclude), {}
        for key, (kind, value) in self._data.items():
            if key in keys:
                continue
            if kind is _COMPLEX:
                out[key] = [value.real, value.imag]
            elif kind is _MAP:
                out[key] = value.to_dict(keys)
            elif kind is _REAL_ARRAY:
                out[key] = _base64(value)
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

    def to_dict(self, exclude: Iterable[str] | str | None = ()) -> dict:
        keys = _excluded(exclude)  # the nested calls check this frozenset again, in O(len)
        return {
            "metadata": self.metadata.to_dict(keys),
            "counts": dict(self.counts),
            "children": [c.to_dict(keys) for c in self.children],
        }

    def to_json(self, indent: int | None = 2, exclude: Iterable[str] | str | None = ()) -> str:
        """The text of `json.dumps(self.to_dict(exclude), indent=indent)`,
        byte for byte, written in one pass over the tree."""
        writer = _JsonWriter(indent, _excluded(exclude))
        writer.buffer(self, "" if indent is None else "\n")
        return "".join(writer.parts)

    def __repr__(self):
        return (f"ResultBuffer(keys={sorted(self.metadata.keys())}, "
                f"counts={len(self.counts)}, children={len(self.children)})")


def _excluded(exclude) -> frozenset:
    """The metadata keys to leave out: a str names one key, None none, and an
    iterable of str its items; anything else is a ValidationError."""
    try:
        keys = frozenset(() if exclude is None else (exclude,) if isinstance(exclude, str)
                         else exclude)
    except TypeError:
        keys = {None}
    if all(isinstance(k, str) for k in keys):
        return keys
    raise ValidationError(f"exclude must be a key or an iterable of keys, got {exclude!r}")


def _base64(array: np.ndarray) -> str:
    return binascii.b2a_base64(array.astype("<f8", copy=False), newline=False).decode("ascii")


def _real(x: float) -> str:
    """A float as `json` writes it."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# how json writes a list item or count of exactly this type, and a scalar entry of this kind
_ITEMS = {float: _real, str: _quote, int: int.__repr__}
_SCALARS = {_STRING: _quote, _REAL: _real, _INT: int.__repr__, _BOOL: ("false", "true").__getitem__}


class _JsonWriter:
    """Writes the `json.dumps` text of a ResultBuffer tree into `parts`, straight from its
    typed entries.  `outer` is the newline and indent before the closing bracket of the
    container being written ("" without an indent)."""

    def __init__(self, indent, keys: frozenset):
        self.indent, self.keys, self.parts = indent, keys, []
        self.step = "" if indent is None else indent if isinstance(indent, str) else " " * indent
        self.comma = ", " if indent is None else ","

    def _wrap(self, brackets: str, texts: list, outer: str) -> str:
        nl = outer + self.step
        return (f"{brackets[0]}{nl}{(self.comma + nl).join(texts)}{outer}{brackets[1]}"
                if texts else brackets)

    def _plain(self, value, outer: str) -> str:
        """A list or counts map of str, int and float items, or its json.dumps text."""
        try:
            if isinstance(value, dict):
                return self._wrap("{}", [f"{_quote(k)}: {_ITEMS[type(v)](v)}"
                                         for k, v in value.items()], outer)
            return self._wrap("[]", [_ITEMS[type(v)](v) for v in value], outer)
        except (KeyError, TypeError):  # another type: json.dumps writes or rejects it
            text = json.dumps(value, indent=None if self.indent is None else "\0")
            return text.translate({10: outer, 0: self.step})  # json escapes both in strings

    def buffer(self, node: ResultBuffer, outer: str) -> None:
        nl, out = outer + self.step, self.parts.append
        out(f'{{{nl}"metadata": {self._map(node.metadata, nl)}{self.comma}{nl}"counts": '
            f'{self._plain(node.counts, nl)}{self.comma}{nl}"children": ')
        sep, inner = "[", nl + self.step
        for child in node.children:
            out(sep + inner)
            self.buffer(child, inner)
            sep = self.comma
        out(f"{nl}]{outer}}}" if node.children else f"[]{outer}}}")

    def _map(self, metadata: HeterogeneousMap, outer: str) -> str:
        nl, texts = outer + self.step, []
        for key, (kind, value) in metadata._data.items():
            if key in self.keys:
                continue
            scalar = _SCALARS.get(kind)
            if scalar is not None:
                text = scalar(value)
            elif kind is _REAL_ARRAY:
                text = f'"{_base64(value)}"'  # base64 needs no escaping
            elif kind is _COMPLEX:
                text = self._wrap("[]", [_real(value.real), _real(value.imag)], nl)
            elif kind is _MAP:
                text = self._map(value, nl)
            else:  # REAL_LIST, STRING_LIST
                text = self._plain(value, nl)
            texts.append(f"{_quote(key)}: {text}")
        return self._wrap("{}", texts, outer)


# Metadata keys whose values vary run to run even with fixed seeds; CLI
# output drops them so that --seed implies byte-identical results.
VOLATILE_KEYS = ("wall-time-ms",)
