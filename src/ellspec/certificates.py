"""Certificate files: canonical JSON serialization and strict loading.

Rationals are serialized as canonical strings: reduced, positive
denominator, no "/1" for integers, i.e. the grammar

    -?(0|[1-9][0-9]*)(/[1-9][0-9]*)?

with a denominator of at least 2 coprime to the numerator and no "-0".
Loading matches that grammar before converting any digits, so every other
spelling, and any numerator or denominator past CPython's 4300-digit
int-string limit, is a SchemaError.

The format is one table, a declaration per JSON object with one codec per
key, walked by both the writer and the strict loader.  A dataclass's keys
are its field names in field order (one that defaults to None is left out
while None); the only others are the ``version``/``basis_convention`` head
and ``hprime``'s ``f``/``e1``/``xi``.  A spelled value (a rational, surface
tag or entry's ``detail``) is written by the table's string or one
flat-object kind.  The writer emits the bytes of
``json.dumps(payload, indent=2) + "\n"``; the loader is ``json.loads`` plus
strict checks (the written keys, each once, each value of its exact JSON
type), so a loaded file saves back byte for byte, and its SchemaError names
the key path, e.g. ``certificates[1].report.c2_deficit[1]``.  A file holds
one certificate object or {"version": "1", "certificates": [...]}.
``certificate_to_dict`` is the written text parsed back.

Each call handles a shared object (a row, hprime, report or divisor class,
as ``solve`` shares each among many certificates) once.  The writer renders
one once per indentation it occurs at (keyed by ``id``, the object held for
the call) and puts everything else straight into its sink, a piece at a
time, so ``save_certificates`` streams the text into the file.  The loader
keys a copy with exactly its keys on the ``repr`` of its values in
declaration order, and only the first copy of each key is checked and built;
a copy with any other keys, or one that fails, is never kept, so it is
checked on its own.  A loaded file thus shares what ``solve`` shares, classes
included.  Neither memo outlives its call, and the bytes written and the
errors raised are those of rendering and loading every copy on its own.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter, namedtuple
from dataclasses import fields
from fractions import Fraction
from math import gcd
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Sequence

from .assembly import BundleParams, ConstraintEntry, ConstraintReport
from .errors import SchemaError
from .lattice import RANK, DivisorClass, Surface
from .solver import SolutionCertificate, Table1Row

FORMAT_VERSION = "1"
BASIS_CONVENTION = (
    "picard(l,e1..e9); gram diag(1,-1^9); f=3l-(e1+..+e9); e=e9; zeta=e1; "
    "n1=e8-e9; o1=f-n1; o2=e7+e8+e9+f-l; n2=f-o2; xi=e4-e5+e9+f; m1=e4-e5"
)

# The canonical spelling; "0/q" and "p/1" match and are rejected by
# rational_from_str.  Each run of digits is capped at CPython's default
# int-string limit, so no text costs more than one bounded int conversion.
_RATIONAL = re.compile(r"(0|-?[1-9][0-9]{0,4299})(?:/([1-9][0-9]{0,4299}))?")


def rational_to_str(value: Fraction) -> str:
    return str(value)


def rational_from_str(text: Any) -> Fraction:
    if not isinstance(text, str):
        raise SchemaError(f"expected a rational string, got {text!r}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise SchemaError(f"not a canonical rational: {text[:40]!r}")
    p, q = match.groups()
    try:
        if q is None:
            return Fraction(int(p))
        p, q = int(p), int(q)
    except ValueError as exc:  # a lowered sys.set_int_max_str_digits
        raise SchemaError(f"rational too long: {text[:40]!r}...") from exc
    if q == 1 or gcd(p, q) != 1:
        raise SchemaError(f"non-canonical rational spelling: {text[:40]!r}")
    return Fraction(p, q)


class _Scalar(namedtuple("_Scalar", "what types")):
    """A JSON scalar, stored as it is; its types are exact: True is no integer."""

    def load(self, value: Any, memo: dict) -> Any:
        if value.__class__ in self.types:
            return value
        raise SchemaError(f"expected {self.what}")

    def write(self, value: Any, newline: str, memo: dict, put: Callable) -> None:
        put(_spell(value))


class _Codec(namedtuple("_Codec", "spell parse kind")):
    """A value with its own JSON spelling: spell gives the JSON value, which
    kind writes, and parse takes it back."""

    def write(self, value: Any, newline: str, memo: dict, put: Callable) -> None:
        self.kind.write(self.spell(value), newline, memo, put)

    def load(self, value: Any, memo: dict) -> Any:
        return self.parse(value)


class _Array(namedtuple("_Array", "item length", defaults=[None])):
    """A JSON array of one codec's values, loaded as a tuple."""

    def write(self, values: Sequence, newline: str, memo: dict, put: Callable) -> None:
        inner, write = newline + "  ", self.item.write
        sep, comma = "[" + inner, "," + inner
        for value in values:
            put(sep)
            write(value, inner, memo, put)
            sep = comma
        put(newline + "]" if sep is comma else "[]")

    def load(self, items: Any, memo: dict) -> tuple:
        if items.__class__ is not list or self.length not in (None, len(items)):
            raise SchemaError("expected an array" + (f" of {self.length}" if self.length else ""))
        out = []
        try:
            for item in items:
                out.append(self.item.load(item, memo))
        except SchemaError as exc:
            exc.path = (len(out), *exc.path)
            raise
        return tuple(out)


class _FlatObject:
    """An entry's detail, the one dict the table spells: str keys, scalar values."""

    @staticmethod
    def write(value: dict, newline: str, memo: dict, put: Callable) -> None:
        inner = newline + "  "
        members = [_quote(k) + ": " + _spell(v) for k, v in value.items()]
        put("{" + inner + ("," + inner).join(members) + newline + "}" if members else "{}")


class _Object:
    """One JSON object: the fixed head, then one key and one codec per value
    that ``read`` takes off a Python value and ``build`` takes back, in that
    order.  A key in ``optional`` is left out while its value is None.  A
    ``shared`` object is checked and built once per distinct copy."""

    def __init__(self, keys: Sequence[str], kinds: Sequence[Any], read: Callable, build: Callable,
                 head: dict[str, str] | None = None, optional: frozenset = frozenset(),
                 shared: bool = False) -> None:
        self.read, self.build, self.shared = read, build, shared
        self.plan = tuple(zip(keys, kinds, strict=True))
        self.head = head or {}
        self.keys = (*self.head, *keys)
        self.allowed = frozenset(self.keys)
        self.required = self.allowed - optional
        # each key as written, '"key": '; the head's values are written in place
        self.head_lines = tuple(_quote(k) + ": " + _quote(v) for k, v in self.head.items())
        self.labels = tuple((_quote(k) + ": ", kind, k in optional) for k, kind in self.plan)
        self.write = self._write_shared if shared else self._render

    def _write_shared(self, value: Any, newline: str, memo: dict, put: Callable) -> None:
        """Put value's text, rendered once per indentation in the call, the
        memo holding the object so that its id is not reused."""
        key = (id(self), id(value), newline)
        if key not in memo:
            text: list[str] = []
            self._render(value, newline, memo, text.append)
            memo[key] = value, "".join(text)
        put(memo[key][1])

    def _render(self, value: Any, newline: str, memo: dict, put: Callable) -> None:
        """Put value's text, at the indentation that newline ends with."""
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for line in self.head_lines:
            put(sep + line)
            sep = comma
        for (label, kind, optional), item in zip(self.labels, self.read(value)):
            if item is None and optional:
                continue
            put(sep + label)
            kind.write(item, inner, memo, put)
            sep = comma
        put(newline + "}" if sep is comma else "{}")

    def load(self, obj: Any, memo: dict) -> Any:
        # repr is one-to-one on parsed JSON, exact types included (1, True
        # and 1.0 differ), so two copies with exactly the allowed keys and
        # the same values in declaration order pass the same checks and build
        # equal objects.  Only a built object is kept: a failing copy raises
        # wherever it occurs.
        if not self.shared or obj.__class__ is not dict or obj.keys() != self.allowed:
            return self._check_and_build(obj, memo)
        try:
            memo_key = (self, repr([obj[key] for key in self.keys]))
        except RecursionError:  # nested too deep for any declared value: the checks reject it
            return self._check_and_build(obj, memo)
        built = memo.get(memo_key)
        if built is None:
            built = memo[memo_key] = self._check_and_build(obj, memo)
        return built

    def _check_and_build(self, obj: Any, memo: dict) -> Any:
        if obj.__class__ is not dict:
            raise SchemaError("expected an object")
        if not self.required <= obj.keys() <= self.allowed:
            missing, unknown = self.required - obj.keys(), obj.keys() - self.allowed
            raise SchemaError(f"missing field {min(missing)!r}" if missing
                              else f"unknown field {min(unknown)!r}")
        for key, value in self.head.items():
            if obj[key] != value:
                raise SchemaError(f"field {key!r} has unsupported value {obj[key]!r:.40}")
        values = []
        try:
            for key, kind in self.plan:
                values.append(kind.load(obj[key], memo) if key in obj else None)
        except SchemaError as exc:
            if kind.__class__ is _Scalar:  # named as a field of this object
                raise SchemaError(f"field {key!r} must be {kind.what}") from None
            exc.path = (key, *exc.path)
            raise
        try:
            return self.build(*values)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed: {exc}") from exc


def _stores(cls: type, *kinds: Any, head: dict[str, str] | None = None,
            shared: bool = False) -> _Object:
    """The object that stores a dataclass: its fields as keys, in field order;
    a field that defaults to None is optional."""
    keys = tuple(f.name for f in fields(cls))
    optional = frozenset(f.name for f in fields(cls) if f.default is None)
    return _Object(keys, kinds, attrgetter(*keys), cls, head, optional, shared)


def _surface_from_json(tag: Any) -> Surface:
    try:
        return Surface(tag)
    except ValueError:
        raise SchemaError(f"unknown surface tag {tag!r}") from None


def _detail_from_json(obj: Any) -> tuple[tuple[str, bool], ...]:
    if obj.__class__ is not dict:
        raise SchemaError("expected an object")
    for name, ok in obj.items():
        if ok.__class__ is not bool:
            raise SchemaError(f"field {name!r} must be a boolean")
    return tuple(obj.items())


_quote = json.encoder.encode_basestring_ascii
_INT = _Scalar("an integer", (int,))
_BOOL = _Scalar("a boolean", (bool,))
_STR = _Scalar("a string", (str,))
_INT_OR_NULL = _Scalar("an integer or null", (int, type(None)))
_STRS = _Array(_STR)
_Q = _Codec(rational_to_str, rational_from_str, _STR)
_SURFACE = _Codec(attrgetter("value"), _surface_from_json, _STR)

# The format, one declaration per JSON object.  str spells an int as its
# Fraction, so an integral class's coefficients are written from its ints.
_DIVISOR = _Object(("surface", "coeffs"), (_SURFACE, _Array(_Q, RANK)),
                   lambda d: (d.surface, d.num if d.den == 1 else d.coeffs), DivisorClass, shared=True)
_ROW = _stores(Table1Row, _INT, _INT, _INT, _INT, shared=True)
_PARAMS = _stores(BundleParams, _INT, _INT, _INT, _INT, _Array(_INT), _Array(_INT),
                  _DIVISOR, _DIVISOR)
_ENTRY = _stores(ConstraintEntry, _STR, _BOOL, _Q, _DIVISOR, _Codec(dict, _detail_from_json, _FlatObject))
_REPORT = _stores(ConstraintReport, _Array(_ENTRY), _Array(_Q, 2), _BOOL, _Q, _BOOL, _BOOL, _STRS,
                  shared=True)
_HPRIME = _Object(("f", "e1", "xi"), (_INT, _INT, _INT), tuple, lambda *coords: coords,
                  shared=True)
_CERTIFICATE = _stores(SolutionCertificate, _ROW, _INT, _INT, _INT, _INT_OR_NULL, _DIVISOR, _PARAMS,
                       _HPRIME, _REPORT, _STRS,
                       head={"version": FORMAT_VERSION, "basis_convention": BASIS_CONVENTION})
_FILE = _Object(("certificates",), (_Array(_CERTIFICATE),), lambda certs: (certs,), list,
                head={"version": FORMAT_VERSION})


def _dumps(kind: Any, value: Any) -> str:
    """``json.dumps(..., indent=2)`` of a value that kind declares."""
    pieces: list[str] = []
    kind.write(value, "\n", {}, pieces.append)
    return "".join(pieces)


def divisor_to_json(d: DivisorClass) -> dict:
    return json.loads(_dumps(_DIVISOR, d))


def divisor_from_json(obj: Any) -> DivisorClass:
    return _DIVISOR.load(obj, {})


def bundle_params_to_json(params: BundleParams) -> dict:
    return json.loads(_dumps(_PARAMS, params))


def bundle_params_from_json(obj: Any) -> BundleParams:
    return _PARAMS.load(obj, {})


def certificate_to_dict(cert: SolutionCertificate) -> dict:
    return json.loads(_dumps(_CERTIFICATE, cert))


def certificate_from_dict(obj: Any) -> SolutionCertificate:
    return _CERTIFICATE.load(obj, {})


def _write_certificates(certs: Sequence[SolutionCertificate], put: Callable) -> None:
    """Put the text of dumps_certificates(certs), a piece at a time."""
    kind, value = (_CERTIFICATE, certs[0]) if len(certs) == 1 else (_FILE, certs)
    kind.write(value, "\n", {}, put)
    put("\n")


def dumps_certificates(certs: Sequence[SolutionCertificate]) -> str:
    pieces: list[str] = []
    _write_certificates(certs, pieces.append)
    return "".join(pieces)


# json.dumps spellings of the scalar types a payload holds, keyed by exact type
_SPELL = {
    str: _quote,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


def _spell(value: Any) -> str:
    """``json.dumps(value)`` of a str, int, bool or None (exact types;
    anything else is a TypeError)."""
    spell = _SPELL.get(value.__class__)
    if spell is None:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    return spell(value)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; a repeated key, which json.loads would let
    the last value win, is a SchemaError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        duplicate, _ = Counter(k for k, _ in pairs).most_common(1)[0]
        raise SchemaError(f"duplicate key {duplicate!r}")
    return obj


class _Pairs(list):
    """A JSON object as its (key, value) pairs, repeats kept."""


def _raise_duplicate(value: Any, path: tuple[str | int, ...] = ()) -> None:
    """_unique_keys's error with its key path: at the first object, in the
    order json.loads builds them (members before their object), that repeats
    a key in a value parsed with _Pairs objects."""
    is_object = value.__class__ is _Pairs
    if is_object or value.__class__ is list:
        for key, item in value if is_object else enumerate(value):
            _raise_duplicate(item, (*path, key))
    if is_object:
        try:
            _unique_keys(value)
        except SchemaError as exc:
            exc.path = path
            raise


def loads_json(text: str) -> Any:
    """json.loads, with a repeated key, a too-long int or too-deep nesting a SchemaError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except SchemaError:  # a repeated key: parse again, keeping every pair, to locate it
        try:
            _raise_duplicate(json.loads(text, object_pairs_hook=_Pairs))
        except (ValueError, RecursionError):  # not JSON past the repeat, or nested too deep
            pass
        raise
    # JSONDecodeError, an int past the digit limit, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc


def loads_certificates(text: str) -> list[SolutionCertificate]:
    payload = loads_json(text)
    if isinstance(payload, dict) and "certificates" in payload:
        return _FILE.load(payload, {})
    return [certificate_from_dict(payload)]


def save_certificates(path: str | Path, certs: Sequence[SolutionCertificate]) -> None:
    """Stream dumps_certificates(certs) into a sibling file that replaces path
    once complete; on any error path keeps its bytes and the sibling goes."""
    partial = Path(f"{path}.{os.getpid()}.partial")
    try:
        with open(partial, "w") as out:
            _write_certificates(certs, out.write)
        partial.replace(path)
    finally:
        partial.unlink(missing_ok=True)  # gone once it replaced path


def load_certificates(path: str | Path) -> list[SolutionCertificate]:
    return loads_certificates(Path(path).read_text())
