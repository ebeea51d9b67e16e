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
and ``hprime``'s ``f``/``e1``/``xi``.  A leaf is a JSON scalar of exact
type, a codec's string (a rational or a surface tag) or an entry's
``detail``, one flat object of booleans written as the dict of its pairs.
The writer emits the bytes of ``json.dumps(payload, indent=2) + "\n"``;
the loader parses what ``json.loads`` parses, a repeated key refused, and
checks strictly (the written keys, each once, each value of its exact JSON
type), so a loaded file saves back byte for byte, and its SchemaError
names the key path, e.g. ``certificates[1].report.c2_deficit[1]``.  A file
holds one certificate object or {"version": "1", "certificates": [...]}.
``certificate_to_dict`` is the written text parsed back.

The loader walks the file object member by member, and each element of
its ``certificates`` array too: one regex match per key or separator and
json's ``scan_once`` per value, over the text read so far.  It checks and
builds each certificate before it reads the next; ``load_certificates``
feeds it the file a fixed number of characters at a time, so it holds
neither the whole text nor the whole parse.  It reads on before each walk
until twice the longest element walked is held, so it walks each element
once and a read cuts none but the first.  An element the walk cannot
finish (its text runs past what is read, a key is not a plain string or
repeats, json raises anything), and every element after a failing one or
a repeated key, is parsed whole by ``json.JSONDecoder.raw_decode``, which
then decides.  The errors, and their order, are those of parsing the whole
text first: what ``json.loads`` refuses (syntax, the digit and depth
limits, a repeated key), then the file object's own keys and version, then
the first failing certificate.

Each call handles a shared object (a row, hprime, report or divisor class)
once per distinct copy.  The writer fills templates: on first use at an
indentation, a declaration compiles its constant text into one % format
with a slot per value, one per presence pattern of its optional keys, and
a nested object that is not shared and has no optional keys (``params``)
is inlined into its parent's.  A shared object's text is rendered once per
indentation, and ``save_certificates`` streams a file a certificate at a
time.  The loader has two memos.  The text memo holds, for each shared
member of a certificate (``row``, ``m_class``, ``hprime``, ``report``),
the text and built object of its key's last copy that built: a copy whose
text starts with it is that object, with no parse and no check.  Any other
copy is parsed, and the marshal memo keys one with exactly its keys on
``marshal.dumps`` (format 2) of its values, so a copy equal in value but
not in text, and the classes within ``params``, are built once too; a copy
that fails or has other keys is never kept.  A load thus holds one object
per distinct row, m-class, hprime, report and class value, but builds
``a2``, ``a3`` and ``notes`` per certificate, which ``solve`` shares: on
the quick box a load holds 416 ``a2`` objects to its 2, and 1 report to
its 4.  No memo outlives its call, and the bytes written and the errors
raised are those of rendering and loading every copy on its own.
"""

from __future__ import annotations

import json
import marshal
import os
import re
from collections import Counter, namedtuple
from dataclasses import fields
from fractions import Fraction
from math import gcd
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

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


class _Codec(namedtuple("_Codec", "spell parse")):
    """A value spelled as a JSON scalar: spell gives the scalar, parse takes
    it back."""

    def at(self, newline: str) -> Callable:
        spell = self.spell
        return lambda value, memo: _spell(spell(value))

    def load(self, value: Any, memo: dict) -> Any:
        return self.parse(value)


class _Array(namedtuple("_Array", "item length", defaults=[None])):
    """A JSON array of one codec's values, loaded as a tuple."""

    @staticmethod
    def layout(newline: str) -> tuple[str, str, str, str]:
        """An array's layout at newline's indentation: the newline its items
        are written at, and the text before its first item, between two and
        after its last; an empty array is "[]"."""
        inner = newline + "  "
        return inner, "[" + inner, "," + inner, newline + "]"

    def at(self, newline: str) -> Callable:
        """The function (values, memo) -> the array's text, joined in one
        call; an exact int item is spelled inline."""
        inner, opening, comma, closing = self.layout(newline)
        if self.item.__class__ is _Scalar:
            def text(values: Sequence, memo: dict) -> str:
                texts = []  # a loop: a short array spends more on a comprehension's frame
                for v in values:
                    texts.append(str(v) if v.__class__ is int else _spell(v))
                return opening + comma.join(texts) + closing if texts else "[]"
        else:
            item = self.item.at(inner)

            def text(values: Sequence, memo: dict) -> str:
                texts = [item(v, memo) for v in values]
                return opening + comma.join(texts) + closing if texts else "[]"
        return text

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


class _Detail:
    """An entry's detail: its (name, verdict) pairs as one JSON object of
    booleans, written as their dict is."""

    @staticmethod
    def at(newline: str) -> Callable:
        inner = newline + "  "
        opening, comma, closing = "{" + inner, "," + inner, newline + "}"

        def text(value: Sequence[tuple[str, bool]], memo: dict) -> str:
            members = [_quote(k) + ": " + _spell(v) for k, v in dict(value).items()]
            return opening + comma.join(members) + closing if members else "{}"
        return text

    @staticmethod
    def load(obj: Any, memo: dict) -> tuple[tuple[str, bool], ...]:
        if obj.__class__ is not dict:
            raise SchemaError("expected an object")
        for name, ok in obj.items():
            if ok.__class__ is not bool:
                raise SchemaError(f"field {name!r} must be a boolean")
        return tuple(obj.items())


class _Template(namedtuple("_Template", "fmt read slots pieces paths")):
    """An object's text at one indentation with one presence pattern of its
    optional keys: the constant pieces around one slot per value written,
    joined as a % format; read takes the object to its slots' values.  Per
    slot, the function that spells its value (None for a scalar) and, if
    the object reads attributes, the dotted path of its value."""

    def fill(self, value: Any, memo: dict) -> str:
        """value's text: the format with each slot's value spelled, an exact
        int as it is and any other scalar by _spell."""
        texts = []
        for slot, v in zip(self.slots, self.read(value)):
            texts.append((v if v.__class__ is int else _spell(v)) if slot is None else slot(v, memo))
        return self.fmt % tuple(texts)


def _memoized(text: Callable) -> Callable:
    """text, called once per value in a call; the memo holds the value with
    its text, so that its id is not reused.  A shared object has no optional
    keys, so text is a template's bound fill: the key of every at()."""
    def shared(value: Any, memo: dict) -> str:
        key = text, id(value)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = value, text(value, memo)
        return hit[1]
    return shared


class _Object:
    """One JSON object: the fixed head, then one key and one codec per value
    that ``read`` takes off a Python value (its attributes named by the keys
    if read is None) and ``build`` takes back, in that order.  A key in
    ``optional``, which only an object reading attributes has, is left out
    while its value is None.  A ``shared`` object is checked and built once
    per distinct copy, and written once per indentation in a call.

    Written first at an indentation, the object compiles its constant text
    into a template, one per presence pattern of its optional keys.  A
    nested object that is not shared, has no optional keys and reads
    attributes is inlined: its text goes into its parent's template, its
    values into the parent's read."""

    def __init__(self, keys: Sequence[str], kinds: Sequence[Any], read: Callable | None, build: Callable,
                 head: dict[str, str] | None = None, optional: frozenset = frozenset(),
                 shared: bool = False) -> None:
        self.attrs = None if read else tuple(keys)
        self.read, self.build, self.shared = read or attrgetter(*keys), build, shared
        self.plan = tuple(zip(keys, kinds, strict=True))
        self.head = head or {}
        self.keys = (*self.head, *keys)
        self.values = itemgetter(*self.keys)
        self.allowed = frozenset(self.keys)
        self.required = self.allowed - optional
        # each key as written, '"key": '; the head's values are written in place
        self.head_lines = tuple(_quote(k) + ": " + _quote(v) for k, v in self.head.items())
        self.labels = tuple((_quote(k) + ": ", kind) for k, kind in self.plan)
        self.optional_at = tuple(i for i, key in enumerate(keys) if key in optional)
        self.inline = not shared and not optional and self.attrs is not None
        self.templates: dict[tuple[str, tuple[bool, ...]], _Template] = {}

    def at(self, newline: str) -> Callable:
        """The function (value, memo) -> value's text, at the indentation
        that newline ends with."""
        if self.optional_at:
            def text(value: Any, memo: dict) -> str:  # its optional keys that are None left out
                items = self.read(value)
                absent = tuple([items[i] is None for i in self.optional_at])
                return self._template(newline, absent).fill(value, memo)
        else:
            text = self._template(newline, ()).fill
        return _memoized(text) if self.shared else text

    def _template(self, newline: str, absent: tuple[bool, ...]) -> _Template:
        """The template at newline's indentation, absent saying which
        optional keys are left out."""
        template = self.templates.get((newline, absent))
        if template is None:
            template = self.templates[newline, absent] = self._compile(newline, absent)
        return template

    def _compile(self, newline: str, absent: tuple[bool, ...]) -> _Template:
        inner = newline + "  "
        left_out = {i for i, gone in zip(self.optional_at, absent) if gone}
        pieces, paths, slots = [""], [], []
        sep, comma = "{" + inner, "," + inner
        for line in self.head_lines:
            pieces[-1] += sep + line
            sep = comma
        for i, (label, kind) in enumerate(self.labels):
            if i in left_out:
                continue
            pieces[-1] += sep + label
            sep = comma
            if kind.__class__ is _Object and kind.inline and self.attrs:
                child = kind._template(inner, ())
                pieces[-1] += child.pieces[0]
                pieces += child.pieces[1:]
                paths += (self.attrs[i] + "." + path for path in child.paths)
                slots += child.slots
            else:
                pieces.append("")
                if self.attrs:
                    paths.append(self.attrs[i])
                slots.append(None if kind.__class__ is _Scalar else kind.at(inner))
        pieces[-1] += newline + "}" if sep is comma else "{}"
        fmt = "%s".join(piece.replace("%", "%%") for piece in pieces)
        read = attrgetter(*paths) if self.attrs else self.read
        return _Template(fmt, read, tuple(slots), tuple(pieces), tuple(paths))

    def load(self, obj: Any, memo: dict) -> Any:
        # marshal format 2 writes each value's exact type (1, True and 1.0
        # differ) and no reference or interning flag, so its bytes are a
        # function of the parsed value alone: two copies with exactly the
        # allowed keys and the same values in declaration order pass the same
        # checks and build equal objects.  Only a built object is kept: a
        # failing copy raises wherever it occurs.
        if not self.shared or obj.__class__ is not dict or obj.keys() != self.allowed:
            return self._check_and_build(obj, memo)
        try:
            memo_key = (self, marshal.dumps(self.values(obj), 2))
        except ValueError:  # nested too deep to marshal, or no JSON value: the checks decide
            return self._check_and_build(obj, memo)
        built = memo.get(memo_key)
        if built is None:
            built = memo[memo_key] = self._check_and_build(obj, memo)
        return built

    def check(self, obj: Any) -> None:
        """The object's own checks: its keys, each once, and the head's values."""
        if obj.__class__ is not dict:
            raise SchemaError("expected an object")
        if not self.required <= obj.keys() <= self.allowed:
            missing, unknown = self.required - obj.keys(), obj.keys() - self.allowed
            raise SchemaError(f"missing field {min(missing)!r}" if missing
                              else f"unknown field {min(unknown)!r}")
        for key, value in self.head.items():
            if obj[key] != value:
                raise SchemaError(f"field {key!r} has unsupported value {obj[key]!r:.40}")

    def _check_and_build(self, obj: Any, memo: dict, built: Sequence[str] = ()) -> Any:
        """load(obj) without the memo, the values of the keys in built taken
        as built already."""
        self.check(obj)
        values = []
        try:
            for key, kind in self.plan:
                if key in built:
                    values.append(obj[key])
                else:
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
    return _Object(keys, kinds, None, cls, head, optional, shared)


def _surface_from_json(tag: Any) -> Surface:
    try:
        return Surface(tag)
    except ValueError:
        raise SchemaError(f"unknown surface tag {tag!r}") from None


_quote = json.encoder.encode_basestring_ascii
_INT = _Scalar("an integer", (int,))
_BOOL = _Scalar("a boolean", (bool,))
_STR = _Scalar("a string", (str,))
_INT_OR_NULL = _Scalar("an integer or null", (int, type(None)))
_STRS = _Array(_STR)
_Q = _Codec(rational_to_str, rational_from_str)
_SURFACE = _Codec(attrgetter("value"), _surface_from_json)

# The format, one declaration per JSON object.  str spells an int as its
# Fraction, so an integral class's coefficients are written from its ints.
_DIVISOR = _Object(("surface", "coeffs"), (_SURFACE, _Array(_Q, RANK)),
                   lambda d: (d.surface, d.num if d.den == 1 else d.coeffs), DivisorClass, shared=True)
_ROW = _stores(Table1Row, _INT, _INT, _INT, _INT, shared=True)
_PARAMS = _stores(BundleParams, _INT, _INT, _INT, _INT, _Array(_INT), _Array(_INT),
                  _DIVISOR, _DIVISOR)
_ENTRY = _stores(ConstraintEntry, _STR, _BOOL, _Q, _DIVISOR, _Detail)
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
    return kind.at("\n")(value, {})


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
    """Put the text of dumps_certificates(certs), a certificate at a time."""
    if len(certs) == 1:
        put(_dumps(_CERTIFICATE, certs[0]) + "\n")
        return
    # _FILE's template around its array, which is one level in
    head, tail = _FILE._template("\n", ()).pieces
    inner, sep, comma, closing = _Array.layout("\n  ")
    text, memo = _CERTIFICATE.at(inner), {}
    put(head)
    for cert in certs:
        put(sep + text(cert, memo))
        sep = comma
    put((closing if certs else "[]") + tail + "\n")


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


def _unique_keys(pairs: Sequence[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; a repeated key, which json.loads would let
    the last value win, is a SchemaError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        duplicate, _ = Counter(k for k, _ in pairs).most_common(1)[0]
        raise SchemaError(f"duplicate key {duplicate!r}")
    return obj


def _raise_duplicate(value: Any, path: tuple[str | int, ...] = ()) -> None:
    """_unique_keys's error with its key path: at the first object, in the
    order json.loads builds them (members before their object), that repeats
    a key in a value parsed with _PAIRS, objects as tuples of pairs."""
    is_object = value.__class__ is tuple
    if is_object or value.__class__ is list:
        for key, item in value if is_object else enumerate(value):
            _raise_duplicate(item, (*path, key))
    if is_object:
        try:
            _unique_keys(value)
        except SchemaError as exc:
            exc.path = path
            raise


_BUILD = json.JSONDecoder(object_pairs_hook=_unique_keys)
_PAIRS = json.JSONDecoder(object_pairs_hook=tuple)
_SPACE = json.decoder.WHITESPACE.match
# how far before the end of the text read so far json may report an error
# that more text would mend: a cut literal such as -Infinity or a cut \uXXXX
# escape; a cut string is reported where it starts
_CUT_REACH = 16


class _Document:
    """A JSON document read from pieces of its text, a value at a time.

    ``text[at:]`` is what is left of the pieces read so far.  Reading on
    drops the text before ``mark``, the end of the last value or opening
    bracket, and ``base``, ``lines`` and ``line_start`` (the offset of the
    last dropped newline) place ``text`` in the document for json's error
    messages.  A repeated key's error is kept in ``duplicate``, and with its
    key path in ``located``; the rest of the document is then only checked
    to be JSON, and the error names its path only if it is.
    """

    def __init__(self, pieces: Iterator[str]) -> None:
        self.pieces = pieces
        self.text = ""
        self.at = self.mark = self.base = self.lines = 0
        self.line_start = -1
        self.done = False
        self.duplicate: SchemaError | None = None
        self.located: SchemaError | None = None
        self._read_on()
        if self.text.startswith("\ufeff"):  # as json.loads refuses it
            raise self._invalid(json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", self.text, 0))

    def _read_on(self) -> bool:
        """Read pieces until the text kept from mark on has doubled; False
        if the document had no more."""
        kept = len(self.text) - self.mark
        pieces, size = [], 0
        for piece in self.pieces:
            pieces.append(piece)
            size += len(piece)
            if size > kept:
                break
        else:
            self.done = True
        if not size:
            return False
        text, mark = self.text, self.mark
        if newlines := text.count("\n", 0, mark):
            self.lines += newlines
            self.line_start = self.base + text.rfind("\n", 0, mark)
        self.base += mark
        self.at -= mark
        self.mark = 0
        self.text = "".join([text[mark:], *pieces] if mark < len(text) else pieces)
        return True

    def hold(self, count: int) -> None:
        """Read on until count characters past the read point are held, or
        the document ends."""
        while len(self.text) - self.at < count and self._read_on():
            pass

    def skip(self) -> str:
        """Move past whitespace; the character there, "" at the end."""
        while True:
            self.at = _SPACE(self.text, self.at).end()
            if self.at < len(self.text) or not self._read_on():
                return self.text[self.at:self.at + 1]

    def step(self) -> None:
        """Move past the bracket at the read point."""
        self.at = self.mark = self.at + 1

    def next_item(self, close: str, opening: str) -> str:
        """Move past the comma after an item or member; the character that
        starts the next one, or close, which ends the container."""
        char = self.skip()
        if char == ",":
            self.at += 1
            if (char := self.skip()) != close:
                return char
        elif char == close:
            return char
        raise self.expected(opening)

    def value(self, path: tuple[str | int, ...]) -> Any:
        """The JSON value at the read point, which moves past it; path names
        it in the document.  After a repeated key, values are parsed by
        _PAIRS, only to check the rest of the document."""
        while True:
            decoder = _BUILD if self.duplicate is None else _PAIRS
            try:
                value, end = decoder.raw_decode(self.text, self.at)
            except SchemaError as exc:  # raised where the first object repeating a key closes
                self.duplicate = exc
                continue
            except (ValueError, RecursionError) as exc:
                if self.done or not self._may_be_cut(exc):
                    raise self._invalid(exc) from exc
            else:  # a number at the end of the text may go on in the next piece
                if end < len(self.text) or self.done:
                    break
            self._read_on()
        self.at = self.mark = end
        if decoder is _PAIRS and self.located is None:
            try:
                _raise_duplicate(value, path)
            except SchemaError as exc:
                self.located = exc
            # parsed deeper than Python recurses (C's own limit, from 3.12)
            except RecursionError:
                self.located = self.duplicate
        return value

    def _may_be_cut(self, exc: ValueError | RecursionError) -> bool:
        """Whether exc may come from where the text read so far ends."""
        if isinstance(exc, json.JSONDecodeError):
            return exc.pos > len(self.text) - _CUT_REACH or exc.msg.startswith("Unterminated string")
        # past the digit limit: a cut number may go on, as a float
        return isinstance(exc, ValueError) and self.text[-1:] in "0123456789.eE+-"

    def expected(self, opening: str) -> SchemaError:
        """json's error for the text from mark on, which it reads in the
        state that opening leaves its scanner in."""
        try:
            _PAIRS.raw_decode(opening + self.text[self.mark:])
        except json.JSONDecodeError as exc:
            exc.pos += self.mark - len(opening)
            return self._invalid(exc)
        raise AssertionError(f"json reads on past {opening!r}")

    def whole(self) -> Any:
        """The document's one value."""
        self.skip()
        value = self.value(())
        self.end()
        return value

    def end(self) -> None:
        """Check that nothing but whitespace is left; a repeated key met
        before is then raised with its key path."""
        if self.skip():
            raise self._invalid(json.JSONDecodeError("Extra data", self.text, self.at))
        if self.located is not None:
            raise self.located

    def _invalid(self, exc: ValueError | RecursionError) -> SchemaError:
        """The error for exc, which json met at this point of the document (a
        JSONDecodeError's position is in text): json's, placed in the whole
        document, unless a repeated key came first."""
        if self.duplicate is not None:  # not JSON past the repeat: the pathless error
            return self.duplicate
        if isinstance(exc, json.JSONDecodeError):
            text, pos = self.text, exc.pos
            newline = text.rfind("\n", 0, pos)
            line = self.lines + text.count("\n", 0, pos) + 1
            column = pos - newline if newline >= 0 else self.base + pos - self.line_start
            exc = f"{exc.msg}: line {line} column {column} (char {self.base + pos})"
        return SchemaError(f"not valid JSON: {exc}")


# a certificate's first member up to its value, and what follows a value:
# the next member up to its value, or the closing brace (no key); a key is
# a plain string, with no escape or control character
_FIRST_MEMBER = re.compile(r'\{[ \t\n\r]*"([^"\\\x00-\x1f]*)"[ \t\n\r]*:[ \t\n\r]*')
_NEXT_MEMBER = re.compile(r'[ \t\n\r]*(?:,[ \t\n\r]*"([^"\\\x00-\x1f]*)"[ \t\n\r]*:[ \t\n\r]*|\})')
_SCAN = _BUILD.scan_once
# the certificate's members whose copies share one built object
_SHARED_MEMBERS = frozenset(key for key, kind in _CERTIFICATE.plan if getattr(kind, "shared", False))


def _walk(text: str, at: int, last: dict[str, tuple[str, Any]]) -> tuple[dict, list, int, list] | None:
    """The certificate object that starts at text[at], parsed a member at a
    time.  last holds, per shared key, the text (a closed JSON object) and
    built object of a copy: a member whose text starts with that text is
    that object.  With the keys of those members, the object's end and the
    (key, start, end) of each shared member parsed; None, to parse the
    certificate whole, where its text ends first, a key is not a plain
    string or is repeated, or json raises anything."""
    obj: dict[str, Any] = {}
    hits: list[str] = []
    scanned: list[tuple[str, int, int]] = []
    scan, next_member = _SCAN, _NEXT_MEMBER.match
    match = _FIRST_MEMBER.match(text, at)
    while match is not None:
        key = match[1]
        if key is None:
            return obj, hits, match.end(), scanned
        if key in obj:
            return None
        at = match.end()
        copy = last.get(key)
        if copy is not None and text.startswith(copy[0], at):
            obj[key] = copy[1]
            hits.append(key)
            at += len(copy[0])
        else:
            try:
                obj[key], end = scan(text, at)
            except (StopIteration, ValueError, RecursionError, SchemaError):
                return None
            if key in _SHARED_MEMBERS:
                scanned.append((key, at, end))
            at = end
        match = next_member(text, at)
    return None


def _decode(pieces: Iterator[str]) -> list[SolutionCertificate]:
    """The certificates of the document that pieces spell out.  A file's
    certificates are parsed, checked and built one at a time, each shared
    object once, and after the first failing one only parsed.  The errors
    and their order are those of the whole text's checks: first what
    json.loads rejects and a repeated key, then the file object's own keys
    and version, then the first failing certificate."""
    doc, memo = _Document(pieces), {}
    if doc.skip() != "{":
        return [_CERTIFICATE.load(doc.whole(), memo)]
    (listed, array), = _FILE.plan
    last: dict[str, tuple[str, Any]] = {}  # the text memo
    pairs: list[tuple[str, Any]] = []
    built: list[SolutionCertificate] = []
    failed: SchemaError | None = None
    doc.step()
    char = doc.skip()
    while char != "}":
        if char != '"':
            raise doc.expected('{"":0' if pairs else "{")
        key = doc.value(())
        if doc.skip() != ":":
            raise doc.expected('{""')
        doc.at += 1
        if doc.skip() != "[" or key != listed:
            pairs.append((key, doc.value((key,))))
        else:  # the file's array, an item at a time
            pairs.append((key, built))
            doc.step()
            index, char, longest = 0, doc.skip(), 0
            while char != "]":
                loading, walked = failed is None and doc.duplicate is None, None
                if loading:  # read on to twice the longest certificate walked: a read cuts none
                    doc.hold(2 * longest)
                    walked = _walk(doc.text, doc.at, last)
                if walked is None:
                    obj, hits, scanned = doc.value((key, index)), (), ()
                else:
                    obj, hits, end, scanned = walked
                    longest = max(longest, end - doc.at)
                    doc.at = doc.mark = end
                if loading and doc.duplicate is None:  # a repeat in obj taints the document
                    try:
                        cert = array.item._check_and_build(obj, memo, hits)
                    except SchemaError as exc:
                        exc.path = (key, index, *exc.path)
                        failed = exc
                    else:
                        built.append(cert)
                        for name, start, end in scanned:  # the copies that built
                            last[name] = doc.text[start:end], getattr(cert, name)
                index += 1
                char = doc.next_item("]", "[0")
            doc.step()
        char = doc.next_item("}", '{"":0')
    doc.step()
    # an object closes after its members: a repeat inside one comes first
    members = _unique_keys(pairs) if doc.duplicate is None else {}
    doc.end()
    if listed not in members:
        return [_CERTIFICATE.load(members, memo)]
    if members[listed] is not built:  # not an array: the array's own error
        return _FILE.load(members, memo)
    _FILE.check(members)
    if failed is not None:
        raise failed
    return _FILE.build(built)


def loads_json(text: str) -> Any:
    """json.loads, with a repeated key, a too-long int or too-deep nesting a
    SchemaError; a repeated key's error names its key path."""
    return _Document(iter((text,))).whole()


def loads_certificates(text: str) -> list[SolutionCertificate]:
    return _decode(iter((text,)))


def save_certificates(path: str | Path, certs: Sequence[SolutionCertificate]) -> None:
    """Stream dumps_certificates(certs) into a sibling file that replaces path
    once complete; on any error path keeps its bytes and the sibling goes."""
    partial = Path(f"{path}.{os.getpid()}.partial")
    try:
        with open(partial, "w", encoding="utf-8") as out:
            _write_certificates(certs, out.write)
        partial.replace(path)
    finally:
        partial.unlink(missing_ok=True)  # gone once it replaced path


# characters per read of load_certificates; a certificate is about 3,000
_CHUNK = 1 << 16


def load_certificates(path: str | Path) -> list[SolutionCertificate]:
    """loads_certificates of the file's text, read _CHUNK characters at a
    time, so neither the whole text nor its whole parse is ever held."""
    try:
        with open(path, encoding="utf-8") as file:
            pieces = iter(lambda: file.read(_CHUNK), "")
            try:
                return _decode(pieces)
            except SchemaError:
                for _ in pieces:  # a byte the codec refuses anywhere comes first, as in a whole read
                    pass
                raise
    except UnicodeDecodeError:
        Path(path).read_text(encoding="utf-8")  # raises it again, at the byte's offset in the whole file
        raise
