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
type), so a file that loads saves back in the writer's spelling, byte for
byte if it is spelled so, and its SchemaError names the key path, e.g.
``certificates[1].report.c2_deficit[1]``.  A file holds one certificate
object or {"version": "1", "certificates": [...]}.  ``certificate_to_dict``
is the written text parsed back.

The loader parses the file object a member at a time, and each element of
its ``certificates`` array on its own, over the text read so far; it checks
and builds each certificate before it reads the next, and after a failing
one or a repeated key only parses.  ``load_certificates`` feeds it the file
a fixed number of characters at a time, so it holds neither the whole text
nor the whole parse.  The errors, and their order, are those of parsing the
whole text first: what ``json.loads`` refuses (syntax, the digit and depth
limits, a repeated key), then the file object's own keys and version, then
the first failing certificate.

Each call handles a shared value once per distinct copy: the declarations of
a row, hprime, report and divisor class are shared objects, those of the
multiplicity lists and ``notes`` shared arrays.  The writer joins an
object's members, each its key and its value's text; a declaration builds
its text function once per indentation, and a shared value's text is
rendered once per indentation in a call.  A certificate's family is its
members but ``params`` (a family of ``solve`` varies only in ``params``);
``_Object.family`` writes its text as two pieces around ``params``, once per
identity of the nine values in a call (an int's value), and each certificate
then writes only its ``params``; ``save_certificates`` streams a file a
certificate at a time.  The loader checks a certificate against the same two
pieces of any family it parsed whole in the call: first the family that
answered last, then the one keyed by the certificate's own two pieces, its
text up to its first ``"params": `` and from that value to its first
closing line (a family's pieces hold these only at their ends, so the key
matches exactly when the text does).  Text that is a family's first piece,
one ``params`` value and its second piece is that family's certificate with
the new ``params`` (JSON text decides its members as it is read), derived by
``with_params`` as ``solve`` derives a d-grid point.  It reads on before
each check until twice the longest certificate is held, so a read cuts none
but the first.  Any other certificate is parsed whole, and the marshal memo
keys a shared copy with exactly its keys on ``marshal.dumps`` (format 2) of
its values, so a copy equal in value but not in text, and the classes within
``params``, are built once; a copy that fails or has other keys is never
kept.  A ``params`` is keyed so on all but d2, d3, l2 and l3, and one whose
key a built one holds is that one's ``moved``: only those four are loaded
and checked.  The same memo holds a tuple per distinct value of a shared
array, and the written text of each distinct shared value and family.  No
memo outlives its call; the text functions do, but they are functions of the
table alone and hold no value written.  The bytes written and the errors
raised are those of rendering and loading every copy on its own.
"""

from __future__ import annotations

import codecs
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

    def at(self, newline: str) -> Callable:
        return lambda value, memo: _spell(value)

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


class _Array(namedtuple("_Array", "item length shared", defaults=[None, False])):
    """A JSON array of one codec's values, loaded as a tuple.  A ``shared``
    array is loaded as one tuple per value and written once per
    indentation in a call."""

    @staticmethod
    def layout(newline: str) -> tuple[str, str, str, str]:
        """An array's layout at newline's indentation: the newline its items
        are written at, and the text before its first item, between two and
        after its last; an empty array is "[]"."""
        inner = newline + "  "
        return inner, "[" + inner, "," + inner, newline + "]"

    def at(self, newline: str) -> Callable:
        """The function (values, memo) -> the array's text, joined in one
        call."""
        inner, opening, comma, closing = self.layout(newline)
        item = self.item.at(inner)

        def text(values: Sequence, memo: dict) -> str:
            texts = [item(v, memo) for v in values]
            return opening + comma.join(texts) + closing if texts else "[]"
        return _memoized(text) if self.shared else text

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
        out = tuple(out)  # one tuple per value in a call, as solve shares them
        return memo.setdefault((self, out), out) if self.shared else out


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


def _memoized(text: Callable) -> Callable:
    """text, called once per value in a call; the memo holds the value with
    its text, so that its id is not reused.  text is built once, a shared
    object's per indentation and an array's per member that holds it, so it
    keys the texts it writes."""
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
    per distinct copy, and written once per indentation in a call.  One that
    reads attributes may name a ``cut`` member: its text around that member
    is written once per identity of its other values in a call.  Its
    ``moves`` keys, in field order, may vary within a call: a copy whose
    other values are exactly those of one built earlier in it is that
    object's ``moved`` with them, which only they are checked for."""

    def __init__(self, keys: Sequence[str], kinds: Sequence[Any], read: Callable | None, build: Callable,
                 head: dict[str, str] | None = None, optional: frozenset = frozenset(),
                 shared: bool = False, cut: str | None = None, moves: Sequence[str] = ()) -> None:
        self.read, self.build, self.shared, self.cut = read or attrgetter(*keys), build, shared, cut
        self.plan = tuple(zip(keys, kinds, strict=True))
        if cut is not None:  # the other values key the object's text around the cut member
            self.cut_at = keys.index(cut)
            self.others = attrgetter(*keys[:self.cut_at], *keys[self.cut_at + 1:])
        self.head = head or {}
        self.keys = (*self.head, *keys)
        self.values = itemgetter(*[k for k in self.keys if k not in moves])  # the memo key's
        self.moving = tuple((key, kind) for key, kind in self.plan if key in moves)
        self.allowed = frozenset(self.keys)
        self.required = self.allowed - optional
        self.labels = tuple(_quote(k) + ": " for k in keys)  # each key as written, '"key": '
        self.functions: dict[str, Callable] = {}  # at's, per newline: functions of the table alone

    def at(self, newline: str) -> Callable:
        """The function (value, memo) -> value's text, at the indentation
        that newline ends with; built once per indentation."""
        if newline in self.functions:
            return self.functions[newline]
        if self.cut is not None:  # the family's text around the cut member, then the member's
            family, member_text = self.family(newline), self.plan[self.cut_at][1].at(newline + "  ")
            others, member = self.others, attrgetter(self.cut)

            def text(value: Any, memo: dict) -> str:
                hit = memo.get((family, *map(id, others(value)))) or family(value, memo)
                return hit[1] + member_text(member(value), memo) + hit[2]
        else:
            members, inner = self.members(newline), newline + "  "
            opening, comma, closing = "{" + inner, "," + inner, newline + "}"

            def text(value: Any, memo: dict) -> str:
                texts = members(value, memo)
                return f"{opening}{comma.join(texts)}{closing}" if texts else "{}"
        self.functions[newline] = _memoized(text) if self.shared else text
        return self.functions[newline]

    def members(self, newline: str) -> Callable:
        """The function (value, memo) -> the texts of value's members at
        newline's indentation, '"key": value' each, the head's first; an
        optional member whose value is None is left out."""
        read, inner = self.read, newline + "  "
        head = [_quote(k) + ": " + _quote(v) for k, v in self.head.items()]
        plan = [(label, None if kind.__class__ is _Scalar and key in self.required else kind.at(inner),
                 key not in self.required) for label, (key, kind) in zip(self.labels, self.plan)]

        def members(value: Any, memo: dict) -> list[str]:
            texts = head.copy()
            for (label, text, optional), v in zip(plan, read(value)):
                if text is None:  # a required scalar: an exact int as it is, any other by _spell
                    texts.append(f"{label}{v}" if v.__class__ is int else label + _spell(v))
                elif v is not None or not optional:
                    texts.append(label + text(v, memo))
            return texts
        return members

    def family(self, newline: str) -> Callable:
        """The function (value, memo) -> (held, before, after) of an object
        with a cut member and no optional key: its text before and after
        that member at newline's indentation, written once per identity of
        its other values in a call, and held with those values so that
        their ids are not reused.  An int among them is held as the first
        equal int of the call: json gives each parsed int past 256 an object
        of its own, and its family would be written again."""
        members, others, at = self.members(newline), self.others, len(self.head) + self.cut_at
        opening, comma, label = "{" + newline + "  ", "," + newline + "  ", self.labels[self.cut_at]

        def family(value: Any, memo: dict) -> tuple[tuple, str, str]:
            held = others(value)
            hit = memo.get(key := (family, *map(id, held)))
            if hit is None:  # again with each int the call's first of its value
                held = tuple([memo.setdefault((int, v), v) if v.__class__ is int else v for v in held])
                hit = memo.get(key := (family, *map(id, held)))
            if hit is None:
                texts = members(value, memo)
                before = opening + comma.join([*texts[:at], label])
                after = "".join([comma + text for text in texts[at + 1:]]) + newline + "}"
                hit = memo[key] = held, before, after
            return hit
        return family

    def load(self, obj: Any, memo: dict) -> Any:
        # marshal format 2 writes each value's exact type (1, True and 1.0
        # differ) and no reference or interning flag, so its bytes are a
        # function of the parsed value alone: two copies with exactly the
        # allowed keys and the same values in declaration order pass the same
        # checks and build equal objects.  Only a built object is kept: a
        # failing copy raises wherever it occurs.  A moving object's key
        # leaves its moves out: a copy whose key is held passes the other
        # checks as the held object did, so only its moves are loaded, in
        # field order, and the held object's moved builds it.
        if not (self.shared or self.moving) or obj.__class__ is not dict or obj.keys() != self.allowed:
            return self._check_and_build(obj, memo)
        try:
            memo_key = (self, marshal.dumps(self.values(obj), 2))
        except ValueError:  # nested too deep to marshal, or no JSON value: the checks decide
            return self._check_and_build(obj, memo)
        built = memo.get(memo_key)
        if built is None:
            built = memo[memo_key] = self._check_and_build(obj, memo)
        elif self.moving:
            return self._build(built.moved, *self._load_values(self.moving, obj, memo))
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

    def _check_and_build(self, obj: Any, memo: dict) -> Any:
        """load(obj) without the memo."""
        self.check(obj)
        return self._build(self.build, *self._load_values(self.plan, obj, memo))

    @staticmethod
    def _load_values(plan: Sequence[tuple[str, Any]], obj: dict, memo: dict) -> list:
        """The values of plan's keys in obj, each loaded by its kind, None
        where obj has none; the first failing one names its key."""
        values = []
        try:
            for key, kind in plan:
                values.append(kind.load(obj[key], memo) if key in obj else None)
        except SchemaError as exc:
            if kind.__class__ is _Scalar:  # named as a field of this object
                raise SchemaError(f"field {key!r} must be {kind.what}") from None
            exc.path = (key, *exc.path)
            raise
        return values

    def load_cut(self, derive: Callable, obj: Any, memo: dict) -> Any:
        """derive(member), the cut member loaded from obj."""
        try:
            value = self.plan[self.cut_at][1].load(obj, memo)
        except SchemaError as exc:
            exc.path = (self.cut, *exc.path)
            raise
        return self._build(derive, value)

    @staticmethod
    def _build(build: Callable, *args: Any) -> Any:
        try:
            return build(*args)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed: {exc}") from exc


def _stores(cls: type, *kinds: Any, head: dict[str, str] | None = None,
            shared: bool = False, cut: str | None = None, moves: Sequence[str] = ()) -> _Object:
    """The object that stores a dataclass: its fields as keys, in field order;
    a field that defaults to None is optional."""
    keys = tuple(f.name for f in fields(cls))
    optional = frozenset(f.name for f in fields(cls) if f.default is None)
    return _Object(keys, kinds, None, cls, head, optional, shared, cut, moves)


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
_INTS = _Array(_INT, shared=True)
_STRS = _Array(_STR, shared=True)
_Q = _Codec(rational_to_str, rational_from_str)
_SURFACE = _Codec(attrgetter("value"), _surface_from_json)

# The format, one declaration per JSON object.  str spells an int as its
# Fraction, so an integral class's coefficients are written from its ints.
_DIVISOR = _Object(("surface", "coeffs"), (_SURFACE, _Array(_Q, RANK)),
                   lambda d: (d.surface, d.num if d.den == 1 else d.coeffs), DivisorClass, shared=True)
_ROW = _stores(Table1Row, _INT, _INT, _INT, _INT, shared=True)
_PARAMS = _stores(BundleParams, _INT, _INT, _INT, _INT, _INTS, _INTS, _DIVISOR, _DIVISOR,
                  moves=("d2", "d3", "l2", "l3"))
_ENTRY = _stores(ConstraintEntry, _STR, _BOOL, _Q, _DIVISOR, _Detail)
_REPORT = _stores(ConstraintReport, _Array(_ENTRY), _Array(_Q, 2), _BOOL, _Q, _BOOL, _BOOL, _STRS,
                  shared=True)
_HPRIME = _Object(("f", "e1", "xi"), (_INT, _INT, _INT), tuple, lambda *coords: coords,
                  shared=True)
_CERTIFICATE = _stores(SolutionCertificate, _ROW, _INT, _INT, _INT, _INT_OR_NULL, _DIVISOR, _PARAMS,
                       _HPRIME, _REPORT, _STRS,
                       head={"version": FORMAT_VERSION, "basis_convention": BASIS_CONVENTION}, cut="params")
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
    # _FILE's text around its array, which is one level in
    head, _, tail = _dumps(_FILE, []).rpartition("[]")
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

    ``source()`` gives a fresh iterator of the pieces; ``text[at:]`` is what
    is left of those read so far, which starts at ``base`` in the document.
    Reading on drops the text before ``mark``, the end of the last value or
    opening bracket.  A load error reads the source once more, to its end.
    A repeated key's error is kept in ``duplicate``, and with its key path
    in ``located``; the rest of the document is then only checked to be
    JSON, and the error names its path only if it is.
    """

    def __init__(self, source: Callable[[], Iterator[str]]) -> None:
        self.source = source
        self.pieces = source()
        self.text = ""
        self.at = self.mark = self.base = 0
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
        if not size:
            return False
        text, mark = self.text, self.mark
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
                if not (self._may_be_cut(exc) and self._read_on()):
                    raise self._invalid(exc) from exc
            else:  # a number at the end of the text may go on in the next piece
                if end < len(self.text) or not self._read_on():
                    break
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
        document by the newlines of a second read of the source, unless a
        repeated key came first."""
        offset = self.base + exc.pos if isinstance(exc, json.JSONDecodeError) else 0
        lines, line_start, read = 0, -1, 0  # line_start: the offset of the last newline
        self.pieces = self.source()  # read to its end: a byte the codec refuses comes first
        for piece in self.pieces:
            if read < offset and (newlines := piece.count("\n", 0, offset - read)):
                lines, line_start = lines + newlines, read + piece.rfind("\n", 0, offset - read)
            read += len(piece)
        if self.duplicate is not None:  # not JSON past the repeat: the pathless error
            return self.duplicate
        if isinstance(exc, json.JSONDecodeError):
            exc = f"{exc.msg}: line {lines + 1} column {offset - line_start} (char {offset})"
        return SchemaError(f"not valid JSON: {exc}")


def _in_family(text: str, at: int, last: tuple[str, str, Callable], families: dict,
               label: str, close: str, reach: int) -> tuple[tuple, Any, int] | None:
    """The family (before, after, derive) whose text the certificate at
    text[at] is, as before, one value and after, with the JSON value of its
    cut member and its end: last if it is, else the one families keys by
    the certificate's two texts, up to its first label within reach and
    from that value to its first close (a family's texts hold them only at
    their ends).  None where none is, or json raises anything (a repeated
    key included)."""
    before, after, _ = last
    same = text.startswith(before, at)
    start = at + len(before) if same else text.find(label, at, at + reach) + len(label)
    if start < at + len(label):  # no label within reach
        return None
    try:
        obj, end = _BUILD.scan_once(text, start)
    except (StopIteration, ValueError, RecursionError, SchemaError):
        return None
    if same and text.startswith(after, end):
        return last, obj, end + len(after)
    stop = text.find(close, end) + len(close)  # no close keys no family: each after ends with one
    family = families.get((text[at:start], text[end:stop]))
    return None if family is None else (family, obj, stop)


def _decode(source: Callable[[], Iterator[str]]) -> list[SolutionCertificate]:
    """The certificates of the document that source's pieces spell out.  A
    file's certificates are parsed, checked and built one at a time, each shared
    object once, and after the first failing one only parsed.  The errors
    and their order are those of the whole text's checks: first what
    json.loads rejects and a repeated key, then the file object's own keys
    and version, then the first failing certificate."""
    doc, memo = _Document(source), {}
    if doc.skip() != "{":
        return [_CERTIFICATE.load(doc.whole(), memo)]
    (listed, array), = _FILE.plan
    inner = _Array.layout("\n  ")[0]
    # a family's text before params ends with its member line for params, as family writes it
    family, label = array.item.family(inner), f",{inner}  {array.item.labels[array.item.cut_at]}"
    # each family parsed whole: its text before and after params, and the with_params of its certificate
    families: dict[tuple[str, str], tuple[str, str, Callable]] = {}
    last: tuple[str, str, Callable] | None = None  # the family that answered last
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
                loading, start, found = failed is None and doc.duplicate is None, doc.base + doc.at, None
                if loading and last is not None:  # read on to twice the longest certificate: a read cuts none
                    doc.hold(2 * longest)
                    found = _in_family(doc.text, doc.at, last, families, label, inner + "}", longest)
                if found is None:
                    obj = doc.value((key, index))
                else:
                    last, obj, doc.at = found
                    doc.mark = doc.at
                if loading and doc.duplicate is None:  # a repeat in obj taints the document
                    longest = max(longest, doc.base + doc.at - start)
                    try:
                        cert = array.item.load(obj, memo) if found is None else array.item.load_cut(last[2], obj, memo)
                    except SchemaError as exc:
                        exc.path = (key, index, *exc.path)
                        failed = exc
                    else:
                        built.append(cert)
                        if found is None:
                            texts = family(cert, memo)[1:]
                            last = families[texts] = (*texts, cert.with_params)
                index += 1
                char = doc.next_item("]", "[0")
            doc.step()
        char = doc.next_item("}", '{"":0')
    doc.step()
    try:  # an object closes after its members: a repeat inside one comes first
        members = _unique_keys(pairs) if doc.duplicate is None else {}
    except SchemaError as exc:  # raised once the rest is read, as one in a certificate
        doc.duplicate = doc.located = exc
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
    return _Document(lambda: iter((text,))).whole()


def loads_certificates(text: str) -> list[SolutionCertificate]:
    return _decode(lambda: iter((text,)))


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


class _Undecodable(UnicodeDecodeError):
    """exc moved by shift to its place in a whole file, with the bytes it
    refuses alone as its object: str() is a whole read's."""

    def __init__(self, exc: UnicodeDecodeError, shift: int) -> None:
        bad = exc.object[exc.start:exc.end]
        super().__init__(exc.encoding, bad, exc.start + shift, exc.end + shift, exc.reason)

    def __str__(self) -> str:
        where = (f"byte 0x{self.object[0]:02x} in position {self.start}" if len(self.object) == 1
                 else f"bytes in position {self.start}-{self.end - 1}")
        return f"'{self.encoding}' codec can't decode {where}: {self.reason}"


def load_certificates(path: str | Path) -> list[SolutionCertificate]:
    """loads_certificates of the file's text, read _CHUNK characters at a
    time, so neither the whole text nor its whole parse is held.  A byte the
    codec refuses is a whole read's error, placed by a read of the bytes."""
    def source() -> Iterator[str]:
        with open(path, encoding="utf-8") as file:
            while piece := file.read(_CHUNK):
                yield piece
    try:
        return _decode(source)
    except UnicodeDecodeError:
        decoder, read = codecs.getincrementaldecoder("utf-8")(), 0
        with open(path, "rb") as file:
            while True:  # held: the bytes of a character the last read cut
                chunk, held = file.read(_CHUNK), len(decoder.getstate()[0])
                try:
                    decoder.decode(chunk, final=not chunk)
                except UnicodeDecodeError as exc:
                    raise _Undecodable(exc, read - held) from None
                if not chunk:
                    raise
                read += len(chunk)
