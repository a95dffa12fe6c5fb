"""Stable JSON formats for instances and certificates.

Files are JSON as json.dumps(obj, indent=2, ensure_ascii=False) lays it
out, plus a final newline; the writer emits that text directly, with no
intermediate objects. Instances carry exact integers only; certificates
carry rationals as "p/q" strings so nothing ever passes through floats.
Integers of magnitude at least 2^53 are serialized as decimal strings
-?[0-9]+, smaller ones as JSON numbers; rationals as -?[0-9]+(/[0-9]+)?
in lowest terms. Integer decimals of any length convert, also past the
interpreter's int/str digit limit, in subquadratic time. The parser
accepts each number only in the one form the serializer writes it, so no
leading zeros, no "-0" and no "3/1". Serialization is canonical:
serialize(parse(serialize(x))) is byte-identical to serialize(x), and
parse accepts no other text for x. A certificate's "seed" is always
written as 0 and parsed only as 0; it is not kept.

The writer renders each surface object once and keeps the text in its
__dict__ beside pf, outside the fields that equality, hashing, pickle and
copy see; so the -o instance and the certificate's final block share one
render. Equal surfaces built apart each render, and the parser keeps no
text, as its input need not be canonical.

Every object holds exactly the keys the serializer writes, nulls included;
a step's are the IsogenyStep fields, in the order IsogenyStep._fields gives
them, each with its writer and reader in the table _STEP_FIELDS. An extra or
missing key is a ValueError naming the object, and so is a key that appears
twice in one object. Text nested too deeply for the JSON decoder is a
ValueError too, not a RecursionError.

A text is read with the plain JSON decoder, which has no per-object hook
and keeps a repeated key's last value, and the record is kept only when
its build succeeds and the text holds exactly as many colons as the record
has members: 6 for an instance (its four and the order's two), 9 + 8 per
step for a certificate. Every member holds exactly one colon outside
strings and nothing else outside strings holds one, so the text holds at
least as many colons as members; it holds at least as many members as the
decoder kept, and the build has checked every object the decoder kept.
Equality therefore proves that no key repeated. Any other text, and any
text holding "-0", goes through the decoder with the duplicate-key hook
(_load), which refuses it with the message it always gave; a colon inside
a string only costs a second decode.

An instance is written as one %-format of a template built at import, its
32 matrix entries by repr when all lie below 2^53 in magnitude and by
_int_token otherwise; a matrix whose entries are all such ints is read in
one C-level pass (the set of entry types, min and max), any other entry by
entry. A step is written and read by two straight-line defs generated
from _STEP_FIELDS at import (_step_codec), which inline each field's
common case, an int below 2^53 in magnitude or a str, and pass every other
value to the table's writer or reader. It is written as one %-format of a
template built from IsogenyStep._fields, and its kernel, the integer pair
(basis, den) of surface.KernelSubgroup, as one of a 16-slot template:
entry x is the text of x/den in lowest terms, whose token is kept in a
bounded memo on (x, den) (_kernel_token), as a kernel's few Hermite
residues recur from step to step. A step is read with one comparison of
its keys against the field names, and its fields are set through the slot
setters, without a keyword dict.

A kernel is read back as a pair: den is the lcm of its entries'
denominators, which is the den of every kernel the pipeline records (each
has an entry 1/den), and basis is den times the entries. Two bounded memos
serve the reader: the parts of each entry's text, checked once
(_rational_parts), and the kernel of each 16 texts (_kernel_of_texts), so a
kernel read before costs one lookup. A refusal raises and is never kept,
and an entry the memos cannot hash is refused by the uncached check.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import repeat
from json.encoder import encode_basestring
from math import lcm
from operator import attrgetter, itemgetter

from .arith import _text_int, int_text, rational_text
from .errors import PreconditionError
from .isogeny import CertificateData, IsogenyStep
from .quadratic import make_order
from .surface import KernelSubgroup, PolarizedRMSurface

FORMAT_VERSION = 1
_BIG = 2**53
_INT_TEXT = re.compile(r"-?[0-9]+")
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


# ---------------------------------------------------------------------------
# writer: JSON text laid out as json.dumps(obj, indent=2, ensure_ascii=False)
# lays it out. `pad` is the indentation of the line a container opens on.
# ---------------------------------------------------------------------------


def _int_token(v: int) -> str:
    return repr(v) if -_BIG < v < _BIG else '"' + int_text(v) + '"'


def _array(tokens, pad: str) -> str:
    inner = "\n" + pad + "  "
    body = ("," + inner).join(tokens)
    return "[" + inner + body + "\n" + pad + "]" if body else "[]"


def _object(pairs, pad: str) -> str:
    inner = "\n" + pad + "  "
    body = ("," + inner).join(
        [encode_basestring(key) + ": " + token for key, token in pairs]
    )
    return "{" + inner + body + "\n" + pad + "}"


def _matrix(m, token, pad: str) -> str:
    inner = "\n" + pad + "    "
    sep, close = "," + inner, "\n" + pad + "  ]"
    return _array(["[" + inner + sep.join(map(token, row)) + close for row in m], pad)


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


def _decode_int(v) -> int:
    # most entries are JSON numbers below 2^53, taken as they stand; a bool
    # is not of type int
    if type(v) is int and -_BIG < v < _BIG:
        return v
    if isinstance(v, bool):
        raise ValueError("expected an integer, got a boolean")
    if isinstance(v, int):
        value, canonical = v, abs(v) < _BIG
    elif isinstance(v, str):
        if not _INT_TEXT.fullmatch(v):
            raise ValueError(f"integer string {v!r} is not of the form -?[0-9]+")
        value = _text_int(v)
        # the writer quotes an integer only from 2^53 up, and int_text
        # writes no leading zero (a nonzero value also rules out "-0")
        canonical = abs(value) >= _BIG and not v.lstrip("-").startswith("0")
    else:
        raise ValueError(f"expected an integer, got {type(v).__name__}")
    if not canonical:
        written = value if abs(value) < _BIG else int_text(value)
        raise ValueError(f"integer {v!r} is not written as {written!r}")
    return value


@lru_cache(maxsize=4096)
def _rational_parts(x) -> tuple[int, int]:
    """The numerator and denominator of a kernel entry's canonical text;
    each text is checked once per process (a refusal raises, so it is never
    kept)."""
    if not isinstance(x, str) or not _RATIONAL_TEXT.fullmatch(x):
        raise ValueError(f"rational entry {x!r} is not a string like '-3/4'")
    numerator, _, denominator = x.partition("/")
    n, d = _text_int(numerator), _text_int(denominator or "1")
    if d == 0:
        raise ValueError(f"rational entry {x!r} has a zero denominator")
    written = rational_text(n, d)
    if written != x:
        raise ValueError(f"rational entry {x!r} is not written as {written!r}")
    return n, d


# An entry holds its 16 texts and the pair, about 1.2 KB. The perfbench pool
# run at seed 1 meets 262 distinct kernels in its four passes, and at this
# bound it finds every repeat it would find with no bound.
@lru_cache(maxsize=256)
def _kernel_of_texts(texts: tuple) -> KernelSubgroup:
    """The kernel whose 16 entries, row by row, have these texts: den is
    the lcm of their denominators and basis is den times the entries."""
    parts = [*map(_rational_parts, texts)]
    den = lcm(*{d for _, d in parts})
    e = [n * (den // d) for n, d in parts]
    return KernelSubgroup((tuple(e[:4]), tuple(e[4:8]), tuple(e[8:12]), tuple(e[12:])), den)


def _decode_str(v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {type(v).__name__}")
    return v


def _rows(obj) -> list:
    """obj, refused unless it is a 4x4 array."""
    if type(obj) is list and len(obj) == 4:
        r0, r1, r2, r3 = obj
        if type(r0) is type(r1) is type(r2) is type(r3) is list:
            if len(r0) == len(r1) == len(r2) == len(r3) == 4:
                return obj
    raise ValueError("matrix must be a 4x4 array")


def _decode_matrix(obj) -> tuple:
    """A 4x4 matrix of integers, each read by _decode_int."""
    r0, r1, r2, r3 = rows = _rows(obj)
    entries = (*r0, *r1, *r2, *r3)
    if set(map(type, entries)) == {int} and -_BIG < min(entries) and max(entries) < _BIG:
        return (tuple(r0), tuple(r1), tuple(r2), tuple(r3))
    return tuple([tuple(map(_decode_int, row)) for row in rows])


def _decode_kernel(obj) -> KernelSubgroup:
    """A kernel from its 16 entry texts through _kernel_of_texts. A texts
    tuple the memo cannot hash holds an entry that is not a string; the
    entries are then checked in order, uncached, and the first bad one
    refused."""
    r0, r1, r2, r3 = _rows(obj)
    texts = (*r0, *r1, *r2, *r3)
    try:
        return _kernel_of_texts(texts)
    except TypeError:
        for x in texts:
            _rational_parts.__wrapped__(x)
        raise


def _decode_alpha(obj) -> tuple[int, int]:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValueError("alpha must be a two-element array")
    return (_decode_int(obj[0]), _decode_int(obj[1]))


def _values(obj, what: str, keys) -> list:
    """The values of a JSON object that holds exactly these keys, in order."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    if obj.keys() != set(keys):
        extra = [k for k in obj if k not in keys]
        missing = [k for k in keys if k not in obj]
        raise ValueError(
            f"{what} must have exactly the keys {', '.join(keys)}; "
            f"extra {extra}, missing {missing}"
        )
    return [obj[k] for k in keys]


def _unique_keys(pairs: list) -> dict:
    """The JSON object of these pairs, refusing a key that appears twice."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for k in obj if keys.count(k) > 1)
        raise ValueError(
            f"duplicate key {key!r} in the JSON object with keys {', '.join(obj)}"
        )
    return obj


# The decoders, built once: json.loads with a hook builds a new one per call.
# _JSON refuses a repeated key; _PLAIN keeps its last value.
_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)
_PLAIN = json.JSONDecoder()
# A JSON string, matched whole so that the scan skips what it holds, or an
# unquoted number -0, which the decoder would read as 0.
_STRING_OR_MINUS_ZERO = re.compile(r'"(?:[^"\\]|\\.)*"|-0(?![0-9.eE/])')
# "-0" anywhere; a compiled search skips to each "-" and finds it in about
# a third of the time `"-0" in text` takes on a certificate
_ANY_MINUS_ZERO = re.compile("-0")


def _load(text: str):
    # no canonical text holds "-0" at all, so the scan runs only on one that does
    if "-0" in text and any(m[0][0] == "-" for m in _STRING_OR_MINUS_ZERO.finditer(text)):
        raise ValueError("integer -0 is not written as 0")
    try:
        return _JSON.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("malformed JSON: arrays or objects nested too deeply") from None


def _parse(text: str, build, members):
    """build(_load(text)), taken from the plain decoder when that is proven
    the same: the text holds no "-0", the build succeeds, and the text holds
    exactly members(record) colons, the members its objects must have. Every
    member holds one colon outside strings, so a repeated key or a colon in
    a string makes the count larger. Any other text goes through _load."""
    if _ANY_MINUS_ZERO.search(text) is None:
        try:
            record = build(_PLAIN.decode(text))
        except (ValueError, RecursionError):
            pass  # _load refuses it, with a repeated key first
        else:
            if text.count(":") == members(record):
                return record
    return build(_load(text))


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


_INSTANCE_TEXT = _object(
    (
        ("order", _object((("D", "%s"), ("conductor", "%s")), "  ")),
        ("omega_action", _matrix([["%s"] * 4] * 4, str, "  ")),
        ("gram", _matrix([["%s"] * 4] * 4, str, "  ")),
        ("format_version", repr(FORMAT_VERSION)),
    ),
    "",
)


def _instance_text(surface: PolarizedRMSurface) -> str:
    (a0, a1, a2, a3), (g0, g1, g2, g3) = surface.action, surface.gram
    entries = (*a0, *a1, *a2, *a3, *g0, *g1, *g2, *g3)
    small = -_BIG < min(entries) and max(entries) < _BIG
    order, token = surface.order, repr if small else _int_token
    return _INSTANCE_TEXT % (_int_token(order.D), _int_token(order.conductor), *map(token, entries))


def _instance_from_obj(obj) -> PolarizedRMSurface:
    order_obj, action, gram, version = _values(
        obj, "instance", ("order", "omega_action", "gram", "format_version")
    )
    if _decode_int(version) != FORMAT_VERSION:
        raise ValueError("unsupported format_version")
    D, conductor = _values(order_obj, "order", ("D", "conductor"))
    try:
        order = make_order(_decode_int(D), _decode_int(conductor))
    except PreconditionError as exc:
        raise ValueError(f"instance order is invalid: {exc}") from exc
    return PolarizedRMSurface(order, _decode_matrix(action), _decode_matrix(gram))


def serialize_instance(surface: PolarizedRMSurface) -> str:
    """The surface's instance text, rendered once per object and kept."""
    text = surface.__dict__.get("text")
    if text is None:
        text = surface.__dict__["text"] = _instance_text(surface) + "\n"
    return text


# an instance's members: its four and the order's two
_INSTANCE_MEMBERS = 6


def parse_instance(text: str) -> PolarizedRMSurface:
    return _parse(text, _instance_from_obj, lambda surface: _INSTANCE_MEMBERS)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

# A step's fields sit three levels deep: certificate, steps, step.
_STEP_PAD = " " * 6

_KERNEL_TEXT = _matrix([["%s"] * 4] * 4, str, _STEP_PAD)


@lru_cache(maxsize=4096)
def _kernel_token(x: int, den: int) -> str:
    return '"' + rational_text(x, den) + '"'


def _kernel_text(k: KernelSubgroup) -> str:
    (b0, b1, b2, b3), den = k.basis, k.den
    return _KERNEL_TEXT % (*map(_kernel_token, (*b0, *b1, *b2, *b3), repeat(den)),)


# Each IsogenyStep field, with the writer of its non-null value as JSON text
# and its reader; a field whose default is None is written as null when
# unset. A step object has exactly these keys, in IsogenyStep._fields order.
_STEP_FIELDS = {
    "kind": (encode_basestring, _decode_str),
    "prime": (_int_token, _decode_int),
    "kernel_overlattice": (_kernel_text, _decode_kernel),
    "alpha": (lambda alpha: _array(map(_int_token, alpha), _STEP_PAD), _decode_alpha),
    "degree_before": (_int_token, _decode_int),
    "degree_after": (_int_token, _decode_int),
    "t": (_int_token, _decode_int),
    "branch": (encode_basestring, _decode_str),
}


def _step_codec():
    """_step_text and _step_from_obj, built from _STEP_FIELDS once, as
    Record.__init_subclass__ builds __init__: one generated straight-line
    def each. A field's common case is inline, an int below 2^53 in
    magnitude (which %s writes as repr does) or a str; None is written as
    null and read from null for an optional field, whose default is None;
    every other value goes through the table's writer or reader. A step is
    read through the slot setters, as pickle rebuilds a Record."""
    names = IsogenyStep._fields
    namespace = {
        "_BIG": _BIG,
        "_TEXT": _object([(name, "%s") for name in names], "    "),
        "_get": attrgetter(*names),
        "_items": itemgetter(*names),
        "_KEYS": _STEP_FIELDS.keys(),
        "_FIELDS": names,
        "_values": _values,
        "_new": object.__new__,
        "IsogenyStep": IsogenyStep,
    }
    tokens, sets = [], []
    for name, set_field in zip(names, IsogenyStep._setters):
        write, read = _STEP_FIELDS[name]
        namespace.update({f"_write_{name}": write, f"_read_{name}": read, f"_set_{name}": set_field})
        small = f"type({name}) is int and -_BIG < {name} < _BIG"
        token = f'"null" if {name} is None else _write_{name}({name})'
        if write is _int_token:
            token = f"{name} if {small} else {token}"
        value = f"_read_{name}({name})"
        if name in IsogenyStep._optional:
            value = f"None if {name} is None else {value}"
        if read is _decode_int:
            value = f"{name} if {small} else {value}"
        elif read is _decode_str:
            value = f"{name} if type({name}) is str else {value}"
        tokens.append(f"\n        {token},")
        sets.append(f"\n    _set_{name}(step, {value})")
    fields = ", ".join(names)
    exec(
        f"def _step_text(s):\n    {fields} = _get(s)\n    return _TEXT % ({''.join(tokens)}\n    )\n"
        "def _step_from_obj(obj, i):\n"
        "    if not isinstance(obj, dict) or obj.keys() != _KEYS:\n"
        "        _values(obj, f'step {i}', _FIELDS)  # raises, naming the keys\n"
        f"    {fields} = _items(obj)\n    step = _new(IsogenyStep){''.join(sets)}\n    return step\n",
        namespace,
    )
    return namespace["_step_text"], namespace["_step_from_obj"]


_step_text, _step_from_obj = _step_codec()


def serialize_certificate(cert: CertificateData) -> str:
    """The certificate's text. Its `final` block is serialize_instance(cert.final)
    indented by two spaces, one replace, as no token holds a newline."""
    return _object(
        (
            ("seed", "0"),
            ("steps", _array(map(_step_text, cert.steps), "  ")),
            ("final", serialize_instance(cert.final)[:-1].replace("\n", "\n  ")),
        ),
        "",
    ) + "\n"


def _certificate_from_obj(obj) -> CertificateData:
    seed_obj, steps_obj, final_obj = _values(obj, "certificate", ("seed", "steps", "final"))
    if not isinstance(steps_obj, list):
        raise ValueError("certificate steps must be an array")
    steps = tuple(map(_step_from_obj, steps_obj, range(len(steps_obj))))
    final = _instance_from_obj(final_obj)
    seed = _decode_int(seed_obj)
    if seed != 0:
        raise ValueError(
            f"seed is {int_text(seed)}; the deterministic pipeline always writes seed 0"
        )
    return CertificateData(steps=steps, final=final)


def _certificate_members(cert: CertificateData) -> int:
    """A certificate's three members, its final instance's and its steps'."""
    return 3 + _INSTANCE_MEMBERS + len(_STEP_FIELDS) * len(cert.steps)


def parse_certificate(text: str) -> CertificateData:
    return _parse(text, _certificate_from_obj, _certificate_members)
