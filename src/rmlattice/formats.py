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
a step's are the IsogenyStep fields of the table _STEP_FIELDS, the one place
that names them, with each field's writer and reader. An extra or missing key
is a ValueError naming the object, and so is a key that appears twice in one
object. Text nested too deeply for the JSON decoder is a ValueError too, not
a RecursionError.

A step is written as one %-format of a template built from the table's keys,
and its kernel, the integer pair (basis, den) of surface.KernelSubgroup, as
one of a 16-slot template: entry x is the text of x/den in lowest terms,
whose token is kept in a bounded memo on (x, den) (_kernel_token), as a
kernel's few Hermite residues recur from step to step. A step is read with
one comparison of its keys against the table's, and built from its field
values without a keyword dict.

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
from operator import attrgetter, floordiv, itemgetter, mul

from .arith import _text_int, int_text, rational_text
from .errors import PreconditionError
from .isogeny import IsogenyStep
from .quadratic import make_order
from .reduction import CertificateData
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


def _int_matrix(m, pad: str) -> str:
    # when every entry is below 2^53, as is usual, repr writes them with no
    # Python call per entry
    small = -_BIG < min(map(min, m)) and max(map(max, m)) < _BIG
    return _matrix(m, repr if small else _int_token, pad)


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
    numerators, denominators = zip(*map(_rational_parts, texts))
    den = lcm(*denominators)
    entries = map(mul, numerators, map(floordiv, repeat(den), denominators))
    return KernelSubgroup(tuple(zip(entries, entries, entries, entries)), den)


def _decode_str(v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {type(v).__name__}")
    return v


def _rows(obj) -> list:
    """obj, refused unless it is a 4x4 array."""
    if (
        type(obj) is not list
        or [*map(type, obj)] != [list] * 4
        or [*map(len, obj)] != [4] * 4
    ):
        raise ValueError("matrix must be a 4x4 array")
    return obj


def _decode_matrix(obj, entry) -> tuple:
    """A 4x4 matrix whose entries the decoder `entry` reads."""
    return tuple([tuple(map(entry, row)) for row in _rows(obj)])


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


# One decoder for every parse: json.loads with a hook builds a new one per call.
_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)
# A JSON string, matched whole so that the scan skips what it holds, or an
# unquoted number -0, which the decoder would read as 0.
_STRING_OR_MINUS_ZERO = re.compile(r'"(?:[^"\\]|\\.)*"|-0(?![0-9.eE/])')


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


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def _instance_text(surface: PolarizedRMSurface) -> str:
    D, conductor = surface.order.D, surface.order.conductor
    order = _object((("D", _int_token(D)), ("conductor", _int_token(conductor))), "  ")
    return _object(
        (
            ("order", order),
            ("omega_action", _int_matrix(surface.action, "  ")),
            ("gram", _int_matrix(surface.gram, "  ")),
            ("format_version", repr(FORMAT_VERSION)),
        ),
        "",
    )


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
    return PolarizedRMSurface(
        order, _decode_matrix(action, _decode_int), _decode_matrix(gram, _decode_int)
    )


def serialize_instance(surface: PolarizedRMSurface) -> str:
    """The surface's instance text, rendered once per object and kept."""
    text = surface.__dict__.get("text")
    if text is None:
        text = surface.__dict__["text"] = _instance_text(surface) + "\n"
    return text


def parse_instance(text: str) -> PolarizedRMSurface:
    return _instance_from_obj(_load(text))


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


# Each IsogenyStep field in the order of IsogenyStep._fields, with the
# writer of its non-null value as JSON text and its reader; a field whose
# default is None is written as null when unset. A step object has exactly
# these keys.
_STEP_FIELDS = (
    ("kind", encode_basestring, _decode_str),
    ("prime", _int_token, _decode_int),
    ("kernel_overlattice", _kernel_text, _decode_kernel),
    ("alpha", lambda alpha: _array(map(_int_token, alpha), _STEP_PAD), _decode_alpha),
    ("degree_before", _int_token, _decode_int),
    ("degree_after", _int_token, _decode_int),
    ("t", _int_token, _decode_int),
    ("branch", encode_basestring, _decode_str),
)
_STEP_KEYS = tuple(name for name, _, _ in _STEP_FIELDS)
_STEP_KEY_SET = frozenset(_STEP_KEYS)
_STEP_TEXT = _object([(name, "%s") for name in _STEP_KEYS], "    ")
_STEP_VALUES = attrgetter(*_STEP_KEYS)
_STEP_ITEMS = itemgetter(*_STEP_KEYS)
_STEP_WRITERS = tuple(write for _, write, _ in _STEP_FIELDS)
# (reader, nullable) per field: a field with a default, which is always None,
# reads null as None
_STEP_READERS = tuple(
    (read, name in IsogenyStep.__init__.__kwdefaults__) for name, _, read in _STEP_FIELDS
)


def _step_text(s: IsogenyStep) -> str:
    return _STEP_TEXT % tuple(
        ["null" if v is None else write(v) for write, v in zip(_STEP_WRITERS, _STEP_VALUES(s))]
    )


def _step_from_obj(obj, i: int) -> IsogenyStep:
    if not isinstance(obj, dict) or obj.keys() != _STEP_KEY_SET:
        _values(obj, f"step {i}", _STEP_KEYS)  # raises, naming the keys
    # built from its field values as pickle rebuilds a Record
    step = object.__new__(IsogenyStep)
    step.__setstate__(
        [
            None if v is None and nullable else read(v)
            for (read, nullable), v in zip(_STEP_READERS, _STEP_ITEMS(obj))
        ]
    )
    return step


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


def parse_certificate(text: str) -> CertificateData:
    seed_obj, steps_obj, final_obj = _values(
        _load(text), "certificate", ("seed", "steps", "final")
    )
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
