"""Stable JSON formats for instances and certificates.

Instances carry exact integers only; certificates carry rationals as
"p/q" strings so nothing ever passes through floats. Integers of magnitude
at least 2^53 are serialized as decimal strings -?[0-9]+, smaller ones as
JSON numbers; rationals as -?[0-9]+(/[0-9]+)? in lowest terms. Integer
decimals of any length convert, also past the interpreter's int/str digit
limit. The parser accepts each number only in the one form the serializer
writes it, so no leading zeros, no "-0" and no "3/1". Serialization is
canonical: serialize(parse(serialize(x))) is byte-identical to
serialize(x), and parse accepts no other text for x. A certificate's
"seed" is always written as 0 and parsed only as 0; it is not kept.

Every object holds exactly the keys the serializer writes, nulls included;
a step's are the IsogenyStep fields of the table _STEP_FIELDS, which both
directions loop over. An extra or missing key is a ValueError naming the
object.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from fractions import Fraction

from .arith import _text_int, int_text
from .errors import PreconditionError
from .isogeny import IsogenyStep
from .quadratic import make_order
from .reduction import CertificateData
from .surface import PolarizedRMSurface

FORMAT_VERSION = 1
_BIG = 2**53
_INT_TEXT = re.compile(r"-?[0-9]+")
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


# ---------------------------------------------------------------------------
# integer and matrix codecs
# ---------------------------------------------------------------------------


def _encode_int(v: int):
    return v if abs(v) < _BIG else int_text(v)


def _decode_int(v) -> int:
    if isinstance(v, bool):
        raise ValueError("expected an integer, got a boolean")
    if isinstance(v, int):
        value, canonical = v, abs(v) < _BIG
    elif isinstance(v, str):
        if not _INT_TEXT.fullmatch(v):
            raise ValueError(f"integer string {v!r} is not of the form -?[0-9]+")
        value = _text_int(v)
        # _encode_int writes a string only from 2^53 up, and int_text
        # writes no leading zero (a nonzero value also rules out "-0")
        canonical = abs(value) >= _BIG and not v.lstrip("-").startswith("0")
    else:
        raise ValueError(f"expected an integer, got {type(v).__name__}")
    if not canonical:
        raise ValueError(f"integer {v!r} is not written as {_encode_int(value)!r}")
    return value


def _decode_rational(x) -> Fraction:
    if not isinstance(x, str) or not _RATIONAL_TEXT.fullmatch(x):
        raise ValueError(f"rational entry {x!r} is not a string like '-3/4'")
    # from the two integers: Fraction's own text parser matches a second regex
    numerator, _, denominator = x.partition("/")
    try:
        value = Fraction(int(numerator), int(denominator or 1))
    except ZeroDivisionError:
        raise ValueError(f"rational entry {x!r} has a zero denominator") from None
    if str(value) != x:
        raise ValueError(f"rational entry {x!r} is not written as {str(value)!r}")
    return value


def _decode_str(v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {type(v).__name__}")
    return v


def _encode_matrix(m, entry) -> list:
    return [[entry(x) for x in row] for row in m]


def _decode_matrix(obj, entry) -> tuple:
    """A 4x4 matrix whose entries the decoder `entry` reads."""
    if not isinstance(obj, list) or len(obj) != 4 or not all(
        isinstance(row, list) and len(row) == 4 for row in obj
    ):
        raise ValueError("matrix must be a 4x4 array")
    return tuple(tuple(map(entry, row)) for row in obj)


def _encode_alpha(alpha):
    return [_encode_int(alpha[0]), _encode_int(alpha[1])]


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


def _load(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def _instance_obj(surface: PolarizedRMSurface) -> dict:
    return {
        "order": {
            "D": _encode_int(surface.order.D),
            "conductor": _encode_int(surface.order.conductor),
        },
        "omega_action": _encode_matrix(surface.action, _encode_int),
        "gram": _encode_matrix(surface.gram, _encode_int),
        "format_version": FORMAT_VERSION,
    }


def _instance_from_obj(obj) -> PolarizedRMSurface:
    order_obj, action, gram, version = _values(
        obj, "instance", ("order", "omega_action", "gram", "format_version")
    )
    if version != FORMAT_VERSION:
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
    return _dump(_instance_obj(surface))


def parse_instance(text: str) -> PolarizedRMSurface:
    return _instance_from_obj(_load(text))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

# Each IsogenyStep field in dataclass order, with the encoder and decoder of
# its non-null value; a field whose default is None is written as null when
# unset. A step object has exactly these keys.
_STEP_FIELDS = (
    ("kind", str, _decode_str),
    ("prime", _encode_int, _decode_int),
    (
        "kernel_overlattice",
        lambda m: _encode_matrix(m, str),
        lambda obj: _decode_matrix(obj, _decode_rational),
    ),
    ("alpha", _encode_alpha, _decode_alpha),
    ("degree_before", _encode_int, _decode_int),
    ("degree_after", _encode_int, _decode_int),
    ("t", _encode_int, _decode_int),
    ("branch", str, _decode_str),
)
_STEP_KEYS = tuple(name for name, _, _ in _STEP_FIELDS)
_NULLABLE = frozenset(f.name for f in fields(IsogenyStep) if f.default is None)


def serialize_certificate(cert: CertificateData) -> str:
    steps = [
        {
            name: None if (v := getattr(s, name)) is None else encode(v)
            for name, encode, _ in _STEP_FIELDS
        }
        for s in cert.steps
    ]
    return _dump({"seed": 0, "steps": steps, "final": _instance_obj(cert.final)})


def parse_certificate(text: str) -> CertificateData:
    seed_obj, steps_obj, final_obj = _values(
        _load(text), "certificate", ("seed", "steps", "final")
    )
    if not isinstance(steps_obj, list):
        raise ValueError("certificate steps must be an array")
    steps = []
    for i, s in enumerate(steps_obj):
        values = _values(s, f"step {i}", _STEP_KEYS)
        step = {
            name: None if v is None and name in _NULLABLE else decode(v)
            for (name, _, decode), v in zip(_STEP_FIELDS, values)
        }
        steps.append(IsogenyStep(**step))
    final = _instance_from_obj(final_obj)
    seed = _decode_int(seed_obj)
    if seed != 0:
        raise ValueError(
            f"seed is {int_text(seed)}; the deterministic pipeline always writes seed 0"
        )
    return CertificateData(steps=tuple(steps), final=final)
