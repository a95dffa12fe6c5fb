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
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from . import intmat
from .arith import int_text
from .intmat import RatMat
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


def _text_int(text: str) -> int:
    """The integer a -?[0-9]+ text writes, of any length: the built-in
    conversion below the digit limit, and above it halves of the text."""
    try:
        return int(text, 10)
    except ValueError:
        pass
    if text.startswith("-"):
        return -_text_int(text[1:])
    k = len(text) // 2
    return _text_int(text[:-k]) * 10**k + _text_int(text[-k:])


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


def _encode_int_matrix(m):
    return [[_encode_int(x) for x in row] for row in m]


def _decode_int_matrix(obj) -> intmat.IntMat:
    if not isinstance(obj, list) or len(obj) != 4:
        raise ValueError("matrix must be a 4x4 array")
    rows = []
    for row in obj:
        if not isinstance(row, list) or len(row) != 4:
            raise ValueError("matrix must be a 4x4 array")
        rows.append(tuple(_decode_int(x) for x in row))
    return tuple(rows)


def _encode_rational_matrix(m):
    return [[str(Fraction(x)) for x in row] for row in m]


def _decode_rational_matrix(obj) -> RatMat:
    if not isinstance(obj, list) or len(obj) != 4:
        raise ValueError("rational matrix must be a 4x4 array")
    rows = []
    for row in obj:
        if not isinstance(row, list) or len(row) != 4:
            raise ValueError("rational matrix must be a 4x4 array")
        out = []
        for x in row:
            if not isinstance(x, str) or not _RATIONAL_TEXT.fullmatch(x):
                raise ValueError(f"rational entry {x!r} is not a string like '-3/4'")
            try:
                value = Fraction(x)
            except ZeroDivisionError:
                raise ValueError(f"rational entry {x!r} has a zero denominator") from None
            if str(value) != x:
                raise ValueError(f"rational entry {x!r} is not written as {str(value)!r}")
            out.append(value)
        rows.append(tuple(out))
    return tuple(rows)


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
        "omega_action": _encode_int_matrix(surface.action),
        "gram": _encode_int_matrix(surface.gram),
        "format_version": FORMAT_VERSION,
    }


def _instance_from_obj(obj) -> PolarizedRMSurface:
    if not isinstance(obj, dict):
        raise ValueError("instance file must hold a JSON object")
    if obj.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported or missing format_version")
    order_obj = obj.get("order")
    if not isinstance(order_obj, dict):
        raise ValueError("missing order object")
    try:
        order = make_order(
            _decode_int(order_obj.get("D")), _decode_int(order_obj.get("conductor"))
        )
    except PreconditionError as exc:
        raise ValueError(f"instance order is invalid: {exc}") from exc
    action = _decode_int_matrix(obj.get("omega_action"))
    gram = _decode_int_matrix(obj.get("gram"))
    return PolarizedRMSurface(order, action, gram)


def serialize_instance(surface: PolarizedRMSurface) -> str:
    return _dump(_instance_obj(surface))


def parse_instance(text: str) -> PolarizedRMSurface:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    return _instance_from_obj(obj)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def serialize_certificate(cert: CertificateData) -> str:
    steps = []
    for s in cert.steps:
        steps.append(
            {
                "kind": s.kind,
                "prime": _encode_int(s.prime),
                "kernel_overlattice": (
                    None
                    if s.kernel_overlattice is None
                    else _encode_rational_matrix(s.kernel_overlattice)
                ),
                "alpha": None if s.alpha is None else [_encode_int(s.alpha[0]), _encode_int(s.alpha[1])],
                "degree_before": _encode_int(s.degree_before),
                "degree_after": _encode_int(s.degree_after),
                "t": None if s.t is None else _encode_int(s.t),
                "branch": s.branch,
            }
        )
    obj = {
        "seed": 0,
        "steps": steps,
        "final": _instance_obj(cert.final),
    }
    return _dump(obj)


def parse_certificate(text: str) -> CertificateData:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("certificate file must hold a JSON object")
    steps_obj = obj.get("steps")
    if not isinstance(steps_obj, list):
        raise ValueError("missing steps array")
    steps = []
    for s in steps_obj:
        if not isinstance(s, dict):
            raise ValueError("each step must be an object")
        kind = s.get("kind")
        branch = s.get("branch")
        if not isinstance(kind, str):
            raise ValueError("step kind must be a string")
        if branch is not None and not isinstance(branch, str):
            raise ValueError("step branch must be a string or null")
        alpha_obj = s.get("alpha")
        if alpha_obj is not None:
            if not isinstance(alpha_obj, list) or len(alpha_obj) != 2:
                raise ValueError("alpha must be a two-element array")
            alpha = (_decode_int(alpha_obj[0]), _decode_int(alpha_obj[1]))
        else:
            alpha = None
        kernel_obj = s.get("kernel_overlattice")
        kernel = None if kernel_obj is None else _decode_rational_matrix(kernel_obj)
        t_obj = s.get("t")
        steps.append(
            IsogenyStep(
                kind=kind,
                prime=_decode_int(s.get("prime")),
                kernel_overlattice=kernel,
                alpha=alpha,
                degree_before=_decode_int(s.get("degree_before")),
                degree_after=_decode_int(s.get("degree_after")),
                t=None if t_obj is None else _decode_int(t_obj),
                branch=branch,
            )
        )
    final = _instance_from_obj(obj.get("final"))
    seed = _decode_int(obj.get("seed"))
    if seed != 0:
        raise ValueError(
            f"seed is {int_text(seed)}; the deterministic pipeline always writes seed 0"
        )
    return CertificateData(steps=tuple(steps), final=final)
