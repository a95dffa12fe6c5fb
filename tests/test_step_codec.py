"""The certificate's step writer and reader against the field-by-field code
they replaced, kept here as references: the texts written and the records
read must be the same, and so must every refusal's message. A kernel, the
integer pair (basis, den), is written as the rationals basis / den and read
back as the same pair. The writer's token memo stays bounded and never
gives an entry a token of another."""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlattice import formats
from rmlattice.formats import (
    _RATIONAL_TEXT,
    _array,
    _decode_alpha,
    _decode_int,
    _decode_str,
    _instance_from_obj,
    _int_token,
    _load,
    _matrix,
    _object,
    _rows,
    _values,
    parse_certificate,
    serialize_certificate,
    serialize_instance,
)
from rmlattice.arith import _text_int, int_text, rational_text
from rmlattice.generator import generate_instance
from rmlattice.isogeny import CertificateData, IsogenyStep
from rmlattice.reduction import principalize
from rmlattice.surface import KernelSubgroup

# ---------------------------------------------------------------------------
# references: the step table both directions looped over, field by field
# ---------------------------------------------------------------------------

_BIG = 2**53
_PAD = " " * 6


def _reference_rational_token(q: Fraction) -> str:
    n, d = q.numerator, q.denominator
    if -_BIG < n < _BIG and d < _BIG:
        return '"%d"' % n if d == 1 else '"%d/%d"' % (n, d)
    return '"' + rational_text(n, d) + '"'


def _reference_write_kernel(k: KernelSubgroup) -> str:
    rationals = [[Fraction(x, k.den) for x in row] for row in k.basis]
    return _matrix(rationals, _reference_rational_token, _PAD)


def _reference_read_rational(x) -> Fraction:
    if not isinstance(x, str) or not _RATIONAL_TEXT.fullmatch(x):
        raise ValueError(f"rational entry {x!r} is not a string like '-3/4'")
    numerator, _, denominator = x.partition("/")
    try:
        value = Fraction(_text_int(numerator), _text_int(denominator or "1"))
    except ZeroDivisionError:
        raise ValueError(f"rational entry {x!r} has a zero denominator") from None
    written = rational_text(value.numerator, value.denominator)
    if written != x:
        raise ValueError(f"rational entry {x!r} is not written as {written!r}")
    return value


def _reference_read_kernel(m) -> KernelSubgroup:
    rows = [[*map(_reference_read_rational, row)] for row in _rows(m)]
    den = lcm(*(q.denominator for row in rows for q in row))
    return KernelSubgroup(tuple(tuple(int(q * den) for q in row) for row in rows), den)


_REFERENCE_STEP_FIELDS = (
    ("kind", json.encoder.encode_basestring, _decode_str),
    ("prime", _int_token, _decode_int),
    ("kernel_overlattice", _reference_write_kernel, _reference_read_kernel),
    ("alpha", lambda alpha: _array(map(_int_token, alpha), _PAD), _decode_alpha),
    ("degree_before", _int_token, _decode_int),
    ("degree_after", _int_token, _decode_int),
    ("t", _int_token, _decode_int),
    ("branch", json.encoder.encode_basestring, _decode_str),
)
_REFERENCE_KEYS = tuple(name for name, _, _ in _REFERENCE_STEP_FIELDS)
_REFERENCE_NULLABLE = frozenset(
    name for name, default in IsogenyStep.__init__.__kwdefaults__.items() if default is None
)


def reference_serialize_certificate(cert: CertificateData) -> str:
    steps = [
        _object(
            [
                (name, "null" if (v := getattr(s, name)) is None else encode(v))
                for name, encode, _ in _REFERENCE_STEP_FIELDS
            ],
            "    ",
        )
        for s in cert.steps
    ]
    return _object(
        (
            ("seed", "0"),
            ("steps", _array(steps, "  ")),
            ("final", serialize_instance(cert.final)[:-1].replace("\n", "\n  ")),
        ),
        "",
    ) + "\n"


def reference_parse_certificate(text: str) -> CertificateData:
    seed_obj, steps_obj, final_obj = _values(
        _load(text), "certificate", ("seed", "steps", "final")
    )
    if not isinstance(steps_obj, list):
        raise ValueError("certificate steps must be an array")
    steps = []
    for i, s in enumerate(steps_obj):
        values = _values(s, f"step {i}", _REFERENCE_KEYS)
        step = {
            name: None if v is None and name in _REFERENCE_NULLABLE else decode(v)
            for (name, _, decode), v in zip(_REFERENCE_STEP_FIELDS, values)
        }
        steps.append(IsogenyStep(**step))
    final = _instance_from_obj(final_obj)
    seed = _decode_int(seed_obj)
    if seed != 0:
        raise ValueError(
            f"seed is {int_text(seed)}; the deterministic pipeline always writes seed 0"
        )
    return CertificateData(steps=tuple(steps), final=final)


def test_the_step_table_names_the_reference_fields():
    assert _REFERENCE_KEYS == IsogenyStep._fields  # the codec's order


# ---------------------------------------------------------------------------
# both directions against the references
# ---------------------------------------------------------------------------

_FINAL = generate_instance(5, 3, [11], seed=42)

# 2^53 - 1 is the largest integer written as a number; past 2048 bits the
# decimal conversions divide and conquer; 10^4301 is past the 4300-digit limit
_EDGES = (2**53 - 1, 2**53, 2**2048 + 1, 3**1300, 10**4301 + 7)
_ints = st.one_of(
    st.integers(-1000, 1000),
    st.sampled_from(_EDGES).flatmap(lambda v: st.sampled_from((v, -v))),
    st.integers(-(2**80), 2**80),
)
_parts = st.one_of(
    st.integers(-50, 50), st.sampled_from((2**53 - 1, 2**53, -(2**53), 3**1300))
)
_denominators = st.one_of(
    st.integers(1, 60), st.sampled_from((2**53 - 1, 2**53, 10**4301 + 7))
)


@st.composite
def _kernels(draw):
    """A pair (basis, den) as the reader takes it: den the lcm of the
    denominators of basis / den, that is gcd(den, basis) = 1."""
    basis = draw(st.tuples(*[st.tuples(*[_parts] * 4)] * 4))
    den = draw(_denominators)
    g = gcd(den, *basis[0], *basis[1], *basis[2], *basis[3])
    return KernelSubgroup(tuple(tuple(x // g for x in row) for row in basis), den // g)


_steps = st.builds(
    IsogenyStep,
    kind=st.one_of(st.sampled_from(("quotient", "twist", "scale")), st.text(max_size=6)),
    prime=_ints,
    kernel_overlattice=st.none() | _kernels(),
    alpha=st.none() | st.tuples(_ints, _ints),
    degree_before=_ints,
    degree_after=_ints,
    t=st.none() | _ints,
    branch=st.none() | st.text(max_size=6),
)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.lists(_steps, max_size=4).map(tuple))
def test_both_directions_match_the_references(steps):
    cert = CertificateData(steps=steps, final=_FINAL)
    text = serialize_certificate(cert)
    assert text == reference_serialize_certificate(cert)
    parsed, reference = parse_certificate(text), reference_parse_certificate(text)
    assert parsed == reference == cert


def test_pipeline_certificates_match_the_references():
    for params, seed in [((5, 3**3 * 5, [11]), 1), ((13, 9, [17]), 3), ((5, 1, [11, 19]), 2)]:
        _, cert = principalize(generate_instance(*params, seed=seed))
        text = serialize_certificate(cert)
        assert text == reference_serialize_certificate(cert)
        assert parse_certificate(text) == reference_parse_certificate(text) == cert


# ---------------------------------------------------------------------------
# refusals: the same message from both readers
# ---------------------------------------------------------------------------


def _seed_certificate() -> dict:
    _, cert = principalize(generate_instance(5, 3, [11], seed=42))
    obj = json.loads(serialize_certificate(cert))
    assert [s["kernel_overlattice"] is None for s in obj["steps"]] == [True, False, True]
    return obj


def _set_kernel_entry(value):
    def tamper(obj):
        obj["steps"][1]["kernel_overlattice"][2][1] = value
    return tamper


def _set_step(field, value):
    def tamper(obj):
        obj["steps"][1][field] = value
    return tamper


def _drop_key(obj):
    del obj["steps"][1]["alpha"]


def _not_an_object(obj):
    obj["steps"][1] = list(obj["steps"][1].values())


def _kernel_rows(rows):
    def tamper(obj):
        kernel = obj["steps"][1]["kernel_overlattice"]
        obj["steps"][1]["kernel_overlattice"] = rows(kernel)
    return tamper


_STEP_REFUSALS = {
    "kernel int": _set_kernel_entry(3),
    "kernel null": _set_kernel_entry(None),
    "kernel bool": _set_kernel_entry(True),
    "kernel list": _set_kernel_entry([1, 2]),
    "kernel dict": _set_kernel_entry({"n": 1}),
    "kernel 3/1": _set_kernel_entry("3/1"),
    "kernel -0": _set_kernel_entry("-0"),
    "kernel 1/0": _set_kernel_entry("1/0"),
    "missing key": _drop_key,
    "extra key": _set_step("note", "ignored"),
    "null kind": _set_step("kind", None),
    "null prime": _set_step("prime", None),
    "null degree_before": _set_step("degree_before", None),
    "null degree_after": _set_step("degree_after", None),
    "step not an object": _not_an_object,
    "step a string": lambda obj: obj["steps"].__setitem__(1, "quotient"),
    "kernel 3 rows": _kernel_rows(lambda k: k[:3]),
    "kernel row of 5": _kernel_rows(lambda k: [k[0] + ["0"], *k[1:]]),
    "kernel not an array": _kernel_rows(lambda k: {"rows": k}),
}


def _refusal(parse, text: str) -> str:
    with pytest.raises(ValueError) as info:
        parse(text)
    return str(info.value)


@pytest.mark.parametrize("tamper", _STEP_REFUSALS.values(), ids=_STEP_REFUSALS)
def test_a_malformed_step_is_refused_as_the_reference_refuses_it(tamper):
    obj = _seed_certificate()
    tamper(obj)
    text = json.dumps(obj, indent=2)
    assert _refusal(parse_certificate, text) == _refusal(reference_parse_certificate, text)


def test_a_duplicate_step_key_is_refused_as_the_reference_refuses_it():
    text = serialize_certificate(principalize(generate_instance(5, 3, [11], seed=42))[1])
    twice = text.replace('"prime": 3,', '"prime": 3,\n      "prime": 3,', 1)
    assert twice != text
    message = _refusal(parse_certificate, twice)
    assert message == _refusal(reference_parse_certificate, twice)
    assert message.startswith("duplicate key 'prime'")


# ---------------------------------------------------------------------------
# the writer's token memo
# ---------------------------------------------------------------------------


def _certificate_with(kernel) -> CertificateData:
    step = IsogenyStep(
        kind="quotient", prime=3, kernel_overlattice=kernel, degree_before=9, degree_after=1
    )
    return CertificateData(steps=(step,), final=_FINAL)


def test_the_token_memo_is_bounded_and_never_stale():
    memo = formats._kernel_token
    bound = memo.cache_info().maxsize
    assert bound is not None and 0 < bound <= 2**16
    kernels = [
        KernelSubgroup(tuple(tuple(range(x, x + 4)) for x in range(16 * k, 16 * k + 16, 4)), 7)
        for k in range(bound // 16 + 20)
    ]
    # filled past its bound, the memo evicts; a kernel written again after
    # its entries were evicted, or while they stand, renders the same
    for _ in range(2):
        for kernel in kernels:
            cert = _certificate_with(kernel)
            assert serialize_certificate(cert) == reference_serialize_certificate(cert)
            assert memo.cache_info().currsize <= bound
    assert memo.cache_info().currsize == bound
    memo.cache_clear()


# ---------------------------------------------------------------------------
# a kernel's pair against its rationals
# ---------------------------------------------------------------------------


@st.composite
def _hermite_kernels(draw):
    """A column Hermite basis of den L' with L <= L' <= L / den: lower
    triangular, each diagonal entry a divisor of den and the entries left of
    it reduced below it; with gcd(den, basis) = 1, as every kernel the
    pipeline records has a unit diagonal entry."""
    den = draw(
        st.one_of(st.integers(2, 10**4), st.integers(2**53 - 2, 2**53 + 2), st.integers(2, 2**200))
    )
    rows = []
    for i in range(4):
        d = gcd(den, draw(st.integers(0, 2**64)))
        rows.append(tuple(draw(st.integers(0, d - 1)) for _ in range(i)) + (d,) + (0,) * (3 - i))
    if gcd(den, *rows[0], *rows[1], *rows[2], *rows[3]) != 1:
        rows[0] = (1, 0, 0, 0)
    return KernelSubgroup(tuple(rows), den)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_hermite_kernels())
def test_a_hermite_kernel_is_written_as_its_rationals_and_read_back_as_its_pair(kernel):
    text = formats._kernel_text(kernel)
    rationals = [[str(Fraction(x, kernel.den)) for x in row] for row in kernel.basis]
    assert json.loads(text) == rationals
    assert text == _reference_write_kernel(kernel)
    assert formats._decode_kernel(json.loads(text)) == kernel
    cert = _certificate_with(kernel)
    assert parse_certificate(serialize_certificate(cert)) == cert
