"""The direct JSON writer and the decimal conversions against the code they
replaced, kept here as references: the writer against json.dumps of the
former object builders, byte for byte, and int_text and _text_int against
divide and conquer on powers of ten by divmod. Every refusal of the reader
keeps its message."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlattice import formats
from rmlattice.arith import _text_int, int_text
from rmlattice.errors import PreconditionError
from rmlattice.formats import (
    FORMAT_VERSION,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
)
from rmlattice.generator import generate_instance
from rmlattice.isogeny import CertificateData, IsogenyStep
from rmlattice.quadratic import make_order
from rmlattice.reduction import principalize
from rmlattice.surface import KernelSubgroup, PolarizedRMSurface

# ---------------------------------------------------------------------------
# references: the former decimal conversions and writer
# ---------------------------------------------------------------------------


def reference_int_text(v: int) -> str:
    try:
        return str(v)
    except ValueError:
        pass
    if v < 0:
        return "-" + reference_int_text(-v)
    k, power = 1, 10
    while power * power <= v:
        k, power = 2 * k, power * power
    hi, lo = divmod(v, power)
    return reference_int_text(hi) + reference_int_text(lo).zfill(k)


def reference_text_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        pass
    if text.startswith("-"):
        return -reference_text_int(text[1:])
    k = len(text) // 2
    return reference_text_int(text[:-k]) * 10**k + reference_text_int(text[-k:])


def _encode_int(v: int):
    return v if abs(v) < 2**53 else reference_int_text(v)


def _encode_matrix(m, entry) -> list:
    return [[entry(x) for x in row] for row in m]


def _instance_obj(surface) -> dict:
    return {
        "order": {
            "D": _encode_int(surface.order.D),
            "conductor": _encode_int(surface.order.conductor),
        },
        "omega_action": _encode_matrix(surface.action, _encode_int),
        "gram": _encode_matrix(surface.gram, _encode_int),
        "format_version": FORMAT_VERSION,
    }


_REFERENCE_STEP_ENCODERS = (
    ("kind", str),
    ("prime", _encode_int),
    (
        "kernel_overlattice",
        lambda k: _encode_matrix(k.basis, lambda x: str(Fraction(x, k.den))),
    ),
    ("alpha", lambda alpha: [_encode_int(alpha[0]), _encode_int(alpha[1])]),
    ("degree_before", _encode_int),
    ("degree_after", _encode_int),
    ("t", _encode_int),
    ("branch", str),
)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def reference_serialize_instance(surface) -> str:
    return _dump(_instance_obj(surface))


def reference_serialize_certificate(cert) -> str:
    steps = [
        {
            name: None if (v := getattr(s, name)) is None else encode(v)
            for name, encode in _REFERENCE_STEP_ENCODERS
        }
        for s in cert.steps
    ]
    return _dump({"seed": 0, "steps": steps, "final": _instance_obj(cert.final)})


# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------

_near_2_53 = st.builds(
    lambda sign, d: sign * (2**53 + d), st.sampled_from((1, -1)), st.integers(-2, 2)
)
_ints = st.one_of(
    st.integers(-1000, 1000),
    _near_2_53,
    st.integers(-(2**80), 2**80),
    st.integers(1, 15000).flatmap(lambda b: st.integers(-(2**b), 2**b)),
)


def _matrices(entries):
    return st.tuples(*[st.tuples(*[entries] * 4)] * 4)


# kernels (basis, den) with entries and den on both sides of 2^53
_kernels = st.builds(
    KernelSubgroup,
    _matrices(
        st.one_of(st.integers(-(10**6), 10**6), _near_2_53, st.integers(-(2**80), 2**80))
    ),
    st.one_of(st.integers(1, 10**6), st.integers(2**53 - 2, 2**53 + 2), st.integers(1, 2**80)),
)


_orders = st.builds(
    make_order,
    st.sampled_from((2, 5, 13, 2**61 - 1)),
    st.one_of(st.integers(1, 99), st.integers(2**53 - 2, 2**53 + 2), st.just(3**9000)),
)
_surfaces = st.builds(PolarizedRMSurface, _orders, _matrices(_ints), _matrices(_ints))
_steps = st.builds(
    IsogenyStep,
    kind=st.one_of(st.sampled_from(("quotient", "twist")), st.text(max_size=8)),
    prime=_ints,
    kernel_overlattice=st.none() | _kernels,
    alpha=st.none() | st.tuples(_ints, _ints),
    degree_before=_ints,
    degree_after=_ints,
    t=st.none() | _ints,
    branch=st.none() | st.text(max_size=8),
)
_certificates = st.builds(
    CertificateData, st.lists(_steps, max_size=4).map(tuple), _surfaces
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_surfaces, _certificates)
def test_writer_matches_json_dumps_of_the_former_objects(surface, cert):
    assert serialize_instance(surface) == reference_serialize_instance(surface)
    assert serialize_certificate(cert) == reference_serialize_certificate(cert)


def test_writer_matches_json_dumps_on_pipeline_certificates():
    for params, seed in [((5, 3, [11]), 42), ((13, 9, [17]), 3), ((5, 59049, [11]), 1)]:
        start = generate_instance(*params, seed=seed)
        result, cert = principalize(start)
        assert serialize_instance(result) == reference_serialize_instance(result)
        assert serialize_certificate(cert) == reference_serialize_certificate(cert)
    empty = CertificateData(steps=(), final=start)
    assert '"steps": [],' in serialize_certificate(empty)
    assert serialize_certificate(empty) == reference_serialize_certificate(empty)


def _load_workloads():
    """perfbench/workloads.py as a module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workload_shapes", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


# sha256 of every chain's result instance, certificate and input instance
# texts, in that order, over the first pass of seed 1
_WORKLOAD_DIGESTS = {
    "pool": "ff7e9f4108adf4dff3a26143ad87caaaeb6c0407ea7c2bdb9ce71d0786ba74c1",
    "conductor": "9d569e30b8ca4161e78c00b80010296b068dbd046d84e67d7acce21971756965",
    "numtheory": "3b22c454edb59e39933a14a958232a80ced6e8a66d4c5a73aaec642fa2583b19",
}


@pytest.mark.parametrize("workload", list(_WORKLOAD_DIGESTS))
def test_the_workloads_write_their_pinned_bytes(workload):
    digest = hashlib.sha256()
    for req in _load_workloads().build(workload, 1, 1)[0]:
        try:
            start = generate_instance(req.D, req.f, list(req.primes), req.gen_seed)
        except PreconditionError:
            continue
        result, cert = principalize(start)
        digest.update(serialize_instance(result).encode())
        digest.update(serialize_certificate(cert).encode())
        digest.update(serialize_instance(start).encode())
    assert digest.hexdigest() == _WORKLOAD_DIGESTS[workload]


# ---------------------------------------------------------------------------
# the instance text kept on a surface
# ---------------------------------------------------------------------------


def _counting_renders(monkeypatch) -> list:
    """The surfaces formats._instance_text renders from now on, in order."""
    renders = []
    real = formats._instance_text

    def counting(s):
        renders.append(s)
        return real(s)

    monkeypatch.setattr(formats, "_instance_text", counting)
    return renders


def test_the_library_path_renders_the_final_surface_once(monkeypatch):
    result, report = principalize(generate_instance(5, 3**3 * 5, [11], 1))
    assert report.final is result
    renders = _counting_renders(monkeypatch)
    text = serialize_instance(result)
    cert = serialize_certificate(report)
    assert len(renders) == 1 and renders[0] is result
    assert cert.endswith('\n  "final": ' + text[:-1].replace("\n", "\n  ") + "\n}\n")
    assert cert == reference_serialize_certificate(report)


def test_a_kept_text_is_a_fresh_render_of_an_equal_surface(monkeypatch):
    params = (13, 5 * 7, [3], 2)
    kept = principalize(generate_instance(*params))[0]
    text = serialize_instance(kept)
    assert vars(kept)["text"] is text
    twin = principalize(generate_instance(*params))[0]
    assert twin == kept and twin is not kept and "text" not in vars(twin)
    renders = _counting_renders(monkeypatch)
    assert serialize_instance(twin) == text == reference_serialize_instance(twin)
    assert serialize_instance(kept) is text
    assert renders == [twin]


def test_a_parsed_surface_renders_anew(monkeypatch):
    s = generate_instance(5, 9, [11], 3)
    canonical = serialize_instance(s)
    # keys reordered and laid out with other whitespace: the parser accepts it
    obj = json.loads(canonical)
    loose = json.dumps(dict(reversed(list(obj.items()))), separators=(" ,", " : "))
    renders = _counting_renders(monkeypatch)
    for text in (canonical, loose):
        back = parse_instance(text)
        assert back == s and "text" not in vars(back)
        assert serialize_instance(back) == canonical
    assert len(renders) == 2


def test_a_kept_text_is_outside_equality_hashing_and_repr():
    s = generate_instance(5, 3, [11], 42)
    bare = PolarizedRMSurface(s.order, s.action, s.gram)
    serialize_instance(s)
    assert "text" in vars(s) and "text" not in vars(bare)
    assert s == bare and bare == s and not s != bare
    assert hash(s) == hash(bare) and repr(s) == repr(bare)
    assert len({s, bare}) == 1


# ---------------------------------------------------------------------------
# decimal text both ways
# ---------------------------------------------------------------------------


def _digit_cases():
    rng = random.Random(2024)
    cases = [0, 1, -1, 9, -10, 2**53, -(2**53)]
    for digits in (4299, 4300, 4301, 8600, 30000):
        cases += [10**digits, 10**digits - 1, -(10**digits), 1 - 10**digits]
    # 4300 digits, the default limit, and 4301, the first past it
    cases += [10**4299 + rng.getrandbits(1000), 10**4300 + rng.getrandbits(1000)]
    for _ in range(24):
        bits = int(2 ** rng.uniform(4, 18.2))  # up to about 300k bits
        cases.append(rng.choice((1, -1)) * rng.getrandbits(bits))
    cases.append(rng.getrandbits(300_000))
    return cases


def test_int_text_and_text_int_match_the_divmod_reference():
    for v in _digit_cases():
        text = int_text(v)
        assert text == reference_int_text(v)
        assert _text_int(text) == v == reference_text_int(text)


# ---------------------------------------------------------------------------
# the reader's refusals keep their messages
# ---------------------------------------------------------------------------


class _Unquoted(str):
    """An entry written into the JSON text as it stands, not as a string."""


_INSTANCE_REFUSALS = [
    (True, "expected an integer, got a boolean"),
    (2**53, "integer 9007199254740992 is not written as '9007199254740992'"),
    (1.0, "expected an integer, got float"),
    ("-0", "integer '-0' is not written as 0"),
    (_Unquoted("-0"), "integer -0 is not written as 0"),  # the decoder reads 0
    ("007", "integer '007' is not written as 7"),
    ("3/1", "integer string '3/1' is not of the form -?[0-9]+"),
    ("2/4", "integer string '2/4' is not of the form -?[0-9]+"),
    ("1/0", "integer string '1/0' is not of the form -?[0-9]+"),
]
_KERNEL_REFUSALS = [
    (True, "rational entry True is not a string like '-3/4'"),
    (2**53, "rational entry 9007199254740992 is not a string like '-3/4'"),
    (1.0, "rational entry 1.0 is not a string like '-3/4'"),
    ([1], "rational entry [1] is not a string like '-3/4'"),
    ([], "rational entry [] is not a string like '-3/4'"),
    ({"n": 1}, "rational entry {'n': 1} is not a string like '-3/4'"),
    (3, "rational entry 3 is not a string like '-3/4'"),
    ("-0", "rational entry '-0' is not written as '0'"),
    ("007", "rational entry '007' is not written as '7'"),
    ("3/1", "rational entry '3/1' is not written as '3'"),
    ("2/4", "rational entry '2/4' is not written as '1/2'"),
    ("1/0", "rational entry '1/0' has a zero denominator"),
]


def _seed_files():
    start = generate_instance(5, 3, [11], seed=42)
    cert = principalize(start)[1]
    return json.loads(serialize_instance(start)), json.loads(serialize_certificate(cert))


def _text_with(root, path, entry) -> str:
    """The JSON text of root with the entry at path, a tuple of keys and
    indices, replaced by `entry`."""
    *outer, last = path
    obj = root
    for key in outer:
        obj = obj[key]
    unquoted = isinstance(entry, _Unquoted)
    obj[last] = "@entry" if unquoted else entry
    text = json.dumps(root)
    return text.replace('"@entry"', entry) if unquoted else text


@pytest.mark.parametrize("entry, message", _INSTANCE_REFUSALS)
def test_an_instance_entry_is_refused_with_its_message(entry, message):
    inst, _ = _seed_files()
    # the row holds valid entries too, some already read when the bad one is
    text = _text_with(inst, ("gram", 2, 3), entry)
    with pytest.raises(ValueError) as info:
        parse_instance(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "entry, message",
    [
        (True, "expected an integer, got a boolean"),
        (1.0, "expected an integer, got float"),
        (_Unquoted("1e0"), "expected an integer, got float"),
    ],
)
def test_a_format_version_other_than_the_integer_1_is_refused(entry, message):
    inst, _ = _seed_files()
    text = _text_with(inst, ("format_version",), entry)
    with pytest.raises(ValueError) as info:
        parse_instance(text)
    assert str(info.value) == message


@pytest.mark.parametrize("entry, message", _KERNEL_REFUSALS)
def test_a_kernel_entry_is_refused_with_its_message(entry, message):
    _, cert = _seed_files()
    kernel = cert["steps"][1]["kernel_overlattice"]
    # the entry's row and the rows before it are read first, so a text seen
    # before the bad one is already decoded
    kernel[3][2] = entry
    with pytest.raises(ValueError) as info:
        parse_certificate(json.dumps(cert))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("kind", 3, "expected a string, got int"),
        ("branch", ["split_divide"], "expected a string, got list"),
        ("alpha", [1, 0, 0], "alpha must be a two-element array"),
    ],
)
def test_a_step_field_is_refused_with_its_message(field, value, message):
    _, cert = _seed_files()
    cert["steps"][-1][field] = value  # the divide step, which has a branch
    with pytest.raises(ValueError) as info:
        parse_certificate(json.dumps(cert))
    assert str(info.value) == message


def test_rational_texts_read_once_per_certificate_are_still_exact():
    _, cert = _seed_files()
    kernel = cert["steps"][1]["kernel_overlattice"]
    texts = [x for row in kernel for x in row]
    assert len(set(texts)) < len(texts)  # texts repeat within one kernel
    parsed = parse_certificate(json.dumps(cert)).steps[1].kernel_overlattice
    assert [Fraction(x, parsed.den) for row in parsed.basis for x in row] == [
        Fraction(x) for x in texts
    ]


@pytest.mark.parametrize(
    "entry, message",
    [
        ("3/1", "rational entry '3/1' is not written as '3'"),
        ("01/3", "rational entry '01/3' is not written as '1/3'"),
        ("1/0", "rational entry '1/0' has a zero denominator"),
        ("-0", "rational entry '-0' is not written as '0'"),
    ],
)
def test_a_refused_rational_text_is_refused_again(entry, message):
    # the reader's cache keeps values only: a refusal is never remembered
    _, cert = _seed_files()
    cert["steps"][1]["kernel_overlattice"][0][0] = entry
    text = json.dumps(cert)
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            parse_certificate(text)
        assert str(info.value) == message


def test_parsed_kernel_entries_are_the_objects_replay_derives():
    start = generate_instance(5, 3**4 * 5, [11], seed=1)
    _, cert = principalize(start)
    parsed = parse_certificate(serialize_certificate(cert))
    _, derived = principalize(start)
    kernels = 0
    for rec, der in zip(parsed.steps, derived.steps, strict=True):
        if rec.kernel_overlattice is not None:
            kernels += 1
            assert rec.kernel_overlattice == der.kernel_overlattice
    assert kernels >= 5  # one per conductor prime, with multiplicity


@pytest.mark.parametrize(
    "memo, key",
    [
        (formats._kernel_token, lambda i: (2 * i + 1, 2)),
        (formats._rational_parts, lambda i: (f"{2 * i + 1}/2",)),
        (formats._kernel_of_texts, lambda i: ((f"{2 * i + 1}/2",) + ("0",) * 15,)),
    ],
    ids=["_kernel_token", "_rational_parts", "_kernel_of_texts"],
)
def test_the_codec_memos_are_bounded(memo, key):
    memo.cache_clear()
    maxsize = memo.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 2**16
    for i in range(maxsize + 10):
        memo(*key(i))
    assert memo.cache_info().currsize == maxsize
    memo.cache_clear()


def _with_big_kernel(cert, step: int, entries) -> CertificateData:
    """cert with the kernel of step `step` replaced by the one of these 16
    rationals: den the lcm of their denominators, as the reader takes it."""
    steps = list(cert.steps)
    den = lcm(*(q.denominator for q in entries))
    it = iter([int(q * den) for q in entries])
    kernel = KernelSubgroup(tuple(tuple(next(it) for _ in range(4)) for _ in range(4)), den)
    fields = {name: getattr(steps[step], name) for name in IsogenyStep._fields}
    steps[step] = IsogenyStep(**{**fields, "kernel_overlattice": kernel})
    return CertificateData(steps=tuple(steps), final=cert.final)


@pytest.mark.parametrize("limit", [None, 640])
def test_rationals_past_2_53_and_the_digit_limit_round_trip(limit):
    _, cert = principalize(generate_instance(5, 3, [11], seed=42))
    numerators = (2**53 - 1, 2**53, 3**700, 7**1200)
    entries = [Fraction(n, d) for n in numerators for d in (1, 2**53 - 1, 2**53 + 7, 11**800)]
    entries = [-q if i % 3 else q for i, q in enumerate(entries)]
    cert = _with_big_kernel(cert, 1, entries)
    text = reference_serialize_certificate(cert)
    old = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        written = serialize_certificate(cert)
        back = parse_certificate(written)
        again = serialize_certificate(back)
    finally:
        sys.set_int_max_str_digits(old)
    assert written == again == text
    assert back == cert


def test_codec_round_trips_with_the_digit_limit_off():
    # with no limit the built-in conversions would take every size; the codec
    # chooses its path by size, so the texts are the ones the default limit gives
    start = generate_instance(5, 3**10, [11], seed=1)
    final, cert = principalize(start)
    instance, certificate = serialize_instance(start), serialize_certificate(cert)
    values = [v for v in _digit_cases() if abs(v) < 10**9000]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        texts = [int_text(v) for v in values]
        read = [_text_int(t) for t in texts]
        inst_back = parse_instance(instance)
        cert_back = parse_certificate(certificate)
        written = serialize_instance(inst_back), serialize_certificate(cert_back)
    finally:
        sys.set_int_max_str_digits(old)
    assert max(map(len, texts)) > 4300
    assert texts == [reference_int_text(v) for v in values]
    assert read == values
    assert written == (instance, certificate)
    assert inst_back == start and cert_back == cert


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"a": 1, "a": 2}', "duplicate key 'a' in the JSON object with keys a"),
        (
            '{"b": [{"c": 1, "d": 2, "c": 3}]}',
            "duplicate key 'c' in the JSON object with keys c, d",
        ),
    ],
)
def test_duplicate_keys_are_refused_with_the_key(text, message):
    with pytest.raises(ValueError) as info:
        parse_instance(text)
    assert str(info.value) == message
