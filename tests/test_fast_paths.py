"""The per-object fast paths against the code they replaced, kept here as
references: the instance writer's one template against the writer that
built each container in turn, the one-pass matrix read against the reader
of each entry, the surface's minimal-polynomial comparison against the
loop over its 16 entries, and a step the certificate reader sets through
the slot setters against the step built by keyword."""

from __future__ import annotations

import copy
import json
import pickle
from json.encoder import encode_basestring

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlattice import formats, intmat
from rmlattice.arith import int_text
from rmlattice.formats import (
    FORMAT_VERSION,
    _decode_int,
    _decode_matrix,
    _instance_text,
    parse_certificate,
    serialize_certificate,
)
from rmlattice.generator import generate_instance
from rmlattice.isogeny import IsogenyStep
from rmlattice.quadratic import make_order
from rmlattice.reduction import principalize
from rmlattice.surface import PolarizedRMSurface, apply_unimodular, standard_instance

_BIG = 2**53

# ---------------------------------------------------------------------------
# references: the writer that built each container, the reader of each
# entry and the minimal-polynomial loop
# ---------------------------------------------------------------------------


def _reference_int_token(v: int) -> str:
    return repr(v) if -_BIG < v < _BIG else '"' + int_text(v) + '"'


def _reference_array(tokens, pad: str) -> str:
    inner = "\n" + pad + "  "
    body = ("," + inner).join(tokens)
    return "[" + inner + body + "\n" + pad + "]" if body else "[]"


def _reference_object(pairs, pad: str) -> str:
    inner = "\n" + pad + "  "
    body = ("," + inner).join(
        [encode_basestring(key) + ": " + token for key, token in pairs]
    )
    return "{" + inner + body + "\n" + pad + "}"


def _reference_matrix(m, token, pad: str) -> str:
    inner = "\n" + pad + "    "
    sep, close = "," + inner, "\n" + pad + "  ]"
    return _reference_array(
        ["[" + inner + sep.join(map(token, row)) + close for row in m], pad
    )


def _reference_int_matrix(m, pad: str) -> str:
    small = -_BIG < min(map(min, m)) and max(map(max, m)) < _BIG
    return _reference_matrix(m, repr if small else _reference_int_token, pad)


def reference_instance_text(surface) -> str:
    D, conductor = surface.order.D, surface.order.conductor
    order = _reference_object(
        (("D", _reference_int_token(D)), ("conductor", _reference_int_token(conductor))), "  "
    )
    return _reference_object(
        (
            ("order", order),
            ("omega_action", _reference_int_matrix(surface.action, "  ")),
            ("gram", _reference_int_matrix(surface.gram, "  ")),
            ("format_version", repr(FORMAT_VERSION)),
        ),
        "",
    )


def reference_decode_matrix(obj):
    return tuple([tuple(map(_decode_int, row)) for row in formats._rows(obj)])


def reference_defect(surface):
    e, a = surface.gram, surface.action
    if not intmat.is_antisymmetric(e):
        return "gram form is not antisymmetric"
    if surface.pf == 0:
        return "gram form is degenerate"
    t, n = surface.order.trace_omega, surface.order.norm_omega
    for i, (row2, row) in enumerate(zip(intmat.mat_mul(a, a), a)):
        for j, (x2, x) in enumerate(zip(row2, row)):
            if x2 - t * x + (n if i == j else 0):
                return "action does not satisfy the order's minimal polynomial"
    if not intmat.is_antisymmetric(intmat.mat_mul(e, a)):
        return "action is not symmetric for the gram form"
    return None


# ---------------------------------------------------------------------------
# the instance template
# ---------------------------------------------------------------------------

_small = st.integers(-9, 9)
_edges = st.sampled_from(
    (_BIG - 1, -(_BIG - 1), _BIG, -_BIG, _BIG + 1, -(_BIG + 1), 10**4300, -(10**4301))
)
_big = st.integers(_BIG, 2**300).flatmap(lambda v: st.sampled_from((v, -v)))


def _matrices(entries):
    return st.tuples(*[st.tuples(*[entries] * 4)] * 4)


# all small, or small entries mixed with entries of 2^53 and above
_instance_matrices = st.one_of(
    _matrices(_small),
    _matrices(st.one_of(_small, st.integers(-(_BIG - 1), _BIG - 1))),
    _matrices(st.one_of(_small, _small, _edges, _big)),
)
_orders = st.builds(
    make_order,
    st.sampled_from((5, 13, 2**61 - 1, 2**89 - 1)),
    st.one_of(st.integers(1, 99), st.integers(_BIG - 2, _BIG + 2), st.just(3**9000)),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_orders, _instance_matrices, _instance_matrices)
def test_the_instance_template_matches_the_container_writer(order, action, gram):
    surface = PolarizedRMSurface(order, action, gram)
    assert _instance_text(surface) == reference_instance_text(surface)


@pytest.mark.parametrize("edge", [_BIG - 1, -(_BIG - 1), _BIG, -_BIG, _BIG + 1, -(_BIG + 1)])
def test_the_instance_template_matches_with_one_entry_at_the_edge(edge):
    order = make_order(5, 1)
    small = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(4))
    for i in range(4):
        for j in range(4):
            bent = tuple(tuple(edge if (r, c) == (i, j) else x for c, x in enumerate(row))
                         for r, row in enumerate(small))
            for action, gram in ((bent, small), (small, bent)):
                surface = PolarizedRMSurface(order, action, gram)
                assert _instance_text(surface) == reference_instance_text(surface)


def test_the_instance_template_matches_on_pipeline_surfaces():
    for params in ((5, 3, [11], 42), (5, 3**6, [11], 1), (13, 9, [17], 3)):
        start = generate_instance(*params)
        for surface in (start, principalize(start)[0]):
            assert _instance_text(surface) == reference_instance_text(surface)


# ---------------------------------------------------------------------------
# the one-pass matrix read
# ---------------------------------------------------------------------------

_ENTRIES = [
    _BIG - 1,
    -(_BIG - 1),
    _BIG,
    -_BIG,
    True,
    False,
    1.0,
    "12",
    "-12",
    str(_BIG),
    "-" + str(_BIG + 5),
    str(10**40),
    "0" + str(_BIG),
    None,
    [1],
]


def _read(reader, obj):
    """(value, None) or (None, message) of reader(obj)."""
    try:
        return reader(obj), None
    except ValueError as exc:
        return None, str(exc)


@pytest.mark.parametrize("entry", _ENTRIES, ids=repr)
def test_the_one_pass_read_matches_the_entry_reader(entry):
    base = [[(4 * i + j) * (-1) ** j for j in range(4)] for i in range(4)]
    matrices = [base, [[entry] * 4 for _ in range(4)]]
    for i in range(4):
        for j in range(4):
            m = copy.deepcopy(base)
            m[i][j] = entry
            matrices.append(m)
    for m in matrices:
        expected = _read(reference_decode_matrix, m)
        got = _read(_decode_matrix, m)
        assert got == expected
        value = got[0]
        if value is not None:
            assert type(value) is tuple and all(type(row) is tuple for row in value)
            assert [type(x) for row in value for x in row] == [int] * 16


def test_the_one_pass_read_keeps_the_first_refusal_in_row_order():
    m = [[1, 2, 3, 4], [5, True, 7, 8], [9, 10, 1.5, 12], [13, 14, 15, _BIG]]
    assert _read(_decode_matrix, m) == (None, "expected an integer, got a boolean")


def test_a_parsed_instance_holds_the_values_written():
    for params in ((5, 3, [11], 42), (5, 3**12, [11], 1)):
        surface = generate_instance(*params)
        back = formats.parse_instance(formats.serialize_instance(surface))
        assert back == surface
        assert back.action == surface.action and back.gram == surface.gram


# ---------------------------------------------------------------------------
# the minimal-polynomial comparison
# ---------------------------------------------------------------------------


def _valid_surfaces():
    yield standard_instance(make_order(5, 1))
    yield generate_instance(5, 3, [11], 42)
    yield generate_instance(13, 9, [17], 3)
    yield generate_instance(5, 3**6, [11, 19], 1)


@pytest.mark.parametrize("index", range(4))
def test_defect_matches_the_entry_loop_on_perturbed_actions(index):
    surface = list(_valid_surfaces())[index]
    assert surface.defect is None is reference_defect(surface)
    for i in range(4):
        for j in range(4):
            for delta in (1, -1, 2**64):
                action = [list(row) for row in surface.action]
                action[i][j] += delta
                bent = PolarizedRMSurface(surface.order, intmat.freeze(action), surface.gram)
                assert bent.defect == reference_defect(bent) is not None


def test_defect_matches_the_entry_loop_on_an_asymmetric_action():
    # a conjugate of the action satisfies the minimal polynomial, but not the
    # symmetry identity for the gram it is not moved with
    surface = generate_instance(5, 3, [11], 42)
    moved = apply_unimodular(surface, ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    mixed = PolarizedRMSurface(surface.order, moved.action, surface.gram)
    assert mixed.defect == reference_defect(mixed) == "action is not symmetric for the gram form"
    twisted = PolarizedRMSurface(make_order(13, 1), surface.action, surface.gram)
    assert twisted.defect == reference_defect(twisted) is not None


# ---------------------------------------------------------------------------
# steps set through the slot setters
# ---------------------------------------------------------------------------


def test_every_record_class_keeps_the_setters_of_its_field_slots():
    for cls in (IsogenyStep, PolarizedRMSurface, type(make_order(5, 1))):
        assert len(cls._setters) == len(cls._fields)
        for name, set_field in zip(cls._fields, cls._setters):
            assert set_field.__self__ is cls.__dict__[name]


def test_a_read_step_equals_hashes_and_pickles_as_the_keyword_built_one():
    steps = []
    for params in ((5, 3, [11], 42), (5, 3**3 * 5, [11], 1), (5, 3**6, [11, 11], 2)):
        cert = principalize(generate_instance(*params))[1]
        steps += parse_certificate(serialize_certificate(cert)).steps
    assert {s.kind for s in steps} >= {"quotient", "twist"}
    for step in steps:
        built = IsogenyStep(**{name: getattr(step, name) for name in IsogenyStep._fields})
        assert type(step) is IsogenyStep and step == built and built == step
        assert hash(step) == hash(built) and repr(step) == repr(built)
        assert pickle.dumps(step) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(step)) == built
        assert copy.deepcopy(step) == built
        with pytest.raises(AttributeError):
            step.kind = "twist"


def test_a_read_step_keeps_null_fields_as_none():
    cert = principalize(generate_instance(5, 3, [11], 42))[1]
    obj = json.loads(serialize_certificate(cert))
    read = parse_certificate(serialize_certificate(cert)).steps
    for step, written in zip(read, obj["steps"]):
        for name in IsogenyStep._fields:
            assert (getattr(step, name) is None) == (written[name] is None)
