"""The package's value types as plain Record classes: the same semantics as
the frozen dataclasses they replaced, and a CLI import that loads neither
dataclasses nor inspect, ast or typing.

The six former dataclass definitions are kept here as references, fields
only. A Record and its reference built from the same field values must
agree on ==, != and hash, and on repr wherever the class has no repr of
its own. Hypothesis runs derandomized, so every run checks the same cases.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlattice.formats import serialize_instance
from rmlattice.generator import generate_instance
from rmlattice.isogeny import IsogenyStep
from rmlattice.quadratic import OrderElement, RealQuadraticOrder, make_order
from rmlattice.reduction import CertificateData, principalize
from rmlattice.surface import KernelSubgroup, PolarizedRMSurface, standard_instance, twist_by_element

SRC = Path(__file__).resolve().parent.parent / "src"
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


# ---------------------------------------------------------------------------
# the former dataclass definitions, fields only
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefRealQuadraticOrder:
    D: int
    conductor: int
    fundamental_discriminant: int
    discriminant: int
    trace_omega: int
    norm_omega: int


@dataclass(frozen=True)
class RefOrderElement:
    order: RealQuadraticOrder
    x: int
    y: int


@dataclass(frozen=True)
class RefPolarizedRMSurface:
    order: RealQuadraticOrder
    action: tuple
    gram: tuple


@dataclass(frozen=True)
class RefKernelSubgroup:
    basis: tuple
    den: int


@dataclass(frozen=True, kw_only=True)
class RefIsogenyStep:
    kind: str
    prime: int
    kernel_overlattice: KernelSubgroup | None = None
    alpha: tuple[int, int] | None = None
    degree_before: int
    degree_after: int
    t: int | None = None
    branch: str | None = None


@dataclass(frozen=True)
class RefCertificateData:
    steps: tuple
    final: PolarizedRMSurface


# (record class, reference class, the record has its own __repr__)
CLASSES = {
    "RealQuadraticOrder": (RealQuadraticOrder, RefRealQuadraticOrder, True),
    "OrderElement": (OrderElement, RefOrderElement, False),
    "PolarizedRMSurface": (PolarizedRMSurface, RefPolarizedRMSurface, True),
    "KernelSubgroup": (KernelSubgroup, RefKernelSubgroup, False),
    "IsogenyStep": (IsogenyStep, RefIsogenyStep, False),
    "CertificateData": (CertificateData, RefCertificateData, False),
}


def _build(cls, values: tuple):
    """cls from a field tuple, by keyword where the class is keyword-only."""
    if cls in (IsogenyStep, RefIsogenyStep):
        return cls(**dict(zip(IsogenyStep._fields, values)))
    return cls(*values)


# ---------------------------------------------------------------------------
# field tuples
# ---------------------------------------------------------------------------

_small = st.integers(-3, 3)
_int = st.one_of(_small, st.integers(-(2**70), 2**70))
_matrix = st.tuples(*[st.tuples(_small, _small, _small, _small)] * 4)
_orders = st.builds(make_order, st.sampled_from([2, 3, 5, 13]), st.integers(1, 9))
_text = st.text(max_size=6)
_kernels = st.builds(KernelSubgroup, _matrix, st.integers(1, 5))
_surfaces = st.builds(PolarizedRMSurface, _orders, _matrix, _matrix)
_step_values = st.tuples(
    st.sampled_from(["quotient", "divide_by_alpha", "scale", "twist"]),
    _int,
    st.none() | _kernels,
    st.none() | st.tuples(_int, _int),
    _int,
    _int,
    st.none() | _small,
    st.none() | _text,
)

VALUES = {
    "RealQuadraticOrder": st.tuples(*[_int] * 6),
    "OrderElement": st.tuples(_orders, _int, _int),
    "PolarizedRMSurface": st.tuples(_orders, _matrix, _matrix),
    "KernelSubgroup": st.tuples(_matrix, _int),
    "IsogenyStep": _step_values,
    "CertificateData": st.tuples(
        st.lists(_step_values.map(lambda v: _build(IsogenyStep, v)), max_size=3).map(tuple),
        _surfaces,
    ),
}


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------


def test_the_cli_import_loads_no_dataclasses_inspect_ast_or_typing():
    # -S so that site preloads nothing; the package comes from src alone
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rmlattice.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'ast', 'typing'} & set(sys.modules))))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert out.split() == []


# ---------------------------------------------------------------------------
# value semantics against the references
# ---------------------------------------------------------------------------


def test_the_references_list_the_record_fields_in_order():
    for cls, ref, _ in CLASSES.values():
        assert cls._fields == tuple(ref.__dataclass_fields__)


@pytest.mark.parametrize("name", list(CLASSES))
@PROPERTY
@given(data=st.data())
def test_records_compare_hash_and_print_like_the_references(name, data):
    cls, ref, own_repr = CLASSES[name]
    a = data.draw(VALUES[name])
    b = data.draw(st.just(a) | VALUES[name])
    rec_a, rec_b, ref_a, ref_b = _build(cls, a), _build(cls, b), _build(ref, a), _build(ref, b)
    assert (rec_a == rec_b) is (ref_a == ref_b) is (a == b)
    assert (rec_a != rec_b) is (ref_a != ref_b)
    assert hash(rec_a) == hash(ref_a)
    if a == b:
        # equal values built twice: equal, same hash, same repr
        rec_b = _build(cls, tuple(copy.deepcopy(b)))
        assert rec_a == rec_b and hash(rec_a) == hash(rec_b) and repr(rec_a) == repr(rec_b)
    if not own_repr:
        expected = repr(ref_a).replace(ref.__qualname__, name, 1)
        assert repr(rec_a) == expected


@pytest.mark.parametrize("name", list(CLASSES))
@PROPERTY
@given(data=st.data())
def test_records_differ_across_classes_and_from_bare_tuples(name, data):
    cls, ref, _ = CLASSES[name]
    values = data.draw(VALUES[name])
    rec = _build(cls, values)
    assert rec != values and values != rec
    assert rec != list(values)
    assert rec != _build(ref, values)
    for other, _, _ in CLASSES.values():
        if other is not cls and len(other._fields) == len(values):
            assert rec != _build(other, values)


@pytest.mark.parametrize("name", list(CLASSES))
@PROPERTY
@given(data=st.data())
def test_assignment_and_deletion_raise(name, data):
    cls, _, _ = CLASSES[name]
    values = data.draw(VALUES[name])
    rec = _build(cls, values)
    for field in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
        with pytest.raises(AttributeError):
            delattr(rec, field)
    assert rec == _build(cls, values)


def test_a_positional_isogeny_step_raises_type_error():
    with pytest.raises(TypeError):
        IsogenyStep("scale", 3, None, None, 9, 1, None, None)
    with pytest.raises(TypeError):
        IsogenyStep(kind="scale", prime=3, degree_before=9)
    step = IsogenyStep(kind="scale", prime=3, degree_before=9, degree_after=1)
    assert (step.kernel_overlattice, step.alpha, step.t, step.branch) == (None,) * 4


@pytest.mark.parametrize("name", list(CLASSES))
@PROPERTY
@given(data=st.data())
def test_pickle_and_deepcopy_round_trip(name, data):
    cls, _, _ = CLASSES[name]
    rec = _build(cls, data.draw(VALUES[name]))
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    clones = [pickle.loads(pickle.dumps(rec, protocol)) for protocol in protocols]
    clones += [copy.deepcopy(rec), copy.copy(rec)]
    for clone in clones:
        assert type(clone) is cls
        assert clone == rec and hash(clone) == hash(rec) and repr(clone) == repr(rec)
        assert clone._values() == rec._values()


def test_the_cached_pfaffian_is_not_part_of_the_pickled_value():
    order = make_order(13, 1)
    s = twist_by_element(standard_instance(order), order.element(2, 1), norm=3)
    fresh = PolarizedRMSurface(s.order, s.action, s.gram)
    assert s.pf == 3 and s.defect is None and "pf" in vars(s)
    assert "pf" not in vars(fresh)
    assert pickle.dumps(s) == pickle.dumps(fresh)
    for clone in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert clone == s and vars(clone) == {}
        assert clone.pf == 3


def test_the_kept_instance_text_is_not_part_of_the_pickled_or_copied_value():
    s = principalize(generate_instance(5, 3, [11], 42))[0]
    bare = PolarizedRMSurface(s.order, s.action, s.gram)
    text = serialize_instance(s)
    assert vars(s)["text"] is text
    assert pickle.dumps(s) == pickle.dumps(bare)
    for clone in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert clone == s and clone is not s and "text" not in vars(clone)
        assert serialize_instance(clone) == text


def test_a_pipeline_certificate_survives_pickle_and_deepcopy():
    _, cert = principalize(generate_instance(5, 3, [11], 42))
    assert cert.steps
    for clone in (pickle.loads(pickle.dumps(cert)), copy.deepcopy(cert)):
        assert clone == cert and hash(clone) == hash(cert)
