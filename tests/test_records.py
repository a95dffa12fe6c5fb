"""The package's value types as plain Record classes: the same semantics as
the frozen dataclasses they replaced, and a CLI import that loads neither
dataclasses nor inspect, ast or typing, nor decimal, which only the codec
of integers past 2^2048 uses.

The six former dataclass definitions are kept here as references, fields
only. A Record and its reference built from the same field values must
agree on ==, != and hash, and on repr wherever the class has no repr of
its own. Each constructor, which Record builds from the class's fields and
which sets the slots one by one, must take exactly those fields and build
the same value that __setstate__, which pickle and copy use, builds from
the same fields. Hypothesis runs derandomized, so every run checks the same
cases.
"""

from __future__ import annotations

import copy
import functools
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlattice import intmat
from rmlattice.formats import serialize_instance
from rmlattice.generator import generate_instance
from rmlattice.isogeny import CertificateData, IsogenyStep
from rmlattice.quadratic import OrderElement, RealQuadraticOrder, make_order
from rmlattice.reduction import principalize
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
        "print(' '.join(sorted({'dataclasses', 'inspect', 'ast', 'typing', 'decimal'}"
        " & set(sys.modules))))"
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


def test_an_order_holds_its_six_fields_and_nothing_else():
    # no cached hash beside the fields: Record's hash and pickle state serve
    assert RealQuadraticOrder.__slots__ == RealQuadraticOrder._fields
    assert {"__hash__", "__setstate__"}.isdisjoint(vars(RealQuadraticOrder))


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
        assert clone.__getstate__() == rec.__getstate__()


def _through_setstate(cls, values: tuple):
    """cls built as pickle and copy build it: __setstate__ on a bare instance."""
    rec = object.__new__(cls)
    rec.__setstate__(values)
    return rec


@pytest.mark.parametrize("name", list(CLASSES))
def test_each_constructor_takes_exactly_its_fields_in_order(name):
    cls, _, _ = CLASSES[name]
    code = cls.__init__.__code__
    n = len(cls._fields)
    assert code.co_argcount + code.co_kwonlyargcount == n + 1
    assert code.co_varnames[: n + 1] == ("self", *cls._fields)
    assert cls.__init__.__qualname__ == f"{name}.__init__"
    if cls is IsogenyStep:
        assert cls._optional == ("kernel_overlattice", "alpha", "t", "branch")
        assert (code.co_argcount, code.co_kwonlyargcount) == (1, n)
        assert cls.__init__.__kwdefaults__ == {f: None for f in cls._optional}
    else:
        assert cls._optional == ()
        assert (code.co_argcount, code.co_kwonlyargcount) == (n + 1, 0)
        assert cls.__init__.__kwdefaults__ is None and cls.__init__.__defaults__ is None


@pytest.mark.parametrize("name", list(CLASSES))
@PROPERTY
@given(data=st.data())
def test_a_hot_constructor_builds_what_setstate_builds(name, data):
    # each __init__ calls the slot setters one by one; pickle and copy
    # still go through __setstate__, and the two must be one value
    cls, _, _ = CLASSES[name]
    values = data.draw(VALUES[name])
    built, restored = _build(cls, values), _through_setstate(cls, values)
    assert built.__getstate__() == restored.__getstate__() == values
    assert built == restored and not built != restored
    assert hash(built) == hash(restored) and repr(built) == repr(restored)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    clones = [pickle.loads(pickle.dumps(built, protocol)) for protocol in protocols]
    clones += [copy.copy(built), copy.deepcopy(built)]
    for clone in clones:
        assert type(clone) is cls and clone is not built
        assert clone == restored and hash(clone) == hash(restored) and repr(clone) == repr(restored)
    for rec in (built, restored):
        for field in cls._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(rec, field, 0)
            with pytest.raises(AttributeError):
                delattr(rec, field)
    assert built == restored == _build(cls, values)


def test_a_surface_keeps_pf_defect_and_text_outside_its_fields():
    # and the product E A, which validation computed for the defect
    s = principalize(generate_instance(5, 3, [11], 42))[0]
    assert s.pf == 1 and s.defect is None
    serialize_instance(s)
    assert set(vars(s)) == {"pf", "defect", "gram_action", "text"}
    assert s.__getstate__() == (s.order, s.action, s.gram)
    restored = _through_setstate(PolarizedRMSurface, s.__getstate__())
    built = PolarizedRMSurface(s.order, s.action, s.gram)
    for bare in (restored, built):
        assert vars(bare) == {} and bare == s and hash(bare) == hash(s) and repr(bare) == repr(s)
        assert pickle.dumps(bare) == pickle.dumps(s)


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


def test_a_surface_keeps_each_value_once_without_a_lock(monkeypatch):
    # functools.cached_property takes a lock on each first access on Python
    # 3.11; each kept value is computed on first access, written into
    # __dict__, and read from there with no call after that
    for name in ("pf", "defect", "gram_action"):
        kept = vars(PolarizedRMSurface)[name]
        assert not isinstance(kept, functools.cached_property)
        assert not hasattr(type(kept), "__set__")  # __dict__ shadows it
    s = generate_instance(5, 3, [11], 42)
    surface = PolarizedRMSurface(s.order, s.action, s.gram)
    calls = []
    for name in ("pfaffian4", "mat_mul"):
        real = getattr(intmat, name)
        monkeypatch.setattr(
            intmat, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    for _ in range(2):
        assert surface.defect is None and surface.pf == s.pf
        assert surface.gram_action == s.gram_action
    # pf once; A^2 for the defect and E A, each once
    assert sorted(calls) == ["mat_mul", "mat_mul", "pfaffian4"]
    assert vars(surface) == {"pf": s.pf, "defect": None, "gram_action": s.gram_action}
    fresh = PolarizedRMSurface(s.order, s.action, s.gram)
    for clone in (pickle.loads(pickle.dumps(surface)), copy.copy(surface), copy.deepcopy(surface)):
        assert clone == surface == fresh and vars(clone) == {}
    assert hash(surface) == hash(fresh) and repr(surface) == repr(fresh)
    assert pickle.dumps(surface) == pickle.dumps(fresh)
