"""The brute-force layer: exhaustive enumeration, rank parity, replay."""

from __future__ import annotations

import json

import pytest

from rmlattice import (
    PreconditionError,
    degree,
    descend_polarization,
    make_order,
    principalize,
    solve_norm,
    standard_instance,
    twist_by_element,
)
from rmlattice.formats import parse_certificate, serialize_certificate
from rmlattice.generator import generate_instance
from rmlattice.oracle import (
    check_symmetric_rank_even,
    enumerate_valid_kernels,
    verify_certificate,
)
from rmlattice.reduction import CertificateData, enlarge_order_step, reduce_degree_step
from test_intmat_oracles import overlattice


def test_enumerate_principal_is_trivial():
    s = standard_instance(make_order(5, 1))
    kernels = enumerate_valid_kernels(s, 3)
    assert len(kernels) == 1
    assert kernels[0].is_trivial()


def test_enumerate_twist_kernels_are_the_kernel_lines():
    for D, p in [(5, 5), (13, 3), (3, 3)]:
        s = standard_instance(make_order(D, 1))
        el = solve_norm(s.order, p)
        tw = twist_by_element(s, el, norm=el.norm())
        kernels = enumerate_valid_kernels(tw, p)
        nontrivial = [k for k in kernels if not k.is_trivial()]
        assert len(nontrivial) == p + 1  # all lines of the rank-2 kernel
        for k in nontrivial:
            assert k.group_order == p
            out = descend_polarization(tw, k)
            assert degree(out) * p * p == degree(tw)


def test_enumerate_scaled_gram_lists_isotropic_stable_subgroups():
    # gram 3E: the full 3-torsion is inside the kernel of the polarization
    # but its pairing is nondegenerate there, so the full torsion does not
    # descend; only its isotropic action-stable subgroups appear.
    s = standard_instance(make_order(5, 1))
    scaled = twist_by_element(s, s.order.element(3, 0), norm=9)
    kernels = enumerate_valid_kernels(scaled, 3)
    orders = sorted(k.group_order for k in kernels)
    assert orders[0] == 1
    assert 81 not in orders
    for k in kernels:
        if k.is_trivial():
            continue
        out = descend_polarization(scaled, k)
        assert degree(out) * k.group_order**2 == degree(scaled)


def test_enumeration_is_in_the_order_of_the_overlattices():
    # sorted on the Hermite basis: every kernel listed has den p, so this is
    # the order of their rational overlattices
    s = standard_instance(make_order(5, 1))
    cases = [(twist_by_element(s, s.order.element(3, 0), norm=9), 3)]
    for D, p in [(5, 5), (13, 3), (3, 3)]:
        t = standard_instance(make_order(D, 1))
        el = solve_norm(t.order, p)
        cases.append((twist_by_element(t, el, norm=el.norm()), p))
    for surface, p in cases:
        kernels = enumerate_valid_kernels(surface, p)
        assert len(kernels) > 2 and {k.den for k in kernels} == {p}
        assert list(kernels) == sorted(kernels, key=overlattice)


def test_enumerate_rejects_large_primes():
    s = standard_instance(make_order(5, 1))
    with pytest.raises(PreconditionError):
        enumerate_valid_kernels(s, 11)


def test_rank_parity_trials():
    assert check_symmetric_rank_even(3, 120, seed=7)
    assert check_symmetric_rank_even(5, 120, seed=8)
    assert check_symmetric_rank_even(7, 120, seed=9)


def test_verify_accepts_genuine_certificates():
    for seed, params in [(1, (5, 3, [11])), (2, (13, 9, [17])), (3, (5, 1, [5, 29]))]:
        s = generate_instance(*params, seed=seed)
        out, cert = principalize(s)
        ok, msg = verify_certificate(s, cert)
        assert ok, msg


def test_verify_rejects_tampering():
    s = generate_instance(5, 3, [11], seed=4)
    out, cert = principalize(s)
    text = serialize_certificate(cert)

    # a gram entry in the final surface
    obj = json.loads(text)
    obj["final"]["gram"][0][3] += 1
    ok, msg = verify_certificate(s, parse_certificate(json.dumps(obj)))
    assert not ok and "final" in msg

    # the final order, as another valid field, and the final action
    obj = json.loads(text)
    obj["final"]["order"]["D"] = 13
    ok, msg = verify_certificate(s, parse_certificate(json.dumps(obj)))
    assert (ok, msg) == (False, "final order does not match the replay")
    obj = json.loads(text)
    obj["final"]["omega_action"][0][0] += 1
    ok, msg = verify_certificate(s, parse_certificate(json.dumps(obj)))
    assert (ok, msg) == (False, "final action does not match the replay")

    # a degree in the middle of the ledger
    obj = json.loads(text)
    obj["steps"][1]["degree_after"] += 11
    ok, msg = verify_certificate(s, parse_certificate(json.dumps(obj)))
    assert not ok

    # the recorded rank invariant
    obj = json.loads(text)
    obj["steps"][1]["t"] = 3
    ok, msg = verify_certificate(s, parse_certificate(json.dumps(obj)))
    assert not ok and "t=" in msg

    # a kernel overlattice entry, named with both kernels as rationals
    derived = (
        "kernel_overlattice=((1/9, 0, 0, 0), (0, 1/9, 0, 0), (2/9, 0, 1/3, 0), (1/9, 0, 0, 1/3))"
    )
    obj = json.loads(text)
    obj["steps"][1]["kernel_overlattice"][0][0] = "2/3"
    ok, msg = verify_certificate(s, parse_certificate(json.dumps(obj)))
    assert (ok, msg) == (False, (
        "step 1 (quotient at 3): kernel_overlattice=((2/3, 0, 0, 0), (0, 1/9, 0, 0), "
        "(2/9, 0, 1/3, 0), (1/9, 0, 0, 1/3)) recorded, replay derives " + derived
    ))
    # an entry whose denominator changes the recorded den to 63
    obj = json.loads(text)
    obj["steps"][1]["kernel_overlattice"][2][1] = "5/7"
    ok, msg = verify_certificate(s, parse_certificate(json.dumps(obj)))
    assert (ok, msg) == (False, (
        "step 1 (quotient at 3): kernel_overlattice=((1/9, 0, 0, 0), (0, 1/9, 0, 0), "
        "(2/9, 5/7, 1/3, 0), (1/9, 0, 0, 1/3)) recorded, replay derives " + derived
    ))

    # a quotient label on the dividing move
    obj = json.loads(text)
    assert obj["steps"][-1]["branch"] == "split_divide"
    obj["steps"][-1]["branch"] = "split_quotient"
    ok, msg = verify_certificate(s, parse_certificate(json.dumps(obj)))
    assert not ok and "branch=" in msg

    # the seed must stay pinned at zero
    obj = json.loads(text)
    obj["seed"] = 5
    with pytest.raises(ValueError, match="seed is 5; the deterministic pipeline"):
        parse_certificate(json.dumps(obj))


def test_verify_rejects_reordered_steps():
    s = generate_instance(5, 3, [11], seed=6)
    out, cert = principalize(s)
    reordered = CertificateData(steps=tuple(reversed(cert.steps)), final=cert.final)
    ok, msg = verify_certificate(s, reordered)
    assert not ok


def test_verify_rejects_wrong_instance():
    s1 = generate_instance(5, 3, [11], seed=8)
    s2 = generate_instance(5, 3, [11], seed=9)
    assert s1 != s2
    _, cert = principalize(s1)
    ok, msg = verify_certificate(s2, cert)
    assert not ok


def test_verify_is_deterministic():
    s = generate_instance(13, 1, [3, 17], seed=10)
    _, cert = principalize(s)
    first = verify_certificate(s, cert)
    second = verify_certificate(s, cert)
    assert first == second == (True, "certificate replays to an identical surface")


def test_reduction_kernels_member_of_enumeration():
    # every quotient move the reductions take at p <= 7 uses a kernel the
    # exhaustive enumeration also finds
    from rmlattice import squarefree_reduce

    s = standard_instance(make_order(13, 1))
    el = s.order.element(2, 1)
    tw = twist_by_element(twist_by_element(s, el, norm=el.norm()), el, norm=el.norm())
    out, steps = squarefree_reduce(tw, 3)
    quotients = [st for st in steps if st.kind == "quotient"]
    assert quotients
    listed = enumerate_valid_kernels(tw, 3)
    assert any(
        st.kernel_overlattice == k for st in quotients for k in listed
    )


def test_verify_rejects_a_merged_non_prime_scale_step():
    # principalize records scale 3, scale 3, divide 17. Merging the two
    # scale steps into one "scale 9" reaches the same surface with a
    # telescoping ledger, but scale factors of the pipeline are odd primes.
    s = generate_instance(13, 1, [17], seed=1)
    start = twist_by_element(s, s.order.element(9, 0), norm=81)
    _, cert = principalize(start)
    obj = json.loads(serialize_certificate(cert))
    first, second, last = obj["steps"]
    assert [(st["kind"], st["prime"]) for st in obj["steps"]] == [
        ("scale", 3), ("scale", 3), ("divide_by_alpha", 17)
    ]
    first["prime"] = 9
    first["degree_after"] = second["degree_after"]
    obj["steps"] = [first, last]
    ok, msg = verify_certificate(start, parse_certificate(json.dumps(obj)))
    assert not ok
    assert msg.startswith("step 0 (scale at 9)")


def test_verify_names_the_divergent_step_and_field():
    s = generate_instance(5, 3, [11], seed=4)
    _, cert = principalize(s)
    obj = json.loads(serialize_certificate(cert))
    assert obj["steps"][-1]["kind"] == "divide_by_alpha"
    x, y = obj["steps"][-1]["alpha"]
    obj["steps"][-1]["alpha"] = [x + 1, y]
    last = len(obj["steps"]) - 1
    ok, msg = verify_certificate(s, parse_certificate(json.dumps(obj)))
    assert not ok
    assert msg == (
        f"step {last} (divide_by_alpha at 11): alpha=({x + 1}, {y}) recorded, "
        f"replay derives alpha=({x}, {y})"
    )


def test_verify_rejects_a_certificate_that_ends_inside_a_move():
    s = generate_instance(5, 3, [11], seed=4)
    _, cert = principalize(s)
    assert cert.steps[0].kind == "twist"
    cut = CertificateData(steps=cert.steps[:1], final=cert.final)
    ok, msg = verify_certificate(s, cut)
    assert not ok
    assert msg == "certificate stops before step 1 (quotient at 3), which replay derives"


def test_verify_rejects_the_empty_certificate():
    s = generate_instance(5, 3, [11], seed=4)
    assert degree(s) == 121 and s.order.conductor == 3
    ok, msg = verify_certificate(s, CertificateData(steps=(), final=s))
    assert not ok
    assert msg == "certificate stops before step 0 (twist at 3), which replay derives"


def test_verify_rejects_a_certificate_cut_after_a_move():
    # degree 121, conductor 3: cut after the enlargement, degree 121 is left
    s = generate_instance(5, 3, [11], seed=4)
    _, cert = principalize(s)
    mid, pair = enlarge_order_step(s, 3)
    assert cert.steps[:2] == pair and len(cert.steps) > 2
    cut = CertificateData(steps=pair, final=mid)
    ok, msg = verify_certificate(s, cut)
    assert not ok
    assert msg == (
        "certificate stops before step 2 (divide_by_alpha at 11), which replay derives"
    )

    # degree 1, conductor 9: cut after the first enlargement, conductor 3 is left
    s = standard_instance(make_order(5, 9))
    _, cert = principalize(s)
    mid, pair = enlarge_order_step(s, 3)
    assert cert.steps[:2] == pair and len(cert.steps) == 4
    cut = CertificateData(steps=pair, final=mid)
    ok, msg = verify_certificate(s, cut)
    assert not ok
    assert msg == "certificate stops before step 2 (twist at 3), which replay derives"


def test_verify_rejects_steps_past_the_replay():
    s = generate_instance(5, 3, [11], seed=4)
    _, cert = principalize(s)
    longer = CertificateData(steps=cert.steps + cert.steps[-1:], final=cert.final)
    ok, msg = verify_certificate(s, longer)
    assert not ok
    assert msg == "step 3 (divide_by_alpha at 11): recorded past the replay's last step"


def test_verify_accepts_only_the_pipeline_order():
    # reducing 29 before 11 also reaches a principal surface, but
    # principalize takes the degree primes in increasing order, so the
    # certificate of that chain is not the one replay derives
    s = generate_instance(5, 1, [11, 29], 3)
    mid, first = reduce_degree_step(s, 29)
    end, second = reduce_degree_step(mid, 11)
    assert degree(end) == 1
    ok, msg = verify_certificate(s, CertificateData(steps=first + second, final=end))
    assert not ok
    assert msg.startswith("step 0 (divide_by_alpha at 29): prime=29 recorded")
