"""JSON round-trips and the CLI exit-code contract."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from rmlattice import (
    degree,
    eigen_sublattice_pullback,
    make_order,
    principalize,
    standard_instance,
    twist_by_element,
    validate,
)
from rmlattice import InvariantBreach, arith, cli, formats, intmat, quadratic
from rmlattice.arith import int_text
from rmlattice.cli import main
from rmlattice.formats import (
    _STEP_FIELDS,
    _decode_int,
    _decode_kernel,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
)
from rmlattice.generator import generate_instance, random_unimodular
from rmlattice.isogeny import IsogenyStep
from rmlattice.oracle import verify_certificate
from rmlattice.surface import apply_unimodular
from test_enlargement import enlarge_order_step


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------


def _encode_int(v: int):
    """The JSON value the writer gives an integer: a number below 2^53 in
    magnitude, else its decimal string (the writer's former helper, kept
    as the reference these tests compare with)."""
    return v if abs(v) < 2**53 else int_text(v)


def test_int_codec_small_and_big():
    assert _encode_int(7) == 7
    assert _encode_int(-(2**53) - 1) == str(-(2**53) - 1)
    assert _encode_int(2**53 - 1) == 2**53 - 1
    for v in (0, 1, -5, 2**53, -(2**60), 10**30):
        assert _decode_int(_encode_int(v)) == v
    with pytest.raises(ValueError):
        _decode_int(True)
    with pytest.raises(ValueError):
        _decode_int(2.5)
    with pytest.raises(ValueError):
        _decode_int(2**53)  # written as the string "9007199254740992"


@pytest.mark.parametrize("digits", [4299, 4300, 4301, 5063, 9000, 20001])
def test_int_codec_past_the_digit_limit(digits):
    # the interpreter refuses int/str conversions past 4300 digits by default
    limit = sys.get_int_max_str_digits()
    for v in (10 ** (digits - 1), 10**digits - 1, 7**digits % 10**digits + 10 ** (digits - 1)):
        for value in (v, -v):
            sys.set_int_max_str_digits(0)
            try:
                text = str(value)
            finally:
                sys.set_int_max_str_digits(limit)
            assert _encode_int(value) == text
            assert _decode_int(text) == value
            with pytest.raises(ValueError):
                _decode_int("0" + text.lstrip("-"))  # a leading zero


@pytest.mark.parametrize(
    "text", [" 1_0 ", "1_0", "+10", " 10", "10\n", "\u0661\u0660", "010", "10"]
)
def test_int_strings_only_in_the_written_form(text):
    assert int(text) == 10  # Python's int reads each of these as 10
    with pytest.raises(ValueError):
        _decode_int(text)


@pytest.mark.parametrize(
    "entry",
    ["1e3", " 3/4 ", "0.5", "+3/4", "1_0/3", "3/4\n", "\u0663/4", "007", "-0", "3/1", "2/18"],
)
def test_rational_strings_only_in_the_written_form(entry):
    Fraction(entry)  # Fraction reads each of these
    matrix = [["0"] * 4 for _ in range(4)]
    matrix[2][1] = entry
    with pytest.raises(ValueError):
        _decode_kernel(matrix)


def test_instance_roundtrip_byte_identical():
    for params, seed in [((5, 3, [11]), 0), ((13, 1, [3]), 1), ((17, 9, [13]), 2)]:
        s = generate_instance(*params, seed=seed)
        text = serialize_instance(s)
        back = parse_instance(text)
        assert back == s
        assert serialize_instance(back) == text


def test_instance_with_big_entries_uses_strings():
    # a large conductor makes the action matrix entries exceed 2^53
    order = make_order(10, 100000001)
    s = standard_instance(order)
    assert order.norm_omega < -(2**53)
    text = serialize_instance(s)
    assert f'"{-order.norm_omega}"' in text  # big entry serialized as a string
    back = parse_instance(text)
    assert back == s
    assert serialize_instance(back) == text


def test_parse_instance_failures():
    with pytest.raises(ValueError):
        parse_instance("{broken")
    with pytest.raises(ValueError):
        parse_instance(json.dumps({"format_version": 99}))
    s = standard_instance(make_order(5, 1))
    obj = json.loads(serialize_instance(s))
    obj["omega_action"] = [[0] * 4] * 3
    with pytest.raises(ValueError):
        parse_instance(json.dumps(obj))
    obj = json.loads(serialize_instance(s))
    obj["order"]["D"] = 12  # not squarefree
    with pytest.raises(ValueError):
        parse_instance(json.dumps(obj))


def test_certificate_roundtrip_byte_identical():
    s = generate_instance(5, 3, [11], seed=42)
    _, record = principalize(s)
    text = serialize_certificate(record)
    cert = parse_certificate(text)
    assert serialize_certificate(cert) == text
    assert cert == record


def test_certificate_parse_failures():
    with pytest.raises(ValueError):
        parse_certificate("[]")
    with pytest.raises(ValueError):
        parse_certificate(json.dumps({"seed": 0, "steps": "nope", "final": {}}))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_full_workflow(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    out = tmp_path / "out.json"
    cert = tmp_path / "cert.json"
    assert main([
        "generate", "--D", "5", "--conductor", "3", "--degree-primes", "11",
        "--seed", "42", "-o", str(inst),
    ]) == 0
    assert main([
        "principalize", str(inst), "-o", str(out), "--cert-out", str(cert),
    ]) == 0
    assert main(["verify", str(inst), str(cert)]) == 0
    assert main(["info", str(inst)]) == 0
    captured = capsys.readouterr()
    assert "Δ=45 f=3 deg=121 divisors=(1,1,11,11)" in captured.out
    assert "11: split" in captured.out
    assert "humbert: true" in captured.out
    assert main(["info", str(out)]) == 0
    captured = capsys.readouterr()
    assert "Δ=5 f=1 deg=1 divisors=(1,1,1,1)" in captured.out


def test_cli_principalize_prints_the_degree_and_conductor_change(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    out = tmp_path / "out.json"
    assert main([
        "generate", "--D", "5", "--conductor", "3", "--degree-primes", "11",
        "--seed", "42", "-o", str(inst),
    ]) == 0
    capsys.readouterr()
    assert main(["principalize", str(inst), "-o", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"principal surface written to {out}; degree 121 -> 1, conductor 3 -> 1\n"
    )


def test_cli_round_trip_with_entries_past_the_digit_limit(tmp_path, capsys):
    # f = 3^10 gives entries of about 5000 digits, past the default int/str
    # limit of 4300, which generate once died on and info called malformed
    inst = tmp_path / "inst.json"
    out = tmp_path / "out.json"
    cert = tmp_path / "cert.json"
    assert main([
        "generate", "--D", "5", "--conductor", "59049", "--degree-primes", "11",
        "--seed", "1", "-o", str(inst),
    ]) == 0
    assert max(len(str(x)) for row in json.loads(inst.read_text())["gram"] for x in row) > 4300
    assert main(["info", str(inst)]) == 0
    assert "f=59049 deg=121 divisors=(1,1,11,11)" in capsys.readouterr().out
    assert _info_divisors(inst, capsys) == _smith_divisors(parse_instance(inst.read_text()))
    assert main([
        "principalize", str(inst), "-o", str(out), "--cert-out", str(cert),
    ]) == 0
    assert main(["verify", str(inst), str(cert)]) == 0
    assert capsys.readouterr().out.endswith(
        "certificate replays to an identical surface\n"
    )


@pytest.mark.parametrize(
    "D, f, primes, seed",
    [(5, 3**10, [11], 1), (13, 5 * 7, [3], 2), (2, 1, [7, 17], 3)],
)
def test_cli_principalize_writes_the_in_process_texts(tmp_path, monkeypatch, D, f, primes, seed):
    # f = 3^10 puts the entries past the default int/str digit limit;
    # serialize_instance keeps the final surface's text, and
    # serialize_certificate indents that kept text into its final block, so
    # the CLI renders the final surface once
    inst, out, cert = tmp_path / "inst.json", tmp_path / "out.json", tmp_path / "cert.json"
    inst.write_text(serialize_instance(generate_instance(D, f, primes, seed)))
    result, report = principalize(parse_instance(inst.read_text()))
    renders = []
    real = formats._instance_text

    def counting(surface):
        renders.append(surface)
        return real(surface)

    monkeypatch.setattr(formats, "_instance_text", counting)
    assert main(["principalize", str(inst), "-o", str(out), "--cert-out", str(cert)]) == 0
    assert len(renders) == 1
    monkeypatch.undo()
    assert out.read_text() == serialize_instance(result)
    assert cert.read_text() == serialize_certificate(report)


def test_round_trip_with_rationals_past_a_lowered_digit_limit():
    # the enlargement kernel of f = 2^1279 - 1 has entries k/p^2 whose
    # denominators have 771 digits, past a limit of 640: the certificate is
    # written and read, and its text is the one the default limit gives
    s = standard_instance(make_order(5, 2**1279 - 1))
    final, record = principalize(s)
    text = serialize_certificate(record)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        start = parse_instance(serialize_instance(s))
        reached, again = principalize(start)
        lowered = serialize_certificate(again)
        cert = parse_certificate(lowered)
        ok, message = verify_certificate(start, cert)
    finally:
        sys.set_int_max_str_digits(limit)
    assert start == s and reached == final
    assert lowered == text
    assert cert == record
    assert ok, message


def _info_divisors(path, capsys) -> tuple[int, ...]:
    """The divisors that `info` prints for an instance file."""
    capsys.readouterr()
    assert main(["info", str(path)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    return tuple(int(d) for d in first.partition("divisors=(")[2].rstrip(")").split(","))


def _smith_divisors(surface) -> tuple[int, ...]:
    smith = smith_normal_form(sympy.Matrix(surface.gram))
    return tuple(abs(int(smith[i, i])) for i in range(4))


def _content_instances():
    """Surfaces whose gram content is 3, 5 or 15, some with a scrambled basis."""
    rng = random.Random(7)
    for D, f, scale, el in [(5, 1, 3, (3, 1)), (13, 9, 5, None), (5, 3, 15, (3, 1))]:
        s = standard_instance(make_order(D, f))
        s = twist_by_element(s, s.order.element(scale, 0), norm=scale * scale)
        if el is not None:
            el = s.order.element(*el)
            s = twist_by_element(s, el, norm=el.norm())
        yield s
        yield apply_unimodular(s, random_unimodular(rng))


def test_info_divisors_match_the_smith_form_when_the_content_exceeds_one(
    tmp_path, capsys
):
    inst = tmp_path / "inst.json"
    for surface in _content_instances():
        inst.write_text(serialize_instance(surface))
        divisors = _info_divisors(inst, capsys)
        assert divisors[0] > 1
        assert divisors == _smith_divisors(surface)


def test_info_computes_one_pfaffian(tmp_path, capsys, monkeypatch):
    # validate caches the instance's pfaffian and the divisors read it
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(generate_instance(5, 3, [11], seed=4)))
    calls = []
    real = intmat.pfaffian4

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(intmat, "pfaffian4", counting)
    assert main(["info", str(inst)]) == 0
    assert "divisors=(1,1,11,11)" in capsys.readouterr().out
    assert len(calls) == 1


def test_info_factors_the_pfaffian_once(tmp_path, capsys, monkeypatch):
    # the prime lines and the Humbert test share one factorization
    surface = generate_instance(5, 3, [11, 19], seed=4)
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(surface))
    calls = []
    real = arith.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cli, "factorize", counting)
    monkeypatch.setattr(quadratic, "factorize", counting)
    assert main(["info", str(inst)]) == 0
    assert capsys.readouterr().out.endswith("11: split\n19: split\nhumbert: true\n")
    assert [n for n in calls if n % surface.pf == 0] == [abs(surface.pf)]


def test_cli_info_refuses_an_instance_that_does_not_validate(tmp_path, capsys):
    obj = json.loads(serialize_instance(standard_instance(make_order(5, 1))))
    obj["gram"][0][0] = 1
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["info", str(inst)]) == 1
    assert capsys.readouterr() == (
        "", "error: instance does not validate: gram form is not antisymmetric\n"
    )


def test_cli_info_marks_an_even_pfaffian_unsupported(tmp_path, capsys):
    order = make_order(17, 1)
    surface = twist_by_element(standard_instance(order), order.element(1, 1), norm=-2)
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(surface))
    assert main(["info", str(inst)]) == 0
    assert "\n2: even or composite (unsupported)\n" in capsys.readouterr().out


def test_cli_maps_an_invariant_breach_to_exit_3(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(standard_instance(make_order(5, 1))))

    def breach(surface):
        raise InvariantBreach("pipeline ended with a broken surface")

    monkeypatch.setattr(cli, "principalize", breach)
    assert main(["principalize", str(inst), "-o", str(tmp_path / "out.json")]) == 3
    assert capsys.readouterr() == ("", "error: pipeline ended with a broken surface\n")


def test_cli_principalize_validates_its_input_once(tmp_path, monkeypatch):
    # The CLI validates the parsed instance and principalize asks again;
    # the verdict kept on the surface makes the second ask free, so the CLI
    # adds no matrix product to those of principalize itself.
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(generate_instance(5, 9, [11], seed=2)))
    calls = []
    real = intmat.mat_mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(intmat, "mat_mul", counting)
    principalize(parse_instance(inst.read_text()))
    direct = len(calls)
    calls.clear()
    assert main(["principalize", str(inst), "-o", str(tmp_path / "out.json")]) == 0
    assert len(calls) == direct


def test_cli_prints_integers_past_the_digit_limit(tmp_path, capsys):
    # a discriminant 5 * 3^10000 and a degree 2^14400, both past the
    # interpreter's int/str digit limit of 4300, once ended info and
    # principalize in a ValueError traceback instead of output or exit 2
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(standard_instance(make_order(5, 3**5000))))
    capsys.readouterr()
    assert main(["info", str(inst)]) == 0
    assert capsys.readouterr().out.startswith(
        f"Δ={int_text(5 * 3**10000)} f={int_text(3**5000)} deg=1 divisors=(1,1,1,1)\n"
    )
    obj = json.loads(serialize_instance(standard_instance(make_order(5, 1))))
    obj["gram"] = [[_encode_int(v * 2**3600) for v in row] for row in obj["gram"]]
    inst.write_text(json.dumps(obj))
    assert main(["principalize", str(inst), "-o", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == f"error: degree {int_text(2**14400)} must be odd\n"


def test_cli_info_refuses_a_D_past_the_digit_limit(tmp_path, capsys):
    # D = 10^5000 is not squarefree; the refusal once died in the int/str
    # digit-limit ValueError, "Exceeds the limit (4300 digits) ...".
    inst = tmp_path / "inst.json"
    obj = json.loads(serialize_instance(standard_instance(make_order(5, 1))))
    obj["order"]["D"] = "1" + "0" * 5000
    inst.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["info", str(inst)]) == 1
    assert capsys.readouterr().err == (
        f"error: instance order is invalid: D = {int_text(10**5000)} must be a "
        "squarefree integer >= 2\n"
    )


def test_cli_verify_rejects_a_degree_past_the_digit_limit(tmp_path, capsys):
    # a tampered degree_before of 5001 digits: the mismatch message once
    # raised ValueError from the interpreter's int/str digit limit
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    assert main([
        "generate", "--D", "5", "--conductor", "3", "--degree-primes", "11",
        "--seed", "42", "-o", str(inst),
    ]) == 0
    assert main([
        "principalize", str(inst), "-o", str(tmp_path / "out.json"),
        "--cert-out", str(cert),
    ]) == 0
    data = json.loads(cert.read_text())
    data["steps"][0]["degree_before"] = "1" + "0" * 5000
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(inst), str(cert)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: step 0 (twist at 3): degree_before=1" + "0" * 5000 + " recorded, "
        "replay derives degree_before=121\n"
    )
    assert "Traceback" not in err


@pytest.mark.parametrize("conductor", ["1", "3"])
def test_cli_generate_in_a_big_unit_field(tmp_path, conductor):
    # The fundamental unit of Q(sqrt 166) has y = 132015642: a valid field
    # whose unit search once ended in an invariant breach (exit 3).
    inst = tmp_path / "inst.json"
    code = main([
        "generate", "--D", "166", "--conductor", conductor, "--degree-primes", "5",
        "--seed", "1", "-o", str(inst),
    ])
    assert code in (0, 2)
    if code == 0:
        cert = tmp_path / "cert.json"
        assert main([
            "principalize", str(inst), "-o", str(tmp_path / "out.json"),
            "--cert-out", str(cert),
        ]) == 0
        assert main(["verify", str(inst), str(cert)]) == 0


def test_cli_round_trip_at_a_prime_near_10_to_the_12(tmp_path):
    # The norm-equation box for this prime over Q(sqrt 5) had 1137730 rows,
    # and generate refused it with exit 2.
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    assert main([
        "generate", "--D", "5", "--degree-primes", "1000000000039", "-o", str(inst),
    ]) == 0
    assert main([
        "principalize", str(inst), "-o", str(tmp_path / "out.json"),
        "--cert-out", str(cert),
    ]) == 0
    assert main(["verify", str(inst), str(cert)]) == 0


def test_cli_generate_rejects_inert_prime(tmp_path):
    code = main([
        "generate", "--D", "5", "--conductor", "1", "--degree-primes", "3",
        "-o", str(tmp_path / "x.json"),
    ])
    assert code == 2


def test_cli_generate_rejects_even_conductor(tmp_path, capsys):
    code = main([
        "generate", "--D", "5", "--conductor", "2", "-o", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert capsys.readouterr() == ("", "error: conductor must be odd\n")


@pytest.mark.parametrize("conductor", ["0", "-2", "-3"])
def test_cli_generate_checks_the_conductor_range_before_its_parity(conductor, tmp_path, capsys):
    # 0 and -2 were refused as "conductor must be odd", -3 by its range
    code = main([
        "generate", "--D", "5", "--conductor", conductor, "-o", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: conductor must be >= 1, got {conductor}\n")


def test_cli_principalize_refuses_and_info_reads_an_even_conductor(tmp_path, capsys):
    # principalize refuses an even conductor before any unit is computed;
    # info computes none and prints the instance
    order = make_order(5, 2)
    inst = tmp_path / "inst.json"
    surface = twist_by_element(standard_instance(order), order.element(3, 1), norm=11)
    inst.write_text(serialize_instance(surface))
    assert main(["principalize", str(inst), "-o", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr() == ("", "error: conductor 2 must be odd\n")
    assert main(["info", str(inst)]) == 0
    assert capsys.readouterr() == (
        "Δ=20 f=2 deg=121 divisors=(1,1,11,11)\n11: split\nhumbert: true\n", ""
    )


def test_cli_refuses_a_field_whose_D_rho_cannot_factor(tmp_path, capsys, monkeypatch):
    # D is the product of two primes near 10^24 and 3*10^24. The full rho
    # budget refuses it in seconds; a small one takes the same exits.
    D = (10**24 + 7) * (3 * 10**24 + 17)
    monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 12)
    code = main([
        "generate", "--D", str(D), "--degree-primes", "3", "-o", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert f"cannot factor {D}" in capsys.readouterr().err
    inst = tmp_path / "inst.json"
    assert main(["generate", "--D", "5", "--seed", "1", "-o", str(inst)]) == 0
    obj = json.loads(inst.read_text(encoding="utf-8"))
    obj["order"]["D"] = str(D)
    inst.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["info", str(inst)]) == 1
    assert f"cannot factor {D}" in capsys.readouterr().err


def test_cli_info_refuses_a_pfaffian_rho_cannot_factor_before_printing(
    tmp_path, capsys, monkeypatch
):
    # A valid instance whose pfaffian is the product of two primes near
    # 10^16. info printed its first line and then died in a traceback where
    # principalize exits 2; it factors before it prints, so it prints
    # nothing and refuses with principalize's line. A small rho budget takes
    # the same exits as the real one.
    s = generate_instance(5, 1, [10000000000000061, 10000000000000069], seed=1)
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(s), encoding="utf-8")
    monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 12)
    assert main(["principalize", str(inst), "-o", str(tmp_path / "out.json")]) == 2
    refusal = capsys.readouterr()
    assert refusal.err.startswith(f"error: cannot factor {abs(s.pf)}: ")
    assert main(["info", str(inst)]) == 2
    assert capsys.readouterr() == ("", refusal.err)


def test_cli_verify_exits_2_on_a_limit_hit_in_the_replay(tmp_path, capsys, monkeypatch):
    # The replay runs on the instance, not on the certificate: a pfaffian
    # rho cannot factor stops it where principalize stops, with exit 2 and
    # the same line, whatever the certificate holds. verify once printed
    # "error: replay aborted: cannot factor ..." and exited 1.
    s = generate_instance(5, 1, [10000000000000061, 10000000000000069], seed=1)
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    inst.write_text(serialize_instance(s), encoding="utf-8")
    seed = generate_instance(5, 3, [11], seed=42)
    cert.write_text(serialize_certificate(principalize(seed)[1]), encoding="utf-8")
    monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 12)
    assert main(["principalize", str(inst), "-o", str(tmp_path / "out.json")]) == 2
    refusal = capsys.readouterr()
    assert refusal.err.startswith(f"error: cannot factor {abs(s.pf)}: ")
    assert main(["verify", str(inst), str(cert)]) == 2
    assert capsys.readouterr() == ("", refusal.err)


def test_cli_generate_takes_the_pfaffian_factorization_from_its_primes(
    tmp_path, capsys, monkeypatch
):
    # rho cannot split this pfaffian, and generate needs not to: the
    # requested primes are its factorization
    p, q = 10000000000000061, 10000000000000069
    monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 12)
    inst = tmp_path / "inst.json"
    code = main([
        "generate", "--D", "5", "--degree-primes", f"{p},{q}", "--seed", "1", "-o", str(inst),
    ])
    assert (code, capsys.readouterr().err) == (0, "")
    s = parse_instance(inst.read_text(encoding="utf-8"))
    assert validate(s) is None
    assert degree(s) == (p * q) ** 2


def test_cli_refuses_a_field_whose_reduced_form_walk_passes_its_budget(
    tmp_path, capsys, monkeypatch
):
    # A cycle of reduced forms is about sqrt(disc) long: generate over
    # D = 10^18 + 3 walked for days. Each walk stops at its budget, and
    # generate, principalize and verify exit 2 with one line naming D and
    # the budget. A small budget takes the same exits as the real one on a
    # field whose unit is 40480 steps away; the instance comes from an
    # eigen-sublattice, which solves no norm equation.
    D = 1000000087
    s = eigen_sublattice_pullback(standard_instance(make_order(D, 1)), 3, 0)
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    inst.write_text(serialize_instance(s), encoding="utf-8")
    seed = generate_instance(5, 3, [11], seed=42)
    cert.write_text(serialize_certificate(principalize(seed)[1]), encoding="utf-8")
    monkeypatch.setattr(quadratic, "_WALK_BUDGET", 64)
    refusal = (
        f"error: the walk along reduced forms of Q(sqrt({D})) passed its budget "
        "of 64 rho steps\n"
    )
    out = str(tmp_path / "out.json")
    for argv in (
        ["generate", "--D", str(D), "--degree-primes", "3", "-o", out],
        ["principalize", str(inst), "-o", out],
        ["verify", str(inst), str(cert)],
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", refusal)


def test_cli_generate_at_a_deep_prime_conductor_builds_only_the_drawn_move(tmp_path, capsys):
    # generate built the norm ±11 element of the conductor-f order before it
    # drew a move, about 5*10^9 bits at f = 10000000019, and ran for hours.
    # Seed 0 draws a pull-back, which builds no element; seed 1 draws a
    # twist, which the bit budget refuses before it builds the unit power.
    inst = tmp_path / "inst.json"
    argv = ["generate", "--D", "5", "--conductor", "10000000019", "--degree-primes", "11"]
    assert main(argv + ["--seed", "0", "-o", str(inst)]) == 0
    assert capsys.readouterr().err == ""
    assert hashlib.sha256(inst.read_bytes()).hexdigest() == (
        "f1c8dfa1edcd50893419b9bbd94cf350258042db5846fa525b12342ef215c3e0"
    )
    assert main(argv + ["--seed", "1", "-o", str(tmp_path / "twist.json")]) == 2
    assert capsys.readouterr() == (
        "",
        "error: the norm ±11 element of the conductor 10000000019 order of "
        "Q(sqrt(5)) needs the fundamental unit to the power 2459670593, past the "
        "budget of 8388608 bits\n",
    )
    assert not (tmp_path / "twist.json").exists()


def test_cli_refuses_a_discrete_log_table_past_its_budget(tmp_path, capsys, monkeypatch):
    # The baby-step table holds about sqrt(f) residues, 10^10 of them at
    # f near 10^20. A table past its budget is refused before it is filled;
    # a small budget takes the same exit as the real one. No other test asks
    # for this order, so no kept table answers first.
    monkeypatch.setattr(quadratic, "_TABLE_BUDGET", 64)
    argv = [
        "generate", "--D", "13", "--conductor", "999983", "--degree-primes", "3",
        "-o", str(tmp_path / "x.json"),
    ]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        "error: the discrete log modulo the conductor 999983 of Q(sqrt(13)) needs "
        "a table of 1000 entries, past its budget of 64\n",
    )
    monkeypatch.undo()  # the refusal was not kept: the real budget answers
    assert main(argv) == 0


@pytest.mark.parametrize("where", ["instance", "certificate"])
def test_cli_refuses_deeply_nested_json_with_one_line(tmp_path, capsys, where):
    # the decoder raises RecursionError on deep nesting, which escaped main
    # as a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    if where == "instance":
        argv = ["info", str(deep)]
    else:
        inst = tmp_path / "inst.json"
        inst.write_text(serialize_instance(generate_instance(5, 3, [11], seed=4)))
        argv = ["verify", str(inst), str(deep)]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", "error: malformed JSON: arrays or objects nested too deeply\n"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["--degree-primes", "2"], "degree prime 2 must be an odd prime"),
        (["--conductor", "33", "--degree-primes", "11"], "degree prime 11 divides the conductor"),
    ],
)
def test_cli_generate_refuses_a_degree_prime_with_its_message(tmp_path, capsys, args, message):
    out = str(tmp_path / "x.json")
    assert main(["generate", "--D", "5", *args, "-o", out]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_verify_rejects_a_certificate_with_a_duplicate_key(tmp_path, capsys):
    # json.loads keeps the last of two equal keys, so this file verified
    # as the certificate without the inserted key
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    assert main([
        "generate", "--D", "5", "--conductor", "3", "--degree-primes", "11",
        "--seed", "42", "-o", str(inst),
    ]) == 0
    assert main(["principalize", str(inst), "-o", str(tmp_path / "out.json"),
                 "--cert-out", str(cert)]) == 0
    text = cert.read_text(encoding="utf-8")
    assert text.count('"prime": 3,') == 2
    cert.write_text(text.replace('"prime": 3,', '"prime": 999,\n      "prime": 3,', 1))
    capsys.readouterr()
    assert main(["verify", str(inst), str(cert)]) == 1
    assert capsys.readouterr().err == (
        "error: duplicate key 'prime' in the JSON object with keys kind, prime, "
        "kernel_overlattice, alpha, degree_before, degree_after, t, branch\n"
    )


def test_cli_generate_refuses_a_strong_pseudoprime_to_the_bases_to_37(tmp_path, capsys):
    # 399165290221 * 798330580441 passed is_prime, and generate wrote an
    # instance with it as a split degree prime
    n = 318665857834031151167461
    code = main(["generate", "--D", "13", "--degree-primes", str(n), "-o", str(tmp_path / "x.json")])
    assert code == 2
    assert capsys.readouterr().err == f"error: degree prime {n} must be an odd prime\n"


def test_cli_principalize_exit_codes(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope", encoding="utf-8")
    assert main(["principalize", str(broken), "-o", str(tmp_path / "o.json")]) == 1

    missing = tmp_path / "missing.json"
    assert main(["principalize", str(missing), "-o", str(tmp_path / "o.json")]) == 1

    inst = tmp_path / "even.json"
    assert main([
        "generate", "--D", "5", "--conductor", "3", "--seed", "1", "-o", str(inst),
    ]) == 0
    obj = json.loads(inst.read_text(encoding="utf-8"))
    obj["gram"] = [[v * 2 for v in row] for row in obj["gram"]]
    inst.write_text(json.dumps(obj), encoding="utf-8")
    assert main([
        "principalize", str(inst), "-o", str(tmp_path / "o.json"),
    ]) == 2  # even degree now


def test_cli_verify_exit_codes(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    out = tmp_path / "out.json"
    cert = tmp_path / "cert.json"
    main(["generate", "--D", "13", "--conductor", "9", "--degree-primes", "17",
          "--seed", "3", "-o", str(inst)])
    main(["principalize", str(inst), "-o", str(out), "--cert-out", str(cert)])
    assert main(["verify", str(inst), str(cert)]) == 0
    obj = json.loads(cert.read_text(encoding="utf-8"))
    obj["steps"][0]["degree_before"] += 2
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", str(inst), str(tampered)]) == 1
    obj = json.loads(cert.read_text(encoding="utf-8"))
    obj["steps"].reverse()
    tampered.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(inst), str(tampered)]) == 1
    assert capsys.readouterr().err == (
        "error: step 0 (divide_by_alpha at 17): kind=divide_by_alpha recorded, "
        "replay derives kind=twist\n"
    )
    obj = json.loads(cert.read_text(encoding="utf-8"))
    obj["seed"] = 1
    tampered.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", str(inst), str(tampered)]) == 1
    assert capsys.readouterr().err == (
        "error: seed is 1; the deterministic pipeline always writes seed 0\n"
    )
    other = tmp_path / "other.json"
    main(["generate", "--D", "13", "--conductor", "9", "--degree-primes", "17",
          "--seed", "4", "-o", str(other)])
    assert main(["verify", str(other), str(cert)]) == 1


def _verify_tampered_certificate(tmp_path, tamper):
    """Exit code of `verify` on a genuine instance and a tampered certificate.

    tamper(obj, start) edits the certificate JSON object in place; start is
    the parsed instance.
    """
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    main(["generate", "--D", "5", "--conductor", "3", "--degree-primes", "11",
          "--seed", "42", "-o", str(inst)])
    main(["principalize", str(inst), "-o", str(tmp_path / "out.json"),
          "--cert-out", str(cert)])
    obj = json.loads(cert.read_text(encoding="utf-8"))
    tamper(obj, parse_instance(inst.read_text(encoding="utf-8")))
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(obj), encoding="utf-8")
    return main(["verify", str(inst), str(tampered)])


def test_cli_verify_rejects_a_zero_prime(tmp_path, capsys):
    def tamper(obj, start):
        steps = obj["steps"]
        assert steps[-1]["kind"] == "divide_by_alpha"
        steps[-1]["prime"] = 0

    assert _verify_tampered_certificate(tmp_path, tamper) == 1
    assert capsys.readouterr().err.startswith("error: step ")


def test_cli_verify_rejects_a_zero_denominator(tmp_path, capsys):
    def tamper(obj, start):
        steps = obj["steps"]
        kernel = next(s["kernel_overlattice"] for s in steps if s["kernel_overlattice"])
        kernel[0][0] = "1/0"

    assert _verify_tampered_certificate(tmp_path, tamper) == 1
    assert "zero denominator" in capsys.readouterr().err


def test_cli_verify_rejects_a_rational_not_in_lowest_terms(tmp_path, capsys):
    def tamper(obj, start):
        kernel = next(s["kernel_overlattice"] for s in obj["steps"] if s["kernel_overlattice"])
        assert kernel[0][0] == "1/9"
        kernel[0][0] = "2/18"  # the same value, written as the serializer never does

    assert _verify_tampered_certificate(tmp_path, tamper) == 1
    assert "'2/18' is not written as '1/9'" in capsys.readouterr().err


def test_cli_verify_rejects_an_empty_certificate(tmp_path, capsys):
    def tamper(obj, start):
        obj["steps"] = []
        obj["final"] = json.loads(serialize_instance(start))

    assert _verify_tampered_certificate(tmp_path, tamper) == 1
    assert capsys.readouterr().err == (
        "error: certificate stops before step 0 (twist at 3), which replay derives\n"
    )


def test_cli_verify_rejects_a_certificate_cut_after_a_move(tmp_path, capsys):
    def tamper(obj, start):
        # keep the enlargement at 3 and end the certificate on its output
        kinds = [s["kind"] for s in obj["steps"]]
        assert kinds == ["twist", "quotient", "divide_by_alpha"]
        obj["steps"] = obj["steps"][:2]
        obj["final"] = json.loads(serialize_instance(enlarge_order_step(start, 3)[0]))

    assert _verify_tampered_certificate(tmp_path, tamper) == 1
    assert capsys.readouterr().err == (
        "error: certificate stops before step 2 (divide_by_alpha at 11), "
        "which replay derives\n"
    )


def test_step_table_holds_exactly_the_step_fields():
    # the codec takes the order from IsogenyStep._fields; its table must
    # name every field once and nothing else
    assert sorted(_STEP_FIELDS) == sorted(IsogenyStep._fields)
    assert len(set(IsogenyStep._fields)) == len(IsogenyStep._fields)


def test_cli_verify_rejects_a_step_with_an_extra_key(tmp_path, capsys):
    def tamper(obj, start):
        obj["steps"][0]["note"] = "ignored"

    assert _verify_tampered_certificate(tmp_path, tamper) == 1
    assert capsys.readouterr().err == (
        "error: step 0 must have exactly the keys kind, prime, kernel_overlattice, "
        "alpha, degree_before, degree_after, t, branch; extra ['note'], missing []\n"
    )


def test_cli_verify_rejects_a_step_without_its_null_keys(tmp_path, capsys):
    def tamper(obj, start):
        step = obj["steps"][0]
        nulls = [key for key, value in step.items() if value is None]
        assert nulls == ["kernel_overlattice", "t", "branch"]
        for key in nulls:
            del step[key]

    assert _verify_tampered_certificate(tmp_path, tamper) == 1
    assert capsys.readouterr().err.endswith(
        "; extra [], missing ['kernel_overlattice', 't', 'branch']\n"
    )


def test_cli_verify_rejects_a_certificate_with_an_extra_key(tmp_path, capsys):
    def tamper(obj, start):
        obj["note"] = "ignored"

    assert _verify_tampered_certificate(tmp_path, tamper) == 1
    assert capsys.readouterr().err.startswith(
        "error: certificate must have exactly the keys seed, steps, final; "
    )


@pytest.mark.parametrize("where", ["instance", "order"])
def test_cli_rejects_an_instance_with_an_extra_key(tmp_path, capsys, where):
    inst = tmp_path / "inst.json"
    obj = json.loads(serialize_instance(generate_instance(5, 3, [11], seed=4)))
    (obj if where == "instance" else obj["order"])["note"] = "ignored"
    inst.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["info", str(inst)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where} must have exactly the keys ")


def test_cli_main_repeated_in_one_process_matches_separate_runs(tmp_path, capsys):
    # main keeps one parser per process: a usage error, then info, then
    # verify in one process print and return what separate processes do
    s = generate_instance(5, 3, [11], seed=4)
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    inst.write_text(serialize_instance(s), encoding="utf-8")
    cert.write_text(serialize_certificate(principalize(s)[1]), encoding="utf-8")
    runs = [["info"], ["info", str(inst)], ["verify", str(inst), str(cert)]]
    in_process = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [run[0] for run in in_process] == [2, 0, 0]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    separate = []
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "rmlattice.cli", *argv],
            capture_output=True, encoding="utf-8", env=env, timeout=120,
        )
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == separate


def test_a_fresh_cli_principalize_writes_what_warm_caches_write(tmp_path):
    # norm equations and orders are kept per process: a certificate written
    # after they are all kept equals one a fresh interpreter writes
    s = generate_instance(5, 3, [11, 19], seed=2)
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(s), encoding="utf-8")
    principalize(s)
    warm = ["principalize", str(inst), "-o", str(tmp_path / "warm_out.json"),
            "--cert-out", str(tmp_path / "warm.json")]
    assert main(warm) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    cold = ["principalize", str(inst), "-o", str(tmp_path / "cold_out.json"),
            "--cert-out", str(tmp_path / "cold.json")]
    subprocess.run([sys.executable, "-m", "rmlattice.cli", *cold], env=env, timeout=120, check=True)
    for name in ("", "_out"):
        warm_bytes = (tmp_path / f"warm{name}.json").read_bytes()
        assert warm_bytes == (tmp_path / f"cold{name}.json").read_bytes()
    assert parse_certificate((tmp_path / "cold.json").read_text(encoding="utf-8")).steps


def test_cli_info_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]", encoding="utf-8")
    assert main(["info", str(bad)]) == 1
    obj = json.loads(serialize_instance(generate_instance(5, 3, [11], seed=4)))
    obj["format_version"] = True
    bad.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["info", str(bad)]) == 1
    assert capsys.readouterr() == ("", "error: expected an integer, got a boolean\n")


def test_cli_generate_rejects_malformed_prime_list(tmp_path):
    code = main([
        "generate", "--D", "5", "--degree-primes", "11,abc",
        "-o", str(tmp_path / "x.json"),
    ])
    assert code == 1


def test_parse_rejects_boolean_entries():
    s = standard_instance(make_order(5, 1))
    obj = json.loads(serialize_instance(s))
    obj["gram"][0][1] = True
    with pytest.raises(ValueError):
        parse_instance(json.dumps(obj))
