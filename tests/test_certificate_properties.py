"""Property checks of the certificate chain on seeded random instances.

Each example draws a field, an odd conductor, reducible degree primes and a
seed, and runs generate -> principalize -> serialize -> parse -> verify.
Serialization must be byte-canonical, and changing any one integer or
string leaf of the certificate JSON must be rejected, by the parser
(ValueError) or by replay, with the CLI exiting 1 and never raising. A
certificate cut after any whole move, ending on the surface that move
reaches, must be rejected too: it stops before a step replay derives.
"""

from __future__ import annotations

import json
import os
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rmlattice import PreconditionError, factor_prime, make_order, principalize
from rmlattice.arith import is_squarefree
from rmlattice.cli import main
from rmlattice.formats import parse_certificate, serialize_certificate, serialize_instance
from rmlattice.generator import generate_instance
from rmlattice.oracle import verify_certificate
from rmlattice.isogeny import CertificateData
from rmlattice.reduction import enlarge_order_step, reduce_degree_step

SQUAREFREE_D = [D for D in range(2, 201) if is_squarefree(D)]
CONDUCTORS = [1, 3, 5, 7, 9, 15]
DEGREE_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


def _leaves(obj, path=()):
    """Paths of the integer and string leaves of a JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    elif isinstance(obj, (int, str)) and not isinstance(obj, bool):
        yield path


def _move_boundaries(start, steps):
    """(number of steps, surface reached) after each whole move of the chain."""
    boundaries, current, idx = [], start, 0
    while idx < len(steps):
        move = enlarge_order_step if steps[idx].kind == "twist" else reduce_degree_step
        current, derived = move(current, steps[idx].prime)
        assert derived == steps[idx : idx + len(derived)]
        idx += len(derived)
        boundaries.append((idx, current))
    return boundaries


def _tamper(obj, path, delta):
    """Add delta to an integer leaf; append a digit to a string leaf.

    Appending a digit changes the value of every numeric string the
    serializer writes ("0" becomes "01", "1/3" becomes "1/31").
    """
    *parents, last = path
    for key in parents:
        obj = obj[key]
    value = obj[last]
    obj[last] = value + "1" if isinstance(value, str) else value + delta


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    D=st.sampled_from(SQUAREFREE_D),
    conductor=st.sampled_from(CONDUCTORS),
    data=st.data(),
)
def test_certificate_chain_round_trips_and_rejects_every_tamper(D, conductor, data):
    maximal = make_order(D, 1)
    eligible = [
        p for p in DEGREE_PRIMES if conductor % p and factor_prime(maximal, p) is not None
    ]
    primes = data.draw(st.lists(st.sampled_from(eligible), max_size=2), "primes") if eligible else []
    seed = data.draw(st.integers(0, 1000), "seed")
    try:
        start = generate_instance(D, conductor, primes, seed)
    except PreconditionError:
        assume(False)
    _, record = principalize(start)
    text = serialize_certificate(record)
    cert = parse_certificate(text)
    assert serialize_certificate(cert) == text
    assert verify_certificate(start, cert) == (
        True, "certificate replays to an identical surface"
    )

    obj = json.loads(text)
    leaves = list(_leaves(obj))
    path = leaves[data.draw(st.integers(0, len(leaves) - 1), "leaf")]
    _tamper(obj, path, data.draw(st.sampled_from([-1, 1, 2]), "delta"))
    tampered = json.dumps(obj, indent=2)
    try:
        ok, msg = verify_certificate(start, parse_certificate(tampered))
    except ValueError:
        pass
    else:
        assert not ok, f"tampered leaf {path} still verifies"

    with tempfile.TemporaryDirectory() as tmp:
        inst, cert_path = os.path.join(tmp, "inst.json"), os.path.join(tmp, "cert.json")
        with open(inst, "w", encoding="utf-8") as fh:
            fh.write(serialize_instance(start))
        with open(cert_path, "w", encoding="utf-8") as fh:
            fh.write(tampered)
        assert main(["verify", inst, cert_path]) == 1

    cuts = [(0, start)] + _move_boundaries(start, cert.steps)[:-1]
    if cert.steps:
        n, reached = cuts[data.draw(st.integers(0, len(cuts) - 1), "cut")]
        cut = CertificateData(steps=cert.steps[:n], final=reached)
        ok, msg = verify_certificate(start, cut)
        assert not ok and msg.startswith(f"certificate stops before step {n} ("), (n, msg)
