"""Command-line front end: generate, principalize, verify, info.

Exit codes: 0 success, 1 I/O or parse or verification failure, 2 violated
hypothesis or a limit hit, 3 internal invariant breach. main maps the errors
the commands raise onto them; verify returns 1 for a rejected certificate.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .arith import factorize, int_text
from .errors import InvariantBreach, PreconditionError
from .formats import (
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
)
from .generator import generate_instance
from .intmat import alternating_divisors
from .oracle import verify_certificate
from .quadratic import DIVIDES_CONDUCTOR, humbert_holds, splitting_type
from .reduction import principalize
from .surface import degree, stabilizer_order, validate

EXIT_OK = 0
EXIT_IO = 1
EXIT_HYPOTHESIS = 2
EXIT_BREACH = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _instance(path: str):
    """The instance in the file at path, parsed and validated."""
    surface = parse_instance(_read(path))
    msg = validate(surface)
    if msg is not None:
        raise ValueError(f"instance does not validate: {msg}")
    return surface


def cmd_generate(args) -> None:
    primes = []
    for part in args.degree_primes.split(","):
        part = part.strip()
        if part:
            try:
                primes.append(int(part))
            except ValueError:
                raise ValueError(f"bad prime {part!r} in --degree-primes") from None
    surface = generate_instance(args.D, args.conductor, primes, args.seed)
    _write(args.out, serialize_instance(surface))
    print(f"wrote instance of degree {int_text(degree(surface))} to {args.out}")


def cmd_principalize(args) -> None:
    surface = _instance(args.instance)
    result, certificate = principalize(surface)
    _write(args.out, serialize_instance(result))
    if args.cert_out:
        _write(args.cert_out, serialize_certificate(certificate))
    print(
        f"principal surface written to {args.out}; degree "
        f"{int_text(degree(surface))} -> {int_text(degree(result))}, "
        f"conductor {int_text(surface.order.conductor)} -> "
        f"{int_text(result.order.conductor)}"
    )


def cmd_verify(args) -> int | None:
    surface = _instance(args.instance)
    certificate = parse_certificate(_read(args.certificate))
    ok, message = verify_certificate(surface, certificate)
    if not ok:
        print(f"error: {message}", file=sys.stderr)
        return EXIT_IO
    print(message)


def cmd_info(args) -> None:
    """Print an instance's invariants, all computed before the first line."""
    surface = _instance(args.instance)
    stab = stabilizer_order(surface)
    divisors = ",".join(int_text(d) for d in alternating_divisors(surface.gram, surface.pf))
    lines = [
        f"Δ={int_text(surface.order.discriminant)} f={int_text(stab.conductor)} "
        f"deg={int_text(degree(surface))} divisors=({divisors})"
    ]
    factors = factorize(abs(surface.pf))
    for q in sorted(factors):
        if q == 2:
            lines.append(f"{int_text(q)}: even or composite (unsupported)")
        else:
            kind = splitting_type(surface.order, q)
            label = "divides conductor" if kind == DIVIDES_CONDUCTOR else kind
            lines.append(f"{int_text(q)}: {label}")
    hum = humbert_holds(surface.order.discriminant, factors)
    lines.append(f"humbert: {'true' if hum else 'false'}")
    print("\n".join(lines))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="rmlattice",
        description=(
            "Exact lattice models of polarized abelian surfaces with real "
            "multiplication: generate instances, reduce them to principal "
            "polarizations with maximal order actions, and verify the "
            "resulting certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a seeded instance file")
    g.add_argument("--D", type=int, required=True, help="squarefree field radicand")
    g.add_argument("--conductor", type=int, default=1, help="odd order conductor")
    g.add_argument(
        "--degree-primes",
        default="",
        help="comma list of odd primes; degree becomes their squares' product",
    )
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", required=True, help="output instance path")
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("principalize", help="run the full reduction pipeline")
    p.add_argument("instance", help="input instance path")
    p.add_argument("-o", "--out", required=True, help="output instance path")
    p.add_argument("--cert-out", help="certificate output path")
    p.set_defaults(func=cmd_principalize)

    v = sub.add_parser("verify", help="replay a certificate against an instance")
    v.add_argument("instance", help="input instance path")
    v.add_argument("certificate", help="certificate path")
    v.set_defaults(func=cmd_verify)

    i = sub.add_parser("info", help="print invariants of an instance file")
    i.add_argument("instance", help="instance path")
    i.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or EXIT_OK
    except (OSError, ValueError) as exc:
        code, error = EXIT_IO, exc
    except PreconditionError as exc:
        code, error = EXIT_HYPOTHESIS, exc
    except InvariantBreach as exc:
        code, error = EXIT_BREACH, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
