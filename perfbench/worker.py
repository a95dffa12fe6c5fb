"""One workload in one fresh process: set up, run whole passes of chains, check.

Started by run.py. `--t0` is the time.perf_counter reading (CLOCK_MONOTONIC,
shared by all processes) taken just before this process was launched, so
the set-up time covers interpreter start, imports, building the pass from
the seed and warming caches. The last line of stdout is one JSON object
with the raw samples and counts; run.py turns it into metrics.

A chain is generate -> principalize (plus serializing the output instance
and certificate) -> verify (parse_certificate plus verify_certificate).
`info` runs after generate and is timed, but is not part of a chain's time.
Every operation runs under a timeout; a timeout, an exception or a failed
output check makes that operation failed, listed with its request. A
PreconditionError from generate is a refusal, counted apart.

The shared host's speed drifts by itself, by up to half in either
direction and within a second, and slows every process alike. So the
worker times host_ms(), a fixed loop of stdlib arithmetic, at the start of
each chain and after each operation, and scales each operation's time,
and set-up likewise, by the mean of the readings before and after it to
the host speed REFERENCE_MS stands for. The samples it prints are these
scaled times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
OP_TIMEOUT_S = 15.0
# Every time is reported scaled to a host on which host_ms() reads this
# (its usual reading on the reference machine): t * REFERENCE_MS / host_ms().
REFERENCE_MS = 0.5
# Whole passes for a run of 20-30 s on the reference machine (2 shared
# x86-64 cores, Python 3.11), set-up and checks included. A run does
# round(PASSES_PER_20S * --seconds / 20) passes, at least one, so its work,
# sample counts and tail percentiles are the same on every run.
PASSES_PER_20S = {"pool": 4, "conductor": 3, "numtheory": 3, "cli": 2}
EXIT_HYPOTHESIS = 2  # the CLI's exit code for a PreconditionError
VERIFY_OK = "certificate replays to an identical surface"
KINDS = ("generate", "info", "principalize", "verify")
OK, REFUSED, FAILED = "ok", "refused", "failed"


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its timeout."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Context:
    """The package modules, reached by attribute at call time so tracing sees calls."""

    def __init__(self, src: str) -> None:
        for name in ("cli", "errors", "formats", "generator", "oracle", "quadratic", "reduction", "surface"):
            setattr(self, name, importlib.import_module(f"rmlattice.{name}"))
        self.env = dict(os.environ, PYTHONPATH=src)


class Chains:
    """Runs chains, keeping samples, counts, failures and first-pass digests."""

    def __init__(self, ctx: Context, passes, tmp: str, tracer=None) -> None:
        self.ctx = ctx
        self.passes = passes  # passes[p][i]: the i-th request of pass p
        n = len(passes[0])
        self.tmp = tmp
        self.tracer = tracer
        self.traced = False
        # samples[kind][s]: shape s's scaled times in ms, one per pass that reached it
        self.samples = {kind: [[] for _ in range(n)] for kind in KINDS}
        self.chain_ms = [[] for _ in range(n)]  # shape s's scaled chain time per pass
        # host_ms() at the start of each chain and after each of its operations
        self.host = []
        self.shape = 0
        self.attempted = 0
        self.failures: list[dict] = []
        self.incorrect = False
        self.refused = 0
        self.refusals: list[dict] = []  # first-pass refusals with their message
        self.chains = 0
        self.op_ms = 0.0  # all timed operations' scaled time, info included
        self.steps = 0
        self.cert_bytes = 0
        self.first_pass: list[str | None] = [None] * n  # result digests
        self._cmd = 0

    def _fail(self, kind, req, error, incorrect=True) -> None:
        self.failures.append({"kind": kind, "request": req.label(), "error": str(error)})
        self.incorrect = self.incorrect or incorrect

    def _pin(self, index, pass_no, text) -> None:
        """Record a first-pass result's digest."""
        if pass_no == 0:
            self.first_pass[index] = hashlib.sha256(text.encode()).hexdigest()

    def _refused(self, index, pass_no, req, message) -> None:
        self.refused += 1
        if pass_no == 0:
            self.refusals.append({"request": req.label(), "error": message})
        self._pin(index, pass_no, f"refused {req.label()}")

    def _check_output(self, result, out_text):
        F, S = self.ctx.formats, self.ctx.surface
        if S.degree(result) != 1:
            return f"final degree {S.degree(result)} is not 1"
        if result.order.conductor != 1 or S.stabilizer_order(result).conductor != 1:
            return "final acting order is not maximal"
        if F.serialize_instance(F.parse_instance(out_text)) != out_text:
            return "output instance does not round-trip"
        return None

    def _timed(self, kind, elapsed) -> None:
        """Keep one operation's time, scaled by host_ms() read before it and now."""
        before, after = self.host[-1], host_ms()
        self.host.append(after)
        scaled = elapsed * 1000 * REFERENCE_MS / ((before + after) / 2)
        self.samples[kind][self.shape].append(scaled)
        self.op_ms += scaled
        if kind != "info":
            self.chain_ms[self.shape][-1] += scaled

    def _begin(self, req) -> None:
        self.shape = req.shape
        self.chain_ms[req.shape].append(0.0)
        self.host.append(host_ms())

    # -- library chains ---------------------------------------------------

    def _op(self, kind, req, fn, *args):
        """Time one in-process operation; returns (status, value).

        status is OK, REFUSED (a PreconditionError from generate, with its
        repr as the value) or FAILED; a failure is recorded here.
        """
        self.attempted += 1
        tracer = self.tracer if self.traced else None
        status, value = OK, None
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            if tracer is not None:
                tracer.on = True
            try:
                value = fn(*args)
            finally:
                if tracer is not None:
                    tracer.on = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            status = FAILED
            self._fail(kind, req, f"timeout after {OP_TIMEOUT_S} s", incorrect=False)
        except self.ctx.errors.PreconditionError as exc:
            status, value = (REFUSED, repr(exc)) if kind == "generate" else (FAILED, None)
            if status == FAILED:
                self._fail(kind, req, repr(exc))
        except Exception as exc:  # every other error, InvariantBreach included
            status = FAILED
            self._fail(kind, req, repr(exc))
        self._timed(kind, perf_counter() - start)
        return status, value

    def run_library(self, index, pass_no) -> None:
        ctx, req = self.ctx, self.passes[pass_no][index]
        self._begin(req)
        F = ctx.formats
        status, value = self._op(
            "generate", req, ctx.generator.generate_instance, req.D, req.f, list(req.primes), req.gen_seed
        )
        if status == REFUSED:
            return self._refused(index, pass_no, req, value)
        if status == FAILED:
            return
        inst_text = F.serialize_instance(value)
        start = F.parse_instance(inst_text)
        if F.serialize_instance(start) != inst_text:
            return self._fail("generate", req, "instance does not round-trip")
        path = os.path.join(self.tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inst_text)
        status, out = self._op("info", req, _info_in_process, ctx.cli, path)
        if status == FAILED:
            return
        if not out.startswith("Δ="):
            return self._fail("info", req, f"bad output {out[:60]!r}")

        def principalize(s):
            result, report = ctx.reduction.principalize(s)
            return result, F.serialize_instance(result), F.serialize_certificate(report)

        status, value = self._op("principalize", req, principalize, start)
        if status == FAILED:
            return
        result, out_text, cert_text = value
        problem = self._check_output(result, out_text)
        if problem:
            return self._fail("principalize", req, problem)

        def verify(s, text):
            return ctx.oracle.verify_certificate(s, F.parse_certificate(text))

        status, value = self._op("verify", req, verify, start, cert_text)
        if status == FAILED:
            return
        if value != (True, VERIFY_OK):
            return self._fail("verify", req, f"certificate rejected: {value[1]}")
        self._finish(index, pass_no, req, cert_text)

    def _finish(self, index, pass_no, req, cert_text) -> None:
        """Last checks of a chain whose operations all succeeded."""
        F = self.ctx.formats
        if F.serialize_certificate(F.parse_certificate(cert_text)) != cert_text:
            return self._fail("verify", req, "certificate does not round-trip")
        self._pin(index, pass_no, cert_text)
        self.chains += 1
        self.steps += len(json.loads(cert_text)["steps"])
        self.cert_bytes += len(cert_text.encode())

    # -- CLI chains -------------------------------------------------------

    def _command(self, kind, req, args):
        """Time one CLI command in a fresh interpreter; returns (status, output).

        The output is stdout, or for a refusal the CLI's error message. Only
        `generate` exiting with EXIT_HYPOTHESIS and the CLI's own `error: `
        message is a refusal; an argparse usage error (also exit 2) fails.
        """
        if self.traced:
            spans = os.path.join(self.tmp, "spans", f"cmd-{self._cmd:05d}.spans.gz")
            self._cmd += 1
            argv = [sys.executable, os.path.join(HERE, "cli_shim.py"), spans, *args]
        else:
            argv = [sys.executable, "-m", "rmlattice.cli", *args]
        self.attempted += 1
        start = perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=OP_TIMEOUT_S, env=self.ctx.env)
        except subprocess.TimeoutExpired:
            proc = None
        self._timed(kind, perf_counter() - start)
        if proc is None:
            self._fail(kind, req, f"timeout after {OP_TIMEOUT_S} s", incorrect=False)
            return FAILED, None
        if proc.returncode == EXIT_HYPOTHESIS and kind == "generate" and proc.stderr.startswith("error: "):
            return REFUSED, proc.stderr.strip()
        if proc.returncode != 0:
            self._fail(kind, req, f"exit {proc.returncode}: {proc.stderr.strip()}")
            return FAILED, None
        return OK, proc.stdout

    def run_cli(self, index, pass_no) -> None:
        F, req = self.ctx.formats, self.passes[pass_no][index]
        self._begin(req)
        inst, out, cert = (os.path.join(self.tmp, n) for n in ("in.json", "out.json", "cert.json"))
        status, message = self._command(
            "generate", req,
            ["generate", "--D", str(req.D), "--conductor", str(req.f),
             "--degree-primes", ",".join(map(str, req.primes)), "--seed", str(req.gen_seed), "-o", inst],
        )
        if status == REFUSED:
            return self._refused(index, pass_no, req, message)
        if status == FAILED:
            return
        inst_text = _read(inst)
        if F.serialize_instance(F.parse_instance(inst_text)) != inst_text:
            return self._fail("generate", req, "instance does not round-trip")
        status, stdout = self._command("info", req, ["info", inst])
        if status == FAILED:
            return
        if not stdout.startswith("Δ="):
            return self._fail("info", req, f"bad output {stdout[:60]!r}")
        status, _ = self._command("principalize", req, ["principalize", inst, "-o", out, "--cert-out", cert])
        if status == FAILED:
            return
        out_text, cert_text = _read(out), _read(cert)
        problem = self._check_output(F.parse_instance(out_text), out_text)
        if problem:
            return self._fail("principalize", req, problem)
        status, stdout = self._command("verify", req, ["verify", inst, cert])
        if status == FAILED:
            return
        if stdout.strip() != VERIFY_OK:
            return self._fail("verify", req, f"certificate rejected: {stdout.strip()}")
        self._finish(index, pass_no, req, cert_text)


_BIG_X, _BIG_Y, _BIG_M = 3**2500, 7**900, 5**3000 + 2


def host_ms() -> float:
    """The host's speed right now: how long two fixed stdlib loops take, in ms.

    The geometric mean of small-integer Fraction arithmetic (interpreter
    work, as in intmat and surface) and 2000-7000-bit multiply-and-reduce
    (big-integer work, as on conductor). It calls nothing of the package,
    so it does not move when rmlattice does; it moves when the shared host
    slows every process alike.
    """
    start = perf_counter()
    acc = 0
    for i in range(1, 100):
        acc += (Fraction(i, 7) * Fraction(3, i + 1)).numerator
    small = perf_counter() - start
    start = perf_counter()
    x = _BIG_X
    for _ in range(8):
        x = x * _BIG_Y % _BIG_M
    big = perf_counter() - start
    return (small * big) ** 0.5 * 1000


def _info_in_process(cli, path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["info", path])
    if code != 0:
        raise RuntimeError(f"info exited {code}")
    return buf.getvalue()


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _median_child_ms(argv, env, repeats=7):
    """Median wall time of a short child process, or of the seconds it prints, in ms."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        out = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60, check=True).stdout
        times.append(float(out) * 1000 if out.strip() else (perf_counter() - start) * 1000)
    return statistics.median(times)


def traced_pass(run: Chains, chain, n: int, out_dir: str, ctx: Context) -> dict:
    """The first pass three times: untraced twice, then traced; per-layer metrics of the last.

    The traced pass's spans are written to `out_dir`. The overhead compares
    the traced pass's scaled operation time with the second untraced one's,
    over the same instances; the first warms the caches both then find.
    """
    import tracer as tracer_mod

    tracer = run.tracer
    span_dir = os.path.join(run.tmp, "spans")
    os.makedirs(span_dir, exist_ok=True)
    for i in range(n):
        chain(i, 0)
    before = run.op_ms
    for i in range(n):
        chain(i, 1)
    untraced_ms = run.op_ms - before
    tracer.install()
    chains0, steps0, bytes0 = run.chains, run.steps, run.cert_bytes
    hits0, misses0 = tracer.cache_counts()
    run.traced = True
    before = run.op_ms
    for i in range(n):
        chain(i, 2)
    run.traced = False
    traced_ms = run.op_ms - before
    tracer.uninstall()
    hits, misses = tracer.cache_counts()
    hits, misses = hits - hits0, misses - misses0
    stats = tracer.aggregate()
    for name in sorted(os.listdir(span_dir)):
        sub, extra = tracer_mod.load_aggregate(os.path.join(span_dir, name))
        tracer_mod.merge(stats, sub)
        hits, misses = hits + extra["fu_hits"], misses + extra["fu_misses"]
    if len(tracer.start):
        tracer.dump(os.path.join(span_dir, "worker.spans.gz"))
    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.move(span_dir, out_dir)
    return tracer_mod.layer_metrics(
        stats,
        chains=run.chains - chains0,
        steps=run.steps - steps0,
        cert_bytes=run.cert_bytes - bytes0,
        hit_ratio=hits / (hits + misses) if hits + misses else 0.0,
        interpreter_ms=_median_child_ms([sys.executable, "-c", "pass"], ctx.env),
        import_ms=_median_child_ms(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import rmlattice.cli; print(time.perf_counter() - t)"],
            ctx.env,
        ),
        overhead_frac=traced_ms / untraced_ms - 1,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--host0", type=float, required=True, help="host_ms() just before launch")
    parser.add_argument("--src", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [args.src, HERE]
    import workloads

    ctx = Context(args.src)
    if args.trace:
        passes = 3  # the same instances: warm-up, untraced, traced
        run_passes = workloads.build(args.workload, args.seed, 1) * 3
    else:
        passes = max(1, round(PASSES_PER_20S[args.workload] * args.seconds / 20))
        run_passes = workloads.build(args.workload, args.seed, passes)
    is_cli = args.workload == "cli"
    if not is_cli:
        for order in workloads.orders_of(run_passes[0]):
            ctx.quadratic.fundamental_unit(order)
    setup_s = perf_counter() - args.t0
    setup_host_ms = host_ms()
    setup_s *= REFERENCE_MS / ((args.host0 + setup_host_ms) / 2)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    run = Chains(ctx, run_passes, args.tmp, tracer)
    chain = run.run_cli if is_cli else run.run_library
    n = len(run_passes[0])
    per_layer = None
    if args.trace:
        out_dir = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}")
        per_layer = traced_pass(run, chain, n, out_dir, ctx)
    else:
        for i in range(passes * n):
            chain(i % n, i // n)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
    print(json.dumps({
        "setup_s": setup_s,
        "host_ms": statistics.median([setup_host_ms, *run.host]),
        "samples": run.samples,
        "chain_ms": run.chain_ms,
        "chains": run.chains,
        "attempted": run.attempted,
        "incorrect": run.incorrect,
        "failures": run.failures,
        "refused": run.refused,
        "refusals": run.refusals,
        "pass_size": n,
        "passes": passes,
        "first_pass_digest": hashlib.sha256(
            "".join(d or "failed" for d in run.first_pass).encode()
        ).hexdigest(),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
