"""Span tracer for the per-layer metrics, built from outside the package.

`Tracer.install()` wraps every public function of each layer module, both
in the module that defines it and in every `rmlattice` module that bound
the name with `from ... import`, so calls between modules are seen too.
While `Tracer.on` is true each call records one span (name, start, end,
parent) in memory; `dump` writes them out and `aggregate` turns spans into
per-name call counts and self times (a span's duration minus the time its
child spans cover). Nothing in `src/` is edited.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

LAYERS = (
    "arith",
    "intmat",
    "quadratic",
    "surface",
    "isogeny",
    "reduction",
    "oracle",
    "generator",
    "formats",
    "cli",
)


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.fu_cache = None  # the lru_cache object behind fundamental_unit

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions wherever they are bound."""
        modules = {
            layer: importlib.import_module(f"rmlattice.{layer}") for layer in LAYERS
        }
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                if layer == "quadratic" and attr == "fundamental_unit":
                    self.fu_cache = obj
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "rmlattice" or mod_name.startswith("rmlattice.")
            ):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))  # ids are unique among live objects
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def cache_counts(self) -> tuple[int, int]:
        """(hits, misses) of the fundamental_unit cache so far."""
        if self.fu_cache is None:
            return 0, 0
        info = self.fu_cache.cache_info()
        return info.hits, info.misses

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the spans, gzipped: a JSON header line, then the four arrays.

        The header holds the span names, the span count and `extra`; the
        arrays follow as raw machine values in the order name_id, start,
        end, parent.
        """
        header = {"names": self.names, "count": len(self.start), "extra": extra or {}}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent):
                fh.write(arr.tobytes())

    def aggregate(self) -> dict[str, list]:
        return aggregate(self.names, self.name_id, self.start, self.end, self.parent)


def aggregate(names, name_id, start, end, parent) -> dict[str, list]:
    """Per span name: [calls, self seconds]."""
    n = len(start)
    child_time = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    out: dict[str, list] = {}
    for i in range(n):
        entry = out.setdefault(names[name_id[i]], [0, 0.0])
        entry[0] += 1
        entry[1] += end[i] - start[i] - child_time[i]
    return out


def load_aggregate(path: str) -> tuple[dict[str, list], dict]:
    """Aggregate a span file written by `Tracer.dump`; returns (stats, extra)."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in ("i", "d", "d", "i"):
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["count"]))
            arrays.append(arr)
    return aggregate(header["names"], *arrays), header["extra"]


def merge(into: dict[str, list], stats: dict[str, list]) -> None:
    for name, (calls, self_s) in stats.items():
        entry = into.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += self_s


# Per-layer metrics: (metric name, unit), in the order they are printed.
_CALLS = (
    "arith.factorize", "arith.is_prime", "intmat.hnf_column_basis",
    "intmat.snf_divisors", "intmat.det", "intmat.inverse", "intmat.mat_mul",
    "quadratic.solve_norm", "quadratic.humbert_nonempty", "quadratic.factor_prime",
    "surface.validate", "surface.degree", "surface.stabilizer_order",
    "isogeny.descend_polarization", "reduction.enlarge_order_step",
    "reduction.reduce_degree_step",
)
_SELF = (
    "arith.factorize", "arith.is_prime", "intmat.hnf_column_basis", "intmat.hnf_rows",
    "intmat.snf_with_transforms", "intmat.snf_divisors", "intmat.det", "intmat.inverse",
    "intmat.mat_mul", "quadratic.fundamental_unit", "quadratic.solve_norm",
    "quadratic.humbert_nonempty", "quadratic.bezout_conductor", "surface.validate",
    "surface.kernel_from_subspace", "isogeny.descend_polarization",
    "isogeny.divide_by_symmetric", "isogeny.twist_polarization", "isogeny.make_step",
    "reduction.squarefree_reduce", "reduction.enlarge_order_step",
    "reduction.reduce_degree_step", "oracle.verify_certificate",
    "generator.generate_instance",
)
_LAYER_SELF = ("intmat", "quadratic", "surface", "isogeny", "reduction", "formats")

PER_LAYER = (
    [(f"{n}.calls", "count") for n in _CALLS]
    + [("intmat.calls", "count")]
    + [(f"{n}.self_s", "s") for n in _SELF]
    + [(f"{layer}.self_s", "s") for layer in _LAYER_SELF]
    + [
        ("intmat.mod_p.self_s", "s"),
        ("quadratic.fundamental_unit.hit_ratio", "ratio"),
        ("surface.degree.calls_per_step", "ratio"),
        ("surface.validate.calls_per_chain", "ratio"),
        ("reduction.steps", "count"),
        ("formats.certificate_bytes", "bytes"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def layer_metrics(stats: dict[str, list], **counts) -> dict[str, float]:
    """Every PER_LAYER metric for one traced pass.

    `stats` is that pass's aggregate; `counts` holds what the spans cannot
    give (chains, steps, cert_bytes, hit_ratio, interpreter_ms, import_ms,
    overhead_frac).
    """
    def calls(prefix, exact=True):
        return sum(
            v[0] for k, v in stats.items() if (k == prefix if exact else k.startswith(prefix))
        )

    def self_s(pred):
        return sum(v[1] for k, v in stats.items() if pred(k))

    out = {f"{n}.calls": calls(n) for n in _CALLS}
    out["intmat.calls"] = calls("intmat.", exact=False)
    out.update({f"{n}.self_s": self_s(lambda k, n=n: k == n) for n in _SELF})
    out.update(
        {f"{layer}.self_s": self_s(lambda k, p=layer + ".": k.startswith(p)) for layer in _LAYER_SELF}
    )
    out["intmat.mod_p.self_s"] = self_s(lambda k: k.startswith("intmat.") and k.endswith("_mod_p"))
    out["quadratic.fundamental_unit.hit_ratio"] = counts["hit_ratio"]
    out["surface.degree.calls_per_step"] = out["surface.degree.calls"] / max(counts["steps"], 1)
    out["surface.validate.calls_per_chain"] = out["surface.validate.calls"] / max(counts["chains"], 1)
    out["reduction.steps"] = counts["steps"]
    out["formats.certificate_bytes"] = counts["cert_bytes"]
    out["cli.interpreter_ms"] = counts["interpreter_ms"]
    out["cli.import_ms"] = counts["import_ms"]
    out["trace.overhead_frac"] = counts["overhead_frac"]
    return out
