"""Outside-in span tracer for the hurwitz_toda package.

Wraps the package's public functions and methods from the benchmark's own
code; the package is not modified.  A wrapper replaces the original at every
module (and class) binding that refers to it, so ``verify.build_tau`` and
``oracle.build_tau``, or ``__mul__`` and its alias ``__rmul__``, are all
traced.  Each call records one span: name, start, end and parent.  Spans are
kept in memory and written once, when the run ends, by :meth:`Tracer.dump`.

:func:`summarize` turns a dumped trace into per-layer metrics.  A layer's
self time is the duration of its spans minus what their child spans cover,
so the self times of all spans plus the untraced remainder add up to the
traced wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from math import comb

# (module, public name) -> span name.  ``Class.method`` names a method.
# Series arithmetic dunders share one span per operation; the package's
# layers are series, hurwitz, characters, oracle and verify (partitions is
# only reached through characters and hurwitz, cli is measured by setup_s).
SERIES_METHODS = {
    "__add__": "add", "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg",
    "__mul__": "mul", "exp": "exp", "log": "log", "d_dp": "d_dp",
    "scale_q_exp": "scale_q_exp", "mul_exp_beta": "mul_exp_beta",
    "mul_q_power": "mul_q_power", "mul_aux_monomial": "mul_aux_monomial",
    "shift_p": "shift_p", "extract_z": "extract_z", "extract_s": "extract_s",
    "truncate_parts": "truncate_parts", "filtered": "filtered",
    "with_caps": "with_caps", "with_coefficient": "with_coefficient",
}
TRACED = {
    **{("series", f"TruncatedSeries.{m}"): f"series.{op}" for m, op in SERIES_METHODS.items()},
    ("hurwitz", "build_tau"): "hurwitz.build_tau",
    ("hurwitz", "connected_series"): "hurwitz.connected_series",
    ("hurwitz", "cov_burnside"): "hurwitz.cov",
    ("hurwitz", "cov_with_transpositions"): "hurwitz.cov",
    ("hurwitz", "cov_record"): "hurwitz.cov_record",
    ("hurwitz", "double_hurwitz"): "hurwitz.double_hurwitz",
    ("hurwitz", "simple_hurwitz"): "hurwitz.simple_hurwitz",
    ("hurwitz", "hurwitz_table"): "hurwitz.hurwitz_table",
    ("hurwitz", "schur_in_power_sums"): "hurwitz.schur_in_power_sums",
    ("characters", "CharacterCache.character"): "characters",
    ("characters", "CharacterCache.dimension"): "characters",
    ("characters", "character"): "characters",
    ("characters", "dimension"): "characters",
    ("characters", "central_character"): "characters",
    ("oracle", "compare_all"): "oracle.compare_all",
    ("oracle", "count_tuples"): "oracle.count_tuples",
    ("oracle", "count_table"): "oracle.count_table",
    ("verify", "toda_residual"): "verify.toda_residual",
    ("verify", "verify_toda"): "verify.verify_toda",
    ("verify", "verify_hirota"): "verify.verify_hirota",
    ("verify", "verify_tau_n"): "verify.verify_tau_n",
    ("verify", "verify_toda_specialized"): "verify.verify_toda_specialized",
}

# Per-layer self-time metrics; with trace.uncovered_s they sum to trace.wall_s.
LAYER_SELF = ("series.busy_s", "hurwitz.busy_s", "characters.busy_s",
              "oracle.sweep_s", "verify.self_s")

# The three products of verify.toda_residual, in the order Python evaluates
# them: the scaled product is assigned first, then tau * mixed, then d1 * d1p.
TODA_PRODUCTS = ("scaled", "tau_mixed", "d1_d1p")


def _partition_count(d: int) -> int:
    """Number of partitions of d (independent of the package)."""
    counts = [1] + [0] * d
    for part in range(1, d + 1):
        for n in range(part, d + 1):
            counts[n] += counts[n - part]
    return counts[d]


def sweep_tuples(d_max: int, b_max: int) -> int:
    """Transposition tuples the oracle sweep enumerates: sum of C(d,2)^b.

    One sweep task per (d, mu, b) with 1 <= d <= d_max, mu a partition of
    d and 0 <= b <= b_max; each enumerates every b-tuple of transpositions.
    """
    return sum(_partition_count(d) * comb(d, 2) ** b
               for d in range(1, d_max + 1) for b in range(b_max + 1))


class Tracer:
    """In-memory span recorder plus per-boundary counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # flat records: name id, start ns, end ns, parent index (-1 = none)
        self.spans = array("q")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name: str, after=None, only_if=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``after(args, result)`` records counters once the call returns;
        calls for which ``only_if(args)`` is false run untraced.
        """
        nid = self._id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_if is not None and not only_if(args):
                return fn(*args, **kwargs)
            idx = len(spans) // 4
            spans.extend((nid, clock(), 0, stack[-1]))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[4 * idx + 2] = clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every name in TRACED at every binding in the package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        series_cls = package.series.TruncatedSeries
        is_series = lambda args: isinstance(args[1], series_cls)
        hooks = {
            "series.mul": dict(after=self._count_mul, only_if=is_series),
            "hurwitz.build_tau": dict(after=self._count_tau),
            "oracle.compare_all": dict(after=self._count_sweep),
        }
        for verify in ("verify_toda", "verify_hirota", "verify_tau_n",
                       "verify_toda_specialized"):
            hooks[f"verify.{verify}"] = dict(after=self._count_residual)
        for op in ("shift_p", "log"):
            hooks[f"series.{op}"] = dict(after=self._terms_out(f"series.{op}"))

        done = set()
        for (modname, public), span in TRACED.items():
            owner = getattr(package, modname, None)
            holder_name, _, attr = public.rpartition(".")
            if holder_name:
                owner = getattr(owner, holder_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{public}")
                continue
            if id(original) in done:
                continue
            done.add(id(original))
            wrapper = self.wrap(original, span, **hooks.get(span, {}))
            holders = [owner] if holder_name else modules
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        setattr(holder, key, wrapper)

    # -- counters recorded at the boundaries --------------------------------

    def _count_mul(self, args, result) -> None:
        self.count("series.mul.pairs", len(args[0]) * len(args[1]))
        self.count("series.mul.terms_out", len(result))

    def _terms_out(self, span: str):
        return lambda args, result: self.count(f"{span}.terms_out", len(result))

    def _count_tau(self, args, result) -> None:
        self.count("hurwitz.tau_terms", len(result))

    def _count_residual(self, args, result) -> None:
        self.count("verify.residual_terms", len(result.residual))

    def _count_sweep(self, args, result) -> None:
        self.count("oracle.tuples", sweep_tuples(args[0], args[1]))

    def dump(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans.tolist(),
                       "counters": {**self.counters, **extra},
                       "missing": self.missing}, fh)


def summarize(trace: dict, wall_s: float, operations: int) -> dict[str, float]:
    """Per-layer metrics from a dumped trace of a run with ``wall_s`` wall time.

    ``operations`` is the number of requests the run served (library calls
    in a query session, one for a CLI run).
    """
    names, flat, counters = trace["names"], trace["spans"], trace["counters"]
    n = len(flat) // 4
    self_ns = [0] * n
    top_ns = 0
    calls: dict[str, int] = {}
    by_name: dict[str, int] = {}
    toda_children: dict[int, list[int]] = {}
    for i in range(n):
        nid, start, end, parent = flat[4 * i: 4 * i + 4]
        dur = end - start
        self_ns[i] += dur
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            top_ns += dur
        else:
            self_ns[parent] -= dur
            if name == "series.mul" and names[flat[4 * parent]] == "verify.toda_residual":
                toda_children.setdefault(parent, []).append(i)
    for i in range(n):
        name = names[flat[4 * i]]
        by_name[name] = by_name.get(name, 0) + self_ns[i]

    def busy(prefix: str) -> float:
        return sum(v for k, v in by_name.items()
                   if k == prefix or k.startswith(prefix + ".")) / 1e9

    products = dict.fromkeys(TODA_PRODUCTS, 0)
    for children in toda_children.values():
        for label, i in zip(TODA_PRODUCTS, children):
            products[label] += self_ns[i]

    hits = counters.get("characters.hits", 0)
    misses = counters.get("characters.misses", 0)
    sweep_s = busy("oracle")
    tuples = counters.get("oracle.tuples", 0)
    return {
        "series.mul.busy_s": busy("series.mul"),
        "series.mul.calls": calls.get("series.mul", 0),
        "series.mul.pairs": counters.get("series.mul.pairs", 0),
        "series.mul.terms_out": counters.get("series.mul.terms_out", 0),
        **{f"series.mul.{label}_s": ns / 1e9 for label, ns in products.items()},
        "series.shift_p.busy_s": busy("series.shift_p"),
        "series.shift_p.terms_out": counters.get("series.shift_p.terms_out", 0),
        "series.scale_q_exp.busy_s": busy("series.scale_q_exp"),
        "series.d_dp.busy_s": busy("series.d_dp"),
        "series.extract_z.busy_s": busy("series.extract_z"),
        "series.log.busy_s": busy("series.log"),
        "series.log.terms_out": counters.get("series.log.terms_out", 0),
        "series.busy_s": busy("series"),
        "hurwitz.build_tau.busy_s": busy("hurwitz.build_tau"),
        "hurwitz.build_tau.calls": calls.get("hurwitz.build_tau", 0),
        "hurwitz.tau_terms": counters.get("hurwitz.tau_terms", 0),
        "hurwitz.builds_per_query": calls.get("hurwitz.build_tau", 0) / operations,
        "hurwitz.cov.busy_s": busy("hurwitz.cov"),
        "hurwitz.busy_s": busy("hurwitz"),
        "characters.busy_s": busy("characters"),
        "characters.misses": misses,
        "characters.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "oracle.sweep_s": sweep_s,
        "oracle.tuples": tuples,
        "oracle.tuples_per_s": tuples / sweep_s if sweep_s else 0.0,
        "verify.self_s": busy("verify"),
        "verify.residual_terms": counters.get("verify.residual_terms", 0),
        "trace.wall_s": wall_s,
        "trace.uncovered_s": wall_s - top_ns / 1e9,
    }
