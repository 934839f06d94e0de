#!/usr/bin/env python3
"""Benchmark of the hurwitz-toda package: end-to-end metrics and a trace.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Runs the package from ``src/`` of the checkout this file sits in; nothing
needs installing or building.  Load comes from one process: one child runs
at a time and the oracle comparison uses ``--jobs 1``.

Workloads (why each was chosen: see WORKLOADS below)

    toda     verify toda --dmax 10 --bmax 10
    hirota   verify hirota -m 0 --sn 1 --dmax 8 --bmax 8
    oracle   compare --dmax 6 --bmax 4 --jobs 1
    queries  one long-lived session of 5,000 seeded library calls

The three CLI workloads are deterministic and ignore the seed; the seed
picks the query mix of ``queries``.

With ``--trace 0`` a run measures, for at least one iteration and as many
more as fit in ``--seconds``, each in a fresh process:

    wall_s       spawn to exit of one CLI run or one whole query session
    qps          operations per second: one CLI run is one operation, one
                 library call of a session is one operation (calls over
                 the session's closed-loop time)
    peak_rss_mb  the child's own ru_maxrss, read with os.wait4
    setup_s      spawn to exit of ``chartable --d 1`` (interpreter start,
                 package import, argparse), median of 2 x SETUP_REPEATS runs

Every output is checked: a CLI run must exit 0 with stdout whose SHA-256
equals the digest pinned from the package as first benchmarked, and every
answer of a session must equal its entry in the reference table pinned the
same way.  A nonzero exit, an exception or a mismatch is a failure; ``failed_frac`` = failed / attempted is printed and
carried as ``failed`` and ``attempted`` in the result line.

With ``--trace 1`` the run makes one untraced and one traced child run and
reports the per-layer metrics of :func:`tracer.summarize`, plus the
overhead of tracing.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYER_SELF, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Each workload stresses a different layer; shares are from a trace of the
# package as first benchmarked, on a 2-CPU machine.
WORKLOADS = {
    # The paper's headline identity: ~64% in the three ring products of
    # toda_residual, ~28% in build_tau; no log and one tau build, so a
    # cache-policy change should not move it.
    "toda": (["verify", "toda", "--dmax", "10", "--bmax", "10"],
             "b4df015013f576ba9c37be181389018ea321f04f1c424830cbe3c610db9193b4"),
    # Series keys carry the z and s symbols: ~44% in shift_p, ~46% in
    # products of shifted series, little build_tau.
    "hirota": (["verify", "hirota", "-m", "0", "--sn", "1", "--dmax", "8", "--bmax", "8"],
               "c884753c7f4a913aa2aa9d9e2f82712734bac95e890ea6206e299652486b9281"),
    # ~94% permutation sweep, under 1% series: the oracle's only workload,
    # which series or tau changes should leave unmoved.  The full caps
    # (6, 5) enumerate 15x more tuples at d = 6.
    "oracle": (["compare", "--dmax", "6", "--bmax", "4", "--jobs", "1"],
               "86187a3055cf4379a346b487c89b08d8f13b8801444aaa3cb78a6622a9783c97"),
    # A long-lived library user: every (d, b) pair costs one build_tau plus
    # one log through the default caches; no Toda or Hirota code.
    "queries": None,
}
SETUP_ARGV = ["chartable", "--d", "1"]
SETUP_DIGEST = "58e8bb7b83e1770d468821e9028c6ac9d7536ee5744baf44a4fbd589084b2c68"
SETUP_REPEATS = 8  # before and again after the workload

QUERY_CALLS = 5000
QUERY_D_MAX = 9
QUERY_B_MAX = 9
SIMPLE_SHARE = 0.2
# ``hurwitz-toda table --dmax 9 --bmax 9 --format csv`` from the package as
# first benchmarked, gzipped; the digest is that of the uncompressed CSV.
REFERENCE = HERE / "data" / "table_d9_b9.csv.gz"
REFERENCE_SHA256 = "9f7868513f7912c73be02acb32dbf7c1c0a5918f40388d58b33ccfc7562a4a9a"

RUN_LIMIT_S = 170  # every child is killed past this point of the run

END_TO_END = {"wall_s": "s", "qps": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "series.mul.busy_s": "s", "series.mul.calls": "count",
    "series.mul.pairs": "count", "series.mul.terms_out": "count",
    "series.mul.scaled_s": "s", "series.mul.tau_mixed_s": "s",
    "series.mul.d1_d1p_s": "s",
    "series.shift_p.busy_s": "s", "series.shift_p.terms_out": "count",
    "series.scale_q_exp.busy_s": "s", "series.d_dp.busy_s": "s",
    "series.extract_z.busy_s": "s",
    "series.log.busy_s": "s", "series.log.terms_out": "count",
    "series.busy_s": "s",
    "hurwitz.build_tau.busy_s": "s", "hurwitz.build_tau.calls": "count",
    "hurwitz.tau_terms": "count", "hurwitz.builds_per_query": "builds/query",
    "hurwitz.cov.busy_s": "s", "hurwitz.query_p50_ms": "ms",
    "hurwitz.query_p99_ms": "ms", "hurwitz.busy_s": "s",
    "characters.busy_s": "s", "characters.misses": "count",
    "characters.hit_ratio": "ratio",
    "oracle.sweep_s": "s", "oracle.tuples": "count",
    "oracle.tuples_per_s": "1/s",
    "verify.self_s": "s", "verify.residual_terms": "count",
    "trace.wall_s": "s", "trace.uncovered_s": "s", "trace.overhead_frac": "ratio",
}


class Deadline:
    """Time left in the run; children are killed when it runs out."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.perf_counter())


@dataclass
class Proc:
    code: int
    out: bytes
    wall_s: float
    rss_mb: float


def child_env() -> dict:
    """The caller's environment without settings that change the program or
    the interpreter (HURWITZ_*, PYTHON*), so every checkout runs alike."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("HURWITZ_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], deadline: Deadline, stdin: bytes | None = None) -> Proc:
    """Run ``python3 ARGS`` to completion; time spawn to exit, read its rusage.

    ``stdin`` is written before any output is read, which suits a child that
    reads all its input first.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    timer = threading.Timer(deadline.left(), proc.kill)
    timer.start()
    try:
        if stdin is not None:
            try:
                with proc.stdin:
                    proc.stdin.write(stdin)
            except BrokenPipeError:
                pass  # the child exited early; its exit code reports the failure
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, out, wall, usage.ru_maxrss / 1024)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    """One iteration of a workload: a CLI run or a query session."""

    attempted: int
    failed: int
    wall_s: float
    rss_mb: float
    qps: float
    latency_ns: list[int] = field(default_factory=list)


def run_cli(argv: list[str], digest: str, deadline: Deadline,
            trace: Path | None = None) -> Outcome:
    if trace is None:
        args = ["-m", "hurwitz_toda.cli", *argv]
    else:
        args = [str(HERE / "child.py"), "cli", "--trace", str(trace), "--", *argv]
    p = spawn(args, deadline)
    ok = p.code == 0 and sha256(p.out) == digest
    return Outcome(1, 0 if ok else 1, p.wall_s, p.rss_mb, 1 / p.wall_s)


# -- the query session ------------------------------------------------------

def partitions(d: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of d, decreasing parts (independent of the package)."""
    if d == 0:
        return [()]
    largest = d if largest is None else largest
    return [(p, *rest) for p in range(min(d, largest), 0, -1)
            for rest in partitions(d - p, p)]


def make_queries(seed: int, calls: int = QUERY_CALLS,
                 d_max: int = QUERY_D_MAX, b_max: int = QUERY_B_MAX) -> list:
    """Seeded closed-loop traffic: double_hurwitz at random (d, b, mu, nu),
    simple_hurwitz at random (g, d) inside the same (d, b) range."""
    rng = random.Random(seed)
    shapes = {d: partitions(d) for d in range(1, d_max + 1)}
    simple = [(g, d) for d in range(1, d_max + 1) for g in range(b_max + 1)
              if 2 * g + 2 * d - 2 <= b_max]
    out = []
    for _ in range(calls):
        if rng.random() < SIMPLE_SHARE:
            g, d = rng.choice(simple)
            out.append(["simple", g, d])
        else:
            d, b = rng.randint(1, d_max), rng.randint(0, b_max)
            out.append(["double", d, b, list(rng.choice(shapes[d])),
                        list(rng.choice(shapes[d]))])
    return out


def load_reference() -> dict[tuple, str]:
    raw = gzip.decompress(REFERENCE.read_bytes())
    if sha256(raw) != REFERENCE_SHA256:
        raise SystemExit(f"{REFERENCE}: digest mismatch, reference table damaged")
    rows = csv.reader(io.StringIO(raw.decode()))
    next(rows)
    return {(int(d), int(b), mu, nu): value for d, b, mu, nu, value, _, _ in rows}


def expected_answers(queries: list, reference: dict[tuple, str]) -> list[str]:
    out = []
    for q in queries:
        if q[0] == "double":
            _, d, b, mu, nu = q
        else:
            _, g, d = q
            b, mu, nu = 2 * g + 2 * d - 2, [1] * d, [1] * d
        out.append(reference[(d, b, ",".join(map(str, mu)), ",".join(map(str, nu)))])
    return out


def run_session(queries: list, expected: list[str], deadline: Deadline,
                trace: Path | None = None) -> Outcome:
    args = [str(HERE / "child.py"), "session"]
    if trace is not None:
        args += ["--trace", str(trace)]
    p = spawn(args, deadline, stdin=json.dumps(queries).encode())
    try:
        result = json.loads(p.out) if p.code == 0 else None
    except ValueError:
        result = None
    answers = result["answers"] if result else []
    if len(answers) != len(expected):
        return Outcome(len(queries), len(queries), p.wall_s, p.rss_mb,
                       len(queries) / p.wall_s)
    failed = sum(a != e for a, e in zip(answers, expected))
    return Outcome(len(queries), failed, p.wall_s, p.rss_mb,
                   len(queries) / result["loop_s"], result["latency_ns"])


# -- measuring --------------------------------------------------------------

def workload_runner(name: str, seed: int):
    """A function ``run(deadline, trace=None) -> Outcome`` for the workload."""
    if WORKLOADS[name] is not None:
        argv, digest = WORKLOADS[name]
        return lambda deadline, trace=None: run_cli(argv, digest, deadline, trace)
    queries = make_queries(seed)
    expected = expected_answers(queries, load_reference())
    return lambda deadline, trace=None: run_session(queries, expected, deadline, trace)


def measure_setup(deadline: Deadline, count: int) -> list[Outcome]:
    return [run_cli(SETUP_ARGV, SETUP_DIGEST, deadline) for _ in range(count)]


def measure(run, seconds: float, deadline: Deadline) -> list[Outcome]:
    """Iterations for ``seconds``: stop before one more would overrun it."""
    outcomes = []
    start = time.perf_counter()
    while True:
        outcomes.append(run(deadline))
        elapsed = time.perf_counter() - start
        if elapsed * (len(outcomes) + 1) / len(outcomes) > seconds:
            return outcomes


def percentile_ms(latency_ns: list[int], q: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    if not latency_ns:
        return 0.0
    ordered = sorted(latency_ns)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e6


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, float]
    samples: dict[str, int]


def bench_untraced(name: str, seed: int, seconds: float, deadline: Deadline) -> Result:
    run = workload_runner(name, seed)
    warmup = measure_setup(deadline, 1)  # writes the bytecode caches
    # Set-up is sampled before and after the workload, so that slow drift in
    # the machine's speed is averaged over the run as the workload's time is.
    setup = measure_setup(deadline, SETUP_REPEATS)
    outcomes = measure(run, seconds, deadline)
    setup += measure_setup(deadline, SETUP_REPEATS)
    every = warmup + setup + outcomes
    n = len(outcomes)
    metrics = {
        "wall_s": statistics.median(o.wall_s for o in outcomes),
        "qps": statistics.median(o.qps for o in outcomes),
        "peak_rss_mb": statistics.median(o.rss_mb for o in outcomes),
        "setup_s": statistics.median(o.wall_s for o in setup),
    }
    return Result(sum(o.attempted for o in every), sum(o.failed for o in every),
                  metrics, {"wall_s": n, "qps": n, "peak_rss_mb": n,
                            "setup_s": len(setup)})


def bench_traced(name: str, seed: int, deadline: Deadline) -> Result:
    run = workload_runner(name, seed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}.json"
    path.unlink(missing_ok=True)
    plain = run(deadline)
    traced = run(deadline, trace=path)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    try:
        trace = json.loads(path.read_text())
    except (OSError, ValueError):
        # no trace means the traced child failed; its outcome says so
        return Result(attempted, max(failed, 1), {}, {})
    if trace["missing"]:
        print(f"untraced (not found in the package): {', '.join(trace['missing'])}",
              file=sys.stderr)
    metrics = summarize(trace, traced.wall_s, trace["counters"]["operations"])
    metrics["hurwitz.query_p50_ms"] = percentile_ms(plain.latency_ns, 0.50)
    metrics["hurwitz.query_p99_ms"] = percentile_ms(plain.latency_ns, 0.99)
    metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1
    return Result(attempted, failed, metrics,
                  {"hurwitz.query_p50_ms": len(plain.latency_ns),
                   "hurwitz.query_p99_ms": len(plain.latency_ns)})


def report(name: str, seed: int, result: Result, units: dict[str, str]) -> None:
    if WORKLOADS[name] is not None:
        what = f"hurwitz-toda {' '.join(WORKLOADS[name][0])} (seed {seed} ignored: deterministic)"
    else:
        what = f"{QUERY_CALLS} library calls, seed {seed}"
    print(f"{name}: {what}")
    for metric, unit in units.items():
        value = result.metrics.get(metric)
        if value is None:
            continue
        n = result.samples.get(metric)
        tail = f"  (median of {n})" if n else ""
        print(f"  {metric:28} {value:>14.6g} {unit}{tail}")
    if "trace.wall_s" in result.metrics:
        m = result.metrics
        print(f"  layer self times {sum(m[k] for k in LAYER_SELF):.6g} s + uncovered "
              f"{m['trace.uncovered_s']:.6g} s = traced wall {m['trace.wall_s']:.6g} s")
    frac = result.failed / result.attempted if result.attempted else 1.0
    print(f"  {'failed_frac':28} {frac:>14.6g} ratio  ({result.failed} of {result.attempted})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (SRC / "hurwitz_toda" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    units = PER_LAYER if opts.trace else END_TO_END
    attempted = failed = 0
    complete = True
    metrics = {}
    for name in names:
        deadline = Deadline(RUN_LIMIT_S)
        if opts.trace:
            result = bench_traced(name, opts.seed, deadline)
        else:
            result = bench_untraced(name, opts.seed, opts.seconds, deadline)
        report(name, opts.seed, result, units)
        attempted += result.attempted
        failed += result.failed
        complete = complete and all(k in result.metrics for k in units)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({f"{prefix}{k}": {"value": result.metrics[k], "unit": u}
                        for k, u in units.items() if k in result.metrics})
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
