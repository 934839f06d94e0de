#!/usr/bin/env python3
"""Per-stage timings of the Toda and Hirota checks and the oracle comparison,
as recorded in the BENCH_*.json files.

    python3 scripts/bench_stages.py [--src DIR] [--orders 8,8 10,10 12,12]
                                    [--oracle 6,4 6,5] [--verify 10,10]

Imports ``hurwitz_toda`` from DIR (default: ``src/`` of this checkout), so
the same script times any other checkout whose ``hurwitz`` has ``_Cells``
with ``grow_tau`` and ``grow_log``, whose ``oracle._sweep`` walks types with
a memoized ``_steps`` and answers every b at once, and whose ``hurwitz`` has
``_Shapes(d, cache)``, the character table of degree d, and an integer
``_class_sum`` over it; an older checkout is timed by its own copy of the
script.  It first times:

    startup       REPEATS spawns of ``python -c "import hurwitz_toda.cli"``
                  against DIR, spawn to exit, after one untimed spawn that
                  writes the bytecode caches: the least and the median
                  seconds, and the largest ru_maxrss (KB on Linux) the
                  kernel reports for a child at exit.  The children run
                  without this process's PYTHON* settings, as perfbench's
                  do.  A spawned child's ru_maxrss starts from its parent's
                  high-water mark, so they are spawned by a bare
                  ``python -S`` (about 8 MB), not by this process

and, for each ``--verify`` order (d_max, b_max), end to end:

    verify_toda   REPEATS spawns of ``python -m hurwitz_toda.cli verify toda
                  --dmax D --bmax B`` against DIR, spawned as ``startup``
                  spawns (after it, so the bytecode caches are written), its
                  output discarded: the least and the median seconds, and
                  the largest ru_maxrss, the child's own peak; it exits
                  nonzero unless every run passes

Every other stage reports the least of REPEATS runs, timed with
``time.perf_counter`` in this one process; a cold stage starts cold on
every run.  For each order (d_max, b_max) it times:

    build_tau     tau assembly from a cold character cache
    log           tau.log()
    grow_tau      the tau cells' character sums to (d_max, b_max) in fresh
                  cells, on a character cache warmed untimed beforehand, so
                  the character recursion is left out; its terms are the
                  cell entries
    grow_log      the log cells' growth to (d_max, b_max) in fresh cells,
                  their tau cells grown untimed beforehand
    scale_q_exp   tau.scale_q_exp(2), as Hirota's m = 0 left factor uses it
    toda_residual the lowest equation's residual, one pass over the pairs
                  of tau's rows; also its tracemalloc peak (bytes), traced
                  on one more run after the timed ones
    tau_n         verify_tau_n at n = 1 and n = -1, tau read from the
                  default cells grown by one untimed build
    hirota_shift  the shift_p calls of verify_hirota(0, 1), on their
                  lifted, q-scaled inputs (the left two at cap d_max - 1)
    hirota_mul    the products of the shifted factors, made as
                  verify_hirota(0, 1) makes them, keywords included
    extract_z     the z-extractions of verify_hirota(0, 1) from those
                  products
    hirota        verify_hirota whole at (m, n_s, side) = (0, 1, pprime),
                  (1, 3, p) and (-1, 3, pprime), tau read from the default
                  cells, each case with its own time and residual terms

The four Hirota stages run only at orders with d_max <= HIROTA_DMAX: at
(12, 12) they take 87 of the 108 s the whole order takes, and raise its
peak from 0.13 to 0.5 GB (CPython 3.11, 2 vCPUs), so at (14, 14) they would
not fit a small machine.  The three Hirota part stages replay, argument for
argument, the calls that one untimed verify_hirota(0, 1) run makes, so on
any checkout they time that checkout's own factors and products.  Each
stage reports the term count of its results, and the script exits nonzero
unless the Toda, both tau-n and (where run) the three Hirota residuals
vanish.
For each oracle order it times the two stages of ``compare`` that do not
build series:

    sweep          oracle._sweep for every (d, mu) task, cold, with the
                   number of transposition tuples counted over every b, the
                   sum of the transitive counts (both equal on every
                   checkout), the states: the distinct types each walk
                   steps from, one ``_steps`` call each, summed over the
                   tasks and the levels b < b_max, and the types: how many
                   distinct types those calls step (both counted in one
                   untimed pass); ``_steps`` is memoized, so a cold sweep
                   clears its cache too
    class_algebra  the class-algebra numerator of every (d, b, mu, nu) as
                   ``compare`` evaluates it, from one table per d built on
                   each run, as fresh cells build it, with the character
                   cache warmed by one untimed pass

and exits nonzero unless every class-algebra numerator, over L^k d!^2 for
k = b + 2 classes and L the lcm of the dims, equals the sweep's disconnected
count over d!: in integers, the count times L^k d!.

An empty ``--orders``, ``--oracle`` or ``--verify`` (no values, or ``""``)
skips that part.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
from math import comb, factorial

REPEATS = 3
HIROTA_CASES = [(0, 1, "pprime"), (1, 3, "p"), (-1, 3, "pprime")]
HIROTA_DMAX = 12


def best(fn) -> tuple:
    """The least seconds over REPEATS calls of ``fn``, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return round(min(times), 4), result


# Prints seconds, exit code and ru_maxrss of each of argv[1] timed spawns of
# ``python ARGV[2:]``, their stdout discarded.
SPAWNER = """
import os, sys, time
argv = [sys.executable, *sys.argv[2:]]
quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
for _ in range(int(sys.argv[1])):
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    print(time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def spawned(src: str, args: list[str], count: int) -> list[tuple[float, int, int]]:
    """(seconds, exit code, ru_maxrss KB) of ``count`` spawns of ``python
    ARGS`` against SRC, each spawned by a bare ``python -S``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.abspath(src)
    out = subprocess.run([sys.executable, "-S", "-c", SPAWNER, str(count), *args], env=env,
                         capture_output=True, text=True, check=True).stdout
    return [(float(s), int(code), int(kb)) for s, code, kb in map(str.split, out.splitlines())]


def summary(runs: list[tuple[float, int, int]]) -> dict:
    times = sorted(s for s, _, _ in runs)  # REPEATS is odd: the middle is the median
    return {"least_s": round(times[0], 4), "median_s": round(times[len(times) // 2], 4),
            "ru_maxrss_kb": max(kb for _, _, kb in runs)}


def startup(src: str) -> dict:
    warm, *runs = spawned(src, ["-c", "import hurwitz_toda.cli"], REPEATS + 1)
    # warm wrote the bytecode caches
    if any(code for _, code, _ in [warm, *runs]):
        raise SystemExit(f"import hurwitz_toda.cli failed from {src}")
    return summary(runs)


def verify_toda(src: str, d_max: int, b_max: int) -> dict:
    runs = spawned(src, ["-m", "hurwitz_toda.cli", "verify", "toda", "--dmax", str(d_max),
                         "--bmax", str(b_max)], REPEATS)
    if any(code for _, code, _ in runs):
        raise SystemExit(f"verify toda failed at ({d_max}, {b_max}) from {src}")
    return summary(runs)


def stages(ht, d_max: int, b_max: int) -> dict:
    out = {}

    def timed(name, fn):
        s, results = best(fn)
        out[name] = {"s": s, "terms": sum(len(r) for r in results)}
        return results

    # a fresh character cache on every run keeps the build cold
    (tau,) = timed("build_tau",
                   lambda: [ht.build_tau(d_max, b_max, cache=ht.CharacterCache())])
    timed("log", lambda: [tau.log()])
    # the cells' sums from fresh cells on a character cache warmed untimed:
    # the tau cells alone, then the log cells with their tau cells grown untimed
    cache = ht.CharacterCache()
    ht.hurwitz._Cells(cache).grow_tau(d_max, b_max)
    for name in ("grow_tau", "grow_log"):
        times = []
        for _ in range(REPEATS):
            cells = ht.hurwitz._Cells(cache)
            if name == "grow_log":
                cells.grow_tau(d_max, b_max)
            t0 = time.perf_counter()
            getattr(cells, name)(d_max, b_max)
            times.append(time.perf_counter() - t0)
        terms = len(cells.h) if name == "grow_log" else sum(map(len, cells.tau.values()))
        out[name] = {"s": round(min(times), 4), "terms": terms}
    timed("scale_q_exp", lambda: [tau.scale_q_exp(2)])
    (residual,) = timed("toda_residual", lambda: [ht.verify.toda_residual(tau)])
    if not residual.is_zero():
        raise SystemExit(f"toda residual nonzero at ({d_max}, {b_max})")
    tracemalloc.start()
    try:
        ht.verify.toda_residual(tau)
        out["toda_residual"]["traced_peak"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ht.build_tau(d_max, b_max)
    residuals = timed("tau_n", lambda: [ht.verify_tau_n(n, d_max, b_max).residual
                                        for n in (1, -1)])
    if not all(r.is_zero() for r in residuals):
        raise SystemExit(f"tau-n residual nonzero at ({d_max}, {b_max})")
    if d_max > HIROTA_DMAX:
        return out

    # the shifts, products and z-extractions verify_hirota(0, 1) makes, as it
    # makes them, recorded in one untimed run and replayed
    calls = recorded(ht, lambda: ht.verify_hirota(0, 1, d_max, b_max))
    for name, method in (("hirota_shift", "shift_p"), ("hirota_mul", "__mul__"),
                         ("extract_z", "extract_z")):
        timed(name, lambda: [fn(*args, **kwargs) for fn, args, kwargs in calls[method]])
    cases = {}
    for m, n_s, side in HIROTA_CASES:
        s, report = best(lambda: ht.verify_hirota(m, n_s, d_max, b_max, side=side))
        if not report.passed:
            raise SystemExit(f"hirota {(m, n_s, side)} residual nonzero at ({d_max}, {b_max})")
        cases[f"{m},{n_s},{side}"] = {"s": s, "terms": len(report.residual)}
    out["hirota"] = cases
    return out


def recorded(ht, run) -> dict[str, list]:
    """The series operations ``run`` calls, as (method, args, kwargs) per name.

    Only products of two series are kept; products by scalars are not
    Hirota's.
    """
    cls = ht.series.TruncatedSeries
    calls = {name: [] for name in ("shift_p", "__mul__", "extract_z")}
    originals = {name: vars(cls)[name] for name in calls}

    def recorder(name, method):
        def call(*args, **kwargs):
            if name != "__mul__" or isinstance(args[1], cls):
                calls[name].append((method, args, kwargs))
            return method(*args, **kwargs)
        return call

    for name, method in originals.items():
        setattr(cls, name, recorder(name, method))
    try:
        run()
    finally:
        for name, method in originals.items():
            setattr(cls, name, method)
    return calls


def oracle_stages(ht, d_max: int, b_max: int) -> dict:
    profiles = [(d, mu) for d in range(1, d_max + 1) for mu in ht.partitions_of(d)]
    tasks = [(d, mu.parts, b_max) for d, mu in profiles]
    sweep, steps, states = ht.oracle._sweep, ht.oracle._steps, []

    def cold_sweeps():
        sweep.cache_clear()
        steps.cache_clear()
        return [sweep(*task) for task in tasks]

    def counting(orbits):
        states.append(orbits)
        return steps(orbits)

    ht.oracle._steps = counting
    try:
        cold_sweeps()
    finally:
        ht.oracle._steps = steps
    s, walks = best(cold_sweeps)
    out = {"sweep": {"s": s, "tasks": len(tasks), "states": len(states),
                     "types": len(set(states)),
                     "tuples": sum(comb(d, 2) ** b for d, _ in profiles for b in range(b_max + 1)),
                     "transitive": sum(c[1] for levels in walks for counts in levels
                                       for c in counts.values())}}
    calls = [(d, mu, nu, b) for d, mu in profiles
             for b in range(b_max + 1) for nu in ht.partitions_of(d)]
    swaps = {d: [ht.partitions.transposition_class(d)] if d > 1 else [] for d, _ in profiles}
    cache = ht.CharacterCache()

    def class_algebra():
        # as compare_all: integer numerators, none below degree two
        tables = {d: ht.hurwitz._Shapes(d, cache) for d in swaps}
        return [ht.hurwitz._class_sum(tables[d], [mu, nu] + swaps[d] * b)
                if swaps[d] or not b else 0 for d, mu, nu, b in calls]

    class_algebra()
    s, numerators = best(class_algebra)
    common = {d: ht.hurwitz._Shapes(d, cache).common for d in swaps}
    disconnected = dict(zip(profiles, walks))
    for (d, mu, nu, b), numerator in zip(calls, numerators):
        # the numerator is over L^k d!^2 with k = b + 2, the count over d!
        count = disconnected[(d, mu)][b].get(nu.parts, (0, 0))[0]
        if count * common[d] ** (b + 2) * factorial(d) != numerator:
            raise SystemExit(f"class-algebra numerator {numerator} != sweep count {count}"
                             f" times L^{b + 2} {d}! at {(d, b, mu.parts, nu.parts)}")
    out["class_algebra"] = {"s": s, "calls": len(calls)}
    return out


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description="Per-stage timings of the Toda check.")
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"))
    parser.add_argument("--orders", nargs="*", default=["8,8", "10,10", "12,12"])
    parser.add_argument("--oracle", nargs="*", default=["6,4", "6,5"])
    parser.add_argument("--verify", nargs="*", default=["10,10"])
    args = parser.parse_args(argv)
    report = {"startup": startup(args.src)}
    print(f"startup: {report['startup']}", file=sys.stderr)
    for order in filter(None, args.verify):
        d_max, b_max = (int(x) for x in order.split(","))
        report.setdefault("verify_toda", {})[order] = verify_toda(args.src, d_max, b_max)
        print(f"verify_toda {order}: {report['verify_toda'][order]}", file=sys.stderr)
    sys.path.insert(0, os.path.abspath(args.src))
    import hurwitz_toda as ht

    for order in filter(None, args.orders):
        d_max, b_max = (int(x) for x in order.split(","))
        report[order] = stages(ht, d_max, b_max)
        print(f"{order}: {report[order]}", file=sys.stderr)
    for order in filter(None, args.oracle):
        d_max, b_max = (int(x) for x in order.split(","))
        report.setdefault("oracle", {})[order] = oracle_stages(ht, d_max, b_max)
        print(f"oracle {order}: {report['oracle'][order]}", file=sys.stderr)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
