#!/usr/bin/env python3
"""Per-stage timings of the Toda and Hirota checks and the oracle comparison,
as recorded in the BENCH_*.json files.

    python3 scripts/bench_stages.py [--src DIR] [--orders 8,8 10,10 12,12]
                                    [--oracle 6,4 6,5]

Imports ``hurwitz_toda`` from DIR (default: ``src/`` of this checkout), so
the same script times any other checkout whose ``verify`` has
``_factor_shifts``, whose ``oracle._sweep`` walks types with a memoized
``_steps`` and answers every b at once, and whose ``hurwitz`` has
``_Shapes(d, cache)``, the character table of degree d, and an integer
``_class_sum`` over it; an older checkout is timed by its own copy of the
script.  Each stage reports the least of REPEATS runs, timed with
``time.perf_counter`` in this one process; a cold stage starts cold on
every run.  For each order (d_max, b_max) it times:

    build_tau     tau assembly from a cold character cache
    log           tau.log()
    scale_q_exp   tau.scale_q_exp(2), as Hirota's m = 0 left factor uses it
    toda_residual the lowest equation's residual, one pass over the pairs
                  of tau's rows
    tau_n         verify_tau_n at n = 1 and n = -1, tau read from the
                  default cells grown by one untimed build
    hirota_shift  the four shift_p calls of verify_hirota(0, 1), on their
                  lifted, q-scaled inputs (the left two at cap d_max - 1)
    extract_z     the z-extractions of verify_hirota(0, 1), prefactor
                  included, from the products of the shifted factors

with the term count of each result, and exits nonzero unless the Toda
and both tau-n residuals vanish.
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

An empty ``--orders`` or ``--oracle`` (no values, or ``""``) skips that
part.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import comb, factorial

REPEATS = 3


def best(fn) -> tuple:
    """The least seconds over REPEATS calls of ``fn``, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return round(min(times), 4), result


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
    timed("scale_q_exp", lambda: [tau.scale_q_exp(2)])
    (residual,) = timed("toda_residual", lambda: [ht.verify.toda_residual(tau)])
    if not residual.is_zero():
        raise SystemExit(f"toda residual nonzero at ({d_max}, {b_max})")
    ht.build_tau(d_max, b_max)
    residuals = timed("tau_n", lambda: [ht.verify_tau_n(n, d_max, b_max).residual
                                        for n in (1, -1)])
    if not all(r.is_zero() for r in residuals):
        raise SystemExit(f"tau-n residual nonzero at ({d_max}, {b_max})")

    # verify_hirota's four factors at m = 0, n_s = 1, side pprime: (q cap,
    # top z power read, q-scaling, sign of s, sign of the z-vector, z-vector
    # on the primed family), with their shifts from verify's own builder
    low = d_max - 1
    factors = [(low, 0, 2, 1, 1, True), (low, 0, 0, -1, -1, True),
               (d_max, 1, 0, 1, -1, False), (d_max, 1, 0, -1, 1, False)]
    inputs = [(tau.with_caps(d_max=cap, z_max=z_max, s_max=1).scale_q_exp(scale),
               ht.verify._factor_shifts(1, True, s_sign, zv, zv_prime, cap))
              for cap, z_max, scale, s_sign, zv, zv_prime in factors]
    a, b, c, d = timed("hirota_shift", lambda: [x.shift_p(sh) for x, sh in inputs])
    lhs, rhs = (a * b).scale_q_exp(-1).with_caps(d_max=d_max), c * d
    # the prefactor 1 - 2 s z^-1 on the left: [z^-1] lhs is empty, so it reads s [z^0]
    timed("extract_z", lambda: [lhs.extract_z(-1) + lhs.extract_z(0).mul_aux_monomial(-2, ds=1),
                                rhs.extract_z(1)])
    return out


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
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import hurwitz_toda as ht

    report = {}
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
