"""Ground truth by counting monodromy tuples, with no characters.

A degree-d covering of the sphere with marked monodromies corresponds to a
tuple of permutations with identity product, counted up to simultaneous
conjugation; weighting by the automorphism group is the same as counting raw
tuples and dividing by d!.  Connectivity of the covering is transitivity of
the group the tuple generates.

The count fixes the class of sigma0 and applies the transpositions one at a
time.  A prefix is summarized by its type: over the orbits of the group its
permutations generate, the cycle lengths of its product within each orbit.
How many transpositions take a prefix to each next type depends on its type
alone (Goulden and Jackson, "Transitive factorizations into transpositions
and holomorphic mappings on the sphere", 1997): a transposition splits one
cycle, joins two cycles of one orbit, or joins two cycles of two orbits and
merges those orbits.  So the walk carries types with the number of prefixes
of each, never a permutation.  sigma_inf has the cycle type of the product,
and the tuple is transitive when one orbit is left, so one walk per sigma0
class answers every b up to the box's b_max.  The count reads no character,
class-algebra value or series, so it stays an independent check of those
routes: ``compare_all`` compares its integer counts with the tau and log
cells and the class-algebra numerators, and calls no series code.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from itertools import starmap
from math import factorial

from .characters import DEFAULT_CACHE, CharacterCache
# build_tau is not called here; perfbench/tracer.py's tests read oracle.build_tau
from .hurwitz import _Cells, _class_sum, _store, build_tau
from .partitions import Partition, class_size, partitions_of, transposition_class
from .series import make_key

DEFAULT_D_CAP = 6
DEFAULT_B_CAP = 5


class OracleLimitError(ValueError):
    """Raised when a request exceeds the configured enumeration caps."""


@lru_cache(maxsize=None)
def _steps(orbits: tuple) -> tuple:
    """((next type, transpositions t taking p there), ...) for p of type ``orbits``.

    A type is the sorted tuple, over orbits, of the sorted cycle lengths of
    p within the orbit.  With i and j in one cycle of length L, t = (i j)
    splits it into delta and L - delta: L transpositions for each
    delta < L/2, and L/2 for delta = L/2.  With i and j in cycles of lengths
    a and c, a c transpositions join them into one of length a + c, merging
    their orbits when those differ.  The counts sum to C(d, 2).  Each type
    is stepped once per process; the shared value is an immutable tuple.
    """
    counts: dict = {}

    def reach(merged: tuple, cycles: tuple, number: int) -> None:
        rest = [orbit for k, orbit in enumerate(orbits) if k not in merged]
        key = tuple(sorted(rest + [tuple(sorted(cycles))]))
        counts[key] = counts.get(key, 0) + number

    for k, orbit in enumerate(orbits):
        for x, a in enumerate(orbit):
            others = orbit[:x] + orbit[x + 1:]
            for delta in range(1, a // 2 + 1):
                reach((k,), others + (delta, a - delta), a if 2 * delta < a else delta)
            for y in range(x, len(others)):
                reach((k,), others[:y] + others[y + 1:] + (a + others[y],), a * others[y])
            for m in range(k + 1, len(orbits)):
                for z, c in enumerate(orbits[m]):
                    reach((k, m), others + orbits[m][:z] + orbits[m][z + 1:] + (a + c,), a * c)
    return tuple(counts.items())


@lru_cache(maxsize=None)
def _sweep(d: int, mu_parts: tuple, b_max: int) -> tuple:
    """Counts of tuples with sigma0 of type mu, keyed by sigma_inf type, for
    every b <= b_max: entry b is {nu_parts: [all_count, transitive_count]}.

    The walk starts from the type of sigma0, whose orbits are its cycles,
    with weight the class size of mu, and takes b_max steps of ``_steps``.
    Entry b reads the types after b steps: nu is all their cycle lengths,
    since sigma_inf is the inverse of the product, and a type with one
    orbit counts as transitive.
    """
    walk = {tuple(sorted((n,) for n in mu_parts)): class_size(Partition(mu_parts))}
    levels = []
    for b in range(b_max + 1):
        if b:
            reached: dict = {}
            for orbits, n in walk.items():
                for after, number in _steps(orbits):
                    reached[after] = reached.get(after, 0) + n * number
            walk = reached
        counts: dict[tuple, list[int]] = {}
        for orbits, n in walk.items():
            entry = counts.setdefault(tuple(sorted(sum(orbits, ()), reverse=True)), [0, 0])
            entry[0] += n
            if len(orbits) == 1:
                entry[1] += n
        levels.append(counts)
    return tuple(levels)


def count_tuples(d: int, mu: Partition, nu: Partition, b: int,
                 connected_only: bool, *,
                 d_cap: int = DEFAULT_D_CAP, b_cap: int = DEFAULT_B_CAP) -> Fraction:
    """Tuple count over d! for profiles (mu, nu) and b transpositions.

    Tuples are (sigma0 in C_mu, tau_1, ..., tau_b transpositions, sigma_inf
    in C_nu) with identity left-to-right product.  With ``connected_only``
    the generated group must act transitively.  Every b is read from one
    walk to ``b_cap``.
    """
    mu, nu = Partition(mu), Partition(nu)
    if mu.size != d or nu.size != d:
        raise ValueError(f"profiles must have size {d}")
    if b < 0:
        raise ValueError("b must be nonnegative")
    if d > d_cap or b > b_cap:
        raise OracleLimitError("oracle scale limit")
    if d == 0:
        return Fraction(1) if b == 0 else Fraction(0)
    entry = _sweep(d, mu.parts, b_cap)[b].get(nu.parts, (0, 0))
    return Fraction(entry[1] if connected_only else entry[0], factorial(d))


def _check_box(d_max: int, b_max: int, d_cap: int, b_cap: int) -> None:
    """Refuse an empty box, which holds nothing to count, and one past the caps."""
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    if b_max < 0:
        raise ValueError("b_max must be nonnegative")
    if d_max > d_cap or b_max > b_cap:
        raise OracleLimitError("oracle scale limit")


def compare_all(d_max_oracle: int, b_max_oracle: int, *,
                jobs: int = 1,
                d_cap: int = DEFAULT_D_CAP, b_cap: int = DEFAULT_B_CAP,
                cache: CharacterCache | None = None,
                corruption: tuple | None = None) -> list[dict]:
    """Cross-check every in-range tuple count against the character-sum routes.

    For each (d, b, mu, nu) the walk's count of all tuples must equal the tau
    cell, d! b! times the coefficient, and times L^k d! the class-algebra
    numerator over L^k d!^2 (k = b + 2 classes); its transitive count must
    equal the log cell.  The cells are those ``table`` and ``double`` read.
    Integers only, with Fractions (each side over d!) just in the records
    returned, one per disagreement; empty list means full agreement.
    ``corruption``, a count compare reads, bumps its tau coefficient by +1 in
    fresh cells (negative control).  One walk per (d, mu) and the cells' own
    table per d serve every b; the walks run on at most ``jobs`` processes.
    """
    _check_box(d_max_oracle, b_max_oracle, d_cap, b_cap)
    if corruption is None:
        cells = _store(cache)
    else:
        dq, b, mu, nu = corruption[:4]
        if not (1 <= dq <= d_max_oracle and b <= b_max_oracle and sum(mu) == sum(nu) == dq
                and corruption == make_key(dq, b, mu, nu)):
            raise ValueError(f"corruption {corruption} is not a count compare reads")
        cells = _Cells(cache or DEFAULT_CACHE)
        cells.grow_tau(d_max_oracle, b_max_oracle)
        cell = cells.tau[(dq, b)]
        cell[corruption] = cell.get(corruption, 0) + factorial(dq) * factorial(b)
    with cells.lock:  # a grown cell never changes, so it is read outside the lock
        cells.grow_log(d_max_oracle, b_max_oracle)
        tables = [cells.table(d) for d in range(1, d_max_oracle + 1)]
    profiles = [(table, mu) for table in tables for mu in table.shapes]
    tasks = [(table.d, mu.parts, b_max_oracle) for table, mu in profiles]
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        from multiprocessing import Pool  # imported here, so a serial run never pays for it
        with Pool(jobs) as pool:
            walks = pool.starmap(_sweep, tasks)
    else:
        walks = list(starmap(_sweep, tasks))

    discrepancies = []
    for (table, mu), levels in zip(profiles, walks):
        d, dfact = table.d, factorial(table.d)
        swaps = [transposition_class(d)] if d > 1 else []
        for b, counts in enumerate(levels):
            tau, scale = cells.tau[(d, b)], table.common ** (b + 2) * dfact
            for nu in table.shapes:
                key = (d, b, mu.parts, nu.parts, 0, 0)
                every, transitive = counts.get(nu.parts, (0, 0))
                disc, conn = tau.get(key, 0), cells.h.get(key, 0)
                # no transpositions below degree two: those counts vanish
                formula = _class_sum(table, [mu, nu] + swaps * b) if swaps or not b else 0
                if not (every == disc and every * scale == formula):
                    discrepancies.append({
                        "d": d, "b": b, "mu": mu.parts, "nu": nu.parts, "kind": "disconnected",
                        "oracle": Fraction(every, dfact), "series": Fraction(disc, dfact),
                        "formula": Fraction(formula, scale * dfact)})
                if transitive != conn:
                    discrepancies.append({
                        "d": d, "b": b, "mu": mu.parts, "nu": nu.parts, "kind": "connected",
                        "oracle": Fraction(transitive, dfact), "series": Fraction(conn, dfact),
                        "formula": None})
    return discrepancies


def count_table(d_max_oracle: int, b_max_oracle: int, *,
                d_cap: int = DEFAULT_D_CAP, b_cap: int = DEFAULT_B_CAP) -> list[dict]:
    """Raw oracle counts per (d, b, mu, nu), for the CSV dump."""
    _check_box(d_max_oracle, b_max_oracle, d_cap, b_cap)
    rows = []
    for d in range(1, d_max_oracle + 1):
        shapes = list(partitions_of(d))
        walks = [(mu, _sweep(d, mu.parts, b_max_oracle)) for mu in shapes]
        for b in range(b_max_oracle + 1):
            for mu, levels in walks:
                for nu in shapes:
                    entry = levels[b].get(nu.parts, (0, 0))
                    rows.append({
                        "d": d, "b": b, "mu": mu.parts, "nu": nu.parts,
                        "disconnected_count": Fraction(entry[0], factorial(d)),
                        "connected_count": Fraction(entry[1], factorial(d)),
                    })
    return rows
