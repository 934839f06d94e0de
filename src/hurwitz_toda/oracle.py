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
routes, which only ``compare_all`` calls.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from itertools import starmap
from math import factorial

from .characters import CharacterCache
from .hurwitz import _Shapes, _class_sum, build_tau, connected_series, corrupted
from .partitions import Partition, class_size, partitions_of, transposition_class

DEFAULT_D_CAP = 6
DEFAULT_B_CAP = 5


class OracleLimitError(ValueError):
    """Raised when a request exceeds the configured enumeration caps."""


def _steps(orbits: tuple) -> dict:
    """{next type: transpositions t taking p there} for p of type ``orbits``.

    A type is the sorted tuple, over orbits, of the sorted cycle lengths of
    p within the orbit.  With i and j in one cycle of length L, t = (i j)
    splits it into delta and L - delta: L transpositions for each
    delta < L/2, and L/2 for delta = L/2.  With i and j in cycles of lengths
    a and c, a c transpositions join them into one of length a + c, merging
    their orbits when those differ.  The counts sum to C(d, 2).
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
    return counts


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
                for after, number in _steps(orbits).items():
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
    entry = _sweep(d, mu.parts, b_cap)[b].get(nu.parts)
    if entry is None:
        return Fraction(0)
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
    """Cross-check every in-range count against the character-sum routes.

    For each (d, b, mu, nu): the disconnected tuple count over d! must equal
    both the class-algebra formula and b! times the tau coefficient, and the
    transitive count over d! must equal b! times the log tau coefficient.
    Returns one record per disagreement; empty list means full agreement.
    ``corruption`` bumps one tau coefficient by +1 before comparing (negative
    control).  One walk per (d, mu) and one shape table per d serve every b;
    the walks run on at most ``jobs`` worker processes, never more than the
    CPU count.
    """
    _check_box(d_max_oracle, b_max_oracle, d_cap, b_cap)
    tau = corrupted(build_tau(d_max_oracle, b_max_oracle, cache=cache), corruption)
    h = connected_series(tau)

    tables = [_Shapes(d, cache) for d in range(1, d_max_oracle + 1)]
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
            for nu in table.shapes:
                entry = counts.get(nu.parts, (0, 0))
                oracle_disc = Fraction(entry[0], dfact)
                oracle_conn = Fraction(entry[1], dfact)
                key = (d, b, mu.parts, nu.parts, 0, 0)
                series_disc = tau.coefficient(key) * factorial(b)
                series_conn = h.coefficient(key) * factorial(b)
                # no transpositions below degree two: those counts vanish
                formula_disc = (_class_sum(table, [mu, nu] + swaps * b) if swaps or not b
                                else Fraction(0))
                if not (oracle_disc == series_disc == formula_disc):
                    discrepancies.append({
                        "d": d, "b": b, "mu": mu.parts, "nu": nu.parts,
                        "kind": "disconnected",
                        "oracle": oracle_disc, "series": series_disc,
                        "formula": formula_disc,
                    })
                if oracle_conn != series_conn:
                    discrepancies.append({
                        "d": d, "b": b, "mu": mu.parts, "nu": nu.parts,
                        "kind": "connected",
                        "oracle": oracle_conn, "series": series_conn,
                        "formula": None,
                    })
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
