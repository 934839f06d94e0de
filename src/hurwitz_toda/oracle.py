"""Ground truth by counting permutation tuples, with no characters.

A degree-d covering of the sphere with marked monodromies corresponds to a
tuple of permutations with identity product, counted up to simultaneous
conjugation; weighting by the automorphism group is the same as counting raw
tuples and dividing by d!.  Connectivity of the covering is transitivity of
the group the tuple generates.

The count fixes sigma0 and applies the transpositions one at a time.  A
tuple's prefix is summarized by its product so far and by the orbits of the
group its permutations generate; both are all that later steps and the
final counts depend on, so prefixes with equal summaries are counted
together instead of one by one.  Every step but the last is a permutation
composition and an orbit merge.  The last step reads only the cycles of
each product: a transposition (i j) joins the two cycles through i and j,
or splits the one cycle holding both, and the tuple is transitive when the
orbits end as one.  One walk per sigma0 answers every b up to the box's
b_max, since the counts for b are read from the prefixes of length b - 1.
The count reads no character, class-algebra value or series, so it stays an
independent check of those routes, which only ``compare_all`` calls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import starmap
from math import factorial

from .characters import CharacterCache
from .hurwitz import _Shapes, _class_sum, build_tau, connected_series, corrupted
from .partitions import Partition, class_size, partitions_of, transposition_class

DEFAULT_D_CAP = 6
DEFAULT_B_CAP = 5

Perm = tuple[int, ...]


class OracleLimitError(ValueError):
    """Raised when a request exceeds the configured enumeration caps."""


def identity_perm(d: int) -> Perm:
    return tuple(range(d))


def compose(a: Perm, b: Perm) -> Perm:
    """Apply ``a`` first, then ``b`` (left-to-right composition)."""
    return tuple(map(b.__getitem__, a))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def cycle_type(p: Perm) -> Partition:
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        n, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            n += 1
        lengths.append(n)
    return Partition(sorted(lengths, reverse=True))


def class_representative(mu: Partition) -> Perm:
    """Permutation of cycle type ``mu`` built from consecutive blocks."""
    out = []
    start = 0
    for part in Partition(mu).parts:
        out.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(out)


def all_transpositions(d: int) -> list[Perm]:
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            p = list(range(d))
            p[i], p[j] = j, i
            out.append(tuple(p))
    return out


@dataclass(frozen=True)
class MonodromyTuple:
    """Monodromy data (sigma0, transpositions, sigma_inf) of one covering."""

    d: int
    sigma0: Perm
    transpositions: tuple[Perm, ...]
    sigma_inf: Perm

    def product_is_identity(self) -> bool:
        p = self.sigma0
        for t in self.transpositions:
            p = compose(p, t)
        return compose(p, self.sigma_inf) == identity_perm(self.d)

    def is_transitive(self) -> bool:
        return _is_transitive(self.d, (self.sigma0,) + self.transpositions)


def _is_transitive(d: int, perms: tuple[Perm, ...]) -> bool:
    """Union-find over the orbits of the listed permutations."""
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = d
    for p in perms:
        for i in range(d):
            ri, rj = find(i), find(p[i])
            if ri != rj:
                parent[ri] = rj
                components -= 1
    return components == 1


def _orbit_labels(p: Perm) -> Perm:
    """Each point labelled by the smallest point of its orbit under ``p``."""
    labels = list(range(len(p)))
    for i in range(len(p)):
        if labels[i] == i:  # no smaller point has reached i: it starts an orbit
            j = p[i]
            while j != i:
                labels[j] = i
                j = p[j]
    return tuple(labels)


def _orbit_cycles(p: Perm, labels: Perm) -> tuple:
    """The cycle lengths of ``p`` within each orbit, each sorted, all sorted.

    Conjugation preserves both the cycle types reached in one more step and
    the orbits, so states with equal orbit cycles end alike.
    """
    orbits: dict = {}
    seen = [False] * len(p)
    for i in range(len(p)):
        if not seen[i]:
            n, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                n += 1
            orbits.setdefault(labels[i], []).append(n)
    return tuple(sorted(tuple(sorted(lengths)) for lengths in orbits.values()))


def _last_step(orbits: tuple) -> dict:
    """{type of p t: [transpositions t, those after which one orbit remains]}.

    For p with the given orbit cycles (see ``_orbit_cycles``), t = (i j)
    runs over every transposition.  With i and j in cycles of lengths a and
    c, a c transpositions join those cycles into one of length a + c, and
    the tuple becomes transitive when it had one orbit, or two that the
    join connects.  With both in one cycle of length L, t splits it into
    delta = (pos j - pos i) mod L and L - delta, where pos counts steps of
    p along the cycle: L transpositions for each delta < L/2, and L/2 for
    delta = L/2.  A split leaves the orbits as they were.
    """
    cycles = [(n, k) for k, lengths in enumerate(orbits) for n in lengths]
    parts = sorted((n for n, _ in cycles), reverse=True)
    counts: dict = {}

    def add(removed: tuple, added: tuple, number: int, transitive: bool) -> None:
        rest = list(parts)
        for n in removed:
            rest.remove(n)
        entry = counts.setdefault(tuple(sorted(rest + list(added), reverse=True)), [0, 0])
        entry[0] += number
        if transitive:
            entry[1] += number

    for x, (a, k) in enumerate(cycles):
        for delta in range(1, a // 2 + 1):
            add((a,), (delta, a - delta), a if 2 * delta < a else delta, len(orbits) == 1)
        for c, kc in cycles[x + 1:]:
            add((a, c), (a + c,), a * c, len(orbits) == 1 or (len(orbits) == 2 and k != kc))
    return counts


@lru_cache(maxsize=None)
def _sweep(d: int, mu_parts: tuple, b_max: int) -> tuple:
    """Counts of tuples with sigma0 of type mu, keyed by sigma_inf type, for
    every b <= b_max: entry b is {nu_parts: [all_count, transitive_count]}.

    Fixes one representative sigma0 and multiplies by the class size at the
    end (conjugation preserves both the identity-product constraint and
    transitivity).  Entry 0 is the tuple (sigma0, sigma0^-1).  One walk
    carries states (product so far, orbits of sigma0 and the transpositions
    so far) through the first b_max - 1 transpositions, each with the
    number of transposition prefixes that reach it; orbits are labelled by
    their smallest point, so equal states merge.  Entry b counts the last
    transposition from the cycles of each state left after b - 1 steps (see
    ``_last_step``): sigma_inf = (p t)^-1 has the cycle type of p t.
    """
    mu = Partition(mu_parts)
    mult = class_size(mu)
    levels = [{mu.parts: [mult, mult if mu.length == 1 else 0]}]
    sigma0 = class_representative(mu)
    states = {(sigma0, _orbit_labels(sigma0)): 1}
    swaps = [(t, [k for k in range(d) if t[k] != k]) for t in all_transpositions(d)]
    for b in range(1, b_max + 1):
        if b > 1:  # one more transposition on every state
            reached: dict = {}
            for (p, labels), n in states.items():
                for t, (i, j) in swaps:
                    a, c = labels[i], labels[j]
                    merged = labels
                    if a != c:  # two orbits join, under the smaller label
                        lo, hi = (a, c) if a < c else (c, a)
                        merged = tuple(lo if x == hi else x for x in labels)
                    key = (compose(p, t), merged)
                    reached[key] = reached.get(key, 0) + n
            states = reached
        grouped: dict = {}
        for (p, labels), n in states.items():
            orbits = _orbit_cycles(p, labels)
            grouped[orbits] = grouped.get(orbits, 0) + n * mult
        counts: dict[tuple, list[int]] = {}
        for orbits, n in grouped.items():
            for nu, (every, transitive) in _last_step(orbits).items():
                entry = counts.setdefault(nu, [0, 0])
                entry[0] += n * every
                entry[1] += n * transitive
        levels.append(counts)
    return tuple(levels)


def count_tuples(d: int, mu: Partition, nu: Partition, b: int,
                 connected_only: bool, *,
                 d_cap: int = DEFAULT_D_CAP, b_cap: int = DEFAULT_B_CAP) -> Fraction:
    """Tuple count over d! for profiles (mu, nu) and b transpositions.

    Tuples are (sigma0 in C_mu, tau_1, ..., tau_b transpositions, sigma_inf
    in C_nu) with identity left-to-right product.  With ``connected_only``
    the generated group must act transitively.
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
    entry = _sweep(d, mu.parts, b)[b].get(nu.parts)
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
