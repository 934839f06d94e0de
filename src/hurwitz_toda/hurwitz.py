"""Covering counts over the sphere with two marked fibers.

Everything funnels through two objects: the class-algebra (Burnside) formula
for weighted, possibly disconnected covering counts, and a generating series
tau over q, beta and two power-sum families whose coefficients are those
counts with b transposition insertions divided by b!.  Taking log turns the
disconnected counts into connected ones; the connected numbers with assigned
ramification profiles over the two marked points are the double Hurwitz
numbers.
"""

from __future__ import annotations

import threading
from collections import Counter, namedtuple
from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul

from .characters import CharacterCache, DEFAULT_CACHE
from .partitions import (
    Partition,
    _partition,
    class_size,
    f2_contents,
    partitions_of,
    transposition_class,
    z_mu,
)
from .series import ZERO_KEY, Key, TruncatedSeries, _flat, _grouped, _mul_groups, _scaled, make_key


class HurwitzRecord(namedtuple("HurwitzRecord", "b mu nu value connected")):
    """One covering count: profiles ``mu`` and ``nu``, two Partitions of the
    degree ``d`` = |mu|, and b transposition points.  A connected count's
    ``genus`` is :func:`genus_of` (b, mu, nu), and where that is None the
    value is necessarily zero; a disconnected count has none.
    """

    __slots__ = ()

    @property
    def d(self) -> int:
        return self.mu.size

    @property
    def genus(self) -> int | None:
        return genus_of(self.b, self.mu, self.nu) if self.connected else None

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "b": self.b,
            "mu": list(self.mu.parts),
            "nu": list(self.nu.parts),
            "value": format_rational(self.value),
            "genus": self.genus if self.genus is not None else "non-integral",
            "connected": self.connected,
        }


def format_rational(x: Fraction) -> object:
    """Integers as JSON numbers, proper fractions as "num/den" strings."""
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


class _Shapes:
    """The character table of degree d that the cells keep: the shapes, their
    dims, the lcm L of the nonzero dims (not d!: a seeded cache may hold any
    dim), f2 by shape, |C| by class, and per class C once asked, chi_C by shape."""

    def __init__(self, d: int, cache: CharacterCache):
        self.d, self.cache = d, cache
        self.shapes = list(partitions_of(d))
        self.dims = [cache.dimension(lam) for lam in self.shapes]
        self.common = lcm(*filter(None, self.dims))
        self.f2 = [f2_contents(lam) for lam in self.shapes]
        self.sizes = {mu: class_size(mu) for mu in self.shapes}
        self._rows: dict = {}

    def row(self, c: Partition) -> list[int]:
        if c not in self._rows:
            self._rows[c] = [self.cache.character(lam, c) for lam in self.shapes]
        return self._rows[c]


def _class_sum(table: _Shapes, classes: list[Partition]) -> int:
    """The numerator of cov_burnside of ``classes``, all of size table.d, over
    L^k d!^2: prod |C| times each shape's dim^2 prod chi_C / dim^k at L^k, summed."""
    k, sizes = len(classes), 1
    terms = [dim * dim * (table.common // dim) ** k if dim else 0 for dim in table.dims]
    for c, m in Counter(classes).items():
        terms = [x * y ** m for x, y in zip(terms, table.row(c))]
        sizes *= table.sizes[c] ** m
    return sizes * sum(terms)


def cov_burnside(d: int, classes: list[Partition], *,
                 cache: CharacterCache | None = None) -> Fraction:
    """Weighted count of degree-d coverings with the given branch classes.

    Sum over shapes of size d of (dim/d!)^2 times the product of the class
    eigenvalues |C| chi(C) / dim; counts disconnected coverings too, each
    weighted by the reciprocal of its automorphism group order.  Summed in
    integers over L^k d!^2, with L the lcm of the dims, for k classes.
    """
    classes = [_partition(c) for c in classes]
    for c in classes:
        if c.size != d:
            raise ValueError(f"class {c} does not have size {d}")
    store = _store(cache)
    with store.lock:
        table = store.table(d)
    return Fraction(_class_sum(table, classes), table.common ** len(classes) * factorial(d) ** 2)


def cov_with_transpositions(d: int, mu: Partition, nu: Partition, b: int, *,
                            cache: CharacterCache | None = None) -> Fraction:
    """Disconnected count with profiles mu, nu plus b transposition points.

    There are no transpositions below degree two, so those counts vanish.
    """
    if b < 0:
        raise ValueError("b must be nonnegative")
    classes = [_partition(mu), _partition(nu)]
    if b > 0:
        if d < 2:
            return Fraction(0)
        classes.extend([transposition_class(d)] * b)
    return cov_burnside(d, classes, cache=cache)


def schur_in_power_sums(lam: Partition, *,
                        cache: CharacterCache | None = None) -> TruncatedSeries:
    """Schur polynomial of shape ``lam`` expanded over the first family.

    Returns q^|lam| times sum over classes mu of size |lam| of
    chi(mu) p_mu / z_mu, at caps (|lam|, 0): the q power carries the weight,
    as in tau.  No beta or primed content.
    """
    cache = cache or DEFAULT_CACHE
    lam = Partition(lam)
    terms = []
    for mu in partitions_of(lam.size):
        chi = cache.character(lam, mu)
        if chi:
            terms.append((make_key(dq=lam.size, mu=mu.parts), Fraction(chi, z_mu(mu))))
    return TruncatedSeries.from_terms(lam.size, 0, terms=terms)


class _Cells:
    """Tau and its log for one character cache, grown cell by cell.

    Cell (d, b) holds the terms of q^d beta^b as d! b! times their
    coefficients: the number of tuples of permutations of d points, of cycle
    types mu and nu and then b transpositions, whose product is one; all of
    them for tau, the transitive ones for its log.  Splitting off the orbit
    of point 1, with k points and c of the transpositions,

        conn(d, b) = all(d, b) - sum over k < d, c <= b of
                     C(d-1, k-1) C(b, c) conn(k, c) * all(d-k, b-c),

    where * multiplies the p and p' monomials.  So a cell needs only the
    cells below it, and growing the box to the union of the requests so far
    computes each cell once, whatever their order.  They keep the character
    table of each degree, which ``cov_burnside`` and ``compare_all`` read too.
    """

    def __init__(self, cc: CharacterCache):
        self.cc = cc
        self.lock = threading.Lock()
        self.tau_box = self.log_box = (0, 0)
        self.tau: dict = {(0, 0): {ZERO_KEY: 1}}  # cell -> {key: count}
        self.conn: dict = {}  # cell -> grouped transitive counts
        self.h: dict = {}  # key -> d! b! times its coefficient in the log, every cell so far
        self._tables: dict = {}
        self._tau_groups: dict = {}
        self._merged: dict = {}

    def grow_tau(self, d_max: int, b_max: int) -> None:
        if d_max < 0 or b_max < 0:
            raise ValueError("truncation orders must be nonnegative")
        d0, b0 = self.tau_box
        if d_max <= d0 and b_max <= b0:
            return
        self.tau_box = max(d_max, d0), max(b_max, b0)
        for d in range(1, self.tau_box[0] + 1):
            table, dfact = self.table(d), factorial(d)
            # chi_{lam'}(mu) = sgn(mu) chi_lam(mu) and f2(lam') = -f2(lam): a
            # shape and its conjugate add twice the shape's term or cancel, and
            # a self-conjugate shape has f2 = 0.  One shape of each pair is
            # read, straight from the cache: its partner's characters are not.
            reps = [(k, 1 if lam.parts == conj.parts else 2) for k, lam in enumerate(table.shapes)
                    for conj in [lam.conjugate()] if lam.parts >= conj.parts]
            chi = [[self.cc.character(table.shapes[k], mu) for k, _ in reps]
                   for mu in table.shapes]
            sizes = list(table.sizes.values())
            # shapes by the parity of their length, in table order
            by_parity = [[i for i, mu in enumerate(table.shapes) if mu.length % 2 == p]
                         for p in (0, 1)]
            for b in range(b0 + 1 if d <= d0 else 0, self.tau_box[1] + 1):
                # integer sums of chi(mu) chi(nu) f2^b over shapes, for mu <= nu
                # with b = len(mu) + len(nu) mod 2; every other cell is zero
                cell = self.tau[(d, b)] = {}
                powers = [w * table.f2[k] ** b for k, w in reps]
                for j, cj in enumerate(chi):
                    wj = list(map(mul, cj, powers))
                    for i in by_parity[(b + table.shapes[j].length) % 2]:
                        if i > j:
                            break
                        x = sum(map(mul, chi[i], wj))
                        if x:
                            mu, nu = table.shapes[i].parts, table.shapes[j].parts
                            cell[(d, b, mu, nu, 0, 0)] = cell[(d, b, nu, mu, 0, 0)] = (
                                x * sizes[i] * sizes[j] // dfact)

    def grow_log(self, d_max: int, b_max: int) -> None:
        d0, b0 = self.log_box
        self.grow_tau(d_max, b_max)
        if d_max <= d0 and b_max <= b0:
            return
        self.log_box = max(d_max, d0), max(b_max, b0)
        for d in range(1, self.log_box[0] + 1):
            for b in range(b0 + 1 if d <= d0 else 0, self.log_box[1] + 1):
                self._conn_cell(d, b)

    def tau_series(self, d_max: int, b_max: int) -> TruncatedSeries:
        self.grow_tau(d_max, b_max)
        dfact, bfact = factorial(d_max), factorial(b_max)
        # cell (d, b) holds d! b! times its coefficients: scale all to d_max! b_max!
        nums = {key: x * scale for (d, b), cell in self.tau.items() if d <= d_max and b <= b_max
                for scale in [dfact // factorial(d) * (bfact // factorial(b))]
                for key, x in cell.items()}
        return TruncatedSeries(d_max, b_max)._same_caps(nums, dfact * bfact)

    def table(self, d: int) -> _Shapes:
        """The character table of degree d, built once for these cells."""
        if d not in self._tables:
            self._tables[d] = _Shapes(d, self.cc)
        return self._tables[d]

    def _conn_cell(self, d: int, b: int) -> None:
        acc: dict = {}
        caps = (d, b, 0, 0)
        for k in range(1, d):
            for c in range(b + 1):
                rest = self._tau_groups.get((d - k, b - c))
                if rest is None:
                    rest = self._tau_groups[(d - k, b - c)] = _grouped(self.tau[(d - k, b - c)])
                if self.conn[(k, c)] and rest:
                    scale = comb(d - 1, k - 1) * comb(b, c)
                    _mul_groups(acc, _scaled(self.conn[(k, c)], scale), rest, caps, self._merged)
        counts = dict(self.tau[(d, b)])
        for key, x in _flat(acc):
            counts[key] = counts.get(key, 0) - x
        counts = {key: x for key, x in counts.items() if x}
        self.conn[(d, b)] = _grouped(counts)
        self.h.update(counts)


# The cells of the default character cache, shared by every call; memory is
# set by the largest box requested so far.
_STORE = _Cells(DEFAULT_CACHE)


def _store(cache: CharacterCache | None) -> _Cells:
    """The shared cells, or fresh ones that nothing keeps for a custom cache."""
    return _STORE if cache is None or cache is DEFAULT_CACHE else _Cells(cache)


def build_tau(d_max: int, b_max: int, *,
              cache: CharacterCache | None = None) -> TruncatedSeries:
    """Generating series of disconnected counts, truncated at (d_max, b_max).

    The coefficient of q^d beta^b p_mu p'_nu is the disconnected count with
    profiles (mu, nu) and b transposition points, divided by b!.  With the
    default character cache it is read from the cells grown so far, and
    equals a fresh build, caps included.
    """
    store = _store(cache)
    with store.lock:
        return store.tau_series(d_max, b_max)


def corrupted(tau: TruncatedSeries, key: Key | None) -> TruncatedSeries:
    """tau with its coefficient at ``key`` raised by one, as a negative
    control; tau itself when ``key`` is None."""
    return tau if key is None else tau.with_coefficient(key, tau.coefficient(key) + 1)


def connected_series(tau: TruncatedSeries) -> TruncatedSeries:
    """Log of the disconnected series: the connected generating series.

    The coefficient of q^d beta^b p_mu p'_nu is the connected double Hurwitz
    number for (mu, nu) with b transposition points, divided by b!.
    """
    return tau.log()


def genus_of(b: int, mu: Partition, nu: Partition) -> int | None:
    """Genus from the ramification data, or None when no covering can exist."""
    twice = b + 2 - _partition(mu).length - _partition(nu).length
    if twice % 2 or twice < 0:
        return None
    return twice // 2


def _record(h: dict, d: int, b: int, mu: Partition, nu: Partition) -> HurwitzRecord:
    """b! times the coefficient of q^d beta^b p_mu p'_nu, from the log counts h;
    mu and nu are validated Partitions, so their parts are a key's as they are."""
    count = h.get((d, b, mu.parts, nu.parts, 0, 0), 0)
    return HurwitzRecord(b, mu, nu, Fraction(count, factorial(d)), True)


def double_hurwitz(d: int, b: int, mu: Partition, nu: Partition, *,
                   cache: CharacterCache | None = None) -> HurwitzRecord:
    """Connected count for profiles (mu, nu) with b transposition points.

    Reads b! times the matching coefficient of the connected series; with
    the default character cache its cells are kept and grown like tau's.
    """
    mu, nu = _partition(mu), _partition(nu)
    if mu.size != d or nu.size != d:
        raise ValueError(f"profiles must have size {d}: got |mu|={mu.size}, |nu|={nu.size}")
    if b < 0:
        raise ValueError("b must be nonnegative")
    store = _store(cache)
    with store.lock:
        store.grow_log(d, b)
        return _record(store.h, d, b, mu, nu)


def cov_record(d: int, b: int, mu: Partition, nu: Partition, *,
               cache: CharacterCache | None = None) -> HurwitzRecord:
    """Disconnected count packaged like :func:`double_hurwitz` output."""
    mu, nu = _partition(mu), _partition(nu)
    if mu.size != d or nu.size != d:
        raise ValueError(f"profiles must have size {d}")
    value = cov_with_transpositions(d, mu, nu, b, cache=cache)
    return HurwitzRecord(b, mu, nu, value, False)


def simple_hurwitz(g: int, d: int, *,
                   cache: CharacterCache | None = None) -> Fraction:
    """Count of connected genus-g degree-d coverings with only simple points.

    These have trivial profiles over the two marked fibers and 2g + 2d - 2
    transposition points elsewhere; read as :func:`double_hurwitz` reads.
    """
    if g < 0 or d < 1:
        raise ValueError("need g >= 0 and d >= 1")
    b = 2 * g + 2 * d - 2
    one_profile = Partition((1,) * d)
    return double_hurwitz(d, b, one_profile, one_profile, cache=cache).value


def hurwitz_table(d_max: int, b_max: int, *,
                  cache: CharacterCache | None = None) -> list[HurwitzRecord]:
    """All connected records for d <= d_max, b <= b_max, deterministic order."""
    store = _store(cache)
    profiles = [list(partitions_of(d)) for d in range(d_max + 1)]
    with store.lock:
        store.grow_log(d_max, b_max)
        return [_record(store.h, d, b, mu, nu) for d in range(1, d_max + 1)
                for b in range(b_max + 1) for mu in profiles[d] for nu in profiles[d]]
