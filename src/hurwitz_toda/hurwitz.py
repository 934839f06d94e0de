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

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .characters import CharacterCache, DEFAULT_CACHE, central_character
from .partitions import (
    Partition,
    f2_contents,
    partitions_of,
    transposition_class,
    z_mu,
)
from .series import TruncatedSeries, make_key


@dataclass(frozen=True)
class HurwitzRecord:
    """One covering count with its context.

    ``genus`` is filled from b + 2 - len(mu) - len(nu) over two when that is
    a nonnegative even integer and the count is connected; otherwise it is
    None (the formula presumes a covering exists) and the value is
    necessarily zero for connected counts.
    """

    d: int
    b: int
    mu: Partition
    nu: Partition
    value: Fraction
    genus: int | None
    connected: bool
    source: str = "character-sum"

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


def cov_burnside(d: int, classes: list[Partition], *,
                 cache: CharacterCache | None = None) -> Fraction:
    """Weighted count of degree-d coverings with the given branch classes.

    Sum over shapes of size d of (dim/d!)^2 times the product of the class
    eigenvalues; counts disconnected coverings too, each weighted by the
    reciprocal of its automorphism group order.
    """
    cache = cache or DEFAULT_CACHE
    classes = [Partition(c) for c in classes]
    for c in classes:
        if c.size != d:
            raise ValueError(f"class {c} does not have size {d}")
    dfact = factorial(d)
    total = Fraction(0)
    for lam in partitions_of(d):
        term = Fraction(cache.dimension(lam), dfact) ** 2
        for c in classes:
            term *= central_character(c, lam, cache=cache)
            if term == 0:
                break
        total += term
    return total


def cov_with_transpositions(d: int, mu: Partition, nu: Partition, b: int, *,
                            cache: CharacterCache | None = None) -> Fraction:
    """Disconnected count with profiles mu, nu plus b transposition points.

    There are no transpositions below degree two, so those counts vanish.
    """
    if b < 0:
        raise ValueError("b must be nonnegative")
    classes = [Partition(mu), Partition(nu)]
    if b > 0:
        if d < 2:
            return Fraction(0)
        classes.extend([transposition_class(d)] * b)
    return cov_burnside(d, classes, cache=cache)


def schur_in_power_sums(lam: Partition, *,
                        cache: CharacterCache | None = None) -> TruncatedSeries:
    """Schur polynomial of shape ``lam`` expanded over the first family.

    Returns sum over classes mu of size |lam| of chi(mu) p_mu / z_mu, as a
    series with no q, beta or primed content.
    """
    cache = cache or DEFAULT_CACHE
    lam = Partition(lam)
    terms = []
    for mu in partitions_of(lam.size):
        chi = cache.character(lam, mu)
        if chi:
            terms.append((make_key(mu=mu.parts), Fraction(chi, z_mu(mu))))
    return TruncatedSeries.from_terms(0, 0, lam.size, terms=terms)


_TAU_CACHE: dict[tuple[int, int], TruncatedSeries] = {}


def build_tau(d_max: int, b_max: int, *,
              cache: CharacterCache | None = None) -> TruncatedSeries:
    """Generating series of disconnected counts, truncated at (d_max, b_max).

    The coefficient of q^d beta^b p_mu p'_nu is the disconnected count with
    profiles (mu, nu) and b transposition points, divided by b!: the integer
    sum over shapes of chi(mu) chi(nu) f2^b, over z_mu z_nu b!.  The sum is
    symmetric in mu and nu, so it is accumulated for one ordering only.
    """
    use_default = cache is None or cache is DEFAULT_CACHE
    if use_default and (d_max, b_max) in _TAU_CACHE:
        return _TAU_CACHE[(d_max, b_max)]
    cc = cache or DEFAULT_CACHE
    bfact = [factorial(b) for b in range(b_max + 1)]
    coeffs: dict = {}
    for d in range(d_max + 1):
        classes = list(partitions_of(d))
        # (i, j) with i <= j -> integer sums over shapes of
        # chi(mu_i) chi(mu_j) f2^b, for b = 0..b_max
        sums: dict[tuple[int, int], list[int]] = {}
        for lam in classes:
            chi = [cc.character(lam, mu) for mu in classes]
            f2 = f2_contents(lam)
            powers = [f2 ** b for b in range(b_max + 1)]
            for i, ci in enumerate(chi):
                if not ci:
                    continue
                for j in range(i, len(classes)):
                    w = ci * chi[j]
                    if not w:
                        continue
                    vec = sums.get((i, j))
                    if vec is None:
                        vec = sums[(i, j)] = [0] * (b_max + 1)
                    for b, p in enumerate(powers):
                        vec[b] += w * p
        zs = [z_mu(mu) for mu in classes]
        for (i, j), vec in sums.items():
            mu, nu = classes[i].parts, classes[j].parts
            for b, x in enumerate(vec):
                if x:
                    val = Fraction(x, zs[i] * zs[j] * bfact[b])
                    coeffs[(d, b, mu, nu, 0, 0)] = val
                    coeffs[(d, b, nu, mu, 0, 0)] = val
    tau = TruncatedSeries(d_max, b_max, coeffs=coeffs)
    if use_default:
        _TAU_CACHE[(d_max, b_max)] = tau
    return tau


_H_CACHE: dict[tuple[int, int], TruncatedSeries] = {}


def connected_series(tau: TruncatedSeries) -> TruncatedSeries:
    """Log of the disconnected series: the connected generating series.

    The coefficient of q^d beta^b p_mu p'_nu is the connected double Hurwitz
    number for (mu, nu) with b transposition points, divided by b!.
    """
    return tau.log()


def _connected_cached(d_max: int, b_max: int, *,
                      cache: CharacterCache | None = None) -> TruncatedSeries:
    use_default = cache is None or cache is DEFAULT_CACHE
    if use_default and (d_max, b_max) in _H_CACHE:
        return _H_CACHE[(d_max, b_max)]
    h = connected_series(build_tau(d_max, b_max, cache=cache))
    if use_default:
        _H_CACHE[(d_max, b_max)] = h
    return h


def genus_of(b: int, mu: Partition, nu: Partition) -> int | None:
    """Genus from the ramification data, or None when no covering can exist."""
    twice = b + 2 - Partition(mu).length - Partition(nu).length
    if twice % 2 or twice < 0:
        return None
    return twice // 2


def double_hurwitz(d: int, b: int, mu: Partition, nu: Partition, *,
                   series: TruncatedSeries | None = None,
                   cache: CharacterCache | None = None) -> HurwitzRecord:
    """Connected count for profiles (mu, nu) with b transposition points.

    Extracts b! times the matching coefficient of the connected series.  A
    prebuilt connected series covering (d, b) may be passed to avoid
    rebuilding; otherwise one is built and cached per truncation order.
    """
    mu, nu = Partition(mu), Partition(nu)
    if mu.size != d or nu.size != d:
        raise ValueError(f"profiles must have size {d}: got |mu|={mu.size}, |nu|={nu.size}")
    if b < 0:
        raise ValueError("b must be nonnegative")
    h = series if series is not None else _connected_cached(d, b, cache=cache)
    coeff = h.coefficient(make_key(dq=d, b=b, mu=mu.parts, nu=nu.parts))
    value = coeff * factorial(b)
    return HurwitzRecord(d=d, b=b, mu=mu, nu=nu, value=value,
                         genus=genus_of(b, mu, nu), connected=True)


def cov_record(d: int, b: int, mu: Partition, nu: Partition, *,
               cache: CharacterCache | None = None) -> HurwitzRecord:
    """Disconnected count packaged like :func:`double_hurwitz` output."""
    mu, nu = Partition(mu), Partition(nu)
    if mu.size != d or nu.size != d:
        raise ValueError(f"profiles must have size {d}")
    value = cov_with_transpositions(d, mu, nu, b, cache=cache)
    return HurwitzRecord(d=d, b=b, mu=mu, nu=nu, value=value,
                         genus=None, connected=False)


def simple_hurwitz(g: int, d: int, *,
                   series: TruncatedSeries | None = None,
                   cache: CharacterCache | None = None) -> Fraction:
    """Count of connected genus-g degree-d coverings with only simple points.

    These have trivial profiles over the two marked fibers and 2g + 2d - 2
    transposition points elsewhere.
    """
    if g < 0 or d < 1:
        raise ValueError("need g >= 0 and d >= 1")
    b = 2 * g + 2 * d - 2
    one_profile = Partition((1,) * d)
    return double_hurwitz(d, b, one_profile, one_profile,
                          series=series, cache=cache).value


def hurwitz_table(d_max: int, b_max: int, *,
                  cache: CharacterCache | None = None) -> list[HurwitzRecord]:
    """All connected records for d <= d_max, b <= b_max, deterministic order."""
    h = _connected_cached(d_max, b_max, cache=cache)
    out = []
    for d in range(1, d_max + 1):
        profiles = list(partitions_of(d))
        for b in range(b_max + 1):
            for mu in profiles:
                for nu in profiles:
                    out.append(double_hurwitz(d, b, mu, nu, series=h, cache=cache))
    return out
