"""Sparse truncated formal power series over exact rationals.

The ring has a grading variable q, a deformation variable beta, and two
families of weighted variables p_1, p_2, ... and p'_1, p'_2, ... with
weight(p_k) = weight(p'_k) = k.  Two bookkeeping symbols may additionally be
switched on: a Laurent symbol z (bounded exponent window) and a perturbation
symbol s capped at first order.  Both are needed only by the bilinear
identity checks.

A monomial key is the tuple ``(dq, b, mu, nu, z, s)`` where ``mu`` and ``nu``
are weakly decreasing tuples recording the exponent patterns of the two
variable families (p_mu = prod_i p_{mu_i}).  Series are truncated in q,
beta and the bookkeeping symbols only.  The p-weights need no cap of their
own: a degree-d covering adds q^d p_mu p'_nu with |mu| = |nu| = d, so every
key has weight(mu) <= dq and weight(nu) <= dq, and derivatives, shifts and
q-scaling keep the weight or lower it.  Coefficients are stored as
``fractions.Fraction``; the product, exp/log and q-scaling kernels work on
integer numerators over a common denominator.  Nothing here ever touches
floating point.

Series are immutable: every operation returns a new value, so instances can
be shared freely across threads.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Iterable, Iterator

Key = tuple[int, int, tuple, tuple, int, int]

ZERO_KEY: Key = (0, 0, (), (), 0, 0)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def make_key(dq: int = 0, b: int = 0, mu=(), nu=(), z: int = 0, s: int = 0) -> Key:
    """Canonical monomial key; ``mu`` and ``nu`` are sorted decreasingly."""
    mu = tuple(sorted((int(p) for p in tuple(mu)), reverse=True))
    nu = tuple(sorted((int(p) for p in tuple(nu)), reverse=True))
    if any(p <= 0 for p in mu) or any(p <= 0 for p in nu):
        raise ValueError("exponent patterns must have positive parts")
    if dq < 0 or b < 0 or s < 0:
        raise ValueError("q, beta and s exponents must be nonnegative")
    return (int(dq), int(b), mu, nu, int(z), int(s))


def key_to_json_obj(key: Key) -> dict:
    dq, b, mu, nu, z, s = key
    return {
        "dq": dq,
        "b": b,
        "mu": list(mu),
        "nu": list(nu),
        "aux": {"z": z, "s": s},
    }


@dataclass(frozen=True)
class ShiftTerm:
    """One summand of a variable shift p_k -> p_k + sum(terms).

    Each term is coeff * z^z_power * s^s_degree with s_degree at most one;
    higher orders in the perturbation symbol are out of scope.
    """

    coeff: Fraction
    z_power: int = 0
    s_degree: int = 0


class TruncatedSeries:
    """Sparse exact-rational series truncated at fixed orders.

    Truncation caps are fixed at construction: ``d_max`` for q, ``b_max``
    for beta, plus windows for the optional bookkeeping symbols.  Binary
    operations require identical caps.  A key with weight(mu) > dq or
    weight(nu) > dq is refused, so the q cap also bounds the weights.
    """

    __slots__ = ("d_max", "b_max", "z_min", "z_max", "s_max", "_coeffs")

    def __init__(self, d_max: int, b_max: int, *,
                 z_min: int = 0, z_max: int = 0, s_max: int = 0,
                 coeffs: dict[Key, Fraction] | None = None):
        if d_max < 0 or b_max < 0:
            raise ValueError("truncation orders must be nonnegative")
        if z_min > 0 or z_max < 0 or s_max < 0:
            raise ValueError("aux windows must contain zero")
        self.d_max = d_max
        self.b_max = b_max
        self.z_min = z_min
        self.z_max = z_max
        self.s_max = s_max
        self._coeffs: dict[Key, Fraction] = {}
        if coeffs:
            for key, val in coeffs.items():
                val = Fraction(val)
                if val == 0:
                    continue
                if not self._fits(key):
                    raise ValueError(f"key {key} violates truncation orders")
                self._coeffs[key] = val

    # -- construction helpers ------------------------------------------------

    @classmethod
    def one(cls, d_max: int, b_max: int, **aux) -> "TruncatedSeries":
        return cls(d_max, b_max, **aux, coeffs={ZERO_KEY: _ONE})

    @classmethod
    def from_terms(cls, d_max: int, b_max: int, *,
                   terms: Iterable[tuple[Key, Fraction]] = (), **aux) -> "TruncatedSeries":
        acc: dict[Key, Fraction] = {}
        for key, val in terms:
            acc[key] = acc.get(key, _ZERO) + Fraction(val)
        return cls(d_max, b_max, **aux, coeffs=acc)

    def _caps(self) -> tuple:
        return (self.d_max, self.b_max, self.z_min, self.z_max, self.s_max)

    def _same_caps(self, coeffs: dict[Key, Fraction]) -> "TruncatedSeries":
        out = TruncatedSeries(self.d_max, self.b_max,
                              z_min=self.z_min, z_max=self.z_max, s_max=self.s_max)
        out._coeffs = {k: v for k, v in coeffs.items() if v != 0}
        return out

    def _fits(self, key: Key) -> bool:
        dq, b, mu, nu, z, s = key
        return (0 <= dq <= self.d_max and 0 <= b <= self.b_max
                and sum(mu) <= dq and sum(nu) <= dq
                and self.z_min <= z <= self.z_max and 0 <= s <= self.s_max)

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self._caps() != other._caps():
            raise ValueError("incompatible truncation orders")

    def with_caps(self, d_max: int | None = None, b_max: int | None = None,
                  z_min: int | None = None, z_max: int | None = None,
                  s_max: int | None = None) -> "TruncatedSeries":
        """Same terms under new caps; terms outside the new caps are dropped."""
        out = TruncatedSeries(
            self.d_max if d_max is None else d_max,
            self.b_max if b_max is None else b_max,
            z_min=self.z_min if z_min is None else z_min,
            z_max=self.z_max if z_max is None else z_max,
            s_max=self.s_max if s_max is None else s_max,
        )
        out._coeffs = {k: v for k, v in self._coeffs.items() if out._fits(k)}
        return out

    # -- inspection ----------------------------------------------------------

    def coefficient(self, key: Key) -> Fraction:
        return self._coeffs.get(key, _ZERO)

    def constant_term(self) -> Fraction:
        return self._coeffs.get(ZERO_KEY, _ZERO)

    def terms(self) -> list[tuple[Key, Fraction]]:
        """All nonzero terms in deterministic key order."""
        return sorted(self._coeffs.items())

    def keys(self) -> Iterator[Key]:
        return iter(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def first_key(self) -> Key | None:
        """Smallest nonzero monomial key, or None for the zero series."""
        return min(self._coeffs) if self._coeffs else None

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._caps() == other._caps() and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        n = len(self._coeffs)
        head = ", ".join(f"{k}: {v}" for k, v in self.terms()[:4])
        more = ", ..." if n > 4 else ""
        return f"TruncatedSeries(orders={self._caps()}, {n} terms: {head}{more})"

    def to_json_obj(self) -> list[dict]:
        out = []
        for key, val in self.terms():
            rec = key_to_json_obj(key)
            rec["numerator"] = val.numerator
            rec["denominator"] = val.denominator
            out.append(rec)
        return out

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            acc = dict(self._coeffs)
            acc[ZERO_KEY] = acc.get(ZERO_KEY, _ZERO) + Fraction(other)
            return self._same_caps(acc)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self._coeffs)
        for key, val in other._coeffs.items():
            acc[key] = acc.get(key, _ZERO) + val
        return self._same_caps(acc)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return self._same_caps({k: -v for k, v in self._coeffs.items()})

    def __sub__(self, other) -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries) else -Fraction(other))

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self._same_caps({})
            return self._same_caps({k: v * c for k, v in self._coeffs.items()})
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        return self._same_caps(_product(self._coeffs, other._coeffs, self))

    __rmul__ = __mul__

    # -- analytic operations (finite under truncation) -------------------------

    def exp(self) -> "TruncatedSeries":
        """Exponential of a series with zero constant term.

        Computed order by order along the additive grade dq + b + s, which
        avoids forming full powers of the argument:
        E_g = (1/g) sum_h h S_h E_{g-h} for the graded parts S_h.
        """
        if self.constant_term() != 0:
            raise ValueError("exp requires zero constant term")
        nums, den = self._graded_parts("exp")
        parts = {g: _grouped(p) for g, p in nums.items()}
        merged: dict = {}
        # grade -> (grouped numerators, their common denominator)
        powers: dict[int, tuple[Groups, int]] = {0: (_grouped({ZERO_KEY: 1}), 1)}
        total: dict[Key, Fraction] = {ZERO_KEY: _ONE}
        for g in range(1, self._max_grade() + 1):
            hs = [h for h in parts if h <= g and g - h in powers]
            m = lcm(*(powers[g - h][1] for h in hs))
            acc: dict = {}
            for h in hs:
                prev, prev_den = powers[g - h]
                _mul_groups(acc, _scaled(parts[h], h * (m // prev_den)), prev, self, merged)
            part = {k: Fraction(x, g * m * den) for k, x in _flat(acc)}
            if part:
                total.update(part)
                part_nums, part_den = _numerators(part)
                powers[g] = (_grouped(part_nums), part_den)
        return self._same_caps(total)

    def log(self) -> "TruncatedSeries":
        """Logarithm of a series with constant term one.

        Inverse of :meth:`exp` up to truncation; same graded recursion,
        L_g = S_g - (1/g) sum_{h<g} h L_h S_{g-h}.
        """
        if self.constant_term() != 1:
            raise ValueError("log requires constant term 1")
        nums, den = self._graded_parts("log")
        parts = {g: _grouped(p) for g, p in nums.items()}
        merged: dict = {}
        logs: dict[int, tuple[Groups, int]] = {}
        total: dict[Key, Fraction] = {}
        for g in range(1, self._max_grade() + 1):
            hs = [h for h in logs if g - h in parts]
            m = lcm(*(logs[h][1] for h in hs))
            acc: dict = {}
            for h in hs:
                lh, lh_den = logs[h]
                _mul_groups(acc, _scaled(lh, h * (m // lh_den)), parts[g - h], self, merged)
            scale = g * m
            numer = {k: x * scale for k, x in nums.get(g, {}).items()}
            for k, x in _flat(acc):
                numer[k] = numer.get(k, 0) - x
            part = {k: Fraction(x, scale * den) for k, x in numer.items() if x}
            if part:
                total.update(part)
                part_nums, part_den = _numerators(part)
                logs[g] = (_grouped(part_nums), part_den)
        return self._same_caps(total)

    def _graded_parts(self, opname: str) -> tuple[dict[int, dict[Key, int]], int]:
        """Numerators of the nonconstant terms over one common denominator, by grade."""
        nums, den = _numerators(self._coeffs)
        parts: dict[int, dict[Key, int]] = defaultdict(dict)
        for key, x in nums.items():
            g = _grade(key)
            if g == 0 and key != ZERO_KEY:
                raise ValueError(f"{opname} does not support bare z monomials")
            if key != ZERO_KEY:
                parts[g][key] = x
        return parts, den

    def _max_grade(self) -> int:
        return self.d_max + self.b_max + self.s_max

    # -- derivations and substitutions ----------------------------------------

    def d_dp(self, k: int, prime: bool = False) -> "TruncatedSeries":
        """Formal partial derivative in p_k (or p'_k when ``prime``)."""
        if k < 1:
            raise ValueError("variable index must be at least 1")
        acc: dict[Key, Fraction] = {}
        idx = 3 if prime else 2
        for key, val in self._coeffs.items():
            pattern = key[idx]
            m = pattern.count(k)
            if m == 0:
                continue
            reduced = list(pattern)
            reduced.remove(k)
            newkey = key[:idx] + (tuple(reduced),) + key[idx + 1:]
            acc[newkey] = acc.get(newkey, _ZERO) + val * m
        return self._same_caps(acc)

    def scale_q_exp(self, n: int) -> "TruncatedSeries":
        """Substitute q -> e^{n beta} q.

        A term of q-degree d and beta-degree b spawns beta-degrees b + j with
        coefficient multiplied by (n d)^j / j!.  Only lower beta orders feed
        each output order, so exactness is preserved across the whole window.
        Expanded in integers over the common denominator times b_max!.
        """
        nums, den = _numerators(self._coeffs)
        b_max = self.b_max
        weights = [factorial(b_max) // factorial(j) for j in range(b_max + 1)]
        acc: dict = {}
        for (dq, b, mu, nu, z, s), x in nums.items():
            gkey = (dq, mu, nu, z, s)
            vec = acc.get(gkey)
            if vec is None:
                vec = acc[gkey] = [0] * (b_max + 1)
            base = n * dq
            for j in range(b_max - b + 1 if base else 1):
                vec[b + j] += x * weights[j]
                x *= base
        den *= weights[0]
        return self._same_caps({k: Fraction(x, den) for k, x in _flat(acc)})

    def mul_exp_beta(self, c: Fraction) -> "TruncatedSeries":
        """Multiply by e^{c beta}, expanded through the beta cap."""
        c = Fraction(c)
        if c == 0:
            return self
        acc: dict[Key, Fraction] = {}
        for key, val in self._coeffs.items():
            b = key[1]
            power = _ONE
            for j in range(self.b_max - b + 1):
                if j:
                    power *= c
                term = val * power / factorial(j)
                newkey = (key[0], b + j) + key[2:]
                acc[newkey] = acc.get(newkey, _ZERO) + term
        return self._same_caps(acc)

    def mul_q_power(self, j: int) -> "TruncatedSeries":
        """Multiply by q^j for j >= 0; terms pushed past the cap are dropped."""
        if j < 0:
            raise ValueError("negative q powers are not in the ring")
        if j == 0:
            return self
        acc = {}
        for key, val in self._coeffs.items():
            if key[0] + j <= self.d_max:
                acc[(key[0] + j,) + key[1:]] = val
        return self._same_caps(acc)

    def mul_aux_monomial(self, coeff: Fraction, dz: int = 0, ds: int = 0) -> "TruncatedSeries":
        """Multiply by coeff * z^dz * s^ds, pruning at the aux windows."""
        coeff = Fraction(coeff)
        acc: dict[Key, Fraction] = {}
        for key, val in self._coeffs.items():
            z, s = key[4] + dz, key[5] + ds
            if self.z_min <= z <= self.z_max and 0 <= s <= self.s_max:
                acc[key[:4] + (z, s)] = val * coeff
        return self._same_caps(acc)

    def shift_p(self, shifts: Iterable[tuple[int, bool, Iterable[ShiftTerm]]]) -> "TruncatedSeries":
        """Substitute p_k -> p_k + delta_k for the listed variables.

        Each entry of ``shifts`` is (k, prime, terms) with ``terms`` the
        summands of delta_k.  Terms must be at most first order in the
        perturbation symbol.  The multinomial expansion is exact; monomials
        leaving the aux windows are dropped (the windows are sized by the
        caller so that dropped terms can never feed a retained coefficient).
        """
        smap: dict[tuple[bool, int], tuple[ShiftTerm, ...]] = {}
        for k, prime, terms in shifts:
            terms = tuple(terms)
            for t in terms:
                if t.s_degree not in (0, 1):
                    raise ValueError("unsupported shift order")
            if (bool(prime), int(k)) in smap:
                raise ValueError(f"duplicate shift for variable ({k}, prime={prime})")
            smap[(bool(prime), int(k))] = terms
        if not smap:
            return self

        acc: dict[Key, Fraction] = {}
        for key, val in self._coeffs.items():
            dq, b, mu, nu, z0, s0 = key
            # options: (coeff multiplier, kept mu parts, kept nu parts, dz, ds)
            options = [(val, [], [], 0, 0)]
            for prime, pattern in ((False, mu), (True, nu)):
                counts: dict[int, int] = {}
                for p in pattern:
                    counts[p] = counts.get(p, 0) + 1
                for k, e in counts.items():
                    terms = smap.get((prime, k))
                    if terms is None:
                        for opt in options:
                            (opt[2] if prime else opt[1]).extend([k] * e)
                        continue
                    newopts = []
                    for c, km, kn, dz, ds in options:
                        for a0, factor, tdz, tds in _power_expansions(e, terms):
                            nm = km if prime else km + [k] * a0
                            nn = kn + [k] * a0 if prime else kn
                            newopts.append((c * factor, list(nm), list(nn), dz + tdz, ds + tds))
                    options = newopts
            for c, km, kn, dz, ds in options:
                if c == 0:
                    continue
                z, s = z0 + dz, s0 + ds
                if not (self.z_min <= z <= self.z_max and s <= self.s_max):
                    continue
                newkey = (dq, b, tuple(sorted(km, reverse=True)),
                          tuple(sorted(kn, reverse=True)), z, s)
                acc[newkey] = acc.get(newkey, _ZERO) + c
        return self._same_caps(acc)

    # -- extraction and restriction -------------------------------------------

    def extract_z(self, t: int) -> "TruncatedSeries":
        """Coefficient of z^t, as a series with the z window collapsed."""
        out = TruncatedSeries(self.d_max, self.b_max, s_max=self.s_max)
        out._coeffs = {
            key[:4] + (0, key[5]): val
            for key, val in self._coeffs.items() if key[4] == t
        }
        return out

    def extract_s(self, deg: int) -> "TruncatedSeries":
        """Coefficient of s^deg, as a series without the perturbation symbol."""
        out = TruncatedSeries(self.d_max, self.b_max, z_min=self.z_min, z_max=self.z_max)
        out._coeffs = {
            key[:4] + (key[4], 0): val
            for key, val in self._coeffs.items() if key[5] == deg
        }
        return out

    def truncate_parts(self, max_part: int) -> "TruncatedSeries":
        """Set every p_k and p'_k with k > max_part to zero."""
        acc = {
            key: val for key, val in self._coeffs.items()
            if all(p <= max_part for p in key[2]) and all(p <= max_part for p in key[3])
        }
        return self._same_caps(acc)

    def filtered(self, keep: Callable[[Key], bool]) -> "TruncatedSeries":
        return self._same_caps({k: v for k, v in self._coeffs.items() if keep(k)})

    def with_coefficient(self, key: Key, value: Fraction) -> "TruncatedSeries":
        """Copy with one coefficient replaced (used by negative controls)."""
        if not self._fits(key):
            raise ValueError(f"key {key} violates truncation orders")
        acc = dict(self._coeffs)
        value = Fraction(value)
        if value == 0:
            acc.pop(key, None)
        else:
            acc[key] = value
        return self._same_caps(acc)


def _grade(key: Key) -> int:
    return key[0] + key[1] + key[5]


# -- integer kernels -----------------------------------------------------------
#
# The hot loops run on Python ints: an operand's coefficients are scaled to
# one common denominator, and one Fraction is built per output term.  A
# grouped operand maps q-degree to a list of (mu, rows), each row being
# (nu, z, s, beta-vector) with the beta-vector a list of (b, numerator) pairs
# in increasing b.

Groups = dict[int, list[tuple[tuple, list]]]


def _numerators(coeffs: dict[Key, Fraction]) -> tuple[dict[Key, int], int]:
    """Integer numerators over the least common denominator, and that denominator."""
    den = lcm(*(v.denominator for v in coeffs.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in coeffs.items()}, den


def _grouped(nums: dict[Key, int]) -> Groups:
    tree: dict = {}
    for (dq, b, mu, nu, z, s), x in nums.items():
        tree.setdefault(dq, {}).setdefault(mu, {}).setdefault((nu, z, s), []).append((b, x))
    return {
        dq: [(mu, [(nu, z, s, sorted(bv)) for (nu, z, s), bv in rows.items()])
             for mu, rows in by_mu.items()]
        for dq, by_mu in tree.items()
    }


def _scaled(groups: Groups, factor: int) -> Groups:
    if factor == 1:
        return groups
    return {
        dq: [(mu, [(nu, z, s, [(b, x * factor) for b, x in bv]) for nu, z, s, bv in rows])
             for mu, rows in by_mu]
        for dq, by_mu in groups.items()
    }


def _mul_groups(acc: dict, a: Groups, b: Groups, caps: TruncatedSeries,
                merged: dict) -> None:
    """Accumulate the truncated product of two grouped operands into acc.

    ``acc`` maps (dq, mu, nu, z, s) to a dense integer beta-vector.  Pattern
    merges are memoized in ``merged`` per pattern pair, so each is sorted once
    however many beta terms the two groups carry.  Weights need no check:
    they are at most the q-degree, which is capped.
    """
    d_max, b_max = caps.d_max, caps.b_max
    z_lo, z_hi, s_hi = caps.z_min, caps.z_max, caps.s_max
    width = b_max + 1
    for da, by_mu_a in a.items():
        for db, by_mu_b in b.items():
            dq = da + db
            if dq > d_max:
                continue
            for mu1, rows1 in by_mu_a:
                for mu2, rows2 in by_mu_b:
                    mu = merged.get((mu1, mu2))
                    if mu is None:
                        mu = merged[(mu1, mu2)] = tuple(sorted(mu1 + mu2, reverse=True))
                    for nu1, z1, s1, bv1 in rows1:
                        for nu2, z2, s2, bv2 in rows2:
                            z = z1 + z2
                            if z < z_lo or z > z_hi:
                                continue
                            s = s1 + s2
                            if s > s_hi:
                                continue
                            nu = merged.get((nu1, nu2))
                            if nu is None:
                                nu = merged[(nu1, nu2)] = tuple(sorted(nu1 + nu2, reverse=True))
                            gkey = (dq, mu, nu, z, s)
                            vec = acc.get(gkey)
                            if vec is None:
                                vec = acc[gkey] = [0] * width
                            for b1, x in bv1:
                                lim = b_max - b1
                                for b2, y in bv2:
                                    if b2 > lim:
                                        break
                                    vec[b1 + b2] += x * y


def _flat(acc: dict) -> Iterator[tuple[Key, int]]:
    """Nonzero entries of a grouped accumulator, as (key, numerator)."""
    for (dq, mu, nu, z, s), vec in acc.items():
        for b, x in enumerate(vec):
            if x:
                yield (dq, b, mu, nu, z, s), x


def _product(a: dict[Key, Fraction], b: dict[Key, Fraction],
             caps: TruncatedSeries) -> dict[Key, Fraction]:
    if not a or not b:
        return {}
    na, den_a = _numerators(a)
    nb, den_b = _numerators(b)
    acc: dict = {}
    _mul_groups(acc, _grouped(na), _grouped(nb), caps, {})
    den = den_a * den_b
    return {k: Fraction(x, den) for k, x in _flat(acc)}


def _power_expansions(e: int, terms: tuple[ShiftTerm, ...]):
    """Expand (p + t_1 + ... + t_r)^e into (kept power, factor, dz, ds) data.

    Yields one entry per choice of exponents (a_1, ..., a_r) with sum <= e:
    the retained variable power a_0 = e - sum(a_i), the multinomial factor
    times prod coeff_i^{a_i}, and the accumulated z and s exponents.
    """
    def rec(idx: int, rem: int, factor: Fraction, dz: int, ds: int):
        if idx == len(terms):
            yield (rem, factor, dz, ds)
            return
        t = terms[idx]
        cpow = _ONE
        for a in range(rem + 1):
            if a:
                cpow *= Fraction(t.coeff)
            yield from rec(idx + 1, rem - a, factor * comb(rem, a) * cpow,
                           dz + a * t.z_power, ds + a * t.s_degree)

    yield from rec(0, e, _ONE, 0, 0)
