"""Sparse truncated formal power series over exact rationals.

The ring has a grading variable q, a deformation variable beta, and two
families of weighted variables p_1, p_2, ... and p'_1, p'_2, ... with
weight(p_k) = weight(p'_k) = k.  Two bookkeeping symbols may additionally be
switched on: a symbol z with exponents 0 ... z_max and a perturbation
symbol s capped at first order.  Both are needed only by the bilinear
identity checks.  Every cap cuts a truncation ideal: apart from the
extractions, no operation lowers a q, beta, z or s exponent, so a dropped
term never feeds a kept one.

A monomial key is the tuple ``(dq, b, mu, nu, z, s)`` where ``mu`` and ``nu``
are weakly decreasing tuples recording the exponent patterns of the two
variable families (p_mu = prod_i p_{mu_i}).  Series are truncated in q,
beta and the bookkeeping symbols only.  The p-weights need no cap of their
own: a degree-d covering adds q^d p_mu p'_nu with |mu| = |nu| = d, so every
key has weight(mu) <= dq and weight(nu) <= dq, and derivatives, shifts and
q-scaling keep the weight or lower it.  A series stores integer numerators
over one denominator, in lowest terms, and every operation works on those
integers; ``fractions.Fraction`` appears only at the API, where coefficients
are read out and where rational scalars come in.  Floats are refused, so
nothing here ever touches floating point.

Series are immutable: every operation returns a new value, so instances can
be shared freely across threads.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Callable, Iterable, Iterator

from .partitions import partitions_of

Key = tuple[int, int, tuple, tuple, int, int]

ZERO_KEY: Key = (0, 0, (), (), 0, 0)


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


def _exact(value) -> Fraction:
    """An int or Fraction as a Fraction; anything else, floats included, is refused."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, not {type(value).__name__}")
    return Fraction(value)


class ShiftTerm(namedtuple("ShiftTerm", "coeff z_power s_degree")):
    """One summand of a variable shift p_k -> p_k + sum(terms).

    Each term is coeff * z^z_power * s^s_degree with an integer coeff (a
    non-integer is refused), z_power >= 0 and s_degree at most one; higher
    orders in the perturbation symbol are out of scope.  A shift raises the
    z and s exponents only, which is what lets ``shift_p`` stop expanding
    at the top of the windows.
    """

    __slots__ = ()

    def __new__(cls, coeff, z_power: int = 0, s_degree: int = 0):
        coeff = _exact(coeff)
        if coeff.denominator != 1:
            raise ValueError(f"shift coefficient {coeff} is not an integer")
        if s_degree not in (0, 1):
            raise ValueError("unsupported shift order")
        if z_power < 0:
            raise ValueError(f"shift z power {z_power} is negative")
        return super().__new__(cls, coeff.numerator, z_power, s_degree)


class TruncatedSeries:
    """Sparse exact-rational series truncated at fixed orders.

    Truncation caps are fixed at construction: ``d_max`` for q, ``b_max``
    for beta, plus windows for the optional bookkeeping symbols.  Binary
    operations require identical caps.  A key with weight(mu) > dq or
    weight(nu) > dq is refused, so the q cap also bounds the weights.
    Coefficients are nonzero integer numerators over one positive
    denominator, with no common factor, so equal series have equal storage.
    """

    __slots__ = ("d_max", "b_max", "z_max", "s_max", "_nums", "_den")

    def __init__(self, d_max: int, b_max: int, *, z_max: int = 0, s_max: int = 0,
                 coeffs: dict[Key, Fraction] | None = None):
        if min(d_max, b_max, z_max, s_max) < 0:
            raise ValueError("truncation orders must be nonnegative")
        self.d_max = d_max
        self.b_max = b_max
        self.z_max = z_max
        self.s_max = s_max
        values = {key: _exact(val) for key, val in (coeffs or {}).items()}
        for key, val in values.items():
            if val and not self._fits(key):
                raise ValueError(f"key {key} violates truncation orders")
        # over the lcm of the reduced denominators the numerators share no factor
        self._den = lcm(*(v.denominator for v in values.values()))
        self._nums = {k: v.numerator * (self._den // v.denominator) for k, v in values.items() if v}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def one(cls, d_max: int, b_max: int, **aux) -> "TruncatedSeries":
        return cls(d_max, b_max, **aux, coeffs={ZERO_KEY: 1})

    @classmethod
    def from_terms(cls, d_max: int, b_max: int, *,
                   terms: Iterable[tuple[Key, Fraction]] = (), **aux) -> "TruncatedSeries":
        acc: dict[Key, Fraction] = {}
        for key, val in terms:
            acc[key] = acc.get(key, 0) + _exact(val)
        return cls(d_max, b_max, **aux, coeffs=acc)

    def _caps(self) -> tuple:
        return (self.d_max, self.b_max, self.z_max, self.s_max)

    def _same_caps(self, nums: dict[Key, int], den: int) -> "TruncatedSeries":
        """A series with these caps holding nums / den, reduced to lowest terms."""
        out = TruncatedSeries(self.d_max, self.b_max, z_max=self.z_max, s_max=self.s_max)
        out._nums, out._den = _reduced(nums, den)
        return out

    def _fits(self, key: Key) -> bool:
        dq, b, mu, nu, z, s = key
        return (0 <= dq <= self.d_max and 0 <= b <= self.b_max
                and sum(mu) <= dq and sum(nu) <= dq
                and 0 <= z <= self.z_max and 0 <= s <= self.s_max)

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self._caps() != other._caps():
            raise ValueError("incompatible truncation orders")

    def with_caps(self, d_max: int | None = None, b_max: int | None = None,
                  z_max: int | None = None, s_max: int | None = None) -> "TruncatedSeries":
        """Same terms under new caps; terms outside them are dropped (raised caps share storage)."""
        out = TruncatedSeries(
            self.d_max if d_max is None else d_max,
            self.b_max if b_max is None else b_max,
            z_max=self.z_max if z_max is None else z_max,
            s_max=self.s_max if s_max is None else s_max,
        )
        if all(new >= old for new, old in zip(out._caps(), self._caps())):
            out._nums, out._den = self._nums, self._den
            return out
        return out._same_caps({k: x for k, x in self._nums.items() if out._fits(k)}, self._den)

    # -- inspection ----------------------------------------------------------

    def coefficient(self, key: Key) -> Fraction:
        return Fraction(self._nums.get(key, 0), self._den)

    def constant_term(self) -> Fraction:
        return self.coefficient(ZERO_KEY)

    def terms(self) -> list[tuple[Key, Fraction]]:
        """All nonzero terms in deterministic key order."""
        return [(k, Fraction(x, self._den)) for k, x in sorted(self._nums.items())]

    def keys(self) -> Iterator[Key]:
        return iter(self._nums)

    def is_zero(self) -> bool:
        return not self._nums

    def first_key(self) -> Key | None:
        """Smallest nonzero monomial key, or None for the zero series."""
        return min(self._nums) if self._nums else None

    def __len__(self) -> int:
        return len(self._nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self._caps(), self._den, self._nums) == (other._caps(), other._den, other._nums)

    def __repr__(self) -> str:
        n = len(self._nums)
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
            c = Fraction(other)
            other = self._same_caps({ZERO_KEY: c.numerator}, c.denominator)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        acc = {k: x * fa for k, x in self._nums.items()}
        for key, x in other._nums.items():
            acc[key] = acc.get(key, 0) + x * fb
        return self._same_caps(acc, den)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return self._same_caps({k: -x for k, x in self._nums.items()}, self._den)

    def __sub__(self, other) -> "TruncatedSeries":
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other, *, wanted: dict[int, int] | None = None) -> "TruncatedSeries":
        """The truncated product.  With a series operand, ``wanted`` maps each z
        power to the highest s degree kept at it; the product then holds only
        those (z, s) powers, and the block pairs that would land elsewhere are
        never multiplied.  Its default keeps the whole window.
        """
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return self._same_caps({k: x * c.numerator for k, x in self._nums.items()},
                                   self._den * c.denominator)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        acc: dict = {}
        if self._nums and other._nums:
            _mul_groups(acc, _grouped(self._nums), _grouped(other._nums), self._caps(), {},
                        wanted)
        return self._same_caps(dict(_flat(acc)), self._den * other._den)

    __rmul__ = __mul__

    # -- analytic operations (finite under truncation) -------------------------

    def exp(self) -> "TruncatedSeries":
        """Exponential of a series with zero constant term."""
        if self.constant_term() != 0:
            raise ValueError("exp requires zero constant term")
        return self._exp_log(to_exp=True)

    def log(self) -> "TruncatedSeries":
        """Logarithm of a series with constant term one; inverse of :meth:`exp`."""
        if self.constant_term() != 1:
            raise ValueError("log requires constant term 1")
        return self._exp_log(to_exp=False)

    def _exp_log(self, to_exp: bool) -> "TruncatedSeries":
        """E = exp(L) from this series as L, or L = log(E) from it as E.

        Solved part by part along the additive grade g = dq + b + s, which
        avoids forming full powers of the argument:
        E_g - L_g = (1/g) sum_{0<h<g} h L_h E_{g-h}, so each unknown part
        needs only the parts below it.
        """
        given: dict[int, dict[Key, int]] = defaultdict(dict)
        for key, x in self._nums.items():
            if key != ZERO_KEY:
                g = key[0] + key[1] + key[5]
                if g == 0:
                    raise ValueError(f"{'exp' if to_exp else 'log'} does not support bare z monomials")
                given[g][key] = x
        # grade -> (grouped numerators, their common denominator)
        known = {g: (_grouped(p), self._den) for g, p in given.items()}
        solved: dict[int, tuple[Groups, int]] = {}
        logs, exps = (known, solved) if to_exp else (solved, known)
        sign = 1 if to_exp else -1
        caps, merged = self._caps(), {}
        pieces = [({ZERO_KEY: 1}, 1)] if to_exp else []
        for g in range(1, self.d_max + self.b_max + self.s_max + 1):
            hs = [h for h in logs if g - h in exps]
            m = lcm(self._den, *(logs[h][1] * exps[g - h][1] for h in hs))
            acc: dict = {}
            for h in hs:
                (lh, lh_den), (eh, eh_den) = logs[h], exps[g - h]
                _mul_groups(acc, _scaled(lh, h * (m // (lh_den * eh_den))), eh, caps, merged)
            scale = g * m // self._den
            numer = {k: x * scale for k, x in given.get(g, {}).items()}
            for k, x in _flat(acc):
                numer[k] = numer.get(k, 0) + sign * x
            part, part_den = _reduced(numer, g * m)
            if part:
                pieces.append((part, part_den))
                solved[g] = (_grouped(part), part_den)
        return self._same_caps(*_joined(pieces))

    # -- derivations and substitutions ----------------------------------------

    def d_dp(self, k: int, prime: bool = False) -> "TruncatedSeries":
        """Formal partial derivative in p_k (or p'_k when ``prime``)."""
        if k < 1:
            raise ValueError("variable index must be at least 1")
        acc: dict[Key, int] = {}
        idx = 3 if prime else 2
        for key, x in self._nums.items():
            pattern = key[idx]
            m = pattern.count(k)
            if m == 0:
                continue
            reduced = list(pattern)
            reduced.remove(k)
            newkey = key[:idx] + (tuple(reduced),) + key[idx + 1:]
            acc[newkey] = acc.get(newkey, 0) + x * m
        return self._same_caps(acc, self._den)

    def scale_q_exp(self, n: int) -> "TruncatedSeries":
        """Substitute q -> e^{n beta} q.

        A term of q-degree d and beta-degree b spawns beta-degrees b + j with
        coefficient multiplied by (n d)^j / j!.  Only lower beta orders feed
        each output order, so exactness is preserved across the whole window.
        """
        return self._times_exp_beta(n, 0)

    def mul_exp_beta(self, c: Fraction) -> "TruncatedSeries":
        """Multiply by e^{c beta}, expanded through the beta cap."""
        return self._times_exp_beta(0, _exact(c))

    def _times_exp_beta(self, n: int, c: int | Fraction) -> "TruncatedSeries":
        """Multiply each term of q-degree d by e^{(n d + c) beta}.

        With c = u/v and B = b_max, the factor (n d + c)^j / j! is
        (n d v + u)^j (B!/j!) v^(B-j) over B! v^B, so the expansion runs in
        integers over the denominator times B! v^B.
        """
        if not n and not c:
            return self
        b_max, u, v = self.b_max, c.numerator, c.denominator
        weights = [factorial(b_max) // factorial(j) * v ** (b_max - j) for j in range(b_max + 1)]
        acc: dict = {}
        for (dq, b, mu, nu, z, s), x in self._nums.items():
            gkey = (dq, mu, nu, z, s)
            vec = acc.get(gkey)
            if vec is None:
                vec = acc[gkey] = [0] * (b_max + 1)
            base = n * dq * v + u
            for j in range(b_max - b + 1 if base else 1):
                vec[b + j] += x * weights[j]
                x *= base
        return self._same_caps(dict(_flat(acc)), self._den * weights[0])

    def mul_q_power(self, j: int) -> "TruncatedSeries":
        """Multiply by q^j for j >= 0; terms pushed past the cap are dropped."""
        if j < 0:
            raise ValueError("negative q powers are not in the ring")
        if j == 0:
            return self
        return self._same_caps({(key[0] + j,) + key[1:]: x for key, x in self._nums.items()
                                if key[0] + j <= self.d_max}, self._den)

    def mul_aux_monomial(self, coeff: Fraction, dz: int = 0, ds: int = 0) -> "TruncatedSeries":
        """Multiply by coeff * z^dz * s^ds for dz >= 0, pruning at the aux windows."""
        if dz < 0:
            raise ValueError("negative z powers are not in the ring")
        coeff = _exact(coeff)
        acc: dict[Key, int] = {}
        for key, x in self._nums.items():
            z, s = key[4] + dz, key[5] + ds
            if z <= self.z_max and 0 <= s <= self.s_max:
                acc[key[:4] + (z, s)] = x * coeff.numerator
        return self._same_caps(acc, self._den * coeff.denominator)

    def shift_p(self, shifts: Iterable[tuple[int, bool, Iterable[ShiftTerm]]]) -> "TruncatedSeries":
        """Substitute p_k -> p_k + delta_k for the listed variables.

        Each entry of ``shifts`` is (k, prime, terms) with ``terms`` the
        summands of delta_k; each is at most first order in the perturbation
        symbol, has a nonnegative z power and an integer coefficient.  The
        image of a key depends only on its tail (mu, nu, z, s), so each
        distinct tail is expanded once per call, one part at a time through
        mu and then nu: a part is kept or replaced by one of its shift
        terms, and equal partial images add their integer factors, which
        forms the multinomial counts.  Shifts raise z and s only, so a branch
        is dropped as soon as it leaves the room below z_max and s_max, and a
        shift term that leaves it on its own is dropped up front: with none
        left, the series is returned as it is.
        """
        z_max, s_max = self.z_max, self.s_max
        smap: dict[tuple[bool, int], tuple[tuple[int, int, int], ...]] = {}
        for k, prime, terms in shifts:
            if (bool(prime), int(k)) in smap:
                raise ValueError(f"duplicate shift for variable ({k}, prime={prime})")
            smap[(bool(prime), int(k))] = tuple((t.z_power, t.s_degree, t.coeff) for t in terms
                                                if t.z_power <= z_max and t.s_degree <= s_max)
        if not any(smap.values()):
            return self

        images: dict[tuple, list] = {}
        acc: dict[Key, int] = {}
        for key, x in self._nums.items():
            tail = key[2:]
            image = images.get(tail)
            if image is None:
                # a partial image is named by the parts replaced so far, in
                # the decreasing order they come in, with its z and s: keeping
                # a part leaves it as it is
                mu, nu = tail[:2]
                partial = {((), ()) + tail[2:]: 1}
                for prime, k in [(False, k) for k in mu] + [(True, k) for k in nu]:
                    terms = smap.get((prime, k))
                    if not terms:
                        continue
                    grown = dict(partial)
                    for (gone_mu, gone_nu, z, s), f in partial.items():
                        for dz, ds, c in terms:
                            if z + dz <= z_max and s + ds <= s_max:
                                branch = ((gone_mu, gone_nu + (k,)) if prime
                                          else (gone_mu + (k,), gone_nu)) + (z + dz, s + ds)
                                grown[branch] = grown.get(branch, 0) + f * c
                    partial = grown
                image = images[tail] = [
                    ((_without(mu, gone_mu), _without(nu, gone_nu), z, s), f)
                    for (gone_mu, gone_nu, z, s), f in partial.items()]
            for new_tail, f in image:
                new_key = key[:2] + new_tail
                acc[new_key] = acc.get(new_key, 0) + x * f
        return self._same_caps(acc, self._den)

    # -- extraction and restriction -------------------------------------------

    def extract_z(self, t: int) -> "TruncatedSeries":
        """Coefficient of z^t, as a series with the z window collapsed."""
        out = TruncatedSeries(self.d_max, self.b_max, s_max=self.s_max)
        return out._same_caps({key[:4] + (0, key[5]): x
                               for key, x in self._nums.items() if key[4] == t}, self._den)

    def extract_s(self, deg: int) -> "TruncatedSeries":
        """Coefficient of s^deg, as a series without the perturbation symbol."""
        out = TruncatedSeries(self.d_max, self.b_max, z_max=self.z_max)
        return out._same_caps({key[:4] + (key[4], 0): x
                               for key, x in self._nums.items() if key[5] == deg}, self._den)

    def truncate_parts(self, max_part: int) -> "TruncatedSeries":
        """Set every p_k and p'_k with k > max_part to zero."""
        return self.filtered(lambda key: all(p <= max_part for p in key[2] + key[3]))

    def filtered(self, keep: Callable[[Key], bool]) -> "TruncatedSeries":
        return self._same_caps({k: x for k, x in self._nums.items() if keep(k)}, self._den)

    def with_coefficient(self, key: Key, value: Fraction) -> "TruncatedSeries":
        """Copy with one coefficient replaced (used by negative controls)."""
        if not self._fits(key):
            raise ValueError(f"key {key} violates truncation orders")
        change = _exact(value) - self.coefficient(key)
        return self + self._same_caps({key: change.numerator}, change.denominator)


# -- integer kernels -----------------------------------------------------------
#
# A grouped operand is a list of blocks ((dq, z, s), groups), each group being
# (mu, rows) and each row (nu, beta-vector), with the beta-vector a list of
# (b, numerator) pairs in increasing b.  A series free of z and s has one
# block per q-degree.

Groups = list[tuple[tuple, list]]


def _reduced(nums: dict[Key, int], den: int) -> tuple[dict[Key, int], int]:
    """nums / den with the zeros dropped and the common factor cancelled."""
    if 0 in nums.values():
        nums = {k: x for k, x in nums.items() if x}
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {k: x // g for k, x in nums.items()}, den // g


def _joined(pieces: list[tuple[dict[Key, int], int]]) -> tuple[dict[Key, int], int]:
    """Disjoint numerator maps, each over its own denominator, over their lcm."""
    den = lcm(*(d for _, d in pieces))
    out: dict[Key, int] = {}
    for nums, d in pieces:
        f = den // d
        out.update((k, x * f) for k, x in nums.items())
    return out, den


def _grouped(nums: dict[Key, int]) -> Groups:
    tree: dict = {}
    for (dq, b, mu, nu, z, s), x in nums.items():
        tree.setdefault((dq, z, s), {}).setdefault(mu, {}).setdefault(nu, []).append((b, x))
    return [(block, [(mu, [(nu, sorted(bv)) for nu, bv in rows.items()])
                     for mu, rows in by_mu.items()])
            for block, by_mu in tree.items()]


def _scaled(groups: Groups, factor: int) -> Groups:
    if factor == 1:
        return groups
    return [(block, [(mu, [(nu, [(b, x * factor) for b, x in bv]) for nu, bv in rows])
                     for mu, rows in by_mu])
            for block, by_mu in groups]


def _mul_groups(acc: dict, a: Groups, b: Groups, caps: tuple, merged: dict,
                wanted: dict[int, int] | None = None) -> None:
    """Accumulate the truncated product of two grouped operands into acc.

    ``caps`` is (d_max, b_max, z_max, s_max).  ``wanted`` maps a z power to
    the highest s degree kept at it, the whole window by default; a pair of
    blocks landing anywhere else, or past d_max, is skipped whole.  ``acc``
    maps (dq, mu, nu, z, s) to a dense integer beta-vector.  Pattern merges
    are memoized in ``merged`` per pattern pair, so each is sorted once
    however many beta terms the two groups carry.  Weights need no check:
    they are at most the q-degree, which is capped.
    """
    d_max, b_max, z_max, s_max = caps
    if wanted is None:
        wanted = dict.fromkeys(range(z_max + 1), s_max)
    width = b_max + 1
    for (da, z1, s1), by_mu_a in a:
        for (db, z2, s2), by_mu_b in b:
            dq, z, s = da + db, z1 + z2, s1 + s2
            if dq > d_max or s > wanted.get(z, -1):
                continue
            for mu1, rows1 in by_mu_a:
                for mu2, rows2 in by_mu_b:
                    mu = merged.get((mu1, mu2))
                    if mu is None:
                        mu = merged[(mu1, mu2)] = tuple(sorted(mu1 + mu2, reverse=True))
                    for nu1, bv1 in rows1:
                        for nu2, bv2 in rows2:
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


def _toda_pairs(f: TruncatedSeries) -> TruncatedSeries:
    """f d2f/dp1dp'1 - (df/dp1)(df/dp'1) - q f(e^beta q) f(e^{-beta} q), from pairs of rows.

    A row A of f is one (dq_A, mu_A, nu_A) with its beta-vector f_A, and
    m_A, n_A count the parts 1 of mu_A, nu_A.  Each unordered pair of rows
    has its product f_A f_B added once, by ``_pair_product``, into two
    targets: (m_B - m_A)(n_B - n_A) f_A f_B at dq_A + dq_B with the last
    part, a 1, of each merged pattern removed, and, below dq_A + dq_B =
    d_max, -2 cosh(c beta) f_A f_B at dq_A + dq_B + 1 with the merged
    patterns, c = dq_B - dq_A, halved when A = B.  Over B! with B = b_max
    the weights of cosh(c beta) are the integers c^j (B!/j!) for even j, so
    the residual sits over den^2 B!.  z and s are refused.

    Patterns carry integer ids in increasing tuple order, and each pair of
    ids is merged once.  The pairs are walked by S = dq_A + dq_B and, within
    S, by dq_A, which fixes c: each dq_A's squares are summed per target and
    convolved with cosh(c beta) into degree S + 1 once it is done, and after
    S, whose pair terms are summed and added likewise with c = 0, degree S
    is complete and is moved into the residual.  When f equals its mirror,
    mu and nu swapped, so does the residual, and the mirror of a pair of
    rows feeds the mirrored targets: only pairs whose merged nu is at most
    their merged mu are multiplied, and each sum is written at (mu, nu) and
    (nu, mu).  Merging a fixed pattern is strictly increasing in tuple
    order, so with the rows of a group in increasing nu, the partners kept
    by a row are a prefix of the other group's rows, which shrinks as the
    row's nu grows.
    """
    if f.z_max or f.s_max:
        raise ValueError("the Toda residual takes no z or s symbols")
    d_max, b_max, top, nums = f.d_max, f.b_max, factorial(f.b_max), f._nums
    # every pattern of weight <= d_max has an id, in increasing tuple order;
    # merges[i][j] holds the ids of the merge of patterns i and j and of that
    # merge without its last part
    patterns = sorted(lam.parts for w in range(d_max + 1) for lam in partitions_of(w))
    ids = {pattern: i for i, pattern in enumerate(patterns)}
    merges: dict = defaultdict(dict)

    def merge(i: int, j: int) -> tuple[int, int]:
        pattern = tuple(sorted(patterns[i] + patterns[j], reverse=True))
        merges[i][j] = ids[pattern], ids[pattern[:-1]]
        return merges[i][j]

    def vectors() -> defaultdict:
        return defaultdict(lambda: defaultdict(lambda: [0] * (b_max + 1)))

    def fold(layer: dict, into: dict, c: int) -> None:
        """Subtract cosh(c beta) times each layer sum, over B!, into ``into``."""
        weights = [c ** j * (top // factorial(j)) for j in range(0, b_max + 1 if c else 1, 2)]
        # reach[b] pairs each beta-degree a term at beta^b reaches with its weight
        reach = [list(zip(range(b, b_max + 1, 2), weights)) for b in range(b_max + 1)]
        for mu, targets in layer.items():
            into_mu = into[mu]
            for nu, vec in targets.items():
                target = into_mu[nu]
                for b, x in enumerate(vec):
                    if x:
                        for j, w in reach[b]:
                            target[j] -= x * w

    # the rows of each (dq, mu), in increasing nu id
    tree: dict = {}
    for (dq, b, mu, nu, _, _), x in nums.items():
        tree.setdefault((dq, mu), {}).setdefault(nu, []).append((b, x))
    groups: list = [[] for _ in range(d_max + 1)]
    for (dq, mu), rows in tree.items():
        groups[dq].append((ids[mu], mu.count(1), sorted(
            (ids[nu], nu.count(1), sorted(bv)) for nu, bv in rows.items())))
    del tree
    symmetric = all(nums.get((dq, b, nu, mu, z, s)) == x
                    for (dq, b, mu, nu, z, s), x in nums.items())
    out: dict = {}
    ahead = vectors()
    for S in range(d_max + 1):
        top_degree = S == d_max
        done, ahead, paired = ahead, vectors(), vectors()
        for da in range(S // 2 + 1):
            db, square = S - da, vectors()
            for i, (mu1, m1, rows1) in enumerate(groups[da]):
                for mu2, m2, rows2 in groups[da][i:] if da == db else groups[db]:
                    if top_degree and m1 == m2:
                        continue
                    mu, mu_less = merges[mu1].get(mu2) or merge(mu1, mu2)
                    into_square = None if top_degree else square[mu]
                    into_paired = paired[mu_less] if m1 != m2 else None
                    # within one group the pairs start at the diagonal; on a
                    # symmetric f a row keeps the partners whose merged nu is
                    # at most mu, a prefix of rows2 that shrinks as nu1 grows
                    same, end = rows1 is rows2, len(rows2)
                    for r, (nu1, n1, bv1) in enumerate(rows1):
                        nu_merges, start = merges[nu1], r if same else 0
                        while symmetric and end > start:
                            last = rows2[end - 1][0]
                            if (nu_merges.get(last) or merge(nu1, last))[0] <= mu:
                                break
                            end -= 1
                        if end <= start:
                            break
                        for nu2, n2, bv2 in rows2[start:end]:
                            weight = (m2 - m1) * (n2 - n1)
                            if top_degree and not weight:
                                continue
                            nu, nu_less = nu_merges.get(nu2) or merge(nu1, nu2)
                            _pair_product(bv1, bv2, b_max,
                                          None if top_degree else into_square[nu],
                                          1 if bv1 is bv2 else 2,
                                          into_paired[nu_less] if weight else None, weight)
            # this da's squares all land at S + 1, with c = db - da
            fold(square, ahead, db - da)
        # degree S is complete: its squares were folded in at S - 1
        fold(paired, done, 0)
        for mu, targets in done.items():
            for nu, vec in targets.items():
                for b, x in enumerate(vec):
                    if x:
                        out[(S, b, patterns[mu], patterns[nu], 0, 0)] = x
                        if symmetric:
                            out[(S, b, patterns[nu], patterns[mu], 0, 0)] = x
    return f._same_caps(out, f._den * f._den * top)


def _pair_product(bv1: list, bv2: list, b_max: int, square: list | None, k: int,
                  paired: list | None, weight: int) -> None:
    """Add k f_A f_B into ``square`` and -weight f_A f_B into ``paired``, for
    two sparse beta-vectors f_A, f_B, through b_max; a None target is skipped."""
    for vec, factor in ((square, k), (paired, -weight)):
        if vec is not None:
            for b1, x in bv1:
                x *= factor
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


def _without(pattern: tuple, gone: tuple) -> tuple:
    """A decreasing pattern with the parts of its sub-multiset ``gone`` removed."""
    if not gone:
        return pattern
    rest = list(pattern)
    for part in gone:
        rest.remove(part)
    return tuple(rest)
