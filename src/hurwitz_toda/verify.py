"""Exact identity checks for the covering series.

All identities are verified in bilinear polynomial form on truncated series
with rational coefficients: a residual series is computed and must vanish
identically.  Zero means zero; there are no tolerances.  Truncation windows
are chosen so that every retained residual coefficient is exact:

* products only couple q-degrees that sum inside the cap, and the series is
  exact at every q-degree up to its cap;
* the substitution q -> e^{n beta} q feeds each beta order only from lower
  ones, so it consumes no beta headroom, and it is a ring map: a product of
  factors scaled by n and m equals the product scaled by n - m and 0,
  scaled by m afterwards;
* multiplying by e^{c beta} likewise feeds upward only;
* tau(e^beta q) tau(e^{-beta} q) is tau's balanced square, built from its
  own beta-sparse q-degree blocks, so no factor is ever dense in beta;
* a product that is multiplied by q^j afterwards loses its top j degrees,
  so it is formed with its factors capped at d_max - j and lifted back.

Hence every verifier checks the full (d_max, b_max) window it was given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .characters import CharacterCache
from .hurwitz import build_tau, format_rational, simple_hurwitz
from .series import Key, ShiftTerm, TruncatedSeries, key_to_json_obj, make_key


@dataclass
class VerificationReport:
    """Outcome of one identity check.

    ``passed`` holds exactly when the residual series has an empty
    coefficient map; ``first_failure`` names the smallest offending monomial
    otherwise, and ``first_failure_value`` is its residual coefficient.
    """

    identity: str
    orders: dict
    passed: bool
    residual: TruncatedSeries
    first_failure: Key | None
    notes: dict = field(default_factory=dict)

    @property
    def first_failure_value(self) -> Fraction | None:
        if self.first_failure is None:
            return None
        return self.residual.coefficient(self.first_failure)

    def to_json_obj(self) -> dict:
        obj = {
            "identity": self.identity,
            "orders": self.orders,
            "pass": self.passed,
            "first_failure": (
                key_to_json_obj(self.first_failure)
                if self.first_failure is not None else None
            ),
            # flags and labels as they are, rationals as integers or "num/den"
            "notes": {k: v if isinstance(v, (bool, str)) else format_rational(v)
                      for k, v in self.notes.items()},
        }
        # only failing reports carry a residual value
        if self.first_failure is not None:
            obj["first_failure_value"] = format_rational(self.first_failure_value)
        return obj


def _report(identity: str, orders: dict, residual: TruncatedSeries,
            notes: dict | None = None) -> VerificationReport:
    return VerificationReport(
        identity=identity,
        orders=orders,
        passed=residual.is_zero(),
        residual=residual,
        first_failure=residual.first_key(),
        notes=notes or {},
    )


def _corrupted(tau: TruncatedSeries, corruption: Key | None) -> TruncatedSeries:
    if corruption is None:
        return tau
    return tau.with_coefficient(corruption, tau.coefficient(corruption) + 1)


def toda_residual(tau: TruncatedSeries) -> TruncatedSeries:
    """Bilinear residual of the lowest lattice equation.

    tau * d2 tau / dp1 dp'1 - (d tau/dp1)(d tau/dp'1)
        - q * tau(q -> e^beta q) * tau(q -> e^{-beta} q)

    No division by tau is ever performed; the check stays in the ring.  The
    scaled product is tau's balanced square, which multiplies tau's own
    beta-sparse q-degree blocks, so no factor is dense in beta.  It is
    formed at cap d_max - 1, since the factor q drops its top degree.
    """
    d1 = tau.d_dp(1)
    d1p = tau.d_dp(1, prime=True)
    mixed = d1.d_dp(1, prime=True)
    square = tau.with_caps(d_max=tau.d_max - 1).balanced_square()
    return tau * mixed - d1 * d1p - square.with_caps(d_max=tau.d_max).mul_q_power(1)


def verify_toda(d_max: int, b_max: int, *,
                corruption: Key | None = None,
                cache: CharacterCache | None = None) -> VerificationReport:
    """Check the lowest lattice equation on the series at (d_max, b_max)."""
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    tau = _corrupted(build_tau(d_max, b_max, cache=cache), corruption)
    residual = toda_residual(tau)
    return _report("toda", {"d_max": d_max, "b_max": b_max}, residual)


def verify_tau_n(n: int, d_max: int, b_max: int, *,
                 corruption: Key | None = None,
                 cache: CharacterCache | None = None) -> VerificationReport:
    """Check the lattice equation at site n of T_n = e^{n(4n^2-1) beta/24} tau(e^{n beta} q).

    T_n is the charge-n tau function without its q^{n^2/2} prefactor, a
    formal marker outside the ring.  Those prefactors cancel exactly in

        T_n d2 T_n / dp1 dp'1 - (d T_n/dp1)(d T_n/dp'1) - q T_{n+1} T_{n-1},

    which must vanish.  The residual adds the round trip T_n -> tau under
    the map with -n, which must be the identity.
    """
    if abs(n) > 3:
        raise ValueError("charge shift restricted to |n| <= 3")
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    tau = _corrupted(build_tau(d_max, b_max, cache=cache), corruption)

    def exponent(k: int) -> Fraction:
        return Fraction(k * (4 * k * k - 1), 24)

    def shift(series: TruncatedSeries, k: int) -> TruncatedSeries:
        return series.scale_q_exp(k).mul_exp_beta(exponent(k))

    t_n = shift(tau, n)
    d1 = t_n.d_dp(1)
    # T_{n+1} T_{n-1} is tau's balanced square under q -> e^{n beta} q, times
    # the two prefactors; q drops its top degree, so it is formed below it
    square = tau.with_caps(d_max=d_max - 1).balanced_square()
    neighbours = square.scale_q_exp(n).mul_exp_beta(exponent(n + 1) + exponent(n - 1))
    lattice = (t_n * d1.d_dp(1, prime=True) - d1 * t_n.d_dp(1, prime=True)
               - neighbours.with_caps(d_max=d_max).mul_q_power(1))
    residual = shift(t_n, -n) - tau + lattice
    return _report(
        "tau-n",
        {"n": n, "d_max": d_max, "b_max": b_max},
        residual,
        notes={"prefactor_beta_exponent": exponent(n)},
    )


def _zvec_shifts(sign: int, prime: bool, max_part: int) -> list[tuple[int, bool, list[ShiftTerm]]]:
    """Shift every p_k (or p'_k) by sign * z^k."""
    return [(k, prime, [ShiftTerm(Fraction(sign), z_power=k)])
            for k in range(1, max_part + 1)]


def _merge_shifts(*groups):
    merged: dict[tuple[bool, int], list[ShiftTerm]] = {}
    for group in groups:
        for k, prime, terms in group:
            merged.setdefault((prime, k), []).extend(terms)
    return [(k, prime, terms) for (prime, k), terms in merged.items()]


# (m, n_s, side) of the equations below that hold for every series, not only
# for tau: a corrupted tau passes them, so their negative control is vacuous.
IDENTITIES_OF_EVERY_SERIES = frozenset({(-1, 1, "p"), (-1, 1, "pprime"),
                                        (0, 1, "p"), (0, 2, "p")})


def verify_hirota(m: int, n_s: int, d_max: int, b_max: int, *,
                  side: str = "pprime",
                  corruption: Key | None = None,
                  cache: CharacterCache | None = None) -> VerificationReport:
    """Check one bilinear lattice-hierarchy equation at first order.

    The equation equates two z-coefficient extractions of products of four
    shifted copies of the series; ``side`` picks which variable family
    carries the single first-order perturbation symbol (index ``n_s``):

      q^{m+1} e^{m(m+1) beta/2}
        [z^{-1-m}] e^{-2(s/n_s) z^{-n_s}}|_(pprime side)
          tau(P+S,    P'+S'+zv, e^{(m+1) beta} q) tau(P-S,    P'-S'-zv, e^{-beta} q)
      = [z^{m+1}] e^{+2(s/n_s) z^{-n_s}}|_(p side)
          tau(P+S-zv, P'+S',    e^{m beta} q)     tau(P-S+zv, P'-S',    q)

    with zv = (z, z^2, z^3, ...); S sits in the first family, S' in the
    second, and the exponential prefactor belongs to the family named by
    ``side``.  At m = 0 the first-order coefficient on the second-family
    side is twice the lowest-equation residual, monomial for monomial.

    A ``corruption`` of one of the IDENTITIES_OF_EVERY_SERIES is refused
    with ValueError: such a check would pass whatever tau held.
    """
    if m not in (-1, 0, 1) or n_s not in (1, 2, 3):
        raise ValueError("restricted Hirota scope")
    if side not in ("p", "pprime"):
        raise ValueError("side must be 'p' or 'pprime'")
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    if corruption is not None and (m, n_s, side) in IDENTITIES_OF_EVERY_SERIES:
        raise ValueError(f"hirota (m, n_s, side) = {(m, n_s, side)} holds for every series,"
                         " so a corrupted tau cannot fail it")
    tau = _corrupted(build_tau(d_max, b_max, cache=cache), corruption)
    primed = side == "pprime"

    # z powers a product must supply so the extractions stay exact: the
    # prefactor contributes only z^0 and z^{-n_s}, factors only z^{>=0}.
    lhs_zmax = max(0, (n_s if primed else 0) - 1 - m)
    rhs_zmax = m + 1 + (n_s if not primed else 0)

    def build(dmax: int, zmax: int, scale: int, s_sign: int, zv_sign: int, zv_prime: bool):
        lifted = tau.with_caps(d_max=dmax, z_max=zmax, s_max=1)
        shifts = _merge_shifts(
            _zvec_shifts(zv_sign, zv_prime, dmax),
            [(n_s, primed, [ShiftTerm(Fraction(s_sign), s_degree=1)])],
        )
        return lifted.scale_q_exp(scale).shift_p(shifts)

    # the left factors' common q -> e^{-beta} q moves past the shifts, which
    # keep q-degrees, and is applied to their product once; q^{m+1} drops the
    # product's top m + 1 degrees, so its factors are built below them
    lhs_dmax = max(0, d_max - m - 1)
    lhs = (build(lhs_dmax, lhs_zmax, m + 2, +1, +1, True)
           * build(lhs_dmax, lhs_zmax, 0, -1, -1, True))
    lhs = lhs.scale_q_exp(-1).with_caps(d_max=d_max)
    rhs = build(d_max, rhs_zmax, m, +1, -1, False) * build(d_max, rhs_zmax, 0, -1, +1, False)
    left, right = lhs.extract_z(-1 - m), rhs.extract_z(m + 1)
    # [z^t] P (1 + c s z^{-n_s}) = [z^t] P + c s [z^{t+n_s}] P at first order in s
    if primed:
        left = left + lhs.extract_z(n_s - 1 - m).mul_aux_monomial(Fraction(-2, n_s), ds=1)
    else:
        right = right + rhs.extract_z(m + 1 + n_s).mul_aux_monomial(Fraction(2, n_s), ds=1)
    left = left.mul_q_power(m + 1).mul_exp_beta(Fraction(m * (m + 1), 2))
    residual = left - right

    notes: dict = {"side": side}
    if m == 0 and n_s == 1 and primed and corruption is None:
        ref = toda_residual(tau)
        half = residual.extract_s(1) * Fraction(1, 2)
        notes["matches_toda_residual"] = (half == ref)
    return _report(
        "hirota",
        {"m": m, "n_s": n_s, "d_max": d_max, "b_max": b_max},
        residual,
        notes=notes,
    )


def _x_recursion(d_max: int, b_max: int) -> dict[tuple[int, int], Fraction]:
    """Solve the one-variable lattice equation for the restricted series.

    With every profile trivial the series collapses to T(x, beta) in the
    single variable x = q p_1 p'_1.  Writing Theta = x d/dx, the equation

        T Theta^2 T - (Theta T)^2 = x T(e^beta x) T(e^{-beta} x)

    determines T[D, b] from strictly smaller x-degrees, starting from
    T[0, b] = [b == 0].  Only the lattice structure enters here; no
    character sums.
    """
    T: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}

    def get(dd: int, bb: int) -> Fraction:
        return T.get((dd, bb), Fraction(0))

    for D in range(1, d_max + 1):
        for b in range(b_max + 1):
            rhs = Fraction(0)
            for d1 in range(D):
                d2 = D - 1 - d1
                base = d1 - d2
                for b1 in range(b + 1):
                    t1 = get(d1, b1)
                    if not t1:
                        continue
                    for b2 in range(b - b1 + 1):
                        t2 = get(d2, b2)
                        if not t2:
                            continue
                        j = b - b1 - b2
                        rhs += t1 * t2 * Fraction(base**j, factorial(j))
            cross = Fraction(0)
            for d1 in range(1, D):
                d2 = D - d1
                w = (d1 - d2) ** 2
                if not w:
                    continue
                for b1 in range(b + 1):
                    t1 = get(d1, b1)
                    if not t1:
                        continue
                    t2 = get(d2, b - b1)
                    if t2:
                        cross += Fraction(w, 2) * t1 * t2
            val = (rhs - cross) / (D * D)
            if val:
                T[(D, b)] = val
    return T


def verify_toda_specialized(u_max: int, *,
                            corruption: Key | None = None,
                            cache: CharacterCache | None = None) -> VerificationReport:
    """Check the trivial-profile specialization of the lowest equation.

    Three components, all folded into one residual series:

    1. structure: after setting p_k = p'_k = 0 for k >= 2, every surviving
       monomial must have exponent patterns (1^d, 1^d) matching its q-degree,
       i.e. the restriction depends on q, p_1, p'_1 only through x = q p1 p'1;
    2. the lowest bilinear equation restricted to that one-variable series;
    3. the one-variable recursion, seeded only by the constant term, must
       reproduce the restricted series and, through its log, every simple
       Hurwitz number in range.
    """
    if u_max < 1:
        raise ValueError("u_max must be at least 1")
    d_max, b_max = u_max, 2 * u_max - 2
    tau = _corrupted(build_tau(d_max, b_max, cache=cache), corruption)
    restricted = tau.truncate_parts(1)

    structural = restricted.filtered(
        lambda key: key[2] != (1,) * key[0] or key[3] != (1,) * key[0]
    )
    bilinear = toda_residual(restricted)

    T = _x_recursion(d_max, b_max)
    rec_series = TruncatedSeries.from_terms(
        d_max, b_max,
        terms=[
            (make_key(dq=D, b=b, mu=(1,) * D, nu=(1,) * D), val)
            for (D, b), val in T.items()
        ],
    )
    recursion_delta = rec_series - restricted

    h_rec = rec_series.log()
    hurwitz_terms = []
    for d in range(1, d_max + 1):
        g = 0
        while 2 * g + 2 * d - 2 <= b_max:
            b = 2 * g + 2 * d - 2
            want = simple_hurwitz(g, d, cache=cache)
            got = h_rec.coefficient(make_key(dq=d, b=b, mu=(1,) * d, nu=(1,) * d))
            diff = got * factorial(b) - want
            if diff:
                hurwitz_terms.append(
                    (make_key(dq=d, b=b, mu=(1,) * d, nu=(1,) * d), diff)
                )
            g += 1
    hurwitz_delta = TruncatedSeries.from_terms(d_max, b_max, terms=hurwitz_terms)

    residual = structural + bilinear + recursion_delta + hurwitz_delta
    notes = {
        "structure_ok": structural.is_zero(),
        "bilinear_ok": bilinear.is_zero(),
        "recursion_matches_series": recursion_delta.is_zero(),
        "recursion_matches_simple_hurwitz": hurwitz_delta.is_zero(),
    }
    return _report(
        "toda-specialized",
        {"u_max": u_max, "d_max": d_max, "b_max": b_max},
        residual,
        notes=notes,
    )
