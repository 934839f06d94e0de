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
* both sides of the lowest equation are sums over pairs of tau's rows, and
  each pair's product of tau's own beta-sparse vectors is formed once;
* a product that is multiplied by q^j afterwards loses its top j degrees,
  so it is formed with its factors capped at d_max - j and lifted back;
* shifts raise z and s only, so a product of shifted factors is formed at
  the (z, s) powers read from it alone, from factors cut at the highest z
  power and s degree read; one whose every read power is negative is zero
  and never formed.

Hence every verifier checks the full (d_max, b_max) window it was given.
A check on a corrupted series whose residual is zero is refused, as a
negative control that cannot fail shows nothing.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .hurwitz import build_tau, corrupted, format_rational, simple_hurwitz
from .series import Key, ShiftTerm, TruncatedSeries, _toda_pairs, key_to_json_obj, make_key


class VerificationReport(namedtuple("VerificationReport", "identity orders residual notes")):
    """Outcome of one identity check, read from its residual series.

    ``passed`` holds exactly when the residual has no terms;
    ``first_failure`` names the smallest offending monomial otherwise, and
    ``first_failure_value`` is its residual coefficient.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.residual.is_zero()

    @property
    def first_failure(self) -> Key | None:
        return self.residual.first_key()

    @property
    def first_failure_value(self) -> Fraction | None:
        key = self.first_failure
        return None if key is None else self.residual.coefficient(key)

    def to_json_obj(self) -> dict:
        key = self.first_failure
        obj = {
            "identity": self.identity,
            "orders": self.orders,
            "pass": key is None,
            "first_failure": key_to_json_obj(key) if key is not None else None,
            # flags and labels as they are, rationals as integers or "num/den"
            "notes": {k: v if isinstance(v, (bool, str)) else format_rational(v)
                      for k, v in self.notes.items()},
        }
        # only failing reports carry a residual value
        if key is not None:
            obj["first_failure_value"] = format_rational(self.residual.coefficient(key))
        return obj


def _tau(d_max: int, b_max: int, corruption: Key | None) -> TruncatedSeries:
    """Every verifier's input: tau at (d_max, b_max), with ``corruption`` applied."""
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    return corrupted(build_tau(d_max, b_max), corruption)


def _checked(report: VerificationReport, corruption: Key | None,
             label: str | None = None) -> VerificationReport:
    """``report``, unless it is a negative control that cannot fail: a
    corruption that leaves the residual zero is refused with ValueError."""
    if corruption is not None and report.passed:
        what = label or f"{report.identity} {report.orders}"
        raise ValueError(f"{what} leaves a corrupted tau a zero residual,"
                         " so its negative control cannot fail")
    return report


def toda_residual(tau: TruncatedSeries) -> TruncatedSeries:
    """Residual of the lowest lattice equation, the one at site 0, in one
    pass over the pairs of tau's rows (z and s are refused):

    tau * d2 tau / dp1 dp'1 - (d tau/dp1)(d tau/dp'1) - q tau(e^beta q) tau(e^{-beta} q)
    """
    return _toda_pairs(tau)


def verify_toda(d_max: int, b_max: int, *,
                corruption: Key | None = None) -> VerificationReport:
    """Check the lowest lattice equation on the series at (d_max, b_max)."""
    residual = toda_residual(_tau(d_max, b_max, corruption))
    return _checked(VerificationReport("toda", {"d_max": d_max, "b_max": b_max}, residual, {}),
                    corruption)


def verify_tau_n(n: int, d_max: int, b_max: int, *,
                 corruption: Key | None = None) -> VerificationReport:
    """Check the lattice equation at site n of T_n = e^{n(4n^2-1) beta/24} tau(e^{n beta} q).

    T_n is the charge-n tau function without its q^{n^2/2} prefactor, a
    formal marker outside the ring.  Those prefactors cancel exactly in the
    lattice equation at site n.  The beta exponents c_k = k(4k^2-1)/24 have
    c_{n+1} + c_{n-1} = 2 c_n + n, and q -> e^{n beta} q is a ring map that
    commutes with d/dp1 and d/dp'1, so the residual at site n is the one at
    site 0 under that map, times e^{2 c_n beta}.  The residual adds the round
    trip T_n -> tau under the map with -n, which must be the identity and is
    the one term that reads the map.  Each map is one pass, three in all.
    """
    if abs(n) > 3:
        raise ValueError("charge shift restricted to |n| <= 3")
    tau = _tau(d_max, b_max, corruption)
    c = Fraction(n * (4 * n * n - 1), 24)
    residual = (tau._times_exp_beta(n, c)._times_exp_beta(-n, -c) - tau
                + toda_residual(tau)._times_exp_beta(n, 2 * c))
    orders = {"n": n, "d_max": d_max, "b_max": b_max}
    return _checked(VerificationReport("tau-n", orders, residual,
                                       {"prefactor_beta_exponent": c}), corruption)


def _factor_shifts(n_s: int, s_prime: bool, s_sign: int, zv_sign: int, zv_prime: bool,
                   max_part: int) -> list[tuple[int, bool, list[ShiftTerm]]]:
    """The shift list of one Hirota factor.

    Every p_k (p'_k when ``zv_prime``) with k <= max_part is shifted by
    zv_sign * z^k, and p_{n_s} of the family named by ``s_prime`` by
    s_sign * s.
    """
    shifts = {(zv_prime, k): [ShiftTerm(zv_sign, z_power=k)] for k in range(1, max_part + 1)}
    shifts.setdefault((s_prime, n_s), []).append(ShiftTerm(s_sign, s_degree=1))
    return [(k, prime, terms) for (prime, k), terms in shifts.items()]


# (m, n_s, side) of the equations below that hold for every series, not only
# for tau: a corrupted tau passes them, so their negative control is vacuous.
IDENTITIES_OF_EVERY_SERIES = frozenset({(-1, 1, "p"), (-1, 1, "pprime"),
                                        (0, 1, "p"), (0, 2, "p")})


def verify_hirota(m: int, n_s: int, d_max: int, b_max: int, *,
                  side: str = "pprime",
                  corruption: Key | None = None) -> VerificationReport:
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

    A ``corruption`` is refused with ValueError when the check could not
    fail: before any product for the IDENTITIES_OF_EVERY_SERIES, which pass
    whatever tau holds, and afterwards whenever the corrupted residual is zero.
    """
    if m not in (-1, 0, 1) or n_s not in (1, 2, 3):
        raise ValueError("restricted Hirota scope")
    if side not in ("p", "pprime"):
        raise ValueError("side must be 'p' or 'pprime'")
    tau = _tau(d_max, b_max, corruption)
    if corruption is not None and (m, n_s, side) in IDENTITIES_OF_EVERY_SERIES:
        raise ValueError(f"hirota (m, n_s, side) = {(m, n_s, side)} holds for every series,"
                         " so a corrupted tau cannot fail it")
    primed = side == "pprime"

    def read(cap: int, scale: int, common: int, zv_sign: int, zv_prime: bool,
             t: int, c: Fraction) -> TruncatedSeries:
        """[z^t] (1 + c s z^{-n_s}) F G at first order in s, under q -> e^{common beta} q.

        F = tau(e^{scale beta} q) shifted by +s and zv_sign * zv, G = tau
        shifted by -s and -zv_sign * zv, both capped at q-degree ``cap``.
        The prefactor's s z^{-n_s} reads s^0 [z^{t + n_s}] F G, and the bare
        term s^0 and s^1 of [z^t] F G, so F G is formed at those (z, s)
        powers only: factors carry only z^{>=0}, and a term of a factor past
        the highest z power or s degree read feeds none of them.
        q -> e^{common beta} q is a ring map that keeps q-degrees, so it is
        applied to the product once.
        """
        top = t + n_s if c else t
        if top < 0:
            return TruncatedSeries(d_max, b_max, s_max=1)
        wanted = {t: 1} if t >= 0 else {}
        if c:
            wanted[top] = 0
        lifted = tau.with_caps(d_max=cap, z_max=top, s_max=max(wanted.values()))
        f, g = (x.shift_p(_factor_shifts(n_s, primed, sign, sign * zv_sign, zv_prime, cap))
                for x, sign in ((lifted.scale_q_exp(scale), 1), (lifted, -1)))
        product = f.__mul__(g, wanted=wanted).with_caps(s_max=1).scale_q_exp(common)
        out = product.extract_z(t)
        if c:
            out = out + product.extract_z(top).mul_aux_monomial(c, ds=1)
        return out.with_caps(d_max=d_max)

    # q^{m+1} drops the left product's top m + 1 degrees, so its factors are
    # built below them
    left = read(max(0, d_max - m - 1), m + 2, -1, +1, True, -1 - m,
                Fraction(-2, n_s) if primed else 0)
    right = read(d_max, m, 0, -1, False, m + 1, 0 if primed else Fraction(2, n_s))
    residual = left.mul_q_power(m + 1).mul_exp_beta(Fraction(m * (m + 1), 2)) - right
    orders = {"m": m, "n_s": n_s, "d_max": d_max, "b_max": b_max}
    notes: dict = {"side": side}
    if m == 0 and n_s == 1 and primed and corruption is None:
        ref = toda_residual(tau)
        half = residual.extract_s(1) * Fraction(1, 2)
        notes["matches_toda_residual"] = (half == ref)
    return _checked(VerificationReport("hirota", orders, residual, notes), corruption,
                    f"hirota {orders} with side {side!r}")


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
                            corruption: Key | None = None) -> VerificationReport:
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
    tau = _tau(d_max, b_max, corruption)
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
            want = simple_hurwitz(g, d)
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
    orders = {"u_max": u_max, "d_max": d_max, "b_max": b_max}
    return _checked(VerificationReport("toda-specialized", orders, residual, notes), corruption)
