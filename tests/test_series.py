import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd

import pytest

from hurwitz_toda.hurwitz import build_tau, schur_in_power_sums
from hurwitz_toda.partitions import enumerate_partitions
from hurwitz_toda.series import (
    ShiftTerm,
    TruncatedSeries,
    ZERO_KEY,
    make_key,
)
from hurwitz_toda.verify import toda_residual, verify_hirota

F = Fraction


def series(d_max, b_max, terms, **aux):
    return TruncatedSeries.from_terms(d_max, b_max, terms=terms, **aux)


def patterns_up_to(n):
    return [p.parts for m in range(n + 1) for p in enumerate_partitions(m)]


def random_dq(rng, mu, nu, d_max):
    """A q-degree at least both weights, as every key must have."""
    return rng.randint(max(sum(mu), sum(nu)), d_max)


def random_series(rng, d_max=3, b_max=2, n_terms=6, constant=None):
    pool = patterns_up_to(d_max)
    coeffs = {}
    for _ in range(n_terms):
        mu, nu = rng.choice(pool), rng.choice(pool)
        key = make_key(dq=random_dq(rng, mu, nu, d_max), b=rng.randint(0, b_max),
                       mu=mu, nu=nu)
        coeffs[key] = F(rng.randint(-4, 4), rng.randint(1, 4))
    if constant is not None:
        coeffs[ZERO_KEY] = F(constant)
    return TruncatedSeries(d_max, b_max, coeffs={k: v for k, v in coeffs.items() if v})


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        s = series(2, 2, [(make_key(dq=1, mu=(1,), nu=(1,)), F(0))])
        assert s.is_zero()

    def test_cap_violation_rejected(self):
        with pytest.raises(ValueError, match="truncation"):
            TruncatedSeries(1, 1, coeffs={make_key(dq=2): F(1)})
        with pytest.raises(ValueError, match="truncation"):
            TruncatedSeries(1, 1, z_max=1, coeffs={make_key(z=-1): F(1)})

    def test_negative_orders_rejected(self):
        for orders, aux in [((-1, 0), {}), ((0, -1), {}), ((0, 0), {"z_max": -1}),
                            ((0, 0), {"s_max": -1})]:
            with pytest.raises(ValueError, match="nonnegative"):
                TruncatedSeries(*orders, **aux)

    def test_weight_above_q_degree_rejected(self):
        keys = [make_key(dq=1, mu=(2,)), make_key(dq=2, nu=(2, 1)), make_key(mu=(1,), z=1),
                make_key(dq=3, b=1, mu=(4,), nu=(1, 1, 1))]
        for key in keys:
            with pytest.raises(ValueError, match="truncation"):
                TruncatedSeries(5, 2, z_max=1, coeffs={key: F(1)})
            with pytest.raises(ValueError, match="truncation"):
                TruncatedSeries.from_terms(5, 2, z_max=1, terms=[(key, F(1, 2))])
            with pytest.raises(ValueError, match="truncation"):
                TruncatedSeries.one(5, 2, z_max=1).with_coefficient(key, F(3))
            # the same patterns at a q-degree that carries them are accepted
            ok = (max(sum(key[2]), sum(key[3])),) + key[1:]
            assert TruncatedSeries(5, 2, z_max=1, coeffs={ok: F(1)}).coefficient(ok) == 1

    def test_floats_refused(self):
        key = make_key(dq=1, mu=(1,), nu=(1,))
        s = TruncatedSeries.one(1, 1, z_max=1, s_max=1)
        entry_points = [
            lambda: TruncatedSeries(1, 1, coeffs={ZERO_KEY: 0.1}),
            lambda: TruncatedSeries.from_terms(1, 1, terms=[(ZERO_KEY, 0.5)]),
            lambda: s.with_coefficient(key, 0.5),
            lambda: s.mul_exp_beta(0.1),
            lambda: s.mul_aux_monomial(0.5, dz=1),
            lambda: ShiftTerm(1.0, z_power=1),
            lambda: s + 0.5, lambda: 0.5 + s,
            lambda: s - 0.5, lambda: 0.5 - s,
            lambda: s * 0.5, lambda: 0.5 * s,
        ]
        for call in entry_points:
            with pytest.raises(TypeError):
                call()

    def test_lowest_terms(self):
        # nonzero numerators over one positive denominator sharing no factor
        rng = random.Random(11)
        tau = build_tau(4, 3)
        results = [tau, tau.log(), tau.scale_q_exp(2), tau.mul_exp_beta(F(5, 6)),
                   tau.d_dp(1), tau * F(6, 5), tau - tau, tau.with_coefficient(ZERO_KEY, F(1, 3))]
        for _ in range(20):
            a, b = random_series(rng), random_series(rng)
            results += [a * b, a + b, a - a * 2]
        for r in results:
            assert r._den > 0 and all(r._nums.values())
            assert gcd(r._den, *r._nums.values()) == 1
        x = series(2, 2, [(make_key(dq=1, mu=(1,), nu=(1,)), F(2, 3))])
        assert (x * 3) * F(1, 3) == x and (x * 3)._den == 1

    def test_make_key_canonicalizes(self):
        assert make_key(mu=(1, 3, 1)) == make_key(mu=(3, 1, 1))
        with pytest.raises(ValueError):
            make_key(mu=(0,))


class TestRingOps:
    def test_mul_by_one(self):
        s = series(2, 2, [(ZERO_KEY, F(1)), (make_key(dq=1, mu=(1,), nu=(1,)), F(1))])
        one = TruncatedSeries.one(2, 2)
        assert s * one == s

    def test_mul_truncates(self):
        x = series(1, 0, [(make_key(dq=1, mu=(1,), nu=(1,)), F(1))])
        assert (x * x).is_zero()

    def test_difference_of_squares(self):
        # x = beta * q * p1 * p1' at caps that keep x^2
        x = series(2, 2, [(make_key(dq=1, b=1, mu=(1,), nu=(1,)), F(1))])
        one = TruncatedSeries.one(2, 2)
        lhs = (one + x) * (one - x)
        assert lhs == one - x * x
        assert lhs.coefficient(make_key(dq=2, b=2, mu=(1, 1), nu=(1, 1))) == -1

    def test_incompatible_orders_rejected(self):
        a = TruncatedSeries.one(2, 2)
        b = TruncatedSeries.one(2, 3)
        with pytest.raises(ValueError, match="incompatible truncation orders"):
            a * b
        with pytest.raises(ValueError, match="incompatible truncation orders"):
            a + b

    def test_scalar_ops(self):
        s = series(2, 2, [(make_key(dq=1, mu=(1,), nu=(1,)), F(2))])
        assert (s * F(1, 2)).coefficient(make_key(dq=1, mu=(1,), nu=(1,))) == 1
        assert (3 * s - s - s - s).is_zero()
        assert (s + 1).constant_term() == 1

    def test_mul_commutative_and_associative_random(self):
        rng = random.Random(20240817)
        for _ in range(100):
            a = random_series(rng)
            b = random_series(rng)
            c = random_series(rng)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_distributive_random(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b, c = (random_series(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c


def in_window(caps, key):
    dq, b, mu, nu, z, s = key
    return (dq <= caps.d_max and b <= caps.b_max
            and sum(mu) <= dq and sum(nu) <= dq
            and z <= caps.z_max and s <= caps.s_max)


def naive_product(a, b):
    """All-pairs Fraction product, truncated at the caps of ``a``."""
    acc = {}
    for (dq1, b1, mu1, nu1, z1, s1), c1 in a.terms():
        for (dq2, b2, mu2, nu2, z2, s2), c2 in b.terms():
            key = (dq1 + dq2, b1 + b2, tuple(sorted(mu1 + mu2, reverse=True)),
                   tuple(sorted(nu1 + nu2, reverse=True)), z1 + z2, s1 + s2)
            if in_window(a, key):
                acc[key] = acc.get(key, F(0)) + c1 * c2
    return TruncatedSeries(a.d_max, a.b_max, z_max=a.z_max, s_max=a.s_max, coeffs=acc)


def naive_power_series(x, coeffs):
    """sum_k coeffs[k] x^k by repeated naive products."""
    power = TruncatedSeries.one(x.d_max, x.b_max, z_max=x.z_max, s_max=x.s_max)
    total = power * coeffs[0]
    for c in coeffs[1:]:
        power = naive_product(power, x)
        total = total + power * c
    return total


def random_aux_series(rng, d_max=3, b_max=3, n_terms=8, z_max=2, s_max=1):
    """Random series with z and s symbols, mixed denominators, both signs."""
    pool = patterns_up_to(d_max)
    coeffs = {}
    for _ in range(n_terms):
        mu, nu = rng.choice(pool), rng.choice(pool)
        key = make_key(dq=random_dq(rng, mu, nu, d_max), b=rng.randint(0, b_max),
                       mu=mu, nu=nu, z=rng.randint(0, z_max), s=rng.randint(0, s_max))
        if key[:4] == ZERO_KEY[:4] and key[5] == 0:
            continue  # no constant or bare z terms, so exp and log apply
        coeffs[key] = F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 7, 9, 12, 25]))
    return TruncatedSeries(d_max, b_max, z_max=z_max, s_max=s_max, coeffs=coeffs)


class TestKernelReference:
    """The integer kernels against naive all-pairs Fraction arithmetic."""

    def test_product_random(self):
        rng = random.Random(31337)
        for _ in range(60):
            a = random_aux_series(rng)
            b = random_aux_series(rng)
            assert a * b == naive_product(a, b)

    def test_schur_square_truncated_by_q_cap(self):
        # q^3 s_21 squared lives at q^6: cut at d_max = 5, kept at 6
        schur = schur_in_power_sums((2, 1)).with_caps(d_max=5)
        square = schur * schur
        assert square == naive_product(schur, schur)
        assert square.is_zero()
        schur = schur.with_caps(d_max=6)
        square = schur * schur
        assert square == naive_product(schur, schur)
        assert not square.is_zero()
        assert all(key[0] == 6 and sum(key[2]) == 6 for key in square.keys())

    def test_product_cancellation(self):
        x = series(4, 1, [(make_key(dq=1, mu=(1,), nu=(1,)), F(1, 3))])
        y = series(4, 1, [(make_key(dq=2, b=1, mu=(2,), nu=(1,)), F(-2, 5))])
        prod = (x + y) * (x - y)
        assert prod == naive_product(x + y, x - y)
        assert prod == x * x - y * y
        assert not (x * y).is_zero()
        cross = make_key(dq=3, b=1, mu=(2, 1), nu=(1, 1))
        assert cross not in set(prod.keys())
        # s * s vanishes at s_max = 1
        s1 = series(1, 1, [(make_key(s=1), F(3, 4))], s_max=1)
        assert (s1 * s1).is_zero()

    def test_product_with_empty_operand(self):
        rng = random.Random(11)
        a = random_aux_series(rng)
        zero = TruncatedSeries(3, 3, z_max=2, s_max=1)
        assert (a * zero).is_zero() and (zero * a).is_zero()
        assert zero.exp() == TruncatedSeries.one(3, 3, z_max=2, s_max=1)
        assert (zero + 1).log().is_zero()

    def test_product_at_wanted_powers(self):
        # every map from the window's z powers to an s limit, absent meaning
        # no s at all, the empty map included, and a z past the window: the
        # product holds the naive one's keys at those (z, s) powers alone
        rng = random.Random(606)
        limits = [{4: 1}, {0: 1, 4: 0}]
        for choice in product((None, 0, 1), repeat=4):
            limits.append({z: lim for z, lim in enumerate(choice) if lim is not None})
        for _ in range(4):
            a, b = (random_aux_series(rng, n_terms=10, z_max=3) for _ in range(2))
            whole = naive_product(a, b)
            assert a.__mul__(b, wanted=None) == a * b == whole
            for wanted in limits:
                want = whole.filtered(lambda key: key[5] <= wanted.get(key[4], -1))
                assert a.__mul__(b, wanted=wanted) == want, wanted

    def test_exp_and_log_random(self):
        rng = random.Random(2718)
        exp_coeffs = [F(1, factorial(k)) for k in range(12)]
        log_coeffs = [F(0)] + [F((-1) ** (k + 1), k) for k in range(1, 12)]
        for _ in range(8):
            x = random_aux_series(rng, d_max=2, b_max=2, n_terms=5, z_max=1)
            # every term has grade dq + b + s >= 1, and the grade is at most 2 + 2 + 1
            assert x.exp() == naive_power_series(x, exp_coeffs)
            assert (x + 1).log() == naive_power_series(x, log_coeffs)


class TestExpLog:
    def test_exp_zero(self):
        z = TruncatedSeries(3, 2)
        assert z.exp() == TruncatedSeries.one(3, 2)

    def test_exp_single_variable(self):
        x = series(4, 0, [(make_key(dq=1, mu=(1,), nu=(1,)), F(1))])
        e = x.exp()
        for k in range(5):
            assert e.coefficient(make_key(dq=k, mu=(1,) * k, nu=(1,) * k)) == F(1, [1, 1, 2, 6, 24][k])

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError, match="zero constant term"):
            TruncatedSeries.one(2, 2).exp()

    def test_log_one(self):
        assert TruncatedSeries.one(3, 2).log().is_zero()

    def test_log_alternating(self):
        x = series(4, 0, [(make_key(dq=1, mu=(1,), nu=(1,)), F(1))])
        l = (TruncatedSeries.one(4, 0) + x).log()
        signs = [0, 1, -F(1, 2), F(1, 3), -F(1, 4)]
        for k in range(1, 5):
            assert l.coefficient(make_key(dq=k, mu=(1,) * k, nu=(1,) * k)) == signs[k]

    def test_log_requires_unit_constant(self):
        with pytest.raises(ValueError, match="constant term 1"):
            TruncatedSeries(2, 2).log()

    def test_bare_z_monomials_rejected(self):
        s = series(1, 1, [(make_key(z=1), F(1))], z_max=1)
        with pytest.raises(ValueError, match="bare z"):
            s.exp()
        with pytest.raises(ValueError, match="bare z"):
            (s + 1).log()

    def test_round_trips_random(self):
        rng = random.Random(99)
        for _ in range(30):
            s = random_series(rng, n_terms=4, constant=0)
            assert s.exp().log() == s
            t = random_series(rng, n_terms=4, constant=1)
            assert t.log().exp() == t

    def test_exp_log_on_generated_series(self):
        tau = build_tau(4, 3)
        assert tau.log().exp() == tau


class TestDerivatives:
    def test_power_rule(self):
        s = series(2, 0, [(make_key(dq=2, mu=(1, 1)), F(1))])
        d = s.d_dp(1)
        assert d.coefficient(make_key(dq=2, mu=(1,))) == 2

    def test_absent_variable(self):
        s = series(2, 0, [(make_key(dq=2, mu=(2,), nu=(1,)), F(1))])
        assert s.d_dp(1).is_zero()

    def test_mixed_partials_commute(self):
        tau = build_tau(3, 2)
        a = tau.d_dp(1).d_dp(1, prime=True)
        b = tau.d_dp(1, prime=True).d_dp(1)
        assert a == b

    def test_against_coefficient_shift_oracle(self):
        tau = build_tau(3, 3)
        for k, prime in [(1, False), (2, False), (1, True), (3, True)]:
            idx = 3 if prime else 2
            expected = {}
            for key, c in tau.terms():
                m = key[idx].count(k)
                if not m:
                    continue
                parts = list(key[idx])
                parts.remove(k)
                nk = key[:idx] + (tuple(parts),) + key[idx + 1:]
                expected[nk] = expected.get(nk, F(0)) + c * m
            got = tau.d_dp(k, prime=prime)
            assert dict(got.terms()) == expected

    def test_index_validated(self):
        with pytest.raises(ValueError):
            TruncatedSeries.one(1, 1).d_dp(0)


class TestScaleQExp:
    def test_n_zero_is_identity(self):
        tau = build_tau(3, 3)
        assert tau.scale_q_exp(0) == tau

    def test_single_monomial(self):
        s = series(1, 2, [(make_key(dq=1, mu=(1,), nu=(1,)), F(1))])
        scaled = s.scale_q_exp(1)
        key = lambda b: make_key(dq=1, b=b, mu=(1,), nu=(1,))
        assert scaled.coefficient(key(0)) == 1
        assert scaled.coefficient(key(1)) == 1
        assert scaled.coefficient(key(2)) == F(1, 2)

    def test_round_trip_exact(self):
        tau = build_tau(4, 4)
        assert tau.scale_q_exp(1).scale_q_exp(-1) == tau
        assert tau.scale_q_exp(2).scale_q_exp(-2) == tau

    def test_ring_homomorphism_random(self):
        rng = random.Random(4242)
        for _ in range(40):
            a = random_series(rng)
            b = random_series(rng)
            assert (a * b).scale_q_exp(1) == a.scale_q_exp(1) * b.scale_q_exp(1)

    def test_mul_exp_beta_is_product_with_exponential(self):
        tau = build_tau(3, 4)
        c = F(-5, 12)
        exponential = series(3, 4, [(make_key(b=j), c ** j / factorial(j)) for j in range(5)])
        assert tau.mul_exp_beta(c) == tau * exponential

    def test_mul_exp_beta_inverse(self):
        tau = build_tau(3, 4)
        assert tau.mul_exp_beta(F(1, 8)).mul_exp_beta(F(-1, 8)) == tau


def square_reference(x):
    return x.scale_q_exp(1) * x.scale_q_exp(-1)


def square_term(x):
    """-q x(e^beta q) x(e^{-beta} q), with the square formed whole below the top degree."""
    if not x.d_max:
        return TruncatedSeries(0, x.b_max)
    square = square_reference(x.with_caps(d_max=x.d_max - 1))
    return -square.with_caps(d_max=x.d_max).mul_q_power(1)


def without_part_one(x, family):
    """x with every key whose pattern ``family`` (2 for mu, 3 for nu) has a part 1 dropped."""
    return x.filtered(lambda key: 1 not in key[family])


class TestBalancedSquare:
    """toda_residual's square term is -q times the balanced square
    f(e^beta q) f(e^{-beta} q).  Where mu (or nu) has no part 1, every pair
    weight (m_B - m_A)(n_B - n_A) vanishes and the square term is all."""

    @pytest.mark.parametrize("d_max, b_max", [(0, 3), (1, 0), (1, 3), (2, 5), (4, 4), (6, 5)])
    def test_tau(self, d_max, b_max):
        tau = build_tau(d_max, b_max)
        for family in (2, 3):
            x = without_part_one(tau, family)
            assert toda_residual(x) == square_term(x)
        if d_max > 1:
            assert not square_term(without_part_one(tau, 2)).is_zero()

    def test_corrupted_tau(self):
        tau = without_part_one(build_tau(5, 5), 2)
        key = make_key(dq=2, b=1, mu=(2,), nu=(1, 1))
        bad = tau.with_coefficient(key, tau.coefficient(key) + 1)
        assert toda_residual(bad) == square_term(bad)
        assert toda_residual(bad) != toda_residual(tau)

    def test_random(self):
        # both beta parities in one (mu, nu) row, mu != nu, rational coefficients
        rng = random.Random(1212)
        for _ in range(30):
            x = random_series(rng, d_max=rng.randint(0, 5), b_max=rng.randint(0, 6),
                              n_terms=10, constant=rng.choice([None, 0, F(-3, 2)]))
            x = without_part_one(x, rng.choice([2, 3]))
            assert toda_residual(x) == square_term(x)

    def test_random_with_aux_symbols(self):
        # the residual is taken of tau and its restrictions only: z and s are refused
        rng = random.Random(4343)
        for _ in range(10):
            x = random_aux_series(rng, d_max=4, b_max=rng.randint(0, 5), n_terms=12,
                                  z_max=rng.randint(0, 3))
            with pytest.raises(ValueError, match="no z or s"):
                toda_residual(x)
        for aux in ({"z_max": 1}, {"s_max": 1}):
            with pytest.raises(ValueError, match="no z or s"):
                toda_residual(TruncatedSeries.one(3, 3, **aux))

    def test_single_pair(self):
        # q p1 p'1 + q^2 p2 p'2: the first row's own square weighted 1, the
        # cross pair's square 2 cosh(beta), and its pair weight (0 - 1)(0 - 1)
        x = series(4, 4, [(make_key(dq=1, mu=(1,), nu=(1,)), F(1)),
                          (make_key(dq=2, mu=(2,), nu=(2,)), F(1))])
        got = toda_residual(x)
        assert got.coefficient(make_key(dq=3, mu=(1, 1), nu=(1, 1))) == -1
        assert got.coefficient(make_key(dq=3, mu=(2,), nu=(2,))) == 1
        for b in range(5):
            want = F(-2, factorial(b)) if b % 2 == 0 else 0
            assert got.coefficient(make_key(dq=4, b=b, mu=(2, 1), nu=(2, 1))) == want
        assert len(got) == 5

    def test_multiplies_only_half_the_block_pairs(self, monkeypatch):
        # each unordered pair of rows is multiplied once, and only when it
        # feeds a term: a square below the top degree or a nonzero pair weight
        import hurwitz_toda.series as series_module
        kernel = series_module._pair_product
        convolved = []

        def recorded(bv1, bv2, *targets):
            convolved.append(frozenset((id(bv1), id(bv2))))
            return kernel(bv1, bv2, *targets)

        monkeypatch.setattr(series_module, "_pair_product", recorded)
        d_max = 6
        tau = build_tau(d_max, 3)
        toda_residual(tau)
        rows = sorted({key[0:1] + key[2:4] for key in tau.keys()})
        feeds = [(a, b) for i, a in enumerate(rows) for b in rows[i:]
                 if a[0] + b[0] < d_max
                 or a[0] + b[0] == d_max and (a[1].count(1) - b[1].count(1))
                 * (a[2].count(1) - b[2].count(1))]
        assert len(convolved) == len(set(convolved)) == len(feeds)


class TestShifts:
    def test_zero_shift_is_identity(self):
        tau = build_tau(3, 2)
        assert tau.shift_p([]) == tau

    def test_binomial_expansion(self):
        s = series(2, 0, [(make_key(dq=2, mu=(1, 1)), F(1))], z_max=2)
        shifted = s.shift_p([(1, False, [ShiftTerm(F(1), z_power=1)])])
        assert shifted.coefficient(make_key(dq=2, mu=(1, 1))) == 1
        assert shifted.coefficient(make_key(dq=2, mu=(1,), z=1)) == 2
        assert shifted.coefficient(make_key(dq=2, z=2)) == 1
        assert len(shifted) == 3

    def test_z_linear_term_matches_derivative(self):
        # shifting every p_k by -z^k: the z^1 coefficient is -d/dp1
        tau = build_tau(3, 2).with_caps(z_max=3)
        shifts = [(k, False, [ShiftTerm(F(-1), z_power=k)]) for k in range(1, 4)]
        shifted = tau.shift_p(shifts)
        got = shifted.extract_z(1)
        want = -tau.with_caps(z_max=0).d_dp(1)
        assert got == want

    def test_first_order_cap_respected(self):
        s = series(2, 0, [(make_key(dq=2, mu=(1, 1)), F(1))], s_max=1)
        shifted = s.shift_p([(1, False, [ShiftTerm(F(1), s_degree=1)])])
        # the s^2 part of (p1 + s)^2 is pruned by the cap
        assert shifted.coefficient(make_key(dq=2, mu=(1,), s=1)) == 2
        assert all(key[5] <= 1 for key, _ in shifted.terms())

    def test_terms_past_the_windows_dropped(self):
        # z^2 and s cannot fit at z_max = 1, s_max = 0: nothing is shifted
        x = build_tau(3, 2).with_caps(z_max=1)
        shifts = [(1, False, [ShiftTerm(3, z_power=2), ShiftTerm(-1, s_degree=1)]),
                  (2, True, [ShiftTerm(1, z_power=1, s_degree=1)])]
        assert x.shift_p(shifts) is x
        # with fitting terms among them, the result is the one at wider
        # windows cut back
        rng = random.Random(77)
        for _ in range(30):
            x = random_aux_series(rng, d_max=4, b_max=2, n_terms=10, z_max=rng.randint(0, 2),
                                  s_max=rng.randint(0, 1))
            shifts = random_shifts(rng, 4)
            wide = x.with_caps(z_max=4, s_max=1).shift_p(shifts)
            assert x.shift_p(shifts) == wide.with_caps(z_max=x.z_max, s_max=x.s_max)

    def test_unsupported_order_rejected(self):
        s = TruncatedSeries.one(1, 1)
        with pytest.raises(ValueError, match="unsupported shift order"):
            s.shift_p([(1, False, [ShiftTerm(F(1), s_degree=2)])])

    def test_integer_coefficients_only(self):
        assert ShiftTerm(F(-2, 1)).coeff == -2 and type(ShiftTerm(F(2)).coeff) is int
        with pytest.raises(ValueError, match="not an integer"):
            ShiftTerm(F(1, 2), z_power=1)

    def test_negative_z_power_rejected(self):
        # expansions stop at the top of the z window, which needs z powers >= 0
        assert ShiftTerm(1, z_power=0).z_power == 0
        with pytest.raises(ValueError, match="z power -1 is negative"):
            ShiftTerm(1, z_power=-1)

    def test_duplicate_shift_rejected(self):
        s = TruncatedSeries.one(1, 1)
        with pytest.raises(ValueError, match="duplicate"):
            s.shift_p([
                (1, False, [ShiftTerm(F(1))]),
                (1, False, [ShiftTerm(F(2))]),
            ])


def reference_power_expansions(e, terms):
    """(p + t_1 + ... + t_r)^e as (kept power, factor, dz, ds), every term formed."""
    def rec(idx, rem, factor, dz, ds):
        if idx == len(terms):
            yield (rem, factor, dz, ds)
            return
        t = terms[idx]
        cpow = 1
        for a in range(rem + 1):
            if a:
                cpow *= t.coeff
            yield from rec(idx + 1, rem - a, factor * comb(rem, a) * cpow,
                           dz + a * t.z_power, ds + a * t.s_degree)

    yield from rec(0, e, 1, 0, 0)


def shift_reference(x, shifts):
    """``shift_p`` expanding every key on its own and every power in full.

    The windows are applied only to the finished monomials; nothing is
    shared between keys and nothing is pruned early.
    """
    smap = {}
    for k, prime, terms in shifts:
        smap[(bool(prime), int(k))] = tuple(terms)
    acc = {}
    for key, c0 in x.terms():
        dq, b, mu, nu, z0, s0 = key
        # options: (coeff multiplier, kept mu parts, kept nu parts, dz, ds)
        options = [(c0, [], [], 0, 0)]
        for prime, pattern in ((False, mu), (True, nu)):
            counts = {}
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
                    for a0, factor, tdz, tds in reference_power_expansions(e, terms):
                        nm = km if prime else km + [k] * a0
                        nn = kn + [k] * a0 if prime else kn
                        newopts.append((c * factor, list(nm), list(nn), dz + tdz, ds + tds))
                options = newopts
        for c, km, kn, dz, ds in options:
            if c == 0:
                continue
            z, s = z0 + dz, s0 + ds
            if not (z <= x.z_max and s <= x.s_max):
                continue
            newkey = (dq, b, tuple(sorted(km, reverse=True)),
                      tuple(sorted(kn, reverse=True)), z, s)
            acc[newkey] = acc.get(newkey, 0) + c
    return TruncatedSeries(x.d_max, x.b_max, z_max=x.z_max, s_max=x.s_max, coeffs=acc)


def random_shifts(rng, max_part):
    """Shifts of a few variables, each by several terms with small coefficients."""
    variables = rng.sample([(k, prime) for k in range(1, max_part + 1)
                            for prime in (False, True)], rng.randint(1, 4))
    return [(k, prime, [ShiftTerm(rng.choice([0, 1, -1, 2, -2]), z_power=rng.randint(0, 2),
                                  s_degree=rng.randint(0, 1))
                        for _ in range(rng.randint(1, 3))])
            for k, prime in variables]


class TestShiftReference:
    """``shift_p`` against the full expansion of every key."""

    def check(self, x, shifts):
        got = x.shift_p(shifts)
        assert got.terms() == shift_reference(x, shifts).terms()
        return got

    def test_random_with_aux_symbols(self):
        rng = random.Random(4242)
        for _ in range(60):
            x = random_aux_series(rng, d_max=4, b_max=2, n_terms=10, z_max=rng.randint(0, 3))
            assert any(key[4] or key[5] for key in x.keys())
            self.check(x, random_shifts(rng, 4))

    def test_several_terms_per_variable(self):
        x = series(4, 1, [(make_key(dq=4, mu=(1, 1, 1), nu=(2, 1), z=1), F(1, 3)),
                          (make_key(dq=3, b=1, mu=(2, 1), nu=(1, 1, 1)), F(-2)),
                          (make_key(dq=4, mu=(1, 1, 1, 1), s=1), F(5, 7))],
                   z_max=4, s_max=1)
        terms = [ShiftTerm(c, z_power=zp, s_degree=sd)
                 for c in (0, 1, -1, 2, -2) for zp in (0, 1, 3) for sd in (0, 1)]
        for i in range(0, len(terms), 3):
            chunk = terms[i:i + 5]
            got = self.check(x, [(1, False, chunk), (1, True, chunk[::-1]),
                                 (2, True, chunk[1:])])
            assert not got.is_zero()

    def test_absent_variable(self):
        x = build_tau(3, 2).with_caps(z_max=2, s_max=1)
        shifts = [(5, False, [ShiftTerm(1, z_power=1)]), (4, True, [ShiftTerm(-2, s_degree=1)])]
        assert self.check(x, shifts) == x

    @pytest.mark.parametrize("m", [-1, 0, 1])
    @pytest.mark.parametrize("n_s", [1, 2, 3])
    @pytest.mark.parametrize("side", ["p", "pprime"])
    def test_hirota_factors(self, monkeypatch, m, n_s, side):
        calls = []
        shift_p = TruncatedSeries.shift_p

        def recorded(x, shifts):
            shifts = [(k, prime, list(terms)) for k, prime, terms in shifts]
            calls.append((x, shifts))
            return shift_p(x, shifts)

        monkeypatch.setattr(TruncatedSeries, "shift_p", recorded)
        assert verify_hirota(m, n_s, 5, 5, side=side).passed
        monkeypatch.undo()
        # the left side reads z^{-1-m}, and z^{n_s-1-m} too on side pprime:
        # with every power read negative its factors are never built
        left_skipped = (m >= 0 and side == "p") or (m, n_s, side) == (1, 1, "pprime")
        assert len(calls) == (2 if left_skipped else 4)
        for x, shifts in calls:
            self.check(x, shifts)


class TestAuxOps:
    def test_mul_aux_monomial(self):
        s = TruncatedSeries.one(1, 1, z_max=2, s_max=1)
        t = s.mul_aux_monomial(F(3), dz=2, ds=1)
        assert t.coefficient(make_key(z=2, s=1)) == 3 and len(t) == 1
        # pruned at the top of the windows
        assert t.mul_aux_monomial(F(1), dz=1).is_zero()
        assert t.mul_aux_monomial(F(1), ds=1).is_zero()

    def test_negative_z_power_rejected(self):
        s = TruncatedSeries.one(1, 1, z_max=2, s_max=1)
        with pytest.raises(ValueError, match="negative z powers"):
            s.mul_aux_monomial(F(1), dz=-1)

    def test_extract_z(self):
        s = series(1, 0, [
            (make_key(z=1), F(2)),
            (make_key(z=0), F(5)),
        ], z_max=1)
        assert s.extract_z(1).coefficient(ZERO_KEY) == 2
        assert s.extract_z(0).coefficient(ZERO_KEY) == 5
        assert s.extract_z(-1).is_zero()

    def test_extract_s(self):
        s = series(1, 0, [(make_key(s=1), F(7)), (ZERO_KEY, F(1))], s_max=1)
        assert s.extract_s(1).coefficient(ZERO_KEY) == 7
        assert s.extract_s(0).coefficient(ZERO_KEY) == 1

    def test_truncate_parts(self):
        tau = build_tau(3, 1)
        pure = tau.truncate_parts(1)
        for key, _ in pure.terms():
            assert all(p == 1 for p in key[2]) and all(p == 1 for p in key[3])
        assert pure.coefficient(make_key(dq=1, mu=(1,), nu=(1,))) == 1

    def test_with_coefficient(self):
        s = TruncatedSeries.one(1, 1)
        t = s.with_coefficient(make_key(dq=1, mu=(1,), nu=(1,)), F(9))
        assert t.coefficient(make_key(dq=1, mu=(1,), nu=(1,))) == 9
        assert s.coefficient(make_key(dq=1, mu=(1,), nu=(1,))) == 0

    def test_with_caps(self):
        rng = random.Random(8)
        for _ in range(20):
            x = random_aux_series(rng, d_max=4, b_max=3, n_terms=12, z_max=2)
            caps = [rng.randint(0, 5), rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 1)]
            got = x.with_caps(*caps)
            want = TruncatedSeries(*caps[:2], z_max=caps[2], s_max=caps[3],
                                   coeffs={k: v for k, v in x.terms() if in_window(got, k)})
            assert got == want
            # raising caps keeps every term, without copying them
            raised = x.with_caps(d_max=5, z_max=3)
            assert raised.terms() == x.terms() and raised._nums is x._nums


class TestInspection:
    def test_first_key_deterministic(self):
        s = series(2, 1, [
            (make_key(dq=2, mu=(2,), nu=(1, 1)), F(1)),
            (make_key(dq=1, b=1, mu=(1,), nu=(1,)), F(1)),
        ])
        assert s.first_key() == make_key(dq=1, b=1, mu=(1,), nu=(1,))
        assert TruncatedSeries(1, 1).first_key() is None

    def test_json_schema_and_order(self):
        s = series(1, 1, [
            (make_key(dq=1, b=1, mu=(1,), nu=(1,)), F(-1, 2)),
            (ZERO_KEY, F(1)),
        ])
        obj = s.to_json_obj()
        assert obj[0] == {
            "dq": 0, "b": 0, "mu": [], "nu": [], "aux": {"z": 0, "s": 0},
            "numerator": 1, "denominator": 1,
        }
        assert obj[1]["numerator"] == -1 and obj[1]["denominator"] == 2

    def test_all_coefficients_exact(self):
        tau = build_tau(3, 3)
        assert all(isinstance(v, Fraction) for _, v in tau.terms())
