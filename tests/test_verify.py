import random
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from math import factorial

import pytest

import hurwitz_toda.verify as verify_module
from hurwitz_toda.hurwitz import build_tau
from hurwitz_toda.partitions import enumerate_partitions
from hurwitz_toda.series import ShiftTerm, TruncatedSeries, _flat, _grouped, make_key
from hurwitz_toda.verify import (
    toda_residual,
    verify_hirota,
    verify_tau_n,
    verify_toda,
    verify_toda_specialized,
)

F = Fraction

CORRUPTIONS = [
    make_key(dq=1, mu=(1,), nu=(1,)),
    make_key(dq=2, mu=(2,), nu=(2,)),
    make_key(dq=2, b=1, mu=(2,), nu=(1, 1)),
    make_key(dq=3, b=2, mu=(1, 1, 1), nu=(3,)),
]


class TestToda:
    def test_lowest_orders(self):
        assert verify_toda(1, 1).passed

    def test_moderate_orders(self):
        report = verify_toda(5, 6)
        assert report.passed
        assert report.first_failure is None
        assert report.orders == {"d_max": 5, "b_max": 6}

    @pytest.mark.parametrize("key", CORRUPTIONS)
    def test_single_coefficient_corruption_fails(self, key):
        report = verify_toda(4, 4, corruption=key)
        assert not report.passed
        assert report.first_failure is not None

    def test_pass_iff_residual_empty(self):
        good = verify_toda(3, 3)
        assert good.passed == good.residual.is_zero()
        bad = verify_toda(3, 3, corruption=CORRUPTIONS[0])
        assert bad.passed == bad.residual.is_zero()
        assert not bad.passed

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            verify_toda(0, 2)


def reference_toda_residual(tau):
    """The lowest equation's residual with the scaled product formed whole."""
    d1 = tau.d_dp(1)
    d1p = tau.d_dp(1, prime=True)
    mixed = d1.d_dp(1, prime=True)
    scaled = (tau.scale_q_exp(2) * tau).scale_q_exp(-1).mul_q_power(1)
    return tau * mixed - d1 * d1p - scaled


def reference_tau_n_residual(tau, n):
    """verify_tau_n's residual with T_{n+1} T_{n-1} multiplied out whole."""
    def shift(series, k):
        return series.scale_q_exp(k).mul_exp_beta(F(k * (4 * k * k - 1), 24))

    t_n = shift(tau, n)
    d1 = t_n.d_dp(1)
    lattice = (t_n * d1.d_dp(1, prime=True) - d1 * t_n.d_dp(1, prime=True)
               - (shift(tau, n + 1) * shift(tau, n - 1)).mul_q_power(1))
    return shift(t_n, -n) - tau + lattice


def corrupted(tau, key):
    return tau.with_coefficient(key, tau.coefficient(key) + 1)


def random_rows(rng, d_max, b_max, n_rows):
    """A random series whose mu and nu carry 0-3 parts 1 each, with rational
    coefficients, both beta parities in most rows and sometimes a constant."""
    def pattern(room):
        ones = rng.randint(0, min(3, room))
        rest = [p.parts for m in range(room - ones + 1) for p in enumerate_partitions(m)
                if 1 not in p.parts]
        return rng.choice(rest) + (1,) * ones

    coeffs = {}
    for _ in range(n_rows):
        dq = rng.randint(0, d_max)
        mu, nu, b = pattern(dq), pattern(dq), rng.randint(0, b_max)
        for bb in range(b, min(b + rng.randint(1, 2), b_max + 1)):
            coeffs[make_key(dq=dq, b=bb, mu=mu, nu=nu)] = F(rng.randint(-5, 5), rng.randint(1, 6))
    if rng.random() < 0.5:
        coeffs[make_key()] = F(rng.randint(-3, 3), rng.randint(1, 3))
    return TruncatedSeries(d_max, b_max, coeffs=coeffs)


class TestAgainstWholeProducts:
    """The residuals equal those with the scaled products formed whole."""

    @pytest.mark.parametrize("d_max", range(6))
    def test_toda_random_series(self, d_max):
        rng = random.Random(600 + d_max)
        for _ in range(12):
            x = random_rows(rng, d_max, rng.randint(0, 5), rng.randint(1, 12))
            assert toda_residual(x) == reference_toda_residual(x)

    def test_toda_every_key_at_four(self):
        # a key whose corrupted residual is zero is refused, any other checked
        tau = build_tau(4, 4)
        assert toda_residual(tau) == reference_toda_residual(tau)
        refused = 0
        for key in tau.keys():
            want = reference_toda_residual(corrupted(tau, key))
            if want.is_zero():
                refused += 1
                with pytest.raises(ValueError, match="zero residual"):
                    verify_toda(4, 4, corruption=key)
            else:
                assert verify_toda(4, 4, corruption=key).residual == want
        assert 0 < refused < len(tau)

    def test_toda_sampled_keys_at_eight(self):
        tau = build_tau(8, 8)
        assert toda_residual(tau) == reference_toda_residual(tau)
        for key in random.Random(8).sample(sorted(tau.keys()), 4):
            bad = corrupted(tau, key)
            assert toda_residual(bad) == reference_toda_residual(bad)

    @pytest.mark.parametrize("n", [-3, -2, -1, 0, 1, 2, 3])
    def test_tau_n(self, n):
        tau = build_tau(5, 5)
        assert verify_tau_n(n, 5, 5).residual == reference_tau_n_residual(tau, n)
        for key in random.Random(n).sample(sorted(tau.keys()), 3):
            want = reference_tau_n_residual(corrupted(tau, key), n)
            if want.is_zero():
                with pytest.raises(ValueError, match="zero residual"):
                    verify_tau_n(n, 5, 5, corruption=key)
            else:
                assert verify_tau_n(n, 5, 5, corruption=key).residual == want


def reference_toda_pairs(f):
    """toda_residual from pairs of rows with tuple-keyed targets: each pair's
    product formed as a dense beta-vector, then scanned into both targets."""
    d_max, b_max, top = f.d_max, f.b_max, factorial(f.b_max)
    groups = sorted(((dq, mu, mu.count(1), [(nu, nu.count(1), bv) for nu, bv in rows])
                     for (dq, _, _), by_mu in _grouped(f._nums) for mu, rows in by_mu),
                    key=lambda group: group[0])
    sums = [defaultdict(lambda: [0] * (b_max + 1)) for _ in range(d_max + 1)]
    merged = {}
    for i, (da, mu1, m1, rows1) in enumerate(groups):
        for g, (db, mu2, m2, rows2) in enumerate(groups[i:]):
            dq = da + db
            if dq > d_max:
                break
            top_degree, square = dq == d_max, sums[db - da]
            if top_degree and m1 == m2:
                continue
            mu = merged.get((mu1, mu2))
            if mu is None:
                mu = merged[(mu1, mu2)] = tuple(sorted(mu1 + mu2, reverse=True))
            for r, (nu1, n1, bv1) in enumerate(rows1):
                for nu2, n2, bv2 in rows2 if g else rows2[r:]:
                    weight = (m2 - m1) * (n2 - n1)
                    if top_degree and not weight:
                        continue
                    nu = merged.get((nu1, nu2))
                    if nu is None:
                        nu = merged[(nu1, nu2)] = tuple(sorted(nu1 + nu2, reverse=True))
                    vec = [0] * (b_max + 1)
                    for b1, x in bv1:
                        for b2, y in bv2:
                            if b1 + b2 <= b_max:
                                vec[b1 + b2] += x * y
                    if weight:
                        target = sums[0][(dq, mu[:-1], nu[:-1], 0, 0)]
                        for b, x in enumerate(vec):
                            target[b] -= weight * x
                    if not top_degree:
                        k = 1 if bv1 is bv2 else 2
                        target = square[(dq + 1, mu, nu, 0, 0)]
                        for b, x in enumerate(vec):
                            target[b] += k * x
    out = defaultdict(lambda: [0] * (b_max + 1))
    for c, acc in enumerate(sums):
        weights = [c ** j * (top // factorial(j)) for j in range(0, b_max + 1 if c else 1, 2)]
        for gkey, vec in acc.items():
            target = out[gkey]
            for b, x in enumerate(vec):
                for j, w in zip(range(b, b_max + 1, 2), weights):
                    target[j] -= x * w
    return f._same_caps(dict(_flat(out)), f._den * f._den * top)


def mirrored(f):
    """f with mu and nu swapped in every key."""
    return f._same_caps({(dq, b, nu, mu, z, s): x
                         for (dq, b, mu, nu, z, s), x in f._nums.items()}, f._den)


class TestPairKernelReference:
    """The pair kernel with integer pattern ids, targets filled in place,
    the symmetric half and degree streaming, against the same sums over
    tuple-keyed targets and dense pair products."""

    def test_tau_at_ten(self):
        tau = build_tau(10, 10)
        assert toda_residual(tau) == reference_toda_pairs(tau)
        for key in random.Random(1010).sample(sorted(tau.keys()), 3):
            bad = corrupted(tau, key)
            assert toda_residual(bad) == reference_toda_pairs(bad)

    @pytest.mark.parametrize("key, symmetric", [
        (make_key(dq=2, mu=(1, 1), nu=(1, 1)), True),
        (make_key(dq=3, b=2, mu=(2, 1), nu=(2, 1)), True),
        (make_key(dq=3, b=1, mu=(2, 1), nu=(3,)), False),
        (make_key(dq=3, mu=(1, 1, 1), nu=(2, 1)), False),
    ])
    def test_corruptions_at_ten(self, key, symmetric):
        # a corruption on the diagonal keeps tau its own mirror, one off it
        # does not and takes the full kernel
        bad = corrupted(build_tau(10, 10), key)
        assert (bad == mirrored(bad)) == symmetric
        residual = toda_residual(bad)
        assert not residual.is_zero()
        assert residual == reference_toda_pairs(bad)

    @pytest.mark.parametrize("d_max", range(8))
    def test_random_series(self, d_max):
        # negative and rational coefficients, both beta parities in one row
        rng = random.Random(2300 + d_max)
        for _ in range(12):
            x = random_rows(rng, d_max, rng.randint(0, 6), rng.randint(1, 20))
            assert toda_residual(x) == reference_toda_pairs(x)

    @pytest.mark.parametrize("d_max", range(8))
    def test_symmetrized_random_series(self, d_max):
        # the same draws as test_random_series, each with its mirror added
        rng = random.Random(2300 + d_max)
        for _ in range(12):
            x = random_rows(rng, d_max, rng.randint(0, 6), rng.randint(1, 20))
            x += mirrored(x)
            assert x == mirrored(x)
            assert toda_residual(x) == reference_toda_pairs(x)

    def test_merging_a_pattern_is_strictly_increasing(self):
        # the kernel's prefix of kept partners rests on this, over tuple order
        patterns = sorted(p.parts for p in enumerate_partitions(8))
        for fixed in patterns:
            merged = [tuple(sorted(p + fixed, reverse=True)) for p in patterns]
            assert all(a < b for a, b in zip(merged, merged[1:])), fixed

    def test_traced_peak_at_ten(self):
        # targets are held one degree at a time, on the symmetric half
        tau = build_tau(10, 10)
        peaks = []
        for kernel in (toda_residual, reference_toda_pairs):
            tracemalloc.start()
            try:
                kernel(tau)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.6 * peaks[1], peaks


class TestTauN:
    @pytest.mark.parametrize("n", [-3, -1, 0, 1, 2, 3])
    def test_round_trip(self, n):
        report = verify_tau_n(n, 4, 5)
        assert report.passed

    @pytest.mark.parametrize("n", [-1, 0, 2])
    @pytest.mark.parametrize("key", CORRUPTIONS)
    def test_corruption_fails(self, n, key):
        # the round trip alone is the identity on any series; the lattice
        # equation at site n is what sees tau's content
        report = verify_tau_n(n, 4, 4, corruption=key)
        assert not report.passed and report.first_failure is not None

    def test_identity_at_zero(self):
        report = verify_tau_n(0, 3, 3)
        assert report.passed

    def test_prefactor_exponent_at_one(self):
        report = verify_tau_n(1, 2, 2)
        assert report.notes["prefactor_beta_exponent"] == F(1, 8)

    def test_scope(self):
        with pytest.raises(ValueError):
            verify_tau_n(4, 2, 2)
        with pytest.raises(ValueError, match="d_max must be at least 1"):
            verify_tau_n(1, 0, 2)


HIROTA_CASES = [(m, n_s, side) for m in (-1, 0, 1) for n_s in (1, 2, 3)
                for side in ("p", "pprime")]

# These four equations hold for every series, not only for tau (checked on a
# random series below), so no corruption of tau can make them fail, and
# verify_hirota refuses to run them corrupted.
IDENTITIES_OF_EVERY_SERIES = {(-1, 1, "p"), (-1, 1, "pprime"), (0, 1, "p"), (0, 2, "p")}


class TestHirota:
    @pytest.mark.parametrize("m, n_s, side", HIROTA_CASES)
    def test_residual_zero_at_five(self, m, n_s, side):
        report = verify_hirota(m, n_s, 5, 5, side=side)
        assert report.passed, report.first_failure

    @pytest.mark.parametrize("m, n_s, side", HIROTA_CASES)
    def test_corruption_at_five(self, m, n_s, side):
        if (m, n_s, side) in IDENTITIES_OF_EVERY_SERIES:
            for key in CORRUPTIONS:
                with pytest.raises(ValueError, match="holds for every series"):
                    verify_hirota(m, n_s, 5, 5, side=side, corruption=key)
        else:
            report = verify_hirota(m, n_s, 5, 5, side=side, corruption=CORRUPTIONS[0])
            assert not report.passed and report.first_failure is not None

    def test_identities_of_every_series(self, monkeypatch):
        # a random series with constant term 1 passes exactly these four
        rng = random.Random(5)
        coeffs = {make_key(): F(1)}
        for _ in range(12):
            d = rng.randint(1, 4)
            mu = rng.choice([(d,), (1,) * d, (1,)])
            nu = rng.choice([(d,), (1,) * d, ()])
            coeffs[make_key(dq=d, b=rng.randint(0, 3), mu=mu, nu=nu)] = F(rng.randint(1, 9), 7)
        series = TruncatedSeries(4, 3, coeffs=coeffs)
        monkeypatch.setattr(verify_module, "build_tau", lambda d_max, b_max, cache=None: series)
        passed = {case for case in HIROTA_CASES
                  if verify_hirota(case[0], case[1], 4, 3, side=case[2]).passed}
        assert passed == IDENTITIES_OF_EVERY_SERIES == verify_module.IDENTITIES_OF_EVERY_SERIES

    @pytest.mark.parametrize("m", [-1, 0, 1])
    @pytest.mark.parametrize("n_s", [1, 2])
    @pytest.mark.parametrize("side", ["p", "pprime"])
    def test_residual_zero(self, m, n_s, side):
        report = verify_hirota(m, n_s, 3, 3, side=side)
        assert report.passed, report.first_failure

    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_smallest_box(self, m):
        # at m = 1 the left product's cap d_max - m - 1 would be negative
        for side in ("p", "pprime"):
            assert verify_hirota(m, 3, 1, 1, side=side).passed

    def test_third_perturbation_index(self):
        assert verify_hirota(0, 3, 3, 3).passed

    def test_toda_reduction(self):
        report = verify_hirota(0, 1, 4, 4)
        assert report.passed
        assert report.notes["matches_toda_residual"] is True

    def test_scope_errors(self):
        with pytest.raises(ValueError, match="restricted Hirota scope"):
            verify_hirota(2, 1, 3, 3)
        with pytest.raises(ValueError, match="restricted Hirota scope"):
            verify_hirota(0, 4, 3, 3)
        with pytest.raises(ValueError):
            verify_hirota(0, 1, 3, 3, side="q")
        with pytest.raises(ValueError, match="d_max must be at least 1"):
            verify_hirota(0, 1, 0, 3)

    @pytest.mark.parametrize("key", CORRUPTIONS[:2])
    def test_corruption_fails_with_monomial(self, key):
        report = verify_hirota(0, 1, 3, 3, corruption=key)
        assert not report.passed
        assert report.first_failure is not None

    def test_degenerate_unperturbed_part_consistent(self):
        # the perturbation-free component of the residual is zero on its own
        report = verify_hirota(0, 1, 3, 3)
        assert report.residual.extract_s(0).is_zero()
        report = verify_hirota(-1, 1, 3, 3)
        assert report.residual.extract_s(0).is_zero()


# (m, n_s, side) whose corrupted residual is zero with CORRUPTIONS[0], the
# key of the CLI's --corrupt-test, so verify_hirota refuses their control.
# At d_max = 1 only the Toda reduction (0, 1, pprime) sees the corruption.
DEGREE_ONE_REFUSALS = set(HIROTA_CASES) - IDENTITIES_OF_EVERY_SERIES - {(0, 1, "pprime")}
ZERO_RESIDUAL_REFUSALS = {
    (1, 0): DEGREE_ONE_REFUSALS,
    (1, 1): DEGREE_ONE_REFUSALS,
    (2, 2): {(-1, 3, "p"), (-1, 3, "pprime"), (0, 3, "p"), (0, 3, "pprime")},
    (3, 3): {(0, 3, "p")},
    (4, 4): set(),
    (5, 5): set(),
}


class TestVacuousControls:
    @pytest.mark.parametrize("orders", list(ZERO_RESIDUAL_REFUSALS))
    def test_zero_residual_refused(self, orders):
        d_max, b_max = orders
        refused = set()
        for m, n_s, side in set(HIROTA_CASES) - IDENTITIES_OF_EVERY_SERIES:
            try:
                report = verify_hirota(m, n_s, d_max, b_max, side=side,
                                       corruption=CORRUPTIONS[0])
            except ValueError as exc:
                assert "zero residual" in str(exc)
                assert f"'d_max': {d_max}, 'b_max': {b_max}" in str(exc)
                refused.add((m, n_s, side))
            else:
                assert not report.passed
        assert len(DEGREE_ONE_REFUSALS) == 13
        assert refused == ZERO_RESIDUAL_REFUSALS[orders]


class TestZeroResidualRefused:
    """Every verifier refuses a corruption its residual cannot see, with one
    message: the check's identity and orders, then the same tail."""

    TAIL = " leaves a corrupted tau a zero residual, so its negative control cannot fail"
    # p_2 p'_2 q^2: the lowest equation's residual at (2, 2) does not see it,
    # and the specialization drops every part above one
    UNSEEN = make_key(dq=2, mu=(2,), nu=(2,))

    def refusal(self, verifier, *args, **kwargs):
        with pytest.raises(ValueError) as exc:
            verifier(*args, **kwargs)
        return str(exc.value)

    def test_toda(self):
        assert self.refusal(verify_toda, 2, 2, corruption=self.UNSEEN) == (
            "toda {'d_max': 2, 'b_max': 2}" + self.TAIL)
        assert verify_toda(2, 2).passed

    def test_tau_n(self):
        assert self.refusal(verify_tau_n, 1, 2, 2, corruption=self.UNSEEN) == (
            "tau-n {'n': 1, 'd_max': 2, 'b_max': 2}" + self.TAIL)

    def test_hirota(self):
        # Hirota's label names its side too
        assert self.refusal(verify_hirota, 1, 1, 1, 1, side="p", corruption=CORRUPTIONS[0]) == (
            "hirota {'m': 1, 'n_s': 1, 'd_max': 1, 'b_max': 1} with side 'p'" + self.TAIL)

    def test_toda_specialized(self):
        unseen = make_key(dq=3, b=2, mu=(2, 1), nu=(3,))
        assert self.refusal(verify_toda_specialized, 3, corruption=unseen) == (
            "toda-specialized {'u_max': 3, 'd_max': 3, 'b_max': 4}" + self.TAIL)
        assert not verify_toda_specialized(3, corruption=CORRUPTIONS[0]).passed


def reference_hirota(tau, m, n_s, side):
    """verify_hirota's residual with both products built whole.

    Each side multiplies its two shifted factors over its own z window and
    extracts from the product, prefactor included; the left side is formed
    even where every z power it reads is negative.
    """
    primed = side == "pprime"
    d_max = tau.d_max
    lhs_zmax = max(0, (n_s if primed else 0) - 1 - m)
    rhs_zmax = m + 1 + (n_s if not primed else 0)

    def build(dmax, zmax, scale, s_sign, zv_sign, zv_prime):
        shifts = {(zv_prime, k): [ShiftTerm(zv_sign, z_power=k)] for k in range(1, dmax + 1)}
        shifts.setdefault((primed, n_s), []).append(ShiftTerm(s_sign, s_degree=1))
        lifted = tau.with_caps(d_max=dmax, z_max=zmax, s_max=1)
        return lifted.scale_q_exp(scale).shift_p([(k, p, t) for (p, k), t in shifts.items()])

    lhs_dmax = max(0, d_max - m - 1)
    lhs = (build(lhs_dmax, lhs_zmax, m + 2, +1, +1, True)
           * build(lhs_dmax, lhs_zmax, 0, -1, -1, True))
    lhs = lhs.scale_q_exp(-1).with_caps(d_max=d_max)
    rhs = build(d_max, rhs_zmax, m, +1, -1, False) * build(d_max, rhs_zmax, 0, -1, +1, False)
    left, right = lhs.extract_z(-1 - m), rhs.extract_z(m + 1)
    if primed:
        left = left + lhs.extract_z(n_s - 1 - m).mul_aux_monomial(F(-2, n_s), ds=1)
    else:
        right = right + rhs.extract_z(m + 1 + n_s).mul_aux_monomial(F(2, n_s), ds=1)
    return left.mul_q_power(m + 1).mul_exp_beta(F(m * (m + 1), 2)) - right


class TestHirotaReference:
    """verify_hirota against the reference, clean and corrupted, case by case."""

    @pytest.mark.parametrize("orders", [(1, 1), (2, 2), (5, 5), (6, 5)])
    @pytest.mark.parametrize("key", [None, CORRUPTIONS[0]])
    def test_every_case(self, orders, key):
        tau = build_tau(*orders)
        if key is not None:
            tau = corrupted(tau, key)
        for m, n_s, side in HIROTA_CASES:
            if key is not None and (m, n_s, side) in IDENTITIES_OF_EVERY_SERIES:
                continue
            residual = reference_hirota(tau, m, n_s, side)
            if key is not None and (m, n_s, side) in ZERO_RESIDUAL_REFUSALS.get(orders, ()):
                # refused exactly where the reference residual is zero
                assert residual.is_zero()
                with pytest.raises(ValueError, match="zero residual"):
                    verify_hirota(m, n_s, *orders, side=side, corruption=key)
                continue
            report = verify_hirota(m, n_s, *orders, side=side, corruption=key)
            notes = {"side": side}
            if key is None and (m, n_s, side) == (0, 1, "pprime"):
                notes["matches_toda_residual"] = (residual.extract_s(1) * F(1, 2)
                                                  == toda_residual(tau))
            assert report.residual == residual and report.notes == notes
            assert report.passed == (key is None)

    @pytest.mark.parametrize("m, n_s, side", HIROTA_CASES)
    def test_products_hold_only_the_powers_read(self, monkeypatch, m, n_s, side):
        # each side reads s^0 and s^1 of z^t, and s^0 of z^{t + n_s} where
        # its family carries the prefactor; only z^{>=0} exists, and a side
        # reading none of it forms no product
        primed = side == "pprime"
        reads = []
        for t, prefactor in ((-1 - m, primed), (m + 1, not primed)):
            read = {(t, 0), (t, 1)} | ({(t + n_s, 0)} if prefactor else set())
            if any(z >= 0 for z, _ in read):
                reads.append(read)
        products = []
        mul = TruncatedSeries.__mul__

        def recorded(x, other, **kwargs):
            result = mul(x, other, **kwargs)
            if isinstance(other, TruncatedSeries):
                products.append(result)
            return result

        monkeypatch.setattr(TruncatedSeries, "__mul__", recorded)
        assert verify_hirota(m, n_s, 6, 6, side=side).passed
        assert len(products) == len(reads)
        for result, read in zip(products, reads):
            assert {key[4:] for key in result.keys()} <= read
        # at (1, 1, pprime) the one side formed is zero at every power read
        assert all(products) or (m, n_s, side) == (1, 1, "pprime")


class TestSpecialized:
    def test_passes(self):
        report = verify_toda_specialized(4)
        assert report.passed
        assert report.notes == {
            "structure_ok": True,
            "bilinear_ok": True,
            "recursion_matches_series": True,
            "recursion_matches_simple_hurwitz": True,
        }

    def test_restricted_series_single_variable(self):
        tau = build_tau(4, 4)
        pure = tau.truncate_parts(1)
        for key, _ in pure.terms():
            assert key[2] == (1,) * key[0]
            assert key[3] == (1,) * key[0]

    def test_degree_one_coefficient(self):
        # only the unramified degree-1 covering at x^1
        tau = build_tau(3, 4)
        h = tau.truncate_parts(1).log()
        assert h.coefficient(make_key(dq=1, mu=(1,), nu=(1,))) == 1
        assert h.coefficient(make_key(dq=1, b=1, mu=(1,), nu=(1,))) == 0

    def test_classical_value_through_recursion(self):
        report = verify_toda_specialized(3)
        assert report.passed  # includes 4! * [x^3 b^4] log T == 4

    def test_corruption_fails(self):
        report = verify_toda_specialized(4, corruption=make_key(dq=1, mu=(1,), nu=(1,)))
        assert not report.passed
        assert report.first_failure is not None

    def test_input_validated(self):
        with pytest.raises(ValueError):
            verify_toda_specialized(0)


class TestWeightInvariant:
    """Every series the verifiers build keeps weight(mu), weight(nu) <= dq.

    The product kernel checks only the q cap and relies on this; each result
    of a series operation passes through ``_same_caps``, which is checked here.
    """

    @pytest.fixture
    def results(self, monkeypatch):
        seen = []
        same_caps = TruncatedSeries._same_caps

        def checked(self, *args):
            out = same_caps(self, *args)
            bad = [k for k in out.keys() if sum(k[2]) > k[0] or sum(k[3]) > k[0]]
            assert not bad, bad[:3]
            seen.append(len(out))
            return out

        monkeypatch.setattr(TruncatedSeries, "_same_caps", checked)
        return seen

    RUNS = {
        "toda": lambda: verify_toda(4, 4),
        **{f"tau-n{n}": (lambda n=n: verify_tau_n(n, 4, 4)) for n in (-1, 0, 2)},
        **{f"hirota-m{m}-s{n_s}-{side}": (lambda m=m, n_s=n_s, side=side:
                                          verify_hirota(m, n_s, 3, 3, side=side))
           for m in (-1, 0, 1) for n_s in (1, 2, 3) for side in ("p", "pprime")},
        "toda-specialized": lambda: verify_toda_specialized(4),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_every_result_key(self, results, name):
        assert self.RUNS[name]().passed
        assert sum(results) > 0


class TestReports:
    def test_json_shape(self):
        obj = verify_toda(2, 2).to_json_obj()
        assert obj["identity"] == "toda"
        assert obj["pass"] is True
        assert obj["first_failure"] is None

    def test_json_failure_names_monomial(self):
        obj = verify_toda(3, 3, corruption=CORRUPTIONS[0]).to_json_obj()
        assert obj["pass"] is False
        ff = obj["first_failure"]
        assert set(ff) == {"dq", "b", "mu", "nu", "aux"}

    def test_residual_is_bilinear_form(self):
        tau = build_tau(3, 3)
        res = toda_residual(tau)
        assert res.is_zero()
