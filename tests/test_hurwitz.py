import random
import sys
import threading
from fractions import Fraction
from math import factorial
from operator import mul

import pytest

from hurwitz_toda import hurwitz
from hurwitz_toda.characters import DEFAULT_CACHE, CharacterCache, central_character
from hurwitz_toda.hurwitz import (
    build_tau,
    connected_series,
    cov_burnside,
    cov_record,
    cov_with_transpositions,
    double_hurwitz,
    format_rational,
    genus_of,
    hurwitz_table,
    schur_in_power_sums,
    simple_hurwitz,
)
from hurwitz_toda.oracle import compare_all, count_tuples
from hurwitz_toda.partitions import Partition, partitions_of, transposition_class
from hurwitz_toda.series import make_key

P = Partition
F = Fraction


def burnside_reference(d, classes, cache=None):
    """cov_burnside one Fraction at a time: (dim/d!)^2 times one central
    character per list entry, for every shape whose dim is not zero."""
    cache = cache or DEFAULT_CACHE
    total = F(0)
    for lam in partitions_of(d):
        if not cache.dimension(lam):
            continue  # a seeded dim of 0 drops its shape, as dim^2 does
        term = F(cache.dimension(lam), factorial(d)) ** 2
        for c in classes:
            term *= central_character(c, lam, cache=cache)
        total += term
    return total


class TestCovBurnside:
    def test_no_branching(self):
        # only the trivial covering, weighted by 1/|S(3)|
        assert cov_burnside(3, []) == F(1, 6)

    def test_two_transpositions_degree_two(self):
        assert cov_burnside(2, [P((2,)), P((2,))]) == F(1, 2)

    def test_against_oracle_four_transpositions(self):
        classes = [P((2, 1))] * 4
        got = cov_burnside(3, classes)
        wanted = count_tuples(3, P((2, 1)), P((2, 1)), 2, False)
        assert got == wanted

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cov_burnside(3, [P((2,))])
        with pytest.raises(ValueError):
            cov_burnside(3, [P((2, 1)), P((2, 1)), P((3, 1))])

    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_reference(self, d):
        rng = random.Random(d)
        shapes = list(partitions_of(d))
        poisoned = CharacterCache()
        poisoned.seed(P((d,)), P((d,)), 5)  # really 1: both routes must read it
        assert cov_burnside(d, [P((d,))], cache=poisoned) != cov_burnside(d, [P((d,))])
        lists = [[]]
        for k in range(1, 8):
            lists.append([rng.choice(shapes) for _ in range(k)])  # mixed, with repeats
            lists.append([rng.choice(shapes)] * k)  # one class repeated
        lists.append(shapes * 2)
        for classes in lists:
            classes = rng.sample(classes, len(classes))
            for cache in (None, CharacterCache(), poisoned):
                assert cov_burnside(d, classes, cache=cache) == \
                    burnside_reference(d, classes, cache), (classes, cache)

    def test_zero_dimension_drops_its_shape(self):
        # a seeded dim of 0 zeroes that shape's term, as dim^2 does in the sum
        zero = CharacterCache()
        zero.seed(P((3,)), P((1, 1, 1)), 0)
        assert cov_burnside(3, [], cache=zero) == F(4 + 1, 36)
        # (2/6)^2 * 2 * (-1) / 2 + (1/6)^2 * 2 * 1 / 1 for the shapes (2, 1), (1, 1, 1)
        assert cov_burnside(3, [P((3,))], cache=zero) == F(-1, 18)

    def test_transposition_wrapper_below_degree_two(self):
        assert cov_with_transpositions(1, P((1,)), P((1,)), 3) == 0
        assert cov_with_transpositions(1, P((1,)), P((1,)), 0) == 1


def table_caches():
    """No cache, one with a seeded character, one with a seeded zero dim."""
    seeded = CharacterCache()
    seeded.seed(P((3, 1)), P((2, 1, 1)), 5)  # really 1
    zero_dim = CharacterCache()
    zero_dim.seed(P((2, 1)), P((1, 1, 1)), 0)  # really 2
    return {"default": None, "seeded": seeded, "zero_dim": zero_dim}


def table_count(table, classes):
    """The class-algebra count from its integer numerator, as compare_all
    reads it: the numerator over L^k d!^2 for k classes."""
    k = len(classes)
    return F(hurwitz._class_sum(table, classes), table.common ** k * factorial(table.d) ** 2)


class TestShapeTable:
    """The class-algebra counts as compare_all reads them, from the table of
    each d that the cells keep."""

    def test_numerator_is_an_integer(self):
        table = hurwitz._store(None).table(4)
        assert type(hurwitz._class_sum(table, [P((2, 2)), P((3, 1))])) is int

    @pytest.mark.parametrize("name", ["default", "seeded", "zero_dim"])
    def test_table_path_equals_cov_with_transpositions(self, name):
        cache = table_caches()[name]
        cells = hurwitz._store(cache)
        for d in range(1, 7):
            table = cells.table(d)
            swaps = [transposition_class(d)] if d > 1 else []
            for b in range(6 if swaps else 1):  # no transpositions below degree two
                for mu in partitions_of(d):
                    for nu in partitions_of(d):
                        classes = [mu, nu] + swaps * b
                        assert table_count(table, classes) == \
                            cov_with_transpositions(d, mu, nu, b, cache=cache) == \
                            burnside_reference(d, classes, cache), (d, b, mu, nu)

    def test_default_cache_builds_one_table(self, monkeypatch):
        # cov_burnside reads the table the shared cells keep; a custom cache
        # gets fresh cells, and so a fresh table, on every call
        built = []

        class Recording(hurwitz._Shapes):
            def __init__(self, d, cache):
                built.append(d)
                super().__init__(d, cache)

        monkeypatch.setattr(hurwitz, "_Shapes", Recording)
        monkeypatch.setattr(hurwitz, "_STORE", hurwitz._Cells(DEFAULT_CACHE))
        calls = [[P((3, 2)), P((3, 2))], [P((5,)), P((4, 1)), P((2, 1, 1, 1))]]
        shared = [cov_burnside(5, classes) for classes in calls]
        assert built == [5]
        cache = CharacterCache()
        assert [cov_burnside(5, classes, cache=cache) for classes in calls] == shared
        assert built == [5, 5, 5]
        assert shared == [burnside_reference(5, classes) for classes in calls] == [F(1, 6), F(1)]

    @pytest.mark.parametrize("name", ["seeded", "zero_dim"])
    def test_poisoned_cache_reaches_the_table(self, name):
        # the negative control: a seeded value moves the table path's counts
        cache = table_caches()[name]
        moved = [(d, mu, nu, b) for d in range(3, 5) for b in range(3)
                 for mu in partitions_of(d) for nu in partitions_of(d)
                 if table_count(hurwitz._store(cache).table(d),
                                [mu, nu] + [transposition_class(d)] * b)
                 != cov_with_transpositions(d, mu, nu, b)]
        assert moved


class ReferenceCells(hurwitz._Cells):
    """Cells whose tau sums run over every shape, for every (mu <= nu, b):
    no conjugate pairs and no parity skip."""

    def grow_tau(self, d_max, b_max):
        if d_max < 0 or b_max < 0:
            raise ValueError("truncation orders must be nonnegative")
        d0, b0 = self.tau_box
        if d_max <= d0 and b_max <= b0:
            return
        self.tau_box = max(d_max, d0), max(b_max, b0)
        for d in range(1, self.tau_box[0] + 1):
            table, dfact = self.table(d), factorial(d)
            chi = [table.row(mu) for mu in table.shapes]
            sizes = list(table.sizes.values())
            for b in range(b0 + 1 if d <= d0 else 0, self.tau_box[1] + 1):
                # integer sums of chi(mu) chi(nu) f2^b over shapes, for mu <= nu
                cell = self.tau[(d, b)] = {}
                powers = [f ** b for f in table.f2]
                for j, cj in enumerate(chi):
                    wj = list(map(mul, cj, powers))
                    for i in range(j + 1):
                        x = sum(map(mul, chi[i], wj))
                        if x:
                            mu, nu = table.shapes[i].parts, table.shapes[j].parts
                            cell[(d, b, mu, nu, 0, 0)] = cell[(d, b, nu, mu, 0, 0)] = (
                                x * sizes[i] * sizes[j] // dfact)


def seeded_partner():
    """The seeded character of table_caches()["seeded"] moved to the
    conjugate partner of its shape: (2, 1, 1) in place of (3, 1)."""
    cache = CharacterCache()
    cache.seed(P((2, 1, 1)), P((2, 1, 1)), 5)  # really -1
    return cache


class TestConjugatePairs:
    """The tau cells sum over one shape of each conjugate pair, twice, and
    over the self-conjugate shapes at b = 0, for b = len(mu) + len(nu) mod 2."""

    def test_every_cell_up_to_twelve(self):
        cache, reference_cache = CharacterCache(), CharacterCache()
        cells, reference = hurwitz._Cells(cache), ReferenceCells(reference_cache)
        cells.grow_tau(12, 12)
        reference.grow_tau(12, 12)
        assert cells.tau == reference.tau
        # every character is still read through the shared table
        assert cache.stats() == reference_cache.stats()

    def test_growth_order(self):
        cache = CharacterCache()
        cells, reference = hurwitz._Cells(cache), ReferenceCells(cache)
        for box in [(3, 5), (5, 3), (8, 8)]:
            cells.grow_tau(*box)
            reference.grow_tau(*box)
            assert cells.tau == reference.tau and cells.tau_box == reference.tau_box
        at_once = ReferenceCells(cache)
        at_once.grow_tau(8, 8)
        assert cells.tau == at_once.tau

    @pytest.mark.parametrize("d", range(1, 7))
    def test_cells_read_one_shape_of_each_pair(self, d):
        # a character raised by d! moves a tau cell exactly when its shape is
        # read: the first of each conjugate pair in table order, or a
        # self-conjugate shape; the other of a pair is never read
        clean = hurwitz._Cells(CharacterCache())
        clean.grow_tau(d, 4)
        shapes = list(partitions_of(d))
        read = {lam for lam in shapes if lam.parts >= lam.conjugate().parts}
        for lam in shapes:
            for c in shapes:
                cache = CharacterCache()
                cache.seed(lam, c, cache.character(lam, c) + factorial(d))
                cells = hurwitz._Cells(cache)
                cells.grow_tau(d, 4)
                assert (cells.tau != clean.tau) == (lam in read), (lam, c)

    def test_seeded_caches(self):
        clean = hurwitz._Cells(CharacterCache())
        clean.grow_tau(5, 5)
        moved = hurwitz._Cells(table_caches()["seeded"])
        moved.grow_tau(5, 5)
        assert moved.tau != clean.tau
        partner = hurwitz._Cells(seeded_partner())
        partner.grow_tau(5, 5)
        assert partner.tau == clean.tau

    @pytest.mark.parametrize("cache, box", [
        (table_caches()["seeded"], (4, 3)),
        (seeded_partner(), (4, 3)),
        (table_caches()["zero_dim"], (3, 2)),
    ], ids=["seeded", "seeded_partner", "zero_dim"])
    def test_compare_reports_every_seeded_cache(self, cache, box):
        # a shape the cells skip is still read by the class-algebra route
        bad = compare_all(*box, cache=cache)
        assert any(r["kind"] == "disconnected" and r["formula"] != r["oracle"] for r in bad)

    def test_riemann_hurwitz_parity(self):
        tau = build_tau(10, 10)
        for (dq, b, mu, nu, z, s), value in tau.terms():
            assert (b - len(mu) - len(nu)) % 2 == 0
            assert tau.coefficient((dq, b, nu, mu, z, s)) == value


class TestSchur:
    def test_single_box(self):
        s = schur_in_power_sums(P((1,)))
        assert s.coefficient(make_key(dq=1, mu=(1,))) == 1
        assert len(s) == 1
        assert (s.d_max, s.b_max) == (1, 0)

    def test_two_box_row(self):
        s = schur_in_power_sums(P((2,)))
        assert s.coefficient(make_key(dq=2, mu=(1, 1))) == F(1, 2)
        assert s.coefficient(make_key(dq=2, mu=(2,))) == F(1, 2)

    def test_two_box_column(self):
        s = schur_in_power_sums(P((1, 1)))
        assert s.coefficient(make_key(dq=2, mu=(1, 1))) == F(1, 2)
        assert s.coefficient(make_key(dq=2, mu=(2,))) == F(-1, 2)
        assert len(s) == 2 and (s.d_max, s.b_max) == (2, 0)


class TestTau:
    def test_constant_term(self):
        assert build_tau(3, 3).constant_term() == 1

    def test_degree_one(self):
        assert build_tau(3, 3).coefficient(make_key(dq=1, mu=(1,), nu=(1,))) == 1

    def test_cyclic_degree_two(self):
        got = build_tau(3, 3).coefficient(make_key(dq=2, mu=(2,), nu=(2,)))
        assert got == cov_burnside(2, [P((2,)), P((2,))]) == F(1, 2)

    @pytest.mark.parametrize("d_max,b_max", [(4, 3), (7, 6)])
    def test_coefficients_are_covering_counts(self, d_max, b_max):
        tau = build_tau(d_max, b_max)
        for d in range(1, d_max + 1):
            for b in range(b_max + 1):
                for mu in partitions_of(d):
                    for nu in partitions_of(d):
                        coeff = tau.coefficient(make_key(dq=d, b=b, mu=mu.parts, nu=nu.parts))
                        want = cov_with_transpositions(d, mu, nu, b)
                        assert coeff * factorial(b) == want

    def test_q_degree_matches_weights(self):
        tau = build_tau(5, 4)
        for key, _ in tau.terms():
            dq, _, mu, nu = key[0], key[1], key[2], key[3]
            assert sum(mu) == dq and sum(nu) == dq


class TestSeriesCache:
    """One tau and one connected series, grown cell by cell to the union box."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(hurwitz, "_STORE", hurwitz._Cells(DEFAULT_CACHE))

    def test_restriction_equals_fresh_build(self):
        build_tau(6, 5)
        for d in range(7):
            for b in range(6):
                misses = DEFAULT_CACHE.misses
                tau = build_tau(d, b)
                assert DEFAULT_CACHE.misses == misses
                fresh = build_tau(d, b, cache=CharacterCache())
                assert tau == fresh
                assert (tau.d_max, tau.b_max) == (d, b)
        assert hurwitz._STORE.tau_box == (6, 5)

    def test_rebuild_at_union_of_boxes(self):
        build_tau(3, 5)
        build_tau(5, 3)
        assert hurwitz._STORE.tau_box == (5, 5)
        misses = DEFAULT_CACHE.misses
        tau = build_tau(5, 5)
        assert DEFAULT_CACHE.misses == misses
        assert tau == build_tau(5, 5, cache=CharacterCache())
        assert hurwitz._STORE.tau_box == (5, 5)

    def test_connected_reads_equal_fresh_build(self):
        hurwitz_table(5, 5)
        assert hurwitz_table(3, 4) == hurwitz_table(3, 4, cache=CharacterCache())
        assert hurwitz._STORE.log_box == (5, 5)

    def test_cells_equal_log_of_tau(self):
        # the cell recursion against the graded log of a fresh tau
        hurwitz_table(4, 7)
        hurwitz_table(7, 3)
        want = connected_series(build_tau(7, 7, cache=CharacterCache()))
        # the cells keep d! b! times each coefficient of the log
        got = {key: Fraction(x, factorial(key[0]) * factorial(key[1]))
               for key, x in hurwitz._STORE.h.items()}
        assert got == dict(want.terms())

    def test_each_cell_computed_once_in_any_order(self, monkeypatch):
        computed = []
        conn_cell = hurwitz._Cells._conn_cell
        monkeypatch.setattr(hurwitz._Cells, "_conn_cell",
                            lambda self, d, b: computed.append((d, b)) or conn_cell(self, d, b))
        boxes = [(d, b) for d in range(1, 7) for b in range(7)]
        random.Random(5).shuffle(boxes)
        for d, b in boxes:
            double_hurwitz(d, b, P((1,) * d), P((1,) * d))
        assert sorted(computed) == [(d, b) for d in range(1, 7) for b in range(7)]
        tau_cells = hurwitz._STORE.tau
        assert sorted(tau_cells) == [(d, b) for d in range(7) for b in range(7) if d or not b]

    def test_memory_is_the_union_box(self):
        calls = [lambda: build_tau(2, 7), lambda: double_hurwitz(3, 4, P((2, 1)), P((3,))),
                 lambda: simple_hurwitz(1, 3), lambda: hurwitz_table(4, 2),
                 lambda: build_tau(7, 1), lambda: double_hurwitz(1, 0, P((1,)), P((1,)))]
        for call in calls:
            call()
        store = hurwitz._STORE
        assert store.tau_box == (7, 7) and store.log_box == (4, 6)
        assert set(store.tau) == {(d, b) for d in range(8) for b in range(8) if d or not b}
        assert set(store.conn) == {(d, b) for d in range(1, 5) for b in range(7)}
        assert all(k[0] <= 4 and k[1] <= 6 for k in store.h)
        misses = DEFAULT_CACHE.misses
        assert len(build_tau(7, 7)) == sum(map(len, store.tau.values()))
        assert DEFAULT_CACHE.misses == misses and store.tau_box == (7, 7)

    def test_concurrent_requests(self):
        boxes = [(d, b) for d in range(1, 6) for b in range(6)]
        fresh = {box: build_tau(*box, cache=CharacterCache()) for box in boxes}
        ones = {d: P((1,) * d) for d in range(1, 6)}
        wrong = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(30):
                d, b = box = rng.choice(boxes)
                if build_tau(d, b) != fresh[box]:
                    wrong.append(("tau", box))
                want = connected_series(fresh[box]).coefficient(
                    make_key(dq=d, b=b, mu=ones[d].parts, nu=ones[d].parts)) * factorial(b)
                if double_hurwitz(d, b, ones[d], ones[d]).value != want:
                    wrong.append(("log", box))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert all(d <= 5 and b <= 5 for d, b in hurwitz._STORE.tau)

    def test_custom_cache_bypasses(self):
        build_tau(3, 3, cache=CharacterCache())
        double_hurwitz(3, 4, P((1, 1, 1)), P((1, 1, 1)), cache=CharacterCache())
        store = hurwitz._STORE
        assert store.tau_box == store.log_box == (0, 0) and store.h == {}

    def test_negative_orders_rejected(self):
        with pytest.raises(ValueError):
            build_tau(-1, 2)
        with pytest.raises(ValueError):
            hurwitz_table(2, -1)


class TestConnected:
    def test_zero_constant_term(self):
        h = connected_series(build_tau(3, 3))
        assert h.constant_term() == 0

    def test_degree_one(self):
        h = connected_series(build_tau(3, 3))
        assert h.coefficient(make_key(dq=1, mu=(1,), nu=(1,))) == 1

    def test_torus_double_cover(self):
        h = connected_series(build_tau(2, 2))
        coeff = h.coefficient(make_key(dq=2, b=2, mu=(1, 1), nu=(1, 1)))
        assert coeff * factorial(2) == F(1, 2)


class TestDoubleHurwitz:
    def test_trivial_covering(self):
        rec = double_hurwitz(1, 0, P((1,)), P((1,)))
        assert rec.value == 1 and rec.genus == 0 and rec.connected

    def test_classical_count(self):
        rec = double_hurwitz(3, 4, P((1, 1, 1)), P((1, 1, 1)))
        assert rec.value == 4 and rec.genus == 0

    def test_genus_one_degree_two(self):
        rec = double_hurwitz(2, 4, P((1, 1)), P((1, 1)))
        assert rec.value == F(1, 2) and rec.genus == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            double_hurwitz(3, 0, P((2,)), P((3,)))

    def test_symmetry_in_profiles(self):
        for d in range(1, 5):
            for b in range(4):
                for mu in partitions_of(d):
                    for nu in partitions_of(d):
                        a = double_hurwitz(d, b, mu, nu).value
                        bb = double_hurwitz(d, b, nu, mu).value
                        assert a == bb

    def test_parity_vanishing(self):
        for d in range(1, 5):
            for b in range(5):
                for mu in partitions_of(d):
                    for nu in partitions_of(d):
                        if (b + mu.length + nu.length) % 2:
                            assert double_hurwitz(d, b, mu, nu).value == 0

    def test_genus_marker(self):
        assert genus_of(4, P((1, 1)), P((1, 1))) == 1
        assert genus_of(1, P((1,)), P((1,))) is None      # odd parity
        assert genus_of(0, P((1, 1)), P((1, 1))) is None  # negative

    def test_nonnegative_values(self):
        for rec in hurwitz_table(4, 4):
            assert rec.value >= 0

    def test_no_covering_means_zero_count(self):
        for rec in hurwitz_table(4, 4):
            if rec.genus is None:
                assert rec.value == 0


class TestSimpleHurwitz:
    def test_low_degrees(self):
        assert simple_hurwitz(0, 1) == 1
        assert simple_hurwitz(0, 2) == F(1, 2)
        assert simple_hurwitz(0, 3) == 4

    def test_degree_four_sphere(self):
        # 6 transpositions in degree 4; check against the tuple oracle
        want = count_tuples(4, P((1,) * 4), P((1,) * 4), 6, True, b_cap=6)
        assert simple_hurwitz(0, 4) == want == 120

    def test_no_transpositions_in_degree_one(self):
        assert simple_hurwitz(1, 1) == 0
        assert simple_hurwitz(2, 1) == 0

    def test_torus_double_cover(self):
        assert simple_hurwitz(1, 2) == count_tuples(2, P((1, 1)), P((1, 1)), 4, True)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            simple_hurwitz(-1, 2)
        with pytest.raises(ValueError):
            simple_hurwitz(0, 0)


class TestIntegrality:
    def test_trivial_profile_counts_are_integers(self):
        # connected, degree > 2, one trivial profile: automorphism-free,
        # so the counts must be nonnegative integers
        for d in (3, 4):
            one = P((1,) * d)
            for nu in partitions_of(d):
                for b in range(5):
                    val = double_hurwitz(d, b, one, nu).value
                    assert val >= 0 and val.denominator == 1


class TestRecordsAndTable:
    def test_json_schema(self):
        rec = double_hurwitz(2, 2, P((1, 1)), P((1, 1)))
        obj = rec.to_json_obj()
        assert obj == {
            "d": 2, "b": 2, "mu": [1, 1], "nu": [1, 1],
            "value": "1/2", "genus": 0, "connected": True,
        }
        rec = double_hurwitz(2, 4, P((1, 1)), P((1, 1)))
        assert rec.value == F(1, 2) and rec.genus == 1

    def test_non_integral_marker(self):
        rec = double_hurwitz(2, 1, P((1, 1)), P((1, 1)))
        assert rec.to_json_obj()["genus"] == "non-integral"
        assert rec.value == 0

    def test_format_rational(self):
        assert format_rational(F(4)) == 4
        assert format_rational(F(1, 2)) == "1/2"
        assert format_rational(F(-3, 2)) == "-3/2"

    def test_cov_record(self):
        rec = cov_record(2, 0, P((2,)), P((2,)))
        assert not rec.connected and rec.value == F(1, 2) and rec.genus is None

    def test_table_row_count_and_determinism(self):
        t1 = hurwitz_table(3, 2)
        t2 = hurwitz_table(3, 2)
        assert t1 == t2
        want = sum(
            len(list(partitions_of(d))) ** 2 * 3 for d in range(1, 4)
        )
        assert len(t1) == want
