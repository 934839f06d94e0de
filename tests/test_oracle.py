import itertools
import multiprocessing
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import pytest

import hurwitz_toda
from hurwitz_toda import hurwitz, oracle
from hurwitz_toda.characters import DEFAULT_CACHE, CharacterCache
from hurwitz_toda.hurwitz import build_tau, connected_series, cov_record, hurwitz_table
from hurwitz_toda.oracle import OracleLimitError, compare_all, count_table, count_tuples
from hurwitz_toda.partitions import Partition, class_size, partitions_of
from hurwitz_toda.series import TruncatedSeries, make_key

P = Partition
F = Fraction

# Permutations and their orbits: the brute-force references the type walk
# in oracle._sweep is checked against.  A permutation is a tuple of images.


def identity_perm(d):
    return tuple(range(d))


def compose(a, b):
    """Apply ``a`` first, then ``b`` (left-to-right composition)."""
    return tuple(map(b.__getitem__, a))


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def cycle_type(p):
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


def class_representative(mu):
    """Permutation of cycle type ``mu`` built from consecutive blocks."""
    out = []
    start = 0
    for part in Partition(mu).parts:
        out.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(out)


def all_transpositions(d):
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
    sigma0: tuple
    transpositions: tuple
    sigma_inf: tuple

    def product_is_identity(self):
        p = self.sigma0
        for t in self.transpositions:
            p = compose(p, t)
        return compose(p, self.sigma_inf) == identity_perm(self.d)

    def is_transitive(self):
        return _is_transitive(self.d, (self.sigma0,) + self.transpositions)


def _is_transitive(d, perms):
    """Union-find over the orbits of the listed permutations."""
    parent = list(range(d))

    def find(x):
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


def _orbit_labels(p):
    """Each point labelled by the smallest point of its orbit under ``p``."""
    labels = list(range(len(p)))
    for i in range(len(p)):
        if labels[i] == i:  # no smaller point has reached i: it starts an orbit
            j = p[i]
            while j != i:
                labels[j] = i
                j = p[j]
    return tuple(labels)


def _orbit_cycles(p, labels):
    """The type of the state (p, labels): the cycle lengths of ``p`` within
    each orbit, each sorted, all sorted."""
    orbits = {}
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


def class_elements(d, mu):
    """All elements of cycle type ``mu`` in degree d (full enumeration)."""
    mu = Partition(mu)
    for p in itertools.permutations(range(d)):
        if cycle_type(p) == mu:
            yield p


def naive_count(d, mu, nu, b, connected_only):
    """count_tuples without the fixed-representative optimization: every
    sigma0 of type mu, every b-tuple of transpositions."""
    total = 0
    for sigma0 in class_elements(d, mu):
        for taus in itertools.product(all_transpositions(d), repeat=b):
            p = sigma0
            for t in taus:
                p = compose(p, t)
            mt = MonodromyTuple(d, sigma0, taus, inverse(p))
            if cycle_type(mt.sigma_inf) == nu and (not connected_only or mt.is_transitive()):
                total += 1
    return F(total, factorial(d))


def per_tuple_sweep(d, mu_parts, b):
    """oracle._sweep one tuple at a time: every b-tuple of transpositions
    after the fixed sigma0, its product and a fresh transitivity test each."""
    sigma0 = class_representative(P(mu_parts))
    mult = class_size(P(mu_parts))
    counts = {}
    for taus in itertools.product(all_transpositions(d), repeat=b):
        p = sigma0
        for t in taus:
            p = compose(p, t)
        mt = MonodromyTuple(d, sigma0, taus, inverse(p))
        entry = counts.setdefault(cycle_type(mt.sigma_inf).parts, [0, 0])
        entry[0] += mult
        if mt.is_transitive():
            entry[1] += mult
    return counts


def full_walk_sweep(d, mu_parts, b):
    """oracle._sweep on permutation states: from the fixed sigma0, every
    transposition is composed and orbit-merged, prefixes with equal
    (product, orbit labels) are counted together, and each final state's
    sigma_inf type is read from its product."""
    mu = P(mu_parts)
    sigma0 = class_representative(mu)
    states = {(sigma0, _orbit_labels(sigma0)): 1}
    swaps = [(t, [k for k in range(d) if t[k] != k]) for t in all_transpositions(d)]
    for _ in range(b):
        reached = {}
        for (p, labels), n in states.items():
            for t, (i, j) in swaps:
                a, c = labels[i], labels[j]
                merged = labels
                if a != c:
                    lo, hi = (a, c) if a < c else (c, a)
                    merged = tuple(lo if x == hi else x for x in labels)
                key = (compose(p, t), merged)
                reached[key] = reached.get(key, 0) + n
        states = reached
    mult = class_size(mu)
    counts = {}
    for (p, labels), n in states.items():
        entry = counts.setdefault(cycle_type(inverse(p)).parts, [0, 0])
        entry[0] += n * mult
        if len(set(labels)) == 1:
            entry[1] += n * mult
    return counts


def merged_labels(labels, i, j):
    """Orbit labels after the orbits through i and j join."""
    lo, hi = sorted((labels[i], labels[j]))
    return tuple(lo if x == hi else x for x in labels)


def all_types(d):
    """Every type of degree d: a sorted tuple of orbits, each the sorted
    cycle lengths of a partition, with sizes summing to d."""
    return {tuple(sorted(orbits))
            for sizes in partitions_of(d)
            for orbits in itertools.product(*([tuple(sorted(lam.parts)) for lam in partitions_of(n)]
                                              for n in sizes.parts))}


def record_listings(monkeypatch):
    """The degrees the oracle module lists partitions_of for, in call order."""
    listed = []

    def listing(d):
        listed.append(d)
        return partitions_of(d)

    monkeypatch.setattr(oracle, "partitions_of", listing)
    return listed


class TestPermutations:
    def test_compose_left_to_right(self):
        # apply a = (0 1) first, then b = (1 2)
        a, b = (1, 0, 2), (0, 2, 1)
        assert compose(a, b) == (2, 0, 1)

    def test_inverse(self):
        p = (2, 0, 3, 1)
        assert compose(p, inverse(p)) == identity_perm(4)

    def test_cycle_type(self):
        assert cycle_type((1, 0, 2)) == P((2, 1))
        assert cycle_type((1, 2, 0)) == P((3,))
        assert cycle_type(identity_perm(4)) == P((1, 1, 1, 1))

    def test_class_representative(self):
        rep = class_representative(P((3, 2)))
        assert cycle_type(rep) == P((3, 2))

    def test_class_elements_counts(self):
        assert len(list(class_elements(3, P((2, 1))))) == 3
        assert len(list(class_elements(4, P((2, 2))))) == 3

    def test_transposition_count(self):
        assert len(all_transpositions(5)) == 10


class TestMonodromyTuple:
    def test_product_identity(self):
        t = (1, 0, 2)
        mt = MonodromyTuple(3, t, (), inverse(t))
        assert mt.product_is_identity()

    def test_transitivity(self):
        three_cycle = (1, 2, 0)
        assert MonodromyTuple(3, three_cycle, (), inverse(three_cycle)).is_transitive()
        t = (1, 0, 2)
        assert not MonodromyTuple(3, t, (), inverse(t)).is_transitive()


class TestCountTuples:
    def test_empty_tuple_degree_one(self):
        assert count_tuples(1, P((1,)), P((1,)), 0, False) == 1
        assert count_tuples(1, P((1,)), P((1,)), 0, True) == 1

    def test_two_sheets_two_transpositions(self):
        # the only tuple repeats the single transposition, and it acts
        # transitively, so both counts agree here
        assert count_tuples(2, P((1, 1)), P((1, 1)), 2, True) == F(1, 2)
        assert count_tuples(2, P((1, 1)), P((1, 1)), 2, False) == F(1, 2)
        # with no transpositions the split double cover is disconnected
        assert count_tuples(2, P((1, 1)), P((1, 1)), 0, False) == F(1, 2)
        assert count_tuples(2, P((1, 1)), P((1, 1)), 0, True) == 0

    def test_classical_four_transpositions(self):
        assert count_tuples(3, P((1, 1, 1)), P((1, 1, 1)), 4, True) == 4

    def test_profile_exchange_invariance(self):
        for d in range(1, 5):
            for b in range(3):
                for mu in partitions_of(d):
                    for nu in partitions_of(d):
                        for conn in (False, True):
                            assert count_tuples(d, mu, nu, b, conn) == \
                                count_tuples(d, nu, mu, b, conn)

    def test_odd_parity_empty(self):
        assert count_tuples(3, P((2, 1)), P((1, 1, 1)), 0, False) == 0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_tuples(3, P((2,)), P((3,)), 0, False)

    def test_caps(self):
        with pytest.raises(OracleLimitError, match="oracle scale limit"):
            count_tuples(7, P((7,)), P((7,)), 0, False)
        with pytest.raises(OracleLimitError, match="oracle scale limit"):
            count_tuples(2, P((2,)), P((2,)), 6, False)
        # overridable
        assert count_tuples(2, P((1, 1)), P((1, 1)), 6, False, b_cap=6) > 0

    def test_one_walk_for_every_b(self):
        # every b of one (d, mu) is read from one walk to the cap
        oracle._sweep.cache_clear()
        for b in range(6):
            for conn in (False, True):
                count_tuples(4, P((2, 1, 1)), P((3, 1)), b, conn)
        assert oracle._sweep.cache_info().misses == 1


class TestNaiveAgreement:
    def test_fixed_representative_optimization(self):
        for d in range(1, 5):
            for mu in partitions_of(d):
                for nu in partitions_of(d):
                    for b in range(3):
                        for conn in (False, True):
                            fast = count_tuples(d, mu, nu, b, conn)
                            slow = naive_count(d, mu, nu, b, conn)
                            assert fast == slow, (d, mu, nu, b, conn)


class TestStateWalk:
    """Every level of one oracle._sweep walk against the per-tuple and the
    permutation-state sweeps, and its step rules against composition."""

    @pytest.mark.parametrize("d,b_max", [(1, 4), (2, 4), (3, 4), (4, 4), (5, 4), (6, 2)])
    def test_same_counts_as_per_tuple(self, d, b_max):
        for mu in partitions_of(d):
            levels = oracle._sweep(d, mu.parts, b_max)
            assert len(levels) == b_max + 1
            for b, counts in enumerate(levels):
                want = per_tuple_sweep(d, mu.parts, b)
                assert counts == want, (d, mu, b)
                assert sum(n for n, _ in want.values()) == class_size(mu) * (d * (d - 1) // 2) ** b

    @pytest.mark.parametrize("d,b_max", [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5), (6, 4), (7, 4)])
    def test_same_counts_as_full_walk(self, d, b_max):
        for mu in partitions_of(d):
            levels = oracle._sweep(d, mu.parts, b_max)
            assert len(levels) == b_max + 1
            for b, counts in enumerate(levels):
                assert counts == full_walk_sweep(d, mu.parts, b), (d, mu, b)

    def test_steps_against_composition(self):
        # every transposition t of random states (p, orbits), d <= 8, composed
        # and orbit-merged one at a time: the types of the states reached are
        # those _steps counts from the type of (p, orbits)
        rng = random.Random(8)
        seen_orbit_counts = set()
        for _ in range(300):
            d = rng.randint(1, 8)
            p = tuple(rng.sample(range(d), d))
            labels = _orbit_labels(p)
            for _ in range(rng.randint(0, d)):
                labels = merged_labels(labels, rng.randrange(d), rng.randrange(d))
            seen_orbit_counts.add(min(len(set(labels)), 3))
            want = Counter()
            for t in all_transpositions(d):
                i, j = (k for k in range(d) if t[k] != k)
                want[_orbit_cycles(compose(p, t), merged_labels(labels, i, j))] += 1
            assert dict(oracle._steps(_orbit_cycles(p, labels))) == want, (p, labels)
        assert seen_orbit_counts == {1, 2, 3}

    @pytest.mark.parametrize("d", range(1, 9))
    def test_steps_count_every_transposition(self, d):
        # every type of degree d: its step counts sum to C(d, 2) and reach
        # only types of degree d; the types are the multisets of partitions
        # of total size d (OEIS A001970)
        types = all_types(d)
        assert len(types) == [1, 3, 6, 14, 27, 58, 111, 223][d - 1]
        for orbits in types:
            steps = dict(oracle._steps(orbits))
            assert sum(steps.values()) == d * (d - 1) // 2, orbits
            assert set(steps) <= types, orbits

    def test_steps_run_once_per_type(self, monkeypatch):
        # cold walks for every mu of d <= 7: the types stepped from repeat
        # across the walks, but each is stepped once
        steps, asked = oracle._steps, []

        def recording(orbits):
            asked.append(orbits)
            return steps(orbits)

        monkeypatch.setattr(oracle, "_steps", recording)
        oracle._sweep.cache_clear()
        steps.cache_clear()
        for d in range(1, 8):
            for mu in partitions_of(d):
                oracle._sweep(d, mu.parts, 4)
        oracle._sweep.cache_clear()
        assert len(asked) > len(set(asked))
        assert steps.cache_info().misses == len(set(asked))

    def test_steps_value_is_immutable(self):
        steps = oracle._steps(((1,), (2,)))
        assert isinstance(steps, tuple)
        assert steps is oracle._steps(((1,), (2,)))

    def test_orbit_cycles(self):
        # orbits {0, 1, 2} and {3, 4, 5}; p has cycles (0 1), (2), (3 4 5)
        p, labels = (1, 0, 2, 4, 5, 3), (0, 0, 0, 3, 3, 3)
        assert _orbit_cycles(p, labels) == ((1, 2), (3,))
        assert _orbit_cycles(identity_perm(3), (0, 1, 2)) == ((1,), (1,), (1,))

    def test_orbit_labels_are_smallest_points(self):
        assert _orbit_labels((1, 2, 0, 4, 3, 5)) == (0, 0, 0, 3, 3, 5)
        assert _orbit_labels((3, 2, 1, 0)) == (0, 1, 1, 0)
        assert _orbit_labels(identity_perm(3)) == (0, 1, 2)


class TestCompareAll:
    def test_degree_one(self):
        assert compare_all(1, 0) == []

    def test_small_grid(self):
        assert compare_all(4, 3) == []

    def test_default_caps(self):
        assert (oracle.DEFAULT_D_CAP, oracle.DEFAULT_B_CAP) == (6, 5)
        assert compare_all(6, 5) == []
        key = make_key(dq=6, b=5, mu=(2, 2, 1, 1), nu=(3, 3))
        bad = compare_all(6, 5, corruption=key)
        assert [(r["d"], r["b"], r["mu"], r["nu"]) for r in bad] == [(6, 5, (2, 2, 1, 1), (3, 3))] * 2

    def test_raised_degree_cap(self):
        assert compare_all(8, 5, d_cap=8) == []
        key = make_key(dq=8, b=5, mu=(3, 3, 1, 1), nu=(5, 2, 1))
        bad = compare_all(8, 5, d_cap=8, corruption=key)
        # the bump is one coefficient, b! = 120 on each count over d!
        row = {"d": 8, "b": 5, "mu": (3, 3, 1, 1), "nu": (5, 2, 1)}
        assert bad == [
            {**row, "kind": "disconnected", "oracle": F(190125, 2), "series": F(190365, 2),
             "formula": F(190125, 2)},
            {**row, "kind": "connected", "oracle": F(44100), "series": F(44220), "formula": None}]

    def test_parallel_matches_serial(self):
        assert compare_all(3, 2, jobs=2) == []

    def test_jobs_clamped_to_cpu_count(self, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, tasks):
                return [fn(*t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
        assert compare_all(3, 2, jobs=10_000) == []
        assert sizes == [3]
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
        assert compare_all(3, 2, jobs=10_000) == []
        assert sizes == [3]  # unknown CPU count: serial, no pool

    def test_caps(self):
        with pytest.raises(OracleLimitError, match="oracle scale limit"):
            compare_all(7, 0)

    @pytest.mark.parametrize("run", [compare_all, count_table])
    def test_one_walk_per_profile(self, run, monkeypatch):
        # each (d, mu) is walked once, to b_max, and every b is read from it
        calls = []
        sweep = oracle._sweep

        def recording(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(oracle, "_sweep", recording)
        run(4, 3)
        assert calls == [(d, mu.parts, 3) for d in range(1, 5) for mu in partitions_of(d)]
        assert len(calls) == 11

    def test_one_shape_table_per_degree(self, monkeypatch):
        # the tau cells, cov and compare read one table per d, kept with the
        # cells of their cache: one build per d, one dim per shape, and no
        # other listing of the shapes
        built, dims = [], Counter()

        class Counting(CharacterCache):
            def dimension(self, lam):
                dims[lam.parts] += 1
                return super().dimension(lam)

        class Recording(hurwitz._Shapes):
            def __init__(self, d, cache):
                built.append(d)
                super().__init__(d, cache)

        monkeypatch.setattr(hurwitz, "_Shapes", Recording)
        monkeypatch.setattr(hurwitz, "_STORE", hurwitz._Cells(Counting()))
        listed = record_listings(monkeypatch)
        build_tau(3, 2)
        assert built == [1, 2, 3]
        mu, nu = P((2, 2)), P((3, 1))
        assert cov_record(4, 2, mu, nu).value == count_tuples(4, mu, nu, 2, False)
        assert built == [1, 2, 3, 4]
        assert compare_all(4, 3) == []
        build_tau(4, 3)
        assert built == [1, 2, 3, 4]
        assert dims == Counter(lam.parts for d in range(1, 5) for lam in partitions_of(d))
        assert listed == []

    def test_count_table_lists_each_degree_once(self, monkeypatch):
        listed = record_listings(monkeypatch)
        count_table(4, 3)
        assert listed == [1, 2, 3, 4]

    def test_serial_run_imports_no_multiprocessing(self):
        code = ("import sys\n"
                "import hurwitz_toda.cli\n"
                "from hurwitz_toda.oracle import compare_all\n"
                "assert compare_all(3, 2) == []\n"
                "print('multiprocessing' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(hurwitz_toda.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    @pytest.mark.parametrize("run", [compare_all, count_table])
    def test_empty_box_refused(self, run, monkeypatch):
        # a box with no degree or no beta order holds nothing to compare
        def no_sweep(*args):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(oracle, "_sweep", no_sweep)
        for d_max, b_max, message in [(0, 2, "d_max must be at least 1"),
                                      (-1, 0, "d_max must be at least 1"),
                                      (2, -1, "b_max must be nonnegative"),
                                      (7, -1, "b_max must be nonnegative")]:
            with pytest.raises(ValueError, match=message) as exc:
                run(d_max, b_max)
            assert not isinstance(exc.value, OracleLimitError)

    def test_corrupted_series_detected(self):
        bad = compare_all(2, 2, corruption=make_key(dq=1, mu=(1,), nu=(1,)))
        assert bad
        first = bad[0]
        assert {"d", "b", "mu", "nu", "kind", "oracle", "series"} <= set(first)

    def test_corrupted_character_cache_detected(self):
        cache = CharacterCache()
        cache.seed(P((2,)), P((1, 1)), 3)  # correct value is 1
        bad = compare_all(2, 1, cache=cache)
        assert bad
        assert bad[0]["d"] == 2

    def test_corrupted_character_the_tau_cells_skip_detected(self):
        # the tau cells read (2) for the pair (2), (1, 1); the class-algebra
        # route reads every shape
        cache = CharacterCache()
        cache.seed(P((1, 1)), P((1, 1)), 3)  # correct value is 1
        clean = compare_all(2, 1)
        assert not clean
        bad = compare_all(2, 1, cache=cache)
        assert bad and bad[0]["d"] == 2
        assert all(r["series"] == r["oracle"] != r["formula"] for r in bad)

    @pytest.mark.parametrize("key", [
        make_key(dq=1, mu=(1,), nu=(1,)),
        make_key(dq=3, b=2, mu=(3,), nu=(2, 1)),
        make_key(dq=2, b=1, mu=(2,), nu=(2,)),  # a zero count
    ], ids=["lowest_degree", "box_corner", "zero_count"])
    def test_corruption_inside_the_box_is_read(self, key):
        bad = compare_all(3, 2, corruption=key)
        assert [(r["d"], r["b"], r["mu"], r["nu"], r["kind"]) for r in bad[:2]] == [
            (*key[:4], "disconnected"), (*key[:4], "connected")]

    @pytest.mark.parametrize("key", [
        make_key(dq=2, mu=(1,), nu=(1,)),
        make_key(dq=2, mu=(2,), nu=(1,)),
        make_key(dq=2, mu=(1,), nu=(1, 1)),
        make_key(dq=0, b=1),  # tau has no beta without q
        make_key(),
        make_key(dq=4, mu=(4,), nu=(4,)),
        make_key(dq=3, b=3, mu=(3,), nu=(3,)),
        make_key(dq=1, mu=(1,), nu=(1,), z=1),
        make_key(dq=1, mu=(1,), nu=(1,), s=1),
        (3, 0, (1, 2), (3,), 0, 0),
    ], ids=["profiles_below_degree", "nu_below_degree", "mu_below_degree", "beta_without_q",
            "constant", "past_d_max", "past_b_max", "z", "s", "unsorted_parts"])
    def test_corruption_compare_never_reads_refused(self, key, monkeypatch):
        # a bump that no comparison reads could not fail: refused before any work
        def no_work(*args):
            raise AssertionError("no work may start")

        monkeypatch.setattr(oracle, "_sweep", no_work)
        monkeypatch.setattr(oracle, "_Cells", no_work)
        with pytest.raises(ValueError, match="is not a count compare reads"):
            compare_all(3, 2, corruption=key)

    def test_corruption_leaves_the_shared_store_alone(self, monkeypatch):
        monkeypatch.setattr(hurwitz, "_STORE", hurwitz._Cells(DEFAULT_CACHE))
        assert compare_all(6, 5, corruption=make_key(dq=2, b=1, mu=(2,), nu=(1, 1)))
        assert hurwitz._STORE.tau_box == (0, 0)
        assert hurwitz_table(6, 5) == hurwitz_table(6, 5, cache=CharacterCache())
        assert compare_all(6, 5) == []

    def test_integer_counts_only(self, monkeypatch):
        # compare reads the cells: no tau series, no graded log, and no
        # Fraction at all while every count agrees, with cold caches and cells
        def refused(*args, **kwargs):
            raise AssertionError("compare builds no series")

        for owner, name in [(hurwitz, "build_tau"), (oracle, "build_tau"),
                            (hurwitz, "connected_series"), (TruncatedSeries, "log")]:
            monkeypatch.setattr(owner, name, refused)
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        assert compare_all(6, 5, cache=CharacterCache()) == []
        assert compare_all(6, 5) == []
        assert built == []


class TestSeriesAgainstWalk:
    """The series routes compare no longer reads, against the walk's counts:
    tau and its graded log, coefficient by coefficient, at (5, 4)."""

    def walk_counts(self, which):
        counts = {}
        for d in range(1, 6):
            for mu in partitions_of(d):
                for b, level in enumerate(oracle._sweep(d, mu.parts, 4)):
                    for nu, entry in level.items():
                        if entry[which]:
                            counts[(d, b, mu.parts, nu, 0, 0)] = F(entry[which], factorial(d))
        return counts

    def series_counts(self, series):
        # b! times each coefficient above the constant term
        return {key: x * factorial(key[1]) for key, x in series.terms() if key[0]}

    @pytest.mark.parametrize("cache", [None, CharacterCache()], ids=["shared", "fresh"])
    def test_tau_coefficients_are_all_tuple_counts(self, cache):
        tau = build_tau(5, 4, cache=cache)
        assert tau.constant_term() == 1
        assert self.series_counts(tau) == self.walk_counts(0)

    @pytest.mark.parametrize("cache", [None, CharacterCache()], ids=["shared", "fresh"])
    def test_log_coefficients_are_transitive_counts(self, cache):
        h = connected_series(build_tau(5, 4, cache=cache))
        assert h.constant_term() == 0
        assert self.series_counts(h) == self.walk_counts(1)


class TestCountTable:
    def test_rows_and_values(self):
        rows = count_table(2, 1)
        by_key = {(r["d"], r["b"], r["mu"], r["nu"]): r for r in rows}
        rec = by_key[(2, 0, (2,), (2,))]
        assert rec["disconnected_count"] == F(1, 2)
        assert rec["connected_count"] == F(1, 2)
        rec = by_key[(2, 0, (1, 1), (1, 1))]
        assert rec["disconnected_count"] == F(1, 2)
        assert rec["connected_count"] == 0
