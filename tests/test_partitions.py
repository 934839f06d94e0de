import itertools
from fractions import Fraction
from math import factorial

import pytest

from hurwitz_toda.partitions import (
    MayaSet,
    Partition,
    class_size,
    enumerate_partitions,
    f2_contents,
    f2_maya,
    maya_set,
    partitions_of,
    transposition_class,
    z_mu,
)


def pentagonal_counts(n_max):
    """Independent partition-count oracle via the pentagonal recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def content_sum(lam):
    """Total content of the diagram, summed box by box."""
    return sum(j - i for i, row in enumerate(lam.parts) for j in range(row))


class TestPartitionType:
    def test_basic_fields(self):
        p = Partition((3, 1, 1))
        assert p.size == 5
        assert p.length == 3
        assert p.multiplicities == {3: 1, 1: 2}

    def test_empty(self):
        p = Partition(())
        assert p.size == 0 and p.length == 0
        assert p.multiplicities == {}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, 0))
        with pytest.raises(ValueError):
            Partition((-1,))

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 3))

    def test_string_round_trip(self):
        p = Partition.from_string("3,1,1")
        assert p == Partition((3, 1, 1))
        assert p.to_string() == "3,1,1"
        assert Partition.from_string("") == Partition(())
        assert Partition.from_string("1,3") == Partition((3, 1))

    def test_hash_and_eq(self):
        assert Partition((2, 1)) == Partition([2, 1])
        assert hash(Partition((2, 1))) == hash(Partition((2, 1)))
        assert Partition((2, 1)) == (2, 1)

    def test_conjugate(self):
        assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
        assert Partition(()).conjugate() == Partition(())
        for lam in enumerate_partitions(8):
            assert lam.conjugate().conjugate() == lam


class TestEnumeration:
    def test_dmax_zero(self):
        assert enumerate_partitions(0) == [Partition(())]

    def test_counts_small(self):
        ps = enumerate_partitions(4)
        counts = [sum(1 for p in ps if p.size == d) for d in range(5)]
        assert counts == [1, 1, 2, 3, 5]

    def test_count_of_ten(self):
        assert sum(1 for p in enumerate_partitions(10) if p.size == 10) == 42

    def test_counts_match_pentagonal_recurrence(self):
        oracle = pentagonal_counts(30)
        ps = enumerate_partitions(30)
        for d in range(31):
            assert sum(1 for p in ps if p.size == d) == oracle[d]

    def test_reverse_lexicographic_order(self):
        got = [p.parts for p in partitions_of(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_no_duplicates(self):
        ps = enumerate_partitions(12)
        assert len(ps) == len(set(ps))

    def test_deterministic(self):
        assert enumerate_partitions(9) == enumerate_partitions(9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1)


class TestClassData:
    def test_z_mu_examples(self):
        assert z_mu(Partition((1,))) == 1
        assert z_mu(Partition((2, 1))) == 2
        assert z_mu(Partition((2, 2))) == 8

    def test_class_sizes_examples(self):
        assert class_size(Partition((2, 1))) == 3
        assert class_size(Partition((2, 2))) == 3

    def test_classes_partition_group(self):
        for d in range(11):
            assert sum(class_size(mu) for mu in partitions_of(d)) == factorial(d)

    def test_class_size_against_enumeration(self):
        # brute-force cycle-type census for small degrees
        def ctype(p):
            seen = [False] * len(p)
            out = []
            for i in range(len(p)):
                if seen[i]:
                    continue
                n, j = 0, i
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
                    n += 1
                out.append(n)
            return tuple(sorted(out, reverse=True))

        for d in range(1, 6):
            census = {}
            for p in itertools.permutations(range(d)):
                t = ctype(p)
                census[t] = census.get(t, 0) + 1
            for mu in partitions_of(d):
                assert class_size(mu) == census[mu.parts]

    def test_transposition_class(self):
        assert transposition_class(2) == Partition((2,))
        assert transposition_class(4) == Partition((2, 1, 1))
        with pytest.raises(ValueError):
            transposition_class(1)


class TestMaya:
    def test_vacuum(self):
        assert maya_set(Partition(())) == MayaSet(frozenset(), frozenset())

    def test_single_box(self):
        # values are doubled half-integers: 1 is 1/2, -1 is -1/2
        m = maya_set(Partition((1,)))
        assert m.plus == frozenset({1}) and m.minus == frozenset({-1})

    def test_hook(self):
        m = maya_set(Partition((2, 1)))
        assert m.plus == frozenset({3}) and m.minus == frozenset({-3})

    def test_as_fractions(self):
        plus, minus = maya_set(Partition((1,))).as_fractions()
        assert plus == {Fraction(1, 2)} and minus == {Fraction(-1, 2)}

    def test_charge_zero(self):
        for lam in enumerate_partitions(10):
            m = maya_set(lam)
            assert len(m.plus) == len(m.minus)
            assert all(v > 0 and v % 2 for v in m.plus)
            assert all(v < 0 and v % 2 for v in m.minus)


class TestF2:
    def test_examples(self):
        assert f2_contents(Partition(())) == 0
        assert f2_contents(Partition((2,))) == 1
        assert f2_contents(Partition((1, 1))) == -1
        assert f2_maya(Partition(())) == 0
        assert f2_maya(Partition((1,))) == 0
        assert f2_maya(Partition((3, 1))) == 2

    def test_equals_total_content(self):
        for lam in enumerate_partitions(12):
            assert f2_contents(lam) == content_sum(lam)

    def test_row_and_profile_forms_agree(self):
        for lam in enumerate_partitions(14):
            assert f2_contents(lam) == f2_maya(lam)
            assert type(f2_contents(lam)) is int

    def test_antisymmetry_under_conjugation(self):
        for lam in enumerate_partitions(14):
            assert f2_contents(lam.conjugate()) == -f2_contents(lam)
