from fractions import Fraction
from math import factorial

import pytest

from hurwitz_toda.characters import (
    CharacterCache,
    central_character,
    character,
    dimension,
)
from hurwitz_toda.partitions import (
    Partition,
    enumerate_partitions,
    f2_contents,
    partitions_of,
    transposition_class,
    z_mu,
)

P = Partition


def hook_dimension(lam):
    """Independent dimension oracle: the hook length formula."""
    parts = lam.parts
    d = lam.size
    if d == 0:
        return 1
    prod = 1
    for i, row in enumerate(parts):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in parts[i + 1:] if r > j)
            prod *= arm + leg + 1
    return factorial(d) // prod


# Hand-checked character tables; classes in reverse-lexicographic order.
TABLE_S3 = {
    # classes: (3), (2,1), (1,1,1)
    (3,): [1, 1, 1],
    (2, 1): [-1, 0, 2],
    (1, 1, 1): [1, -1, 1],
}
TABLE_S4 = {
    # classes: (4), (3,1), (2,2), (2,1,1), (1,1,1,1)
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [-1, 0, -1, 1, 3],
    (2, 2): [0, -1, 2, 0, 2],
    (2, 1, 1): [1, 0, -1, -1, 3],
    (1, 1, 1, 1): [-1, 1, 1, -1, 1],
}


class TestCharacterValues:
    @pytest.mark.parametrize("table,d", [(TABLE_S3, 3), (TABLE_S4, 4)])
    def test_frozen_tables(self, table, d):
        classes = list(partitions_of(d))
        for lam_parts, values in table.items():
            for mu, want in zip(classes, values):
                assert character(P(lam_parts), mu) == want

    def test_trivial_representation(self):
        for d in range(1, 7):
            for mu in partitions_of(d):
                assert character(P((d,)), mu) == 1

    def test_sign_representation(self):
        for d in range(1, 7):
            for mu in partitions_of(d):
                assert character(P((1,) * d), mu) == (-1) ** (d - mu.length)

    def test_empty_shape(self):
        assert character(P(()), P(())) == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible sizes"):
            character(P((2, 1)), P((2,)))

    def test_conjugate_sign_twist(self):
        for d in range(1, 9):
            for lam in partitions_of(d):
                lamc = lam.conjugate()
                for mu in partitions_of(d):
                    assert character(lam, mu) == (-1) ** (d - mu.length) * character(lamc, mu)


class TestDimension:
    def test_examples(self):
        assert dimension(P(())) == 1
        assert dimension(P((2, 2))) == 2
        assert dimension(P((3, 1))) == 3
        assert dimension(P((2, 1))) == 2

    def test_matches_hook_length_formula(self):
        for lam in enumerate_partitions(8):
            assert dimension(lam) == hook_dimension(lam)

    def test_dimension_squares_sum_to_group_order(self):
        for d in range(11):
            assert sum(dimension(lam) ** 2 for lam in partitions_of(d)) == factorial(d)


class TestOrthogonality:
    def test_columns(self):
        for d in range(1, 9):
            classes = list(partitions_of(d))
            shapes = list(partitions_of(d))
            chi = {mu: [character(lam, mu) for lam in shapes] for mu in classes}
            for i, mu in enumerate(classes):
                for nu in classes[i:]:
                    dot = sum(a * b for a, b in zip(chi[mu], chi[nu]))
                    assert dot == (z_mu(mu) if mu == nu else 0)


class TestCentralCharacter:
    def test_identity_class(self):
        for d in range(1, 7):
            for lam in partitions_of(d):
                assert central_character(P((1,) * d), lam) == 1

    def test_transposition_class_in_s2(self):
        assert central_character(P((2,)), P((2,))) == 1
        assert f2_contents(P((2,))) == 1

    def test_zero_on_mixed_hook(self):
        assert central_character(P((2, 1)), P((2, 1))) == 0
        assert f2_contents(P((2, 1))) == 0

    def test_transposition_class_equals_f2(self):
        for d in range(2, 11):
            t = transposition_class(d)
            for lam in partitions_of(d):
                assert central_character(t, lam) == f2_contents(lam)

    def test_exact_rational(self):
        val = central_character(P((3,)), P((2, 1)))
        assert isinstance(val, Fraction)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible sizes"):
            central_character(P((2,)), P((2, 1)))


class TestCache:
    def test_hit_counting(self):
        cache = CharacterCache()
        cache.character(P((3, 2)), P((2, 2, 1)))
        misses = cache.misses
        cache.character(P((3, 2)), P((2, 2, 1)))
        assert cache.misses == misses
        assert cache.hits > 0

    def test_hit_builds_no_partition(self, monkeypatch):
        cache = CharacterCache()
        lam, mu = P((3, 2)), P((2, 2, 1))
        chi, dim = cache.character(lam, mu), cache.dimension(lam)
        built = []
        init = Partition.__init__
        monkeypatch.setattr(Partition, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        hits = cache.hits
        assert cache.character(lam, mu) == chi and cache.dimension(lam) == dim
        assert cache.hits == hits + 2 and built == []

    def test_seed_poisons_values(self):
        cache = CharacterCache()
        good = cache.character(P((2, 1)), P((1, 1, 1)))
        cache.seed(P((2, 1)), P((1, 1, 1)), good + 7)
        assert cache.character(P((2, 1)), P((1, 1, 1))) == good + 7

    def test_isolated_from_default(self):
        cache = CharacterCache()
        cache.seed(P((2, 1)), P((1, 1, 1)), 99)
        assert character(P((2, 1)), P((1, 1, 1))) == 2

    def test_stats_shape(self):
        cache = CharacterCache()
        cache.dimension(P((2, 2)))
        stats = cache.stats()
        assert set(stats) == {"hits", "misses", "entries"}
