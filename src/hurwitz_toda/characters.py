"""Symmetric-group character values by rim-hook stripping.

Only character values on classes of the special shapes that covering counts
need are ever requested, so a memoized recursion beats building whole tables.
The recursion works on first-column hook lengths (beta numbers): removing a
rim hook of length r replaces one beta number by itself minus r; the sign is
read off from how many occupied values the move jumps over.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import Partition, _partition, class_size


class CharacterCache:
    """Memo table of character values keyed by (shape, class type).

    Values are deterministic, so concurrent duplicated computation is
    harmless; inserts are idempotent.  ``seed`` can overwrite an entry,
    which the tests use to poison a cache on purpose.
    """

    def __init__(self):
        self._table: dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._table)}

    def seed(self, lam: Partition, mu: Partition, value: int) -> None:
        self._table[(_partition(lam).parts, _partition(mu).parts)] = value

    def character(self, lam: Partition, mu: Partition) -> int:
        lam, mu = _partition(lam), _partition(mu)
        if lam.size != mu.size:
            raise ValueError(
                f"incompatible sizes: |lambda|={lam.size}, |mu|={mu.size}"
            )
        return self._char(lam.parts, mu.parts)

    def dimension(self, lam: Partition) -> int:
        lam = _partition(lam)
        return self._char(lam.parts, (1,) * lam.size)

    def _char(self, lam: tuple, mu: tuple) -> int:
        if not mu:
            return 1
        key = (lam, mu)
        cached = self._table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        r, rest = mu[0], mu[1:]
        ell = len(lam)
        # beta numbers: strictly decreasing, one per row
        beta = [lam[i] + ell - 1 - i for i in range(ell)]
        occupied = set(beta)
        total = 0
        for b in beta:
            nb = b - r
            if nb < 0 or nb in occupied:
                continue
            jumped = sum(1 for c in beta if nb < c < b)
            newbeta = sorted((occupied - {b}) | {nb}, reverse=True)
            newlam = tuple(nb2 - (ell - 1 - i) for i, nb2 in enumerate(newbeta))
            while newlam and newlam[-1] == 0:
                newlam = newlam[:-1]
            sub = self._char(newlam, rest)
            total += -sub if jumped % 2 else sub
        self._table[key] = total
        return total


DEFAULT_CACHE = CharacterCache()


def character(lam: Partition, mu: Partition, *, cache: CharacterCache | None = None) -> int:
    """Irreducible character of shape ``lam`` on the class of type ``mu``."""
    return (cache or DEFAULT_CACHE).character(lam, mu)


def dimension(lam: Partition, *, cache: CharacterCache | None = None) -> int:
    """Dimension of the irreducible representation of shape ``lam``."""
    return (cache or DEFAULT_CACHE).dimension(lam)


def central_character(C: Partition, lam: Partition, *, cache: CharacterCache | None = None) -> Fraction:
    """Eigenvalue |C| chi(C) / dim of the class sum of ``C`` acting on ``lam``.

    For the transposition class this equals the row-sum evaluation of f2,
    a cross-module identity the tests enforce.
    """
    C, lam = Partition(C), Partition(lam)
    if C.size != lam.size:
        raise ValueError(f"incompatible sizes: |C|={C.size}, |lambda|={lam.size}")
    cc = cache or DEFAULT_CACHE
    return Fraction(class_size(C) * cc.character(lam, C), cc.dimension(lam))
