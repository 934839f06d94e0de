"""Integer partitions and the combinatorial data attached to them.

Partitions serve double duty here: they are cycle types of symmetric-group
conjugacy classes and labels of irreducible representations.  Besides
enumeration and centralizer orders, this module evaluates the transposition
eigenvalue f2 in two independent ways: as a sum over rows (equivalently, the
total content of the diagram) and through the half-integer coding of the
diagram's profile.  Agreement of the two is a cross-check exercised by the
test suite on every small partition.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial
from typing import Iterator


class Partition:
    """A weakly decreasing tuple of positive integers.

    Immutable and hashable.  ``size`` (sum of parts) and ``length`` (number
    of parts) are precomputed; the multiplicity map is built lazily since
    only centralizer-order computations need it.
    """

    __slots__ = ("parts", "size", "length", "_mults")

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            parts = parts.parts
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"partition parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        self.parts = parts
        self.size = sum(parts)
        self.length = len(parts)
        self._mults = None

    @property
    def multiplicities(self) -> dict[int, int]:
        """Map part value -> number of occurrences."""
        if self._mults is None:
            mults: dict[int, int] = {}
            for p in self.parts:
                mults[p] = mults.get(p, 0) + 1
            self._mults = mults
        return self._mults

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse a comma-separated part list such as ``"3,1,1"``.

        An empty string denotes the empty partition.  Parts may be given in
        any order; they are sorted.
        """
        text = text.strip()
        if not text:
            return cls(())
        parts = sorted((int(tok) for tok in text.split(",")), reverse=True)
        return cls(parts)

    def to_string(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return (self.size, self.parts) < (other.size, other.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def _partition(x) -> Partition:
    """``x`` itself when it already is a Partition, so passing one builds none."""
    return x if isinstance(x, Partition) else Partition(x)


def _unchecked(parts: tuple) -> Partition:
    """A Partition of ``parts``, already positive and weakly decreasing."""
    lam = object.__new__(Partition)
    lam.parts, lam.size, lam.length, lam._mults = parts, sum(parts), len(parts), None
    return lam


class MayaSet(namedtuple("MayaSet", "plus minus")):
    """Half-integer profile coding of a partition.

    Elements are stored doubled so that everything stays in exact integer
    arithmetic: the half-integer k is represented by the odd integer 2k.
    ``plus`` holds the positive elements of the coded set, ``minus`` the
    negative half-integers missing from it, as frozensets; both are finite
    and of equal cardinality for any set produced by :func:`maya_set`.
    """

    __slots__ = ()

    def as_fractions(self) -> tuple[set[Fraction], set[Fraction]]:
        """Undoubled view, for display."""
        return (
            {Fraction(v, 2) for v in self.plus},
            {Fraction(v, 2) for v in self.minus},
        )


def partitions_of(d: int) -> Iterator[Partition]:
    """Yield the partitions of ``d`` in reverse-lexicographic order."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        yield _unchecked(())
        return
    cur = (d,)
    yield _unchecked(cur)
    while True:
        i = len(cur) - 1
        while i >= 0 and cur[i] == 1:
            i -= 1
        if i < 0:
            return
        rem = len(cur) - i
        head = cur[:i] + (cur[i] - 1,)
        cap = head[-1]
        tail = []
        while rem > 0:
            t = min(cap, rem)
            tail.append(t)
            rem -= t
        cur = head + tuple(tail)
        yield _unchecked(cur)


def enumerate_partitions(d_max: int) -> list[Partition]:
    """All partitions of every size up to ``d_max``.

    Sizes ascend; within a fixed size the order is reverse-lexicographic.
    The ordering is deterministic so series coefficients and test fixtures
    are reproducible.
    """
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    out: list[Partition] = []
    for d in range(d_max + 1):
        out.extend(partitions_of(d))
    return out


def z_mu(mu: Partition) -> int:
    """Centralizer order of a permutation of cycle type ``mu``.

    Equals prod_k k^{m_k} m_k! over the multiplicities m_k; the conjugacy
    class has size d!/z_mu.
    """
    z = 1
    for k, m in _partition(mu).multiplicities.items():
        z *= k**m * factorial(m)
    return z


def class_size(mu: Partition) -> int:
    """Number of elements of cycle type ``mu`` in the symmetric group."""
    mu = _partition(mu)
    return factorial(mu.size) // z_mu(mu)


def transposition_class(d: int) -> Partition:
    """Cycle type (2, 1, ..., 1) of a transposition in degree ``d`` >= 2."""
    if d < 2:
        raise ValueError(f"no transpositions in degree {d}")
    return Partition((2,) + (1,) * (d - 2))


def maya_set(lam: Partition) -> MayaSet:
    """Profile set of ``lam`` split into its positive part and its holes.

    The coded set is {lam_i - i + 1/2 : i >= 1}; beyond the last row it
    coincides with the negative half-integers, so both returned sets are
    finite.  Values are doubled (see :class:`MayaSet`).
    """
    lam = Partition(lam)
    rows = {2 * (lam.parts[i] - (i + 1)) + 1 for i in range(lam.length)}
    plus = frozenset(v for v in rows if v > 0)
    minus = frozenset(
        -(2 * j - 1) for j in range(1, lam.length + 1) if -(2 * j - 1) not in rows
    )
    return MayaSet(plus=plus, minus=minus)


def f2_contents(lam: Partition) -> int:
    """Transposition eigenvalue of ``lam`` as a row sum.

    Computed as (1/2) sum_i [(lam_i - i + 1/2)^2 - (-i + 1/2)^2]; the terms
    vanish identically once lam_i = 0, so the sum stops at the last row.
    Equals the total content sum_{(i,j)} (j - i) of the diagram, an integer:
    each row contributes 4 lam_i (lam_i + 1 - 2i), a multiple of eight.
    """
    lam = Partition(lam)
    num = 0
    for i in range(1, lam.length + 1):
        a = 2 * (lam.parts[i - 1] - i) + 1
        c = 1 - 2 * i
        num += a * a - c * c
    return num // 8


def f2_maya(lam: Partition) -> Fraction:
    """Transposition eigenvalue of ``lam`` from its profile coding.

    Equals sum_{k in plus} k^2/2 - sum_{k in minus} k^2/2; must agree with
    :func:`f2_contents` on every partition.
    """
    ms = maya_set(lam)
    num = sum(v * v for v in ms.plus) - sum(v * v for v in ms.minus)
    return Fraction(num, 8)
