"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

All checks are exact; arithmetic is rational throughout, so every tolerance
is zero.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

from fractions import Fraction
from math import factorial

import pytest

from hurwitz_toda.characters import character, central_character, dimension
from hurwitz_toda.hurwitz import build_tau
from hurwitz_toda.oracle import compare_all
from hurwitz_toda.partitions import (
    enumerate_partitions,
    f2_contents,
    f2_maya,
    partitions_of,
    transposition_class,
    z_mu,
)
from hurwitz_toda.series import make_key
from hurwitz_toda.verify import (
    verify_hirota,
    verify_tau_n,
    verify_toda,
    verify_toda_specialized,
)

F = Fraction


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_toda_identity():
    r = verify_toda(6, 8)
    report(1, r.passed,
           f"Toda bilinear residual identically zero at (d_max, b_max) = (6, 8); "
           f"first_failure={r.first_failure}")


def test_criterion_2_hirota_restriction():
    ok = True
    details = []
    for m in (-1, 0, 1):
        for n_s in (1, 2):
            r = verify_hirota(m, n_s, 4, 4)
            ok = ok and r.passed
            details.append(f"m={m},s{n_s}:{'ok' if r.passed else 'FAIL'}")
    r0 = verify_hirota(0, 1, 4, 4)
    toda_match = r0.notes.get("matches_toda_residual") is True
    ok = ok and toda_match
    report(2, ok,
           "Hirota residual zero for m in {-1,0,1}, first-order s1, s2 at "
           f"d_max=4 [{', '.join(details)}]; m=0/s1 reproduces the Toda "
           f"residual monomial-for-monomial: {toda_match}")


def test_criterion_3_oracle_equivalence():
    discrepancies = compare_all(5, 4)
    spot = (
        build_tau(2, 0).coefficient(make_key(dq=2, mu=(2,), nu=(2,))) == F(1, 2),
        # spot constants, re-derived by the oracle inside compare_all
    )
    from hurwitz_toda.hurwitz import double_hurwitz
    from hurwitz_toda.partitions import Partition
    h34 = double_hurwitz(3, 4, Partition((1, 1, 1)), Partition((1, 1, 1))).value
    h22 = double_hurwitz(2, 2, Partition((1, 1)), Partition((1, 1))).value
    ok = not discrepancies and all(spot) and h34 == 4 and h22 == F(1, 2)
    report(3, ok,
           f"three-way agreement (tuple counts vs class-algebra formula vs "
           f"series) for all d <= 5, b <= 4: {len(discrepancies)} discrepancies; "
           f"Cov_2((2),(2))=1/2: {spot[0]}, Hur_{{3,4}}=4: {h34 == 4}, "
           f"Hur_{{2,2}}=1/2: {h22 == F(1, 2)}")


def test_criterion_4_f2_equivalence():
    bad = [lam for lam in enumerate_partitions(14) if f2_contents(lam) != f2_maya(lam)]
    report(4, not bad,
           f"row-sum and profile evaluations of f2 agree on all "
           f"{len(enumerate_partitions(14))} partitions with |lambda| <= 14; "
           f"mismatches={bad}")


def test_criterion_5_character_sanity():
    ortho_ok = True
    for d in range(1, 9):
        shapes = list(partitions_of(d))
        classes = list(partitions_of(d))
        chi = {mu: [character(lam, mu) for lam in shapes] for mu in classes}
        for i, mu in enumerate(classes):
            for nu in classes[i:]:
                dot = sum(a * b for a, b in zip(chi[mu], chi[nu]))
                want = z_mu(mu) if mu == nu else 0
                ortho_ok = ortho_ok and dot == want
    burnside_ok = all(
        sum(dimension(lam) ** 2 for lam in partitions_of(d)) == factorial(d)
        for d in range(1, 9)
    )
    central_ok = all(
        central_character(transposition_class(d), lam) == f2_contents(lam)
        for d in range(2, 11) for lam in partitions_of(d)
    )
    ok = ortho_ok and burnside_ok and central_ok
    report(5, ok,
           f"column orthogonality (d <= 8): {ortho_ok}; sum of dim^2 = d! "
           f"(d <= 8): {burnside_ok}; transposition central character = f2 "
           f"(|lambda| <= 10): {central_ok}")


def test_criterion_6_specialized_toda():
    r = verify_toda_specialized(6)
    report(6, r.passed,
           f"restricted series depends only on x = q p1 p'1 and the extracted "
           f"recursion reproduces simple_hurwitz(g, d) for all "
           f"2g + 2d - 2 <= 10; components={r.notes}")


def test_criterion_7_charge_shift_identity():
    ok = True
    details = []
    for n in (0, 1, -1, 2, -2, 3, -3):
        r = verify_tau_n(n, 5, 6)
        ok = ok and r.passed
        details.append(f"n={n}:{'ok' if r.passed else 'FAIL'}")
    r1 = verify_tau_n(1, 2, 2)
    exponent_ok = r1.notes["prefactor_beta_exponent"] == F(1, 8)
    ok = ok and exponent_ok
    report(7, ok,
           f"lattice equations and round trips exact [{', '.join(details)}]; prefactor exponent "
           f"n(4n^2-1)/24 at n=1 equals 1/8: {exponent_ok}")


def test_criterion_8_negative_controls():
    key = make_key(dq=1, mu=(1,), nu=(1,))
    toda = verify_toda(4, 4, corruption=key)
    hirota = verify_hirota(0, 1, 3, 3, corruption=key)
    oracle = compare_all(2, 2, corruption=key)
    specialized = verify_toda_specialized(4, corruption=key)
    ok = (
        not toda.passed and toda.first_failure is not None
        and not hirota.passed and hirota.first_failure is not None
        and bool(oracle)
        and not specialized.passed and specialized.first_failure is not None
    )
    report(8, ok,
           "single-coefficient corruption of the series makes criteria 1, 2, "
           f"3, 6 fail with offending monomial reported: toda={toda.first_failure}, "
           f"hirota={hirota.first_failure}, oracle_discrepancies={len(oracle)}, "
           f"specialized={specialized.first_failure}")
