"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as they
complete.  Every check here is exact integer arithmetic; there are no
tolerances anywhere.
"""

from itertools import product

from lrhive.formulas import (
    gl3_coefficient,
    gl3_exceeds,
    isotypic_count_selfdual_family,
    nr_coefficient,
    nr_support,
    selfdual_component_count,
)
from lrhive.hive import Hive, count_hives, enumerate_hives, restrict_hive
from lrhive.horn import hilbert_generators, horn4_nr2_member, horn4_nr_member
from lrhive.partitions import Partition, bar_reduce, dual_star, partitions_of
from lrhive.piecewise import (
    enum_value,
    family_function,
    multiplicity_multiset,
    point_of,
    s1_fixed_pieces,
)
from lrhive.tableaux import lr_conjugation_check, lr_tableaux_count
from lrhive.verify import SweepConfig, cz_sum_check, reproduce_gl5_counterexample, sweep


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def pad(shape, n):
    return Partition(shape + (0,) * (n - len(shape)))


def nr(l1, l2, n):
    return Partition((l1,) + (l2,) * (n - 2) + (0,))


def test_criterion_01_gl3_worked_example():
    lam, mu = Partition((5, 3, 0)), Partition((6, 3, 0))
    ms = multiplicity_multiset(lam, mu)
    ms_dual = multiplicity_multiset(Partition((5, 2, 0)), mu)
    spots = {
        (8, 6, 3): 3, (9, 8, 0): 1, (11, 6, 0): 1,
        (7, 6, 4): 2, (9, 5, 3): 3, (11, 3, 3): 1,
    }
    ok = ms.as_dict() == {1: 11, 2: 7, 3: 3} == ms_dual.as_dict()
    ok = ok and all(count_hives(lam, mu, Partition(v)) == c for v, c in spots.items())
    report(1, "rank-3 worked example multiset {1:11,2:7,3:3} and spot checks", ok)


def test_criterion_02_oracle_equivalence():
    ok = True
    for n in range(1, 6):
        for a in range(13):
            for ls in partitions_of(a, n):
                lam = pad(ls, n)
                for b in range(13 - a):
                    for ms in partitions_of(b, n):
                        mu = pad(ms, n)
                        for ns in partitions_of(a + b, n, lam[0] + mu[0]):
                            nu = pad(ns, n)
                            if count_hives(lam, mu, nu) != lr_tableaux_count(lam, mu, nu):
                                ok = False
    report(2, "hive counts equal tableau counts, n <= 5, |lam|+|mu| <= 12", ok)


def test_criterion_03_gl3_closed_form():
    ok = True
    for l1 in range(9):
        for l2 in range(l1 + 1):
            for m1 in range(9):
                for m2 in range(m1 + 1):
                    lam, mu = Partition((l1, l2, 0)), Partition((m1, m2, 0))
                    for ns in partitions_of(l1 + l2 + m1 + m2, 3, l1 + m1):
                        nu = pad(ns, 3)
                        h = count_hives(lam, mu, nu)
                        if gl3_coefficient(lam, mu, nu) != h:
                            ok = False
                        for c in range(6):
                            if gl3_exceeds(lam, mu, nu, c) != (h > c):
                                ok = False
    report(3, "rank-3 interval formula and threshold test match hives, parts <= 8", ok)


def test_criterion_04_stability():
    ok = True
    for l1 in range(5):
        for l2 in range(l1 + 1):
            for m1 in range(5):
                for m2 in range(m1 + 1):
                    for nu4, value in nr_support(nr(l1, l2, 4), nr(m1, m2, 4)):
                        for n in (4, 5, 6):
                            nu = Partition(
                                (nu4[0], nu4[1]) + (l2 + m2,) * (n - 4) + (nu4[2], nu4[3])
                            )
                            got = count_hives(nr(l1, l2, n), nr(m1, m2, n), nu)
                            if got != value or got != nr_coefficient(
                                nr(l1, l2, n), nr(m1, m2, n), nu
                            ):
                                ok = False
    report(4, "near-rectangular coefficients independent of rank 4..6, bounds <= 4", ok)


def test_criterion_05_gl3_count_function():
    f = family_function("gl3")
    ok = True
    for k1, k2, l1, l2 in product(range(7), repeat=4):
        ms = multiplicity_multiset(nr(k1 + k2, k2, 3), nr(l1 + l2, l2, 3))
        for c in range(7):
            point = {"k1": k1, "k2": k2, "l1": l1, "l2": l2, "c": c}
            value, _ = f.evaluate(point)
            swapped, _ = f.evaluate({**point, "k1": k2, "k2": k1})
            if value != ms.count_above(c) or swapped != value:
                ok = False
    report(5, "7-piece rank-3 table matches enumeration on [0,6]^5 with swap symmetry", ok)


def test_criterion_06_gl4nr2_count_function():
    f = family_function("gl4nr2")
    ok = len(f.pieces) == 36 and len(s1_fixed_pieces(f)) == 12
    for k1, k2, l1, l2 in product(range(5), repeat=4):
        ms = multiplicity_multiset(nr(k1 + k2, k2, 4), nr(l1 + l2, l2, 4))
        for c in range(4):
            point = {"k1": k1, "k2": k2, "l1": l1, "l2": l2, "c": c}
            value, _ = f.evaluate(point)
            swapped, _ = f.evaluate({**point, "k1": k2, "k2": k1})
            if value != ms.count_above(c) or swapped != value:
                ok = False
    report(6, "36-piece rank-4 table (12 swap-fixed) matches enumeration", ok)


def test_criterion_07_horn_saturation():
    ok = True
    nr_lams = [nr(a + b, b, 4) for a in range(6) for b in range(6) if a + b <= 5]
    mus = [
        Partition((m1, m2, m3, 0))
        for m1 in range(6) for m2 in range(m1 + 1) for m3 in range(m2 + 1)
    ]
    for lam in nr_lams:
        for mu in nr_lams:
            for ns in partitions_of(lam.size + mu.size, 4, lam[0] + mu[0]):
                nu = pad(ns, 4)
                if horn4_nr2_member(lam, mu, nu) != (count_hives(lam, mu, nu) > 0):
                    ok = False
    for lam in nr_lams:
        for mu in mus:
            for ns in partitions_of(lam.size + mu.size, 4, lam[0] + mu[0]):
                nu = pad(ns, 4)
                if horn4_nr_member(lam, mu, nu) != (count_hives(lam, mu, nu) > 0):
                    ok = False
    gens2, gens = hilbert_generators("nr2"), hilbert_generators("nr")
    ok = ok and len(gens2) == 8 and len(gens) == 12
    for g in gens2:
        ok = ok and count_hives(g.lam, g.mu, g.nu) == 1 and horn4_nr2_member(g.lam, g.mu, g.nu)
    for g in gens:
        ok = ok and count_hives(g.lam, g.mu, g.nu) == 1 and horn4_nr_member(g.lam, g.mu, g.nu)
    report(7, "facet systems equal nonvanishing for parts <= 5; 8+12 generators", ok)


def test_criterion_08_component_count_formulas():
    from fractions import Fraction

    ok = True
    for k in range(5):
        for l in range(5):
            lam, mu = Partition((2 * k, k, k, 0)), Partition((2 * l, l, l, 0))
            positive = [
                (nu, c)
                for ns in partitions_of(lam.size + mu.size, 4, lam[0] + mu[0])
                for nu in [pad(ns, 4)]
                for c in [count_hives(lam, mu, nu)]
                if c > 0
            ]
            if len(positive) != isotypic_count_selfdual_family(k, l):
                ok = False
            selfdual = sum(1 for nu, _ in positive if nu[0] + nu[3] == nu[1] + nu[2])
            expected = selfdual_component_count(k, l)
            if selfdual != expected or expected != (min(k, l) + 1) ** 2:
                ok = False
    for l in range(5):  # both closed-form branches agree where they meet
        k = 2 * l
        cubic = (
            Fraction(1, 3) * k**3 - 2 * k**2 * l + 4 * k * l**2 - Fraction(5, 3) * l**3
            - k**2 + 4 * k * l - l**2 + Fraction(2, 3) * k + Fraction(5, 3) * l + 1
        )
        if cubic != (l + 1) ** 3:
            ok = False
    report(8, "component count cubic/branches and (min(k,l)+1)^2 self-dual counts", ok)


def test_criterion_09_sample_pieces():
    f = family_function("gl4nr-samples")
    ok = len(f.pieces) == 3
    parity_hits = set()
    for coords in product(range(7), repeat=5):
        point = point_of(f.variables, coords)
        if not point["m1"] >= point["m2"] >= point["m3"]:
            continue
        hits = f.values(point)  # every containing piece
        truth = enum_value("gl4nr-samples", point) if hits else None
        for idx, value in hits:
            if value != truth:
                ok = False
            if idx == 1:
                parity_hits.add(sum(coords) % 2)
    ok = ok and parity_hits == {0, 1}
    report(9, "three sample pieces match enumeration up to 6, both parity branches", ok)


def test_criterion_10_gl5_counterexample():
    v = reproduce_gl5_counterexample()
    ok = v.status == "PASS" and (v.left, v.right) == (34, 33)
    pair = (Partition((3, 3, 2, 0, 0)), Partition((4, 4, 1, 0, 0)))
    ok = ok and cz_sum_check(*pair).status == "PASS"
    report(10, "rank-5 counterexample counts 34 vs 33 while sums still agree", ok)


def test_criterion_11_conjecture_sweeps():
    r4 = sweep(SweepConfig(n=4, max_nr=3, max_mu_size=8, check="conj1"))
    r5 = sweep(SweepConfig(n=5, max_nr=2, max_mu_size=6, check="conj1"))
    ok = r4.fails == 0 and r5.fails == 0 and r4.passes and r5.passes
    report(11, "conjecture-1 sweeps pass at rank 4 (<=3, |mu|<=8) and rank 5 (<=2, |mu|<=6)", ok)


def test_criterion_12_property_suite():
    ok = True
    # swap and simultaneous-dual symmetry of the count-above function
    for l1, l2, m1, m2 in product(range(4), repeat=4):
        if l1 < l2 or m1 < m2:
            continue
        lam, mu = Partition((l1, l2, 0)), Partition((m1, m2, 0))
        ms = multiplicity_multiset(lam, mu)
        if ms != multiplicity_multiset(mu, lam):
            ok = False
        if ms != multiplicity_multiset(dual_star(lam), dual_star(mu)):
            ok = False
    # bar reduction: coefficient and count invariance
    for lam, mu, nu in [
        ((4, 3, 2), (5, 4, 1), (7, 6, 6)),
        ((3, 2, 2, 1), (4, 2, 1, 1), (5, 4, 4, 3)),
    ]:
        lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
        shift = lam[lam.n - 1] + mu[mu.n - 1]
        reduced_nu = Partition(tuple(p - shift for p in nu))
        if count_hives(lam, mu, nu) != count_hives(bar_reduce(lam), bar_reduce(mu), reduced_nu):
            ok = False
        if multiplicity_multiset(lam, mu) != multiplicity_multiset(bar_reduce(lam), bar_reduce(mu)):
            ok = False
    # dual_star is an involution on reduced partitions
    for shape in partitions_of(6, 4):
        lam = bar_reduce(pad(shape, 4))
        if dual_star(dual_star(lam)) != lam:
            ok = False
    # conjugation invariance of the tableau count
    for ns in partitions_of(6, 3):
        nu = pad(ns, 3)
        for a in range(4):
            lam = Partition((a, a // 2, 0))
            mu_size = 6 - lam.size
            if mu_size < 0:
                continue
            for msh in partitions_of(mu_size, 3):
                if not lr_conjugation_check(lam, pad(msh, 3), nu):
                    ok = False
    # restriction to size 4 is injective and count-preserving
    for n in (5, 6):
        lam, mu = nr(3, 1, n), nr(2, 1, n)
        lam4, mu4 = nr(3, 1, 4), nr(2, 1, 4)
        for nu4, value in nr_support(lam4, mu4):
            nu = Partition((nu4[0], nu4[1]) + (2,) * (n - 4) + (nu4[2], nu4[3]))
            hives = enumerate_hives(lam, mu, nu)
            images = {restrict_hive(h).rows for h in hives}
            if not (len(images) == len(hives) == value == count_hives(lam4, mu4, nu4)):
                ok = False
            for h in map(Hive, images):
                if h.boundary() != (lam4, mu4, nu4):
                    ok = False
    report(12, "symmetry, reduction, involution, conjugation, restriction properties", ok)
