"""Tests for the closed-form coefficient formulas."""

import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrhive import coefficients, formulas
from lrhive.coefficients import lr_coefficient
from lrhive.formulas import (
    _gl3_bounds,
    gl3_coefficient,
    gl3_exceeds,
    isotypic_count_selfdual_family,
    nr_coefficient,
    nr_support,
    selfdual_component_count,
)
from lrhive.hive import count_hives
from lrhive.partitions import Partition, padded, partitions_of
from lrhive.piecewise import multiplicity_multiset


@pytest.mark.parametrize("lam, mu, nu, backend", [
    ((2, 1, 0), (2, 1, 0), (4, 3, 0), "gl3_coefficient"),
    ((3, 2, 1), (2, 1, 1), (5, 4, 2), "gl3_coefficient"),
    ((3, 1, 1, 0), (2, 1, 1, 0), (5, 3, 2, 0), "nr_coefficient"),
    ((4, 2, 2, 1), (2, 1, 1, 1), (6, 4, 3, 2), "nr_coefficient"),
    ((3, 1, 1, 1, 0), (2, 1, 1, 1, 0), (5, 3, 2, 2, 0), "nr_coefficient"),
    ((4, 2, 2, 2, 1), (2, 1, 1, 1, 1), (6, 4, 3, 3, 2), "nr_coefficient"),
    ((3, 2, 1, 0), (2, 1, 0, 0), (4, 3, 2, 1), "count_hives"),
    ((4, 3, 2, 1), (2, 1, 1, 1), (6, 4, 3, 3), "count_hives"),
    ((2, 0), (1, 0), (2, 2), "count_hives"),
    ((3, 1), (1, 1), (4, 3), "count_hives"),
    ((0,), (0,), (1,), "count_hives"),
    ((2,), (1,), (4,), "count_hives"),
])
def test_auto_unbalanced_is_zero(monkeypatch, lam, mu, nu, backend):
    """Every backend that ``auto`` dispatches to, with and without a
    bar-reduction shift, returns 0 when |nu| != |lam| + |mu|.  The closed-form
    intervals alone are nonempty on the gl3 and nr rows."""
    lam, mu, nu = map(Partition, (lam, mu, nu))
    assert nu.size != lam.size + mu.size
    calls = []
    for name in ("gl3_coefficient", "nr_coefficient", "count_hives"):
        real = getattr(coefficients, name)
        monkeypatch.setattr(coefficients, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    assert lr_coefficient(lam, mu, nu) == 0
    assert calls == [backend]
    assert lr_coefficient(lam, mu, nu, "hive") == 0


def test_gl3_worked_example():
    lam, mu = Partition((5, 3, 0)), Partition((6, 3, 0))
    assert _gl3_bounds(5, 3, 6, 3, 8, 6, 3) == (3, 5)
    assert gl3_coefficient(lam, mu, Partition((8, 6, 3))) == 3
    assert gl3_coefficient(lam, mu, Partition((9, 8, 0))) == 1
    assert gl3_coefficient(lam, mu, Partition((7, 6, 4))) == 2
    assert gl3_coefficient(lam, mu, Partition((11, 3, 3))) == 1
    assert _gl3_bounds(5, 3, 6, 3, 8, 6, 2) == (4, 5)  # two points, yet
    assert gl3_coefficient(lam, mu, Partition((8, 6, 2))) == 0  # |nu| != |lam| + |mu|


def test_gl3_requires_reduced():
    with pytest.raises(ValueError, match="last part 0"):
        gl3_coefficient(Partition((5, 3, 1)), Partition((6, 3, 0)), Partition((9, 6, 3)))
    with pytest.raises(ValueError, match="last part 0"):  # |nu| != |lam| + |mu| too
        gl3_coefficient(Partition((5, 3, 1)), Partition((6, 3, 0)), Partition((1, 0, 0)))
    with pytest.raises(ValueError, match="rank must be 3"):
        gl3_coefficient(Partition((5, 3, 0, 0)), Partition((6, 3, 0, 0)), Partition((9, 6, 3, 0)))


@given(st.tuples(*[st.integers(0, 6)] * 4))
@settings(max_examples=50, deadline=None)
def test_gl3_matches_hives(bounds):
    l1, l2, m1, m2 = sorted(bounds[:2], reverse=True) + sorted(bounds[2:], reverse=True)
    lam, mu = Partition((l1, l2, 0)), Partition((m1, m2, 0))
    for shape in partitions_of(lam.size + mu.size, 3, l1 + m1):
        nu = Partition(shape + (0,) * (3 - len(shape)))
        h = count_hives(lam, mu, nu)
        assert gl3_coefficient(lam, mu, nu) == h
        for c in range(4):
            assert gl3_exceeds(lam, mu, nu, c) == (h > c)


def _nr(l1, l2, n):
    return Partition((l1,) + (l2,) * (n - 2) + (0,))


def test_nr_coefficient_examples():
    lam = mu = _nr(2, 1, 4)
    assert nr_coefficient(lam, mu, Partition((4, 2, 2, 0))) == 1
    assert nr_coefficient(lam, mu, Partition((4, 2, 1, 1))) == 1
    # the rank-5 middle part must pin to lam2 + mu2 = 2
    lam5 = mu5 = _nr(2, 1, 5)
    assert nr_coefficient(lam5, mu5, Partition((4, 2, 2, 2, 0))) == 1
    assert nr_coefficient(lam5, mu5, Partition((4, 3, 3, 0, 0))) == 0


def test_nr_rejects_non_near_rectangular():
    with pytest.raises(ValueError):
        nr_coefficient(Partition((3, 3, 2, 0, 0)), _nr(2, 1, 5), Partition((5, 4, 3, 1, 0)))


def test_formula_argument_checks():
    lam = mu = Partition((2, 1, 0))
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        lr_coefficient(lam, mu, Partition((3, 2, 1)), "bogus")
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        gl3_exceeds(lam, mu, Partition((3, 2, 1)), -1)
    with pytest.raises(ValueError, match="rank must be >= 4"):
        nr_coefficient(lam, mu, Partition((3, 2, 1)))
    with pytest.raises(ValueError, match="last part 0"):
        nr_coefficient(Partition((2, 1, 1, 1)), _nr(2, 1, 4), Partition((4, 2, 2, 2)))
    for k, l in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            isotypic_count_selfdual_family(k, l)
        with pytest.raises(ValueError, match="nonnegative"):
            selfdual_component_count(k, l)


def test_nr_support_matches_enumeration():
    for l1, l2, m1, m2 in [(2, 1, 2, 1), (3, 1, 2, 2), (4, 0, 1, 1)]:
        lam, mu = _nr(l1, l2, 4), _nr(m1, m2, 4)
        support = dict(nr_support(lam, mu))
        brute = {}
        for shape in partitions_of(lam.size + mu.size, 4, l1 + m1):
            nu = Partition(shape + (0,) * (4 - len(shape)))
            c = count_hives(lam, mu, nu)
            if c:
                brute[nu] = c
        assert support == brute


def _nr_pairs(n, bound):
    """Every reduced near-rectangular (lam, mu) at rank n with lam1 - lam2,
    lam2, mu1 - mu2, mu2 <= bound, in a fixed order."""
    for a, b, c, d in product(range(bound + 1), repeat=4):
        yield padded((a + b,), b, (0,), n), padded((c + d,), d, (0,), n)


def _box(n, top):
    """Every rank-n partition with parts <= top, balanced or not."""
    return [Partition(s + (0,) * (n - len(s)))
            for t in range(n * top + 1) for s in partitions_of(t, n, top)]


def test_nr_support_pin():
    """The support lists at ranks 4-6 keep their bytes and their order."""
    digest = hashlib.sha256()
    for n in (4, 5, 6):
        for lam, mu in _nr_pairs(n, 4):
            digest.update(repr(nr_support(lam, mu)).encode())
    assert digest.hexdigest() == "0f917cb105757ad635191c4651a8a92445da0381aca52b56b11d7b47dc686d1b"


def test_closed_form_pin():
    """gl3_coefficient and nr_coefficient on fixed grids that include
    unbalanced and non-pinched nu."""
    values = []
    for l1, l2, m1, m2 in product(range(4), repeat=4):
        if l1 >= l2 and m1 >= m2:
            lam, mu = Partition((l1, l2, 0)), Partition((m1, m2, 0))
            values += [gl3_coefficient(lam, mu, nu) for nu in _box(3, 6)]
    for n in (4, 5):
        nus = _box(n, 5)
        for lam, mu in _nr_pairs(n, 2):
            values += [nr_coefficient(lam, mu, nu) for nu in nus]
    assert (len(values), sum(values)) == (39018, 941)
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == "35a2cab062db93e3c352f910ed040a4125bccd5730775288fd989dc8c266db48"


def test_gl3_exceeds_pin():
    """gl3_exceeds on a fixed grid that includes unbalanced nu and thresholds
    above every coefficient on it (the largest is 2)."""
    values = []
    for l1, l2, m1, m2 in product(range(4), repeat=4):
        if l1 >= l2 and m1 >= m2:
            lam, mu = Partition((l1, l2, 0)), Partition((m1, m2, 0))
            values += [gl3_exceeds(lam, mu, nu, c) for nu in _box(3, 6) for c in range(5)]
    assert (len(values), sum(values)) == (42000, 341)
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == "6aa98f9d7b24da5232fb805016ff1413f8208456f7719e6d6badd204d163707f"


def test_nr_support_skips_zero_nu(monkeypatch):
    """nr_support reads the bounds on ints: it never calls nr_coefficient,
    and it pads only the nu it returns."""
    def refuse(*args):
        raise AssertionError("nr_support called nr_coefficient")

    padded_calls = []
    monkeypatch.setattr(formulas, "nr_coefficient", refuse)
    monkeypatch.setattr(formulas, "padded", lambda *args: padded_calls.append(args) or padded(*args))
    lam, mu = _nr(3, 1, 5), _nr(4, 2, 5)  # 7 of the walk's 20 nu have c = 0
    support = nr_support(lam, mu)
    assert len(support) == len(padded_calls) > 0
    assert all(c > 0 for _, c in support)


@given(st.integers(4, 6), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_nr_rank_independence(n, a, b, c, d):
    l1, l2 = a + b, b
    m1, m2 = c + d, d
    lam4, mu4 = _nr(l1, l2, 4), _nr(m1, m2, 4)
    for nu4, value in nr_support(lam4, mu4):
        mid = l2 + m2
        nu = Partition((nu4[0], nu4[1]) + (mid,) * (n - 4) + (nu4[2], nu4[3]))
        assert nr_coefficient(_nr(l1, l2, n), _nr(m1, m2, n), nu) == value


def test_isotypic_count_values():
    # both branches on small inputs
    assert isotypic_count_selfdual_family(1, 1) == 6
    assert isotypic_count_selfdual_family(2, 1) == 8
    assert isotypic_count_selfdual_family(2, 2) == 19
    assert isotypic_count_selfdual_family(0, 0) == 1
    assert isotypic_count_selfdual_family(5, 1) == 8  # deep in the 2l <= k branch
    # symmetry in (k, l)
    assert isotypic_count_selfdual_family(3, 1) == isotypic_count_selfdual_family(1, 3)


def test_isotypic_count_branch_boundary():
    """At 2l = k both published branch formulas give the same value."""
    from fractions import Fraction

    for l in range(0, 6):
        k = 2 * l
        cubic = (
            Fraction(1, 3) * k**3 - 2 * k**2 * l + 4 * k * l**2 - Fraction(5, 3) * l**3
            - k**2 + 4 * k * l - l**2 + Fraction(2, 3) * k + Fraction(5, 3) * l + 1
        )
        assert cubic == (l + 1) ** 3 == isotypic_count_selfdual_family(k, l)


def test_counts_against_enumeration():
    for k in range(4):
        for l in range(4):
            lam = Partition((2 * k, k, k, 0))
            mu = Partition((2 * l, l, l, 0))
            ms = multiplicity_multiset(lam, mu)
            assert ms.components == isotypic_count_selfdual_family(k, l)
            selfdual = sum(
                1
                for nu, c in (
                    (nu, count_hives(lam, mu, nu))
                    for shape in partitions_of(lam.size + mu.size, 4, lam[0] + mu[0])
                    for nu in [Partition(shape + (0,) * (4 - len(shape)))]
                )
                if c > 0 and nu[0] + nu[3] == nu[1] + nu[2]
            )
            assert selfdual == selfdual_component_count(k, l) == (min(k, l) + 1) ** 2
