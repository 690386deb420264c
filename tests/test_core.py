"""Tests for the partition primitives."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrhive import coefficients, formulas, hive, piecewise, product, verify
from lrhive.partitions import (
    Partition,
    bar_reduce,
    dual_star,
    enumerate_nu_candidates,
    is_near_rectangular,
    padded,
    partitions_of,
)


def partition_tuples(n, max_part=8):
    """Strategy for weakly decreasing n-tuples."""
    return st.lists(st.integers(0, max_part), min_size=n, max_size=n).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )


def test_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((1, -1))
    with pytest.raises(ValueError):
        Partition(())
    p = Partition((3, 1, 0))
    assert p.n == 3 and p.size == 4 and p[1] == 1


def test_parts_must_be_ints():
    """Parts are not coerced: a float, string or bool part is an error."""
    for parts in [(2.7, 1), ("3", True), (1.9, 0), (2, 1.0), (True, 0)]:
        with pytest.raises(ValueError, match="must be integers"):
            Partition(parts)
    assert Partition([3, 1]).parts == (3, 1)


def test_parse():
    assert Partition.parse("5,3", 3) == Partition((5, 3, 0))
    assert Partition.parse("", 2) == Partition((0, 0))
    assert Partition.parse("2,1") == Partition((2, 1))
    with pytest.raises(ValueError):
        Partition.parse("1,2,3", 2)
    with pytest.raises(ValueError):
        Partition.parse("")


def test_dual_star_known():
    # (3,3,2,0,0) at rank 5 dualizes to (3,3,1,0,0)
    assert dual_star(Partition((3, 3, 2, 0, 0))) == Partition((3, 3, 1, 0, 0))
    assert dual_star(Partition((5, 3, 0))) == Partition((5, 2, 0))


@given(partition_tuples(4))
def test_dual_star_involution_on_reduced(parts):
    """dual_star is an involution on partitions with last part 0."""
    lam = bar_reduce(Partition(parts))
    assert dual_star(dual_star(lam)) == lam


@given(partition_tuples(5))
def test_bar_reduce_idempotent(parts):
    lam = Partition(parts)
    reduced = bar_reduce(lam)
    assert reduced[reduced.n - 1] == 0
    assert bar_reduce(reduced) == reduced
    assert reduced.size == lam.size - lam.n * lam[lam.n - 1]


def test_near_rectangular():
    assert is_near_rectangular(Partition((7, 2, 2, 2, 0)))
    assert is_near_rectangular(Partition((5, 3, 0)))  # rank 3: always
    assert not is_near_rectangular(Partition((3, 3, 2, 0, 0)))


def test_padded():
    assert padded((5,), 2, (0,), 4) == Partition((5, 2, 2, 0))
    assert padded((5,), 2, (0,), 2) == Partition((5, 0))  # no middle part
    assert padded((4, 3), 2, (1, 0), 6) == Partition((4, 3, 2, 2, 1, 0))
    for head, tail, n in [((5,), (0,), 1), ((4, 3), (1, 0), 3), ((1, 1, 1), (), 2)]:
        with pytest.raises(ValueError, match="exceed rank"):
            padded(head, 1, tail, n)
    with pytest.raises(ValueError, match="weakly decreasing"):
        padded((1,), 2, (0,), 3)


def test_partitions_of():
    got = list(partitions_of(4, 2))
    assert got == [(4,), (3, 1), (2, 2)]
    assert list(partitions_of(0, 3)) == [()]
    # partitions into at most 3 parts of 6: 7 of them
    assert len(list(partitions_of(6, 3))) == 7
    assert list(partitions_of(5, 1, 2)) == []  # one part of at most 2 cannot hold 5


@given(st.integers(0, 10), st.integers(1, 4))
@settings(max_examples=60)
def test_partitions_of_properties(total, max_parts):
    shapes = list(partitions_of(total, max_parts))
    assert len(set(shapes)) == len(shapes)
    for s in shapes:
        assert sum(s) == total and len(s) <= max_parts
        assert all(a >= b for a, b in zip(s, s[1:]))
    # lexicographically decreasing order
    assert shapes == sorted(shapes, reverse=True)


def test_enumerate_nu_candidates():
    lam, mu = Partition((1, 0)), Partition((1, 0))
    assert enumerate_nu_candidates(lam, mu) == [Partition((2, 0)), Partition((1, 1))]
    cands = enumerate_nu_candidates(Partition((5, 3, 0)), Partition((6, 3, 0)))
    assert all(nu.size == 17 and nu[0] <= 11 for nu in cands)
    assert len(set(cands)) == len(cands)


R4, R5 = Partition((2, 1, 1, 0)), Partition((2, 1, 1, 1, 0))
# each entry point that takes partitions of one shared rank, by its arity
RANK_CHECKED = {
    "lr_coefficient": (coefficients.lr_coefficient, 3),
    "count_hives": (hive.count_hives, 3),
    "enumerate_hives": (hive.enumerate_hives, 3),
    "hive_boundary": (hive.hive_boundary, 3),
    "lr_expansion": (product.lr_expansion, 2),
    "multiplicity_multiset": (piecewise.multiplicity_multiset, 2),
    "enumerate_nu_candidates": (enumerate_nu_candidates, 2),
    "compare": (partial(verify.compare, "conj1"), 2),
    "nr_coefficient": (formulas.nr_coefficient, 3),
    "nr_support": (formulas.nr_support, 2),
}


@pytest.mark.parametrize("name", RANK_CHECKED)
def test_rank_mismatch_message(name):
    """A rank-4/rank-5 mix, the odd one in any position, raises exactly
    ValueError("rank mismatch") before any other check."""
    func, arity = RANK_CHECKED[name]
    for odd in range(arity):
        args = [R5 if i == odd else R4 for i in range(arity)]
        with pytest.raises(ValueError) as exc:
            func(*args)
        assert str(exc.value) == "rank mismatch", (name, odd)


# One record of each frozen value class, its fields, its constructor's
# defaults and its repr: the value semantics every module relies on.
def _records():
    from fractions import Fraction

    from lrhive.horn import FacetSystem, RayGenerator

    x = piecewise.Polynomial.var(("x",), "x")
    lam, mu = Partition((2, 1, 0)), Partition((1, 0, 0))
    cfg = verify.SweepConfig(3, 2, 4, "conj2", extra_cases=[[[2, 1, 0], [1, 0, 0]]])
    verdict = verify.Verdict("FAIL", "conj2", lam, mu, 3, 2, "component counts 3 != 2")
    ray = RayGenerator(lam, mu, Partition((2, 2, 0)), "V(2^2) in V(2 1)xV(1)")
    p = "Polynomial(variables=('x',), numerators={}, denominator=1)".format
    part = "Partition(parts={})".format
    cfg_repr = ("SweepConfig(n=3, max_nr=2, max_mu_size=4, check='conj2', jobs=1, output_path=None, "
                "output_format='json', extra_cases=(((2, 1, 0), (1, 0, 0)),), expected_fail_lambdas=())")
    verdict_repr = (f"Verdict(status='FAIL', check='conj2', lam={part((2, 1, 0))}, mu={part((1, 0, 0))}, "
                    "left=3, right=2, witness='component counts 3 != 2')")
    ray_repr = (f"RayGenerator(lam={part((2, 1, 0))}, mu={part((1, 0, 0))}, nu={part((2, 2, 0))}, "
                "description='V(2^2) in V(2 1)xV(1)')")
    return [
        (Partition((8, 5, 3, 1, 0, 0)), {}, "Partition(parts=(8, 5, 3, 1, 0, 0))"),
        (hive.Hive(((0,), (2, 3), (3, 5, 6))), {}, "Hive(rows=((0,), (2, 3), (3, 5, 6)))"),
        (piecewise.Polynomial.make(("x",), {(1,): Fraction(1, 2), (0,): 3}), {"denominator": 1},
         "Polynomial(variables=('x',), numerators=(((0,), 6), ((1,), 1)), denominator=2)"),
        (piecewise.Cone.make([2 * x - 4]), {}, f"Cone(constraints=frozenset({{{p('(((0,), -2), ((1,), 1))')}}}))"),
        (piecewise.QuasiPolynomial(2, x, (x, x - 1)), {},
         f"QuasiPolynomial(modulus=2, selector={p('(((1,), 1),)')}, "
         f"branches=({p('(((1,), 1),)')}, {p('(((0,), -1), ((1,), 1))')}))"),
        (piecewise.PiecewiseFunction(("x",), piecewise.Cone.make([x]),
                                     ((piecewise.Cone.make([x - 1]), piecewise.QuasiPolynomial.plain(x * x)),)),
         {}, f"PiecewiseFunction(variables=('x',), support=Cone(constraints=frozenset({{{p('(((1,), 1),)')}}})), "
             f"pieces=((Cone(constraints=frozenset({{{p('(((0,), -1), ((1,), 1))')}}})), "
             f"QuasiPolynomial(modulus=1, selector={p('()')}, branches=({p('(((2,), 1),)')},))),))"),
        (piecewise.MultiplicityMultiset(((1, 3), (2, 1))), {}, "MultiplicityMultiset(counts=((1, 3), (2, 1)))"),
        (verdict, {"left": None, "right": None, "witness": None}, verdict_repr),
        (cfg, {"jobs": 1, "output_path": None, "output_format": "json", "extra_cases": (),
               "expected_fail_lambdas": ()}, cfg_repr),
        (verify.VerificationReport(cfg, (verdict,), "1.0"), {},
         f"VerificationReport(config={cfg_repr}, verdicts=({verdict_repr},), version='1.0')"),
        (ray, {}, ray_repr),
        (FacetSystem("toy", (("+lam1", (1,) + (0,) * 11),), True, (ray,)), {},
         "FacetSystem(name='toy', facets=(('+lam1', (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),), "
         f"mu_near_rectangular=True, generators=({ray_repr},))"),
    ]


@pytest.mark.parametrize("record, defaults, text", _records(), ids=lambda v: type(v).__name__)
def test_record_value_semantics(record, defaults, text):
    """Each record is a frozen value: its repr, hash and equality read its
    fields in order, it is built by field name, and it pickles through its
    constructor, to an equal copy."""
    import inspect
    import pickle

    cls = type(record)
    params = inspect.signature(cls).parameters
    names = tuple(params)
    assert {n: p.default for n, p in params.items() if p.default is not p.empty} == defaults
    values = tuple(getattr(record, n) for n in names)
    assert repr(record) == text
    assert hash(record) == hash(values)
    copy = cls(**dict(zip(names, values)))
    assert copy == record and not copy != record and hash(copy) == hash(record)
    other = type("Other", (cls,), {})(*values)  # another class, equal fields
    assert record != other and other != record and record != values
    for change in (lambda: setattr(record, names[0], values[0]), lambda: delattr(record, names[0]),
                   lambda: setattr(record, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert record.__reduce__() == (cls, values)
    assert pickle.loads(pickle.dumps(record)) == record
