"""Tests for the piecewise (quasi-)polynomial machinery and tables."""

import hashlib
import os
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrhive import piecewise
from lrhive.cli import main
from lrhive.partitions import Partition, dual_star, padded
from lrhive.piecewise import (
    GL4NR_VARIABLES,
    S1,
    S2,
    T,
    Cone,
    PieceAgreementError,
    PiecewiseFunction,
    Polynomial,
    QuasiPolynomial,
    TranscriptionError,
    _monomial_recipe,
    _orbit_table,
    binom3,
    count_above_enum,
    enum_value,
    family_function,
    gl3_count_function,
    gl4nr2_count_function,
    multiplicity_multiset,
    orbit_expand,
    permutation_group,
    piecewise_to_json,
    point_of,
    s1_fixed_pieces,
    verify_family,
)

VARS = ("x", "y")


def test_polynomial_arithmetic():
    x = Polynomial.var(VARS, "x")
    y = Polynomial.var(VARS, "y")
    p = (x + y) * (x - y)  # kept in lowest terms, so compared by equality
    assert p == x**2 - y**2
    assert (p - x * x + y * y).terms == ()
    q = Fraction(1, 2) * x**2 + 1
    assert (q.numerators, q.denominator) == ((((0, 0), 2), ((2, 0), 1)), 2)
    assert p.permuted({"x": "y", "y": "x"}) == y**2 - x**2
    z = Polynomial.var(("x", "z"), "z")
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="variable mismatch"):
            op(x, z)


def _everywhere(q):
    """The one-piece table over all of space whose value is ``q``."""
    everywhere = Cone.make([])
    return PiecewiseFunction(q.branches[0].variables, everywhere, ((everywhere, q),))


def test_binom3_integrality():
    x = Polynomial.var(("x",), "x")
    b = _everywhere(QuasiPolynomial.plain(binom3(x)))
    for v in range(-5, 8):
        value, _ = b.evaluate({"x": v})  # raises on a non-integral value
        if 0 <= v <= 2:
            assert value == 0
    assert b.evaluate({"x": 5}) == (10, 0)


def test_linear_form_normalization():
    """A cone stores each constraint divided by the gcd of its coefficients."""
    x, y = (Polynomial.var(VARS, v) for v in VARS)
    a = Cone.make([2 * x - 4 * y + 6])
    assert a == Cone.make([Fraction(1) * x - Fraction(2) * y + 3])
    assert a.constraints == {x - 2 * y + 3}
    # only positive scalings identified
    assert a != Cone.make([-x + 2 * y - 3])


def test_linear_forms_are_integral():
    x, y = (Polynomial.var(VARS, v) for v in VARS)
    assert Cone.make([Fraction(4, 2) * x + 0 * y - Fraction(3)]).constraints == {2 * x - 3}
    rational = [Fraction(1, 2) * x, x + Fraction(1, 3), Polynomial.make(VARS, {(1, 0): "1/2"})]
    for form in rational:
        with pytest.raises(ValueError, match="integer coefficients"):
            Cone.make([form])
        with pytest.raises(ValueError, match="integer coefficients"):
            QuasiPolynomial(2, form, (x, x))
    for form in (x * y, x**2 - y + 1):
        with pytest.raises(ValueError, match="degree at most 1, not 2"):
            Cone.make([form])
        with pytest.raises(ValueError, match="degree at most 1, not 2"):
            QuasiPolynomial(2, form, (x, x))


def test_cone_contains():
    """A table whose support and only piece are the cone is 0 outside it."""
    x, y = (Polynomial.var(VARS, v) for v in VARS)
    cone = Cone.make([x - y, y])
    f = PiecewiseFunction(VARS, cone, ((cone, QuasiPolynomial.plain(Polynomial.const(VARS, 1))),))
    assert f.evaluate({"x": 3, "y": 1}) == (1, 0)
    assert f.evaluate({"x": 1, "y": 1}) == (1, 0)  # closed
    assert f.evaluate({"x": 0, "y": 1}) == (0, None)
    assert f.values({"x": 0, "y": 1}) == []


def test_permutation_group_closure():
    group = permutation_group([S1, {"k1": "l1", "l1": "k1", "k2": "l2", "l2": "k2"}],
                              ("k1", "k2", "l1", "l2", "c"))
    assert len(group) == 8


def test_quasi_polynomial_branches():
    x = Polynomial.var(("x",), "x")
    f = _everywhere(QuasiPolynomial(2, x, (x, x + 1)))
    assert f.evaluate({"x": 4}) == (4, 0)
    assert f.evaluate({"x": 5}) == (6, 0)
    # modulus 1 with a nonzero selector: every selector value picks the one branch
    one = _everywhere(QuasiPolynomial(1, x, (x + 1,)))
    for v in (-3, 0, 4, 5):
        assert one.evaluate({"x": v}) == (v + 1, 0)
        assert one.values({"x": v}) == [(0, v + 1)]
    # a zero branch reads no monomial, and the branch x reads one
    zero = _everywhere(QuasiPolynomial(2, x, (x - x, x)))
    assert zero.pieces[0][1].branches[0].numerators == ()
    for v in (-3, -2, 0, 4, 5):
        value = v if v % 2 else 0
        assert zero.evaluate({"x": v}) == zero.evaluate_at((v,)) == (value, 0)
        assert zero.values({"x": v}) == zero.values_at((v,)) == [(0, value)]


def test_gl3_table_structure():
    f = gl3_count_function()
    assert len(f.pieces) == 7
    fixed = s1_fixed_pieces(f)
    assert len(fixed) == 5  # two pieces are swapped by the k1 <-> k2 symmetry


def test_gl3_known_points():
    f = gl3_count_function()
    assert f.evaluate(point_of(f.variables, (1, 1, 1, 1, 0)))[0] == 5
    assert f.evaluate(point_of(f.variables, (1, 1, 1, 1, 1)))[0] == 1
    assert f.evaluate(point_of(f.variables, (0, 0, 5, 3, 0)))[0] == 1
    # outside support: threshold above every coefficient
    assert f.evaluate(point_of(f.variables, (1, 1, 1, 1, 2))) == (0, None)


def _gl3_representatives():
    """The gl3 table's three orbit representatives, read back from the built
    table (pieces 0, 1 and 3 start its three orbits)."""
    f = gl3_count_function()
    return [(f.pieces[i][0], f.pieces[i][1].branches[0], size) for i, size in ((0, 1), (1, 2), (3, 4))]


def test_orbit_table_rebuilds_gl3():
    assert _orbit_table(_gl3_representatives(), [T, S2], 7) == gl3_count_function()


@pytest.mark.parametrize("case, message", [
    ("orbit_size", "orbit size 2 != expected 1"),
    ("total", "expected 8 distinct pieces, got 7 of 7"),
    ("repeated", "expected 8 distinct pieces, got 4 of 8"),
    ("order_2", "symmetry group has order 2"),
    ("order_24", "symmetry group has order 24"),
])
def test_orbit_table_transcription_errors(case, message):
    reps = _gl3_representatives()
    generators, total = [T, S2], 7
    if case == "orbit_size":
        reps[1] = reps[1][:2] + (1,)
    elif case == "total":
        total = 8
    elif case == "repeated":
        reps, total = [reps[2], reps[2]], 8
    elif case == "order_2":
        generators = [T]
    else:  # S1, T and k1 <-> l1 span all 24 permutations of k1, k2, l1, l2
        generators = [S1, T, {"k1": "l1", "l1": "k1"}]
    with pytest.raises(TranscriptionError, match=message):
        _orbit_table(reps, generators, total)


def test_gl4nr2_table_structure():
    f = gl4nr2_count_function()
    assert len(f.pieces) == 36
    assert len(s1_fixed_pieces(f)) == 12


def test_gl4nr2_known_point():
    f = gl4nr2_count_function()
    assert f.evaluate(point_of(f.variables, (2, 2, 1, 1, 0)))[0] == 8


def _with_disagreeing_piece(f):
    """``f`` plus a constant-999 copy of its first piece's cone."""
    broken_piece = (f.pieces[0][0], QuasiPolynomial.plain(
        Polynomial.const(f.variables, 999)))
    return type(f)(f.variables, f.support, f.pieces + (broken_piece,))


def test_overlapping_pieces_must_agree():
    """evaluate() cross-checks every containing cone; a corrupted table raises."""
    f = gl3_count_function()
    broken = _with_disagreeing_piece(f)
    with pytest.raises(PieceAgreementError):
        broken.evaluate(point_of(f.variables, (2, 2, 2, 2, 0)))


def test_verify_family_checks_agreement(monkeypatch):
    """verify_family reads every point through evaluate, which still checks
    that overlapping pieces agree."""
    broken = _with_disagreeing_piece(family_function("gl3"))
    monkeypatch.setattr(piecewise, "family_function", lambda _: broken)
    with pytest.raises(PieceAgreementError) as raised:
        verify_family("gl3", 2)
    assert str(raised.value) == ("pieces [0, 1, 2, 3, 4, 5, 6, 7] disagree at {'k1': 0, 'k2': 0, "
                                 "'l1': 0, 'l2': 0, 'c': 0}: [Fraction(1, 1), Fraction(999, 1)]")


def test_orbit_expand_dedup():
    f = gl3_count_function()
    group = permutation_group([S1], f.variables)
    expanded = orbit_expand([f.pieces[1]], group)  # an s1-fixed piece
    assert len(expanded) == 1


def test_orbit_expand_reads_a_one_shot_group():
    """The group is read once per representative; an iterator must expand
    every representative, not only the first."""
    f = gl4nr2_count_function()
    group = permutation_group([S1, S2], f.variables)
    representatives = [f.pieces[0], f.pieces[2]]
    assert len(orbit_expand(representatives, group)) == 6
    assert orbit_expand(representatives, iter(group)) == orbit_expand(representatives, group)


def test_count_above_enum():
    lam, mu = Partition((5, 3, 0)), Partition((6, 3, 0))
    assert count_above_enum(lam, mu, 0) == 21
    assert count_above_enum(lam, mu, 1) == 10
    assert count_above_enum(lam, mu, 2) == 3
    assert count_above_enum(lam, mu, 3) == 0
    with pytest.raises(ValueError):
        count_above_enum(lam, mu, -1)


def test_multiplicity_multiset_worked_example():
    ms = multiplicity_multiset(Partition((5, 3, 0)), Partition((6, 3, 0)))
    assert ms.as_dict() == {1: 11, 2: 7, 3: 3}
    assert ms.components == 21
    assert ms.mult_sum == 34
    for c in range(4):
        assert ms.count_above(c) == count_above_enum(Partition((5, 3, 0)),
                                                     Partition((6, 3, 0)), c)


@given(st.tuples(*[st.integers(0, 4)] * 5))
@settings(max_examples=60, deadline=None)
def test_gl3_table_matches_enumeration(coords):
    f = family_function("gl3")
    point = point_of(f.variables, coords)
    assert f.evaluate(point)[0] == enum_value("gl3", point)


@given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                 st.integers(0, 3), st.integers(0, 2)))
@settings(max_examples=40, deadline=None)
def test_gl4nr2_table_matches_enumeration(coords):
    f = family_function("gl4nr2")
    point = point_of(f.variables, coords)
    assert f.evaluate(point)[0] == enum_value("gl4nr2", point)


def test_gl4nr2_table_is_stable_in_rank():
    """The rank-4 table also counts the rank-n pairs (k1+k2, k2^{n-2}, 0),
    (l1+l2, l2^{n-2}, 0) for n = 5..8: the stability theorem read through
    the table, checked on coordinates in [0, 3]^4 and c <= 3 (evidence on a
    finite box, not a proof)."""
    f = family_function("gl4nr2")
    mismatches = []
    for n in range(5, 9):
        for k1, k2, l1, l2 in product(range(4), repeat=4):
            ms = multiplicity_multiset(padded((k1 + k2,), k2, (0,), n),
                                       padded((l1 + l2,), l2, (0,), n))
            for c in range(4):
                value, _ = f.evaluate(point_of(f.variables, (k1, k2, l1, l2, c)))
                if value != (expected := ms.count_above(c)):
                    mismatches.append((n, k1, k2, l1, l2, c, value, expected))
    assert mismatches == []


def test_sample_pieces():
    f = family_function("gl4nr-samples")
    assert f.variables == GL4NR_VARIABLES
    pieces = f.pieces
    assert len(pieces) == 3
    assert pieces[1][1].modulus == 2  # the quasi-polynomial piece
    _, support, ref_pieces = _ref_table(f)
    point = point_of(GL4NR_VARIABLES, (1, 1, 1, 0, 0))
    assert _ref_contains(ref_pieces[0][0], point)
    assert dict(f.values(point))[0] == 3 == enum_value("gl4nr-samples", point)
    # a piece whose cone does not contain the point gives no value there
    outside = point_of(GL4NR_VARIABLES, (0, 0, 5, 0, 0))
    assert _ref_contains(support, outside) and not _ref_contains(ref_pieces[0][0], outside)
    assert 0 not in dict(f.values(outside))


def test_verify_family_small():
    assert verify_family("gl3", 2) is None
    assert verify_family("gl4nr2", 2) is None
    assert verify_family("gl4nr-samples", 2) is None
    with pytest.raises(ValueError):
        verify_family("bogus", 1)
    for family in ("gl3", "gl4nr2", "gl4nr-samples"):
        with pytest.raises(ValueError):
            verify_family(family, -1)


@pytest.mark.parametrize("modulus, branches", [(0, 0), (-1, 1), ("1", 1), (2, 1)],
                         ids=["0", "-1", "str", "2-one-branch"])
def test_modulus_needs_that_many_branches(modulus, branches):
    """A modulus that does not match the branches fails at construction,
    not later in evaluate (ZeroDivisionError, IndexError)."""
    x = Polynomial.var(("x",), "x")
    with pytest.raises(ValueError, match="modulus"):
        QuasiPolynomial(modulus, x, (x,) * branches)
    assert _everywhere(QuasiPolynomial(2, x, (x, x + 1))).evaluate({"x": 3}) == (4, 0)


def test_repeated_variable_rejected():
    everywhere = Cone.make([])
    with pytest.raises(ValueError, match=r"repeated variable in \['x', 'x'\]"):
        PiecewiseFunction(("x", "x"), everywhere, ())
    with pytest.raises(ValueError, match="at least one variable"):  # it is read along its last
        PiecewiseFunction((), everywhere, ())


def _outcome(call):
    try:
        return call()
    except PieceAgreementError as e:
        return "PieceAgreementError", str(e)


# ---------------------------------------------------------------------------
# evaluation against a plain Fraction reference, read from the JSON dump


_REF_TABLES = {}  # id(table) -> (table, reference form)


def _ref_table(f):
    """The JSON form of ``f`` with every rational parsed to a Fraction,
    cached by identity: hashing a table hashes every piece."""
    cached = _REF_TABLES.get(id(f))
    if cached and cached[0] is f:
        return cached[1]
    d = piecewise_to_json(f)

    def form(j):
        return [(v, Fraction(c)) for v, c in j["coeffs"].items()], Fraction(j["constant"])

    def cone(j):
        return [form(c) for c in j["constraints"]]

    def poly(j):
        return [(m["exponents"], Fraction(m["numerator"], m["denominator"])) for m in j["monomials"]]

    pieces = [(cone(p["cone"]), p["modulus"], form(p["selector"]), [poly(b) for b in p["branches"]])
              for p in d["pieces"]]
    table = d["variables"], cone(d["support"]), pieces
    _REF_TABLES[id(f)] = f, table
    return table


def _ref_form(form, point):
    coeffs, constant = form
    return sum((c * point[v] for v, c in coeffs), constant)


def _ref_contains(cone, point):
    return all(_ref_form(form, point) >= 0 for form in cone)


def _ref_piece_value(piece, variables, point):
    """(branch index, value) of one piece at ``point``."""
    _, modulus, selector, branches = piece
    branch = 0
    if modulus != 1:
        sel = _ref_form(selector, point)
        assert sel.denominator == 1
        branch = sel.numerator % modulus
    total = Fraction(0)
    for exponents, coeff in branches[branch]:
        monomial = 1
        for v, e in zip(variables, exponents):
            monomial *= point[v] ** e
        total += coeff * monomial
    return branch, total


_REF_HITS = {}  # (id(table), coordinates) -> _ref_hits; _REF_TABLES keeps each table, so its id


def _ref_hits(f, point):
    """(index, branch index, value) of every piece whose cone contains
    ``point``, cached, since the point and line tests share most points."""
    variables, _, pieces = _ref_table(f)
    key = id(f), tuple(point[v] for v in variables)
    if key not in _REF_HITS:
        _REF_HITS[key] = [(i, *_ref_piece_value(piece, variables, point))
                          for i, piece in enumerate(pieces) if _ref_contains(piece[0], point)]
    return _REF_HITS[key]


def _ref_values(hits, point):
    """``f.values(point)`` in Fraction arithmetic, from ``_ref_hits(f, point)``."""
    out = []
    for i, _, value in hits:
        if value.denominator != 1:
            raise PieceAgreementError(f"non-integral value {value} at {point}")
        out.append((i, value.numerator))
    return out


def _ref_evaluate(f, point, hits):
    """``f.evaluate(point)`` in Fraction arithmetic, from ``_ref_hits(f, point)``."""
    if not _ref_contains(_ref_table(f)[1], point):
        return 0, None
    if not hits:
        raise PieceAgreementError(f"no piece covers in-support point {point}")
    exact = {value for _, _, value in hits}
    if len(exact) != 1:
        raise PieceAgreementError(f"pieces {[i for i, _, _ in hits]} disagree at {point}: {sorted(exact)}")
    value = exact.pop()
    if value.denominator != 1:
        raise PieceAgreementError(f"non-integral value {value} at {point}")
    return value.numerator, hits[0][0]


def _assert_matches_reference(f, point):
    """Check ``evaluate`` and ``values`` at ``point``, and ``evaluate_at`` and
    ``values_at`` at its coordinate tuple; return the reference hits."""
    hits = _ref_hits(f, point)
    coords = tuple(point[v] for v in f.variables)
    expected = _outcome(lambda: _ref_evaluate(f, point, hits))
    assert _outcome(lambda: f.evaluate(point)) == expected, point
    assert _outcome(lambda: f.evaluate_at(coords)) == expected, point
    expected = _outcome(lambda: _ref_values(hits, point))
    assert _outcome(lambda: f.values(point)) == expected, point
    assert _outcome(lambda: f.values_at(coords)) == expected, point
    return hits


@pytest.mark.parametrize("family", sorted(piecewise.FAMILIES))
def test_every_small_point_matches_fraction_reference(family):
    """The compiled kernel (sign masks, the hits memo, monomial slots) against
    the Fraction reference at every point of [-1, 4]^5, read as a mapping and
    as a coordinate tuple: values, piece indices, and each
    PieceAgreementError message.  The points reach every branch of every
    piece, the samples' mod-2 piece included."""
    f = family_function(family)
    branches_hit = set()
    for coords in product(range(-1, 5), repeat=len(f.variables)):
        point = point_of(f.variables, coords)
        hits = _assert_matches_reference(f, point)
        branches_hit.update((i, branch) for i, branch, _ in hits)
    assert branches_hit == {(i, b) for i, (_, q) in enumerate(f.pieces) for b in range(q.modulus)}


@pytest.mark.parametrize("family", sorted(piecewise.FAMILIES))
@given(coords=st.tuples(*[st.integers(-3, 15)] * 5))
@settings(max_examples=150, deadline=None)
def test_random_points_match_fraction_reference(family, coords):
    f = family_function(family)
    _assert_matches_reference(f, point_of(f.variables, coords))


@pytest.mark.parametrize("family", sorted(piecewise.FAMILIES))
def test_every_small_line_matches_fraction_reference(family):
    """``evaluate_line`` (the support's interval on the line, the sign bits
    and monomials fixed per line) against the Fraction reference on the
    line of every prefix in [-1, 4]^4, its last coordinate over [-1, 6]:
    values, piece indices and each PieceAgreementError message.  A line
    that raises ends there, and the scan reads on from the next point, as a
    new line."""
    f = family_function(family)
    for prefix in product(range(-1, 5), repeat=len(f.variables) - 1):
        start = -1
        while start <= 6:
            line = f.evaluate_line(prefix, range(start, 7))
            for t in range(start, 7):
                point = point_of(f.variables, prefix + (t,))
                start = t + 1
                expected = _outcome(lambda: _ref_evaluate(f, point, _ref_hits(f, point)))
                got = _outcome(lambda: next(line))
                assert got == expected, point
                if got[0] == "PieceAgreementError":
                    break
    with pytest.raises(ValueError, match="steps of 1"):
        f.evaluate_line((0,) * (len(f.variables) - 1), range(0, 6, 2))


@pytest.mark.parametrize("family", ["gl3", "gl4nr-samples"])
def test_point_of_the_wrong_length_rejected(family):
    """The tuple readers raise ValueError, naming the table's variables, on a
    point with one coordinate too many or too few, once per call or line;
    with none, the point readers raise ValueError, and a line is read over a
    range only."""
    f = family_function(family)
    n = len(f.variables)
    readers = (f.evaluate_at, f.values_at, lambda coords: list(f.evaluate_line(coords[:-1], range(2))))
    for coords in ((1, 1, 1, 1, 9, 0), (1, 1, 1, 0, 0, 5), (1,) * (n - 1), (9,)):
        for read in readers:
            with pytest.raises(ValueError, match=rf"\({','.join(f.variables)}\) has {n} coordinates, "
                                                 rf"not {len(coords)}"):
                read(coords)
    for read in readers[:2]:
        with pytest.raises(ValueError):
            read(())
    with pytest.raises(ValueError, match="range"):
        f.evaluate_line((0,) * (n - 1), [0, 1])


def test_line_meets_the_support_in_exact_integer_bounds():
    """Support forms whose coefficient of the last variable is not +-1:
    t >= ceil(x / 2) and t <= floor((x + 3) / 3), on lines through negative
    and positive prefixes, against the Fraction reference point by point."""
    x, t = (Polynomial.var(("x", "t"), v) for v in ("x", "t"))
    f = PiecewiseFunction(("x", "t"), Cone.make([2 * t - x, x + 3 - 3 * t]),
                          ((Cone.make([]), QuasiPolynomial.plain(x + t + 1)),))
    inside = 0
    for prefix in range(-9, 10):
        expected = []
        for u in range(-6, 7):
            point = {"x": prefix, "t": u}
            expected.append(_ref_evaluate(f, point, _ref_hits(f, point)))
        assert list(f.evaluate_line((prefix,), range(-6, 7))) == expected, prefix
        inside += sum(index is not None for _, index in expected)
    assert inside == 27


def test_verify_family_reads_a_line_in_order(monkeypatch):
    """A line is read point by point: on a broken gl3 table whose last line
    in [0, 3]^5 has a value mismatch at c = 1 and a piece disagreement at
    c = 3, verify_family returns the c = 1 mismatch, as the per-point scan
    does, and does not raise."""
    f = family_function("gl3")
    V = f.variables
    k1, k2, l1, l2, c = (Polynomial.var(V, v) for v in V)
    bump = c * binom3(k1) * binom3(k2) * binom3(l1) * binom3(l2)  # in [0, 3]^5: c on the last line, else 0
    corner = (Cone.make([k1 - 3, k2 - 3, l1 - 3, l2 - 3, c - 3]),
              QuasiPolynomial.plain(Polynomial.const(V, 999)))
    broken = PiecewiseFunction(V, f.support, tuple(
        (cone, QuasiPolynomial.plain(q.branches[0] + bump)) for cone, q in f.pieces) + (corner,))
    last = (3, 3, 3, 3)
    with pytest.raises(PieceAgreementError, match="disagree"):
        broken.evaluate_at(last + (3,))
    truth = enum_value("gl3", point_of(V, last + (1,)))
    expected = point_of(V, last + (1,)), truth + 1, truth
    points = (point_of(V, coords) for coords in product(range(4), repeat=5))
    checked = ((point, broken.evaluate(point)[0], enum_value("gl3", point)) for point in points)
    assert next(m for m in checked if m[1] != m[2]) == expected
    monkeypatch.setattr(piecewise, "family_function", lambda _: broken)
    assert verify_family("gl3", 3) == expected


def test_non_integral_values_raise():
    x = Polynomial.var(("x",), "x")
    half = _everywhere(QuasiPolynomial.plain(Fraction(1, 2) * x))
    assert half.evaluate({"x": 4}) == (2, 0)
    assert half.evaluate({"x": -2}) == (-1, 0)
    assert half.values({"x": -2}) == [(0, -1)]
    for odd in (-3, 1, 3):
        with pytest.raises(PieceAgreementError, match="non-integral"):
            half.evaluate({"x": odd})
        with pytest.raises(PieceAgreementError, match="non-integral"):
            half.values({"x": odd})
    # 3/2 and 5/4 have equal integer parts and remainders, yet disagree
    quarter = _everywhere(QuasiPolynomial.plain((x + 2) * Fraction(1, 4)))
    both = PiecewiseFunction(("x",), half.support, half.pieces + quarter.pieces)
    with pytest.raises(PieceAgreementError, match="disagree"):
        both.evaluate({"x": 3})


def test_evaluated_table_pickles_without_compiled_form():
    x = Polynomial.var(("x",), "x")
    one = _everywhere(QuasiPolynomial.plain(x))
    gl3 = gl3_count_function()
    for f, point in ((one, {"x": 2}), (gl3, point_of(gl3.variables, (1, 1, 1, 1, 0)))):
        fresh = pickle.dumps(f)
        value = f.evaluate(point)
        assert pickle.dumps(f) == fresh
        assert pickle.loads(fresh).evaluate(point) == value


def test_compiled_order_does_not_follow_the_hash_seed():
    """The compiled support forms, sign-mask forms and cone masks are the
    same in processes with different string hash seeds, though the cones
    hold their forms in frozensets."""
    src = os.path.dirname(os.path.dirname(piecewise.__file__))
    code = ("from lrhive.piecewise import family_function\n"
            "for family in ('gl3', 'gl4nr2'):\n"
            "    print(family, family_function(family)._compiled[1:4])")
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           timeout=120, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")]
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 2


def test_monomial_recipe_closes_sparse_exponents_under_parents():
    """A sparse monomial gets its parent chain and nothing else: the parent
    lowers the first nonzero exponent by one.  Slot 0 is the constant,
    slots go by degree, and each recipe entry's parent slot comes before
    its own, so one pass fills the table."""
    slot, recipe = _monomial_recipe({(0, 3, 1)})
    assert set(slot) == {(0, 3, 1), (0, 2, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0)}
    order = sorted(slot, key=slot.get)
    assert order[0] == (0, 0, 0) and sorted(slot.values()) == list(range(len(slot)))
    assert [sum(e) for e in order] == sorted(sum(e) for e in order)
    assert len(recipe) == len(order) - 1
    for s, (up, j) in enumerate(recipe, start=1):
        assert up < s
        assert order[s] == tuple(k + (i == j) for i, k in enumerate(order[up]))
    # and the compiled table evaluates the sparse branch y^3 z
    y, z = (Polynomial.var(("x", "y", "z"), v) for v in "yz")
    f = PiecewiseFunction(("x", "y", "z"), Cone.make([]),
                          ((Cone.make([]), QuasiPolynomial.plain(y ** 3 * z)),))
    assert f.evaluate_at((7, 2, 5)) == (40, 0)


def test_branch_over_other_variables_rejected():
    """Compiled evaluation reads exponents by position, so a branch, and
    every cone constraint and selector, must be over the table's variables
    in the table's order."""
    everywhere = Cone.make([])
    x = Polynomial.var(("x", "y"), "x")
    for variables in (("y", "x"), ("x", "y", "z")):
        with pytest.raises(ValueError, match="a branch over"):
            PiecewiseFunction(variables, everywhere, ((everywhere, QuasiPolynomial.plain(x)),))
        one = QuasiPolynomial.plain(Polynomial.const(variables, 1))
        for support, piece in ((Cone.make([x]), (everywhere, one)),
                               (everywhere, (Cone.make([x]), one)),
                               (everywhere, (everywhere, QuasiPolynomial(1, x, one.branches)))):
            with pytest.raises(ValueError, match="a form over"):
                PiecewiseFunction(variables, support, (piece,))


@pytest.mark.parametrize("family", ["gl3", "gl4nr2", "gl4nr-samples"])
def test_verify_family_first_mismatch_matches_per_point_scan(family, monkeypatch):
    """verify_family returns the first mismatch of a per-point scan, which
    reads a full table through evaluate and the samples through values.
    gl3 is also broken at c = 0 at (k1, k2, l1) = (0, 0, 2) and at
    (k1, k2, l1, l2) = (0, 1, 0, 0): a scan that ran over mu's coordinates
    outside lam's would return the second first."""
    f = family_function(family)
    V = f.variables
    cases = []  # (broken table, its values at a point, test of the first mismatch)
    if "c" in V:
        k1, k2, l1, l2, c = (Polynomial.var(V, v) for v in ("k1", "k2", "l1", "l2", "c"))
        # on [0, 2], 1 at x = a and 0 elsewhere
        at = lambda x, a: ((x - 1) * (x - 2) * Fraction(1, 2), x * (x - 2) * -1,
                           x * (x - 1) * Fraction(1, 2))[a]
        # k1 l2 c is zero on most of the range, so the mismatch is not the first point
        bumps = [(k1 * l2 * c, lambda point: point["c"] > 0)]
        if family == "gl3":
            bumps.append((at(k1, 0) * at(k2, 0) * at(l1, 2) + at(k1, 0) * at(k2, 1) * at(l1, 0) * at(l2, 0),
                          lambda point: list(point.values()) == [0, 0, 2, 0, 0]))
        for bump, first in bumps:
            broken = PiecewiseFunction(V, f.support, tuple(
                (cone, QuasiPolynomial.plain(q.branches[0] + bump)) for cone, q in f.pieces))
            cases.append((broken, lambda point, broken=broken: [broken.evaluate(point)[0]], first))
    else:  # break the last piece, so the mismatch is read after two agreeing pieces
        k1, m2 = (Polynomial.var(V, v) for v in ("k1", "m2"))
        cone, q = f.pieces[2]
        broken = PiecewiseFunction(V, f.support, (*f.pieces[:2], (cone, QuasiPolynomial.plain(
            q.branches[0] + k1 * m2))))
        read = lambda point: [value for _, value in broken.values(point)]
        cases.append((broken, read,
                      lambda point: list(point.values()) == [1, 1, 1, 1, 0] and len(read(point)) == 3))
    for broken, read, first in cases:
        points = (point_of(V, coords) for coords in product(range(3), repeat=len(V)))
        checked = ((point, value, enum_value(family, point)) for point in points for value in read(point))
        expected = next(m for m in checked if m[1] != m[2])
        assert first(expected[0])
        monkeypatch.setattr(piecewise, "family_function", lambda _: broken)
        got = verify_family(family, 2)
        assert got == expected
        assert list(got[0]) == list(V)  # printed in the table's variable order


# (family, bound) -> histograms verify_family enumerates: one per class of
# (lam, mu) under lam <-> mu and (lam, mu) -> (lam*, mu*), of 6^4 and 4^4 pairs
CLASS_COUNTS = {("gl3", 5): 351, ("gl4nr2", 3): 76}
# the samples enumerate only where a piece contains the point: 48 pairs, one per class
HISTOGRAM_COUNTS = {**CLASS_COUNTS, ("gl4nr-samples", 3): 48}


@pytest.mark.parametrize("family, bound", sorted(CLASS_COUNTS))
def test_verify_family_benchmark_boxes(family, bound, monkeypatch):
    """The boxes ``piecewise --verify-range`` is timed on agree with
    enumeration, and the scan builds each factor's parts and dual once per
    factor coordinate: 2 (bound + 1)^2 map calls and duals (72 for gl3 @ 5,
    32 for gl4nr2 @ 3), not two per prefix."""
    _, lam, mu = piecewise.FAMILIES[family]
    box = list(product(range(bound + 1), repeat=2))
    factors = Counter(lam(*x) for x in box) + Counter(mu(*x) for x in box)
    pads, duals = [], Counter()
    pad, dual = piecewise.padded_parts, piecewise.dual_parts
    monkeypatch.setattr(piecewise, "padded_parts", lambda *args: pads.append(args) or pad(*args))
    monkeypatch.setattr(piecewise, "dual_parts", lambda parts: duals.update([parts]) or dual(parts))
    assert verify_family(family, bound) is None
    assert len(pads) == 2 * len(box)
    assert duals == factors


def _built_pair(family, point):
    """(lam, mu) as Partitions, built with ``padded`` from the point's names."""
    n = 3 if family == "gl3" else 4
    lam = padded((point["k1"] + point["k2"],), point["k2"], (0,), n)
    if family == "gl4nr-samples":
        return lam, Partition((point["m1"], point["m2"], point["m3"], 0))
    return lam, padded((point["l1"] + point["l2"],), point["l2"], (0,), n)


@pytest.mark.parametrize("family, bound", sorted(HISTOGRAM_COUNTS))
def test_family_parts_match_partitions(family, bound):
    """At every prefix the scan reads (all coordinates but c), each family's
    two factor maps give the parts of the pair ``padded`` and ``Partition``
    build, and the dual the scan takes of them is ``dual_star``'s."""
    f = family_function(family)
    _, lam_parts, mu_parts = piecewise.FAMILIES[family]
    for coords in product(range(bound + 1), repeat=len(f.variables) - ("c" in f.variables)):
        point = point_of(f.variables, coords)
        if family == "gl4nr-samples" and not point["m1"] >= point["m2"] >= point["m3"]:
            continue  # outside every sample piece: mu is no partition, and the scan reads no pair
        lam, mu = _built_pair(family, point)
        assert (lam_parts(*coords[:2]), mu_parts(*coords[2:])) == (lam.parts, mu.parts), point
        for factor in (lam, mu):
            assert piecewise.dual_parts(factor.parts) == dual_star(factor).parts, point


@pytest.mark.parametrize("family, bound", sorted(CLASS_COUNTS))
def test_pairs_of_one_class_share_a_histogram(family, bound):
    """Every (lam, mu) of the scan has the histogram of its class: the least
    of (lam, mu), (mu, lam), (lam*, mu*) and (mu*, lam*)."""
    _, lam_parts, mu_parts = piecewise.FAMILIES[family]
    shared = {}
    for coords in product(range(bound + 1), repeat=4):
        lam, mu = Partition(lam_parts(*coords[:2])), Partition(mu_parts(*coords[2:]))
        own = multiplicity_multiset(lam, mu)
        key = min((lam.parts, mu.parts), (mu.parts, lam.parts), (dual_star(lam).parts, dual_star(mu).parts),
                  (dual_star(mu).parts, dual_star(lam).parts))
        assert shared.setdefault(key, own) == own, (lam, mu)
    assert len(shared) == CLASS_COUNTS[family, bound]


@pytest.mark.parametrize("family, bound", sorted(HISTOGRAM_COUNTS))
def test_verify_family_enumerates_once_per_class(family, bound, monkeypatch):
    """verify_family enumerates exactly one histogram per class.  A key that
    also merged lam with lam-dagger alone, the conjecture the tables check,
    would enumerate fewer.  The scan reads parts: the only Partitions it
    builds are the two each histogram takes."""
    calls = []

    def counted(lam, mu, method=None):
        calls.append((lam, mu))
        return multiplicity_multiset(lam, mu, method)

    built = []
    init = Partition.__init__
    family_function(family)  # build the table outside the count
    monkeypatch.setattr(piecewise, "multiplicity_multiset", counted)
    monkeypatch.setattr(Partition, "__init__", lambda p, parts: built.append(p) or init(p, parts))
    assert verify_family(family, bound) is None
    assert len(calls) == len(set(calls)) == HISTOGRAM_COUNTS[family, bound]
    assert len(built) == 2 * len(calls)  # 702 for gl3 @ 5, 152 for gl4nr2 @ 3


# sha256 of `lrhive piecewise --family F --dump`, fixed when the tables moved
# from Fraction to integer storage; the dump must not change with the storage
DUMP_SHA256 = {
    "gl3": "7b5319b1f92c32df5f3786967173be5c2b17374135b5a3cafee06549eca62f9c",
    "gl4nr2": "27de1a621265bb54bafe8742faf6a01d9e6489bfd4b7753a59530c241ed05675",
}


@pytest.mark.parametrize("family", sorted(DUMP_SHA256))
def test_dump_bytes_pinned(family, capsys):
    """The dump is an export that nothing reads back, so its bytes are what
    it promises: the same here and in a process with another string hash
    seed, though the cones hold their forms in frozensets."""
    assert main(["piecewise", "--family", family, "--dump"]) == 0
    src = os.path.dirname(os.path.dirname(piecewise.__file__))
    code = f"from lrhive.cli import main; main(['piecewise', '--family', {family!r}, '--dump'])"
    seeded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            timeout=120, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "7"}).stdout
    for out in (capsys.readouterr().out, seeded):
        assert hashlib.sha256(out.encode()).hexdigest() == DUMP_SHA256[family]


# sha256 of `lrhive piecewise --family F --point=X` at every X in [-1, 3]^5,
# text then --json, each output followed by its exit status, all of stderr
# last; fixed before the sample pieces became a PiecewiseFunction
POINT_SHA256 = {
    "gl3": "e5f7027e81cc118084f33886ac9ad6c33cfd8d6cf1ee53ebda374c36f061e50d",
    "gl4nr2": "d9f606b6a7b0fb8c6818ac8ca7e9996850bfad2398c884e25601daad7249f2c3",
    "gl4nr-samples": "e575dfcd842126dcf2038cddd136c8b97d562593ad6cc0a6088b61d11af1fe5b",
}


@pytest.mark.parametrize("family", sorted(POINT_SHA256))
def test_point_output_pinned(family, capsys):
    for coords in product(range(-1, 4), repeat=5):
        for extra in ([], ["--json"]):
            print(main(["piecewise", "--family", family, "--point=" + ",".join(map(str, coords)), *extra]))
    out, err = capsys.readouterr()
    assert hashlib.sha256((out + err).encode()).hexdigest() == POINT_SHA256[family]
