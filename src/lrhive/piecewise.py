"""Exact piecewise (quasi-)polynomial counting functions.

Represents functions like "number of nu with c_{lam,mu}^nu > c" as a finite
set of (cone, quasi-polynomial) pieces over named integer variables, with
exact rational coefficients.  Includes the hard-coded 7-piece rank-3 table,
the 36-piece rank-4 near-rectangular table generated from 8 orbit
representatives, three sample pieces of the rank-4 single-near-rectangular
function, and the ground-truth enumeration they are validated against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from functools import lru_cache
from itertools import product

from .coefficients import lr_coefficient
from .partitions import Partition, enumerate_nu_candidates, padded
from .product import _lr_counts

Rational = Fraction | int


# ---------------------------------------------------------------------------
# linear forms and cones


def _integer(c: Rational | str) -> int:
    c = Fraction(c)
    if c.denominator != 1:
        raise ValueError(f"linear forms need integer coefficients, not {c}")
    return c.numerator


@dataclass(frozen=True)
class LinearForm:
    """coeffs . x + constant, with integer coefficients."""

    coeffs: tuple[tuple[str, int], ...]  # sorted by variable name, no zeros
    constant: int

    @classmethod
    def make(cls, coeffs: Mapping[str, Rational], constant: Rational = 0) -> "LinearForm":
        """Raises ValueError on a coefficient or constant that is not an integer."""
        values = ((v, _integer(c)) for v, c in coeffs.items())
        return cls(tuple(sorted((v, c) for v, c in values if c)), _integer(constant))

    def value_at(self, point: Mapping[str, int]) -> int:
        total = self.constant
        for v, c in self.coeffs:
            total += c * point[v]
        return total

    def permuted(self, perm: Mapping[str, str]) -> "LinearForm":
        coeffs = tuple(sorted((perm.get(v, v), c) for v, c in self.coeffs))
        return LinearForm(coeffs, self.constant)

    def normalized(self) -> "LinearForm":
        """Divide by the (positive) gcd of the coefficients and constant."""
        g = gcd(self.constant, *(c for _, c in self.coeffs))
        if not g:
            return self
        return LinearForm(tuple((v, c // g) for v, c in self.coeffs), self.constant // g)


@dataclass(frozen=True)
class Cone:
    """Closed polyhedral cone: each constraint read as >= 0."""

    constraints: frozenset[LinearForm]

    @classmethod
    def make(cls, constraints: Iterable[LinearForm]) -> "Cone":
        return cls(frozenset(c.normalized() for c in constraints))

    def contains(self, point: Mapping[str, int]) -> bool:
        # LinearForm.value_at inlined: containment is evaluate's hottest loop.
        for form in self.constraints:
            total = form.constant
            for v, c in form.coeffs:
                total += c * point[v]
            if total < 0:
                return False
        return True

    def permuted(self, perm: Mapping[str, str]) -> "Cone":
        return Cone.make(c.permuted(perm) for c in self.constraints)


# ---------------------------------------------------------------------------
# polynomials with exact rational coefficients


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial over ``variables``: the sum of
    numerator * x**exponents, divided by ``denominator``.

    Kept in lowest terms (gcd of the denominator and all numerators is 1), so
    equal polynomials compare and hash equal, and evaluation is an integer
    sum followed by one exact division.
    """

    variables: tuple[str, ...]
    numerators: tuple[tuple[tuple[int, ...], int], ...]  # sorted by exponents, no zeros
    denominator: int = 1

    @classmethod
    def _reduced(cls, variables, acc: Mapping[tuple[int, ...], int], den: int) -> "Polynomial":
        nums = [(e, c) for e, c in acc.items() if c]
        g = gcd(den, *(c for _, c in nums))
        return cls(variables, tuple(sorted((e, c // g) for e, c in nums)), den // g)

    @classmethod
    def make(cls, variables, terms: Mapping[tuple[int, ...], Rational]) -> "Polynomial":
        values = {e: Fraction(c) for e, c in terms.items()}
        den = lcm(*(c.denominator for c in values.values()))
        acc = {e: c.numerator * (den // c.denominator) for e, c in values.items()}
        return cls._reduced(tuple(variables), acc, den)

    @classmethod
    def const(cls, variables, value: Rational) -> "Polynomial":
        return cls.make(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables, name: str) -> "Polynomial":
        e = [0] * len(variables)
        e[tuple(variables).index(name)] = 1
        return cls(tuple(variables), ((tuple(e), 1),))

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """(exponents, rational coefficient) pairs, sorted by exponents."""
        return tuple((e, Fraction(c, self.denominator)) for e, c in self.numerators)

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError("variable mismatch")
            return other
        return Polynomial.const(self.variables, other)

    def __add__(self, other):
        other = self._coerce(other)
        den = lcm(self.denominator, other.denominator)
        acc: dict[tuple[int, ...], int] = {}
        for p in (self, other):
            scale = den // p.denominator
            for e, c in p.numerators:
                acc[e] = acc.get(e, 0) + c * scale
        return Polynomial._reduced(self.variables, acc, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.variables, tuple((e, -c) for e, c in self.numerators), self.denominator)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.numerators:
            for e2, c2 in other.numerators:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return Polynomial._reduced(self.variables, acc, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Polynomial.const(self.variables, 1)
        for _ in range(k):
            out = out * self
        return out

    def numerator_at(self, point: Mapping[str, int]) -> int:
        """The integer N with ``self(point) == N / self.denominator``."""
        vals = [point[v] for v in self.variables]
        total = 0
        for e, c in self.numerators:
            for base, exp in zip(vals, e):
                if exp:
                    c *= base**exp
            total += c
        return total

    def __call__(self, point: Mapping[str, int]) -> Fraction:
        return Fraction(self.numerator_at(point), self.denominator)

    def permuted(self, perm: Mapping[str, str]) -> "Polynomial":
        index = {v: i for i, v in enumerate(self.variables)}
        terms = []
        for e, c in self.numerators:
            new = [0] * len(self.variables)
            for v, exp in zip(self.variables, e):
                new[index[perm.get(v, v)]] = exp
            terms.append((tuple(new), c))
        return Polynomial(self.variables, tuple(sorted(terms)), self.denominator)


def binom3(expr: Polynomial) -> Polynomial:
    """binom(x, 3) as the polynomial x(x-1)(x-2)/6, valid for every integer x."""
    return expr * (expr - 1) * (expr - 2) * Fraction(1, 6)


@dataclass(frozen=True)
class QuasiPolynomial:
    """m branch polynomials selected by (selector value) mod m; m = 1 is plain."""

    modulus: int
    selector: LinearForm
    branches: tuple[Polynomial, ...]

    def __post_init__(self):
        if type(self.modulus) is not int or self.modulus < 1 or len(self.branches) != self.modulus:
            raise ValueError(f"a quasi-polynomial of modulus {self.modulus} needs that many "
                             f"branches (>= 1), not {len(self.branches)}")

    @classmethod
    def plain(cls, poly: Polynomial) -> "QuasiPolynomial":
        return cls(1, LinearForm.make({}), (poly,))

    def branch(self, point: Mapping[str, int]) -> Polynomial:
        """The branch polynomial that applies at ``point``."""
        if self.modulus == 1:
            return self.branches[0]
        return self.branches[self.selector.value_at(point) % self.modulus]

    def __call__(self, point: Mapping[str, int]) -> Fraction:
        return self.branch(point)(point)

    def permuted(self, perm: Mapping[str, str]) -> "QuasiPolynomial":
        return QuasiPolynomial(
            self.modulus,
            self.selector.permuted(perm),
            tuple(b.permuted(perm) for b in self.branches),
        )


Piece = tuple[Cone, QuasiPolynomial]


class PieceAgreementError(AssertionError):
    """Two overlapping pieces disagreed at an integer point: transcription bug."""


@dataclass(frozen=True)
class PiecewiseFunction:
    variables: tuple[str, ...]
    support: Cone
    pieces: tuple[Piece, ...]

    def evaluate(self, point: Mapping[str, int]) -> tuple[int, int | None]:
        """Value and lowest containing piece index; (0, None) outside support.

        Every containing piece is evaluated and agreement is asserted, always.
        """
        if not self.support.contains(point):
            return 0, None
        hits = [(i, q.branch(point)) for i, (cone, q) in enumerate(self.pieces)
                if cone.contains(point)]
        if not hits:
            raise PieceAgreementError(f"no piece covers in-support point {dict(point)}")
        # (quotient, remainder) pairs: one pair with remainder 0 means every
        # piece gave the same integer
        values = {divmod(p.numerator_at(point), p.denominator) for _, p in hits}
        if len(values) == 1:
            (value, rem), = values
            if not rem:
                return value, hits[0][0]
        exact = {p(point) for _, p in hits}
        if len(exact) != 1:
            raise PieceAgreementError(
                f"pieces {[i for i, _ in hits]} disagree at {dict(point)}: {sorted(exact)}"
            )
        raise PieceAgreementError(f"non-integral value {exact.pop()} at {dict(point)}")

    def values(self, point: Mapping[str, int]) -> list[tuple[int, int]]:
        """(index, value) of every piece whose cone contains ``point``, each
        evaluated on its own: no support test and no agreement check."""
        out = []
        for i, (cone, q) in enumerate(self.pieces):
            if cone.contains(point):
                p = q.branch(point)
                value, rem = divmod(p.numerator_at(point), p.denominator)
                if rem:
                    raise PieceAgreementError(f"non-integral value {p(point)} at {dict(point)}")
                out.append((i, value))
        return out


def point_of(variables, values) -> dict[str, int]:
    return dict(zip(variables, values))


# ---------------------------------------------------------------------------
# orbit expansion


def _piece_key(piece: Piece):
    cone, q = piece
    return (cone.constraints, q.modulus, q.selector, q.branches)


def orbit_expand(representatives: Iterable[Piece], group: Iterable[Mapping[str, str]]) -> list[Piece]:
    """Closure of the pieces under variable permutations, deduplicated."""
    seen = {}
    for cone, q in representatives:
        for perm in group:
            image = (cone.permuted(perm), q.permuted(perm))
            seen.setdefault(_piece_key(image), image)
    return list(seen.values())


def permutation_group(generators: Iterable[Mapping[str, str]], variables) -> list[dict[str, str]]:
    """Closure of the generators under composition (small groups only)."""
    idem = {v: v for v in variables}
    gens = [dict(idem, **g) for g in generators]
    group = {tuple(sorted(idem.items())): idem}
    frontier = [idem]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                comp = {v: h[g[v]] for v in variables}
                key = tuple(sorted(comp.items()))
                if key not in group:
                    group[key] = comp
                    nxt.append(comp)
        frontier = nxt
    return list(group.values())


# ---------------------------------------------------------------------------
# enumeration ground truth


@dataclass(frozen=True)
class MultiplicityMultiset:
    """Histogram of positive coefficient values over all nu for fixed (lam, mu)."""

    counts: tuple[tuple[int, int], ...]  # (value, number of nu), sorted

    @classmethod
    def make(cls, counts: Mapping[int, int]) -> "MultiplicityMultiset":
        return cls(tuple(sorted((v, k) for v, k in counts.items() if k)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    @property
    def components(self) -> int:
        return sum(k for _, k in self.counts)

    @property
    def mult_sum(self) -> int:
        return sum(v * k for v, k in self.counts)

    def count_above(self, c: int) -> int:
        return sum(k for v, k in self.counts if v > c)


def multiplicity_multiset(lam: Partition, mu: Partition, method: str | None = None) -> MultiplicityMultiset:
    """The histogram of c_{lam,mu}^nu > 0 over all nu.

    By default it is read from the whole decomposition, the map of
    ``product.lr_expansion``, in one pass at any rank.  A name in
    ``coefficients.METHODS`` computes one coefficient per candidate nu with
    that backend.
    """
    if method is None:
        return MultiplicityMultiset.make(Counter(_lr_counts(lam, mu).values()))
    counts: dict[int, int] = {}
    for nu in enumerate_nu_candidates(lam, mu):
        coeff = lr_coefficient(lam, mu, nu, method)
        if coeff > 0:
            counts[coeff] = counts.get(coeff, 0) + 1
    return MultiplicityMultiset.make(counts)


def count_above_enum(lam: Partition, mu: Partition, c: int) -> int:
    """#{nu : c_{lam,mu}^nu > c}, read from the (lam, mu) histogram."""
    if c < 0:
        raise ValueError("threshold must be nonnegative")
    return multiplicity_multiset(lam, mu).count_above(c)


# ---------------------------------------------------------------------------
# the rank-3 table (7 pieces)

GL3_VARIABLES = ("k1", "k2", "l1", "l2", "c")


def _gl3_polys():
    V = GL3_VARIABLES
    k1, k2, l1, l2, c = (Polynomial.var(V, v) for v in V)
    half = Fraction(1, 2)
    p1 = (
        2 * c**2
        - c * (k1 + k2 + l1 + l2 + 2)
        - half * (k1 + k2 - l1 - l2) ** 2
        + k1 * k2
        + l1 * l2
        + half * (k1 + k2 + l1 + l2)
        + 1
    )
    p2 = 3 * c**2 - 3 * c * (k1 + k2 + 1) + half * (k1 + k2) ** 2 + k1 * k2 + Fraction(3, 2) * (k1 + k2) + 1
    p3 = 3 * c**2 - 3 * c * (l1 + l2 + 1) + half * (l1 + l2) ** 2 + l1 * l2 + Fraction(3, 2) * (l1 + l2) + 1
    p4 = (
        Fraction(5, 2) * c**2
        - c * (2 * k1 + 2 * k2 + l1 + Fraction(5, 2))
        + k1 * k2
        + (k1 + k2) * (l1 + 1)
        - half * l1 * (l1 - 1)
        + 1
    )
    p5 = (
        Fraction(5, 2) * c**2
        - c * (2 * k1 + 2 * k2 + l2 + Fraction(5, 2))
        + k1 * k2
        + (k1 + k2) * (l2 + 1)
        - half * l2 * (l2 - 1)
        + 1
    )
    p6 = (
        Fraction(5, 2) * c**2
        - c * (k1 + 2 * l1 + 2 * l2 + Fraction(5, 2))
        + l1 * l2
        + (l1 + l2) * (k1 + 1)
        - half * k1 * (k1 - 1)
        + 1
    )
    p7 = (
        Fraction(5, 2) * c**2
        - c * (k2 + 2 * l1 + 2 * l2 + Fraction(5, 2))
        + l1 * l2
        + (l1 + l2) * (k2 + 1)
        - half * k2 * (k2 - 1)
        + 1
    )
    return p1, p2, p3, p4, p5, p6, p7


def _lf(**coeffs) -> LinearForm:
    constant = coeffs.pop("const", 0)
    return LinearForm.make(coeffs, constant)


def _support_cone(names) -> Cone:
    # everything >= c >= 0
    forms = [_lf(c=1)] + [_lf(**{v: 1, "c": -1}) for v in names]
    return Cone.make(forms)


def gl3_count_function() -> PiecewiseFunction:
    """The 7-piece degree-2 table for #{nu : c_{lam,mu}^nu > c} at rank 3,
    over fundamental-weight coordinates (k1, k2, l1, l2) and threshold c."""
    p1, p2, p3, p4, p5, p6, p7 = _gl3_polys()
    cones = [
        # k1+k2 >= max(l1,l2)+c, l1+l2 >= max(k1,k2)+c
        Cone.make([_lf(k1=1, k2=1, l1=-1, c=-1), _lf(k1=1, k2=1, l2=-1, c=-1),
                   _lf(l1=1, l2=1, k1=-1, c=-1), _lf(l1=1, l2=1, k2=-1, c=-1)]),
        Cone.make([_lf(l1=1, c=1, k1=-1, k2=-1), _lf(l2=1, c=1, k1=-1, k2=-1)]),
        Cone.make([_lf(k1=1, c=1, l1=-1, l2=-1), _lf(k2=1, c=1, l1=-1, l2=-1)]),
        Cone.make([_lf(k1=1, k2=1, l1=-1, c=-1), _lf(l2=1, c=1, k1=-1, k2=-1)]),
        Cone.make([_lf(k1=1, k2=1, l2=-1, c=-1), _lf(l1=1, c=1, k1=-1, k2=-1)]),
        Cone.make([_lf(l1=1, l2=1, k1=-1, c=-1), _lf(k2=1, c=1, l1=-1, l2=-1)]),
        Cone.make([_lf(l1=1, l2=1, k2=-1, c=-1), _lf(k1=1, c=1, l1=-1, l2=-1)]),
    ]
    pieces = tuple(
        (cone, QuasiPolynomial.plain(poly))
        for cone, poly in zip(cones, (p1, p2, p3, p4, p5, p6, p7))
    )
    return PiecewiseFunction(GL3_VARIABLES, _support_cone(("k1", "k2", "l1", "l2")), pieces)


# ---------------------------------------------------------------------------
# the rank-4 near-rectangular-pair table (36 pieces from 8 representatives)

GL4NR2_VARIABLES = GL3_VARIABLES

S1 = {"k1": "k2", "k2": "k1"}
S2 = {"k1": "l1", "l1": "k1", "k2": "l2", "l2": "k2"}


def _gl4nr2_representatives() -> list[tuple[Piece, int]]:
    """The 8 orbit representatives with their expected orbit sizes."""
    V = GL4NR2_VARIABLES
    k1, k2, l1, l2, c = (Polynomial.var(V, v) for v in V)
    p1 = Fraction(-1, 2) * (c - l2 - 1) * (c - l1 - 1) * (2 * c - l1 - l2 - 2)
    p16 = p1 - binom3(l1 + l2 - k2 - c + 2)
    p2 = p16 - binom3(l1 + l2 - k1 - c + 2)
    p19 = p2 + binom3(l1 - k2 + 1)
    p21 = p16 + binom3(l1 - k2 + 1)
    p29 = p19 + binom3(l2 - k2 + 1)
    p27 = p29 + binom3(l1 + l2 - k1 - k2 + 1)
    p36 = p21 + binom3(l2 - k2 + 1)

    c1 = Cone.make([_lf(k1=1, c=1, l1=-1, l2=-1), _lf(k2=1, c=1, l1=-1, l2=-1)])
    c16 = Cone.make([_lf(k1=1, c=1, l1=-1, l2=-1), _lf(l1=1, l2=1, k2=-1, c=-1),
                     _lf(k2=1, l1=-1), _lf(k2=1, l2=-1)])
    c2 = Cone.make([_lf(l1=1, l2=1, k1=-1, c=-1), _lf(l1=1, l2=1, k2=-1, c=-1),
                    _lf(k1=1, l1=-1), _lf(k1=1, l2=-1), _lf(k2=1, l1=-1), _lf(k2=1, l2=-1)])
    c19 = Cone.make([_lf(l1=1, l2=1, k1=-1, c=-1), _lf(k1=1, l1=-1),
                     _lf(l1=1, k2=-1), _lf(k2=1, l2=-1)])
    c21 = Cone.make([_lf(k1=1, c=1, l1=-1, l2=-1), _lf(l1=1, k2=-1), _lf(k2=1, l2=-1)])
    c29 = Cone.make([_lf(k1=1, k2=1, l1=-1, l2=-1), _lf(l1=1, l2=1, k1=-1, c=-1),
                     _lf(l1=1, k2=-1), _lf(l2=1, k2=-1)])
    c27 = Cone.make([_lf(l1=1, l2=1, k1=-1, k2=-1), _lf(k1=1, l1=-1), _lf(k1=1, l2=-1)])
    c36 = Cone.make([_lf(k1=1, c=1, l1=-1, l2=-1), _lf(l1=1, k2=-1), _lf(l2=1, k2=-1)])

    reps = [
        (c1, p1, 2), (c16, p16, 4), (c2, p2, 2), (c19, p19, 8),
        (c21, p21, 8), (c29, p29, 4), (c27, p27, 4), (c36, p36, 4),
    ]
    return [((cone, QuasiPolynomial.plain(poly)), size) for cone, poly, size in reps]


class TranscriptionError(AssertionError):
    """A hard-coded table failed its structural self-check."""


def gl4nr2_count_function() -> PiecewiseFunction:
    """The 36-piece degree-3 table for #{nu : c_{lam,mu}^nu > c} at rank 4
    with both factors near-rectangular, generated by orbit expansion."""
    group = permutation_group([S1, S2], GL4NR2_VARIABLES)
    if len(group) != 8:
        raise TranscriptionError(f"symmetry group has order {len(group)}, expected 8")
    pieces: list[Piece] = []
    for rep, expected in _gl4nr2_representatives():
        orbit = orbit_expand([rep], group)
        if len(orbit) != expected:
            raise TranscriptionError(f"orbit size {len(orbit)} != expected {expected}")
        pieces.extend(orbit)
    if len({_piece_key(p) for p in pieces}) != 36 or len(pieces) != 36:
        raise TranscriptionError(f"expected 36 distinct pieces, got {len(pieces)}")
    f = PiecewiseFunction(GL4NR2_VARIABLES, _support_cone(("k1", "k2", "l1", "l2")), tuple(pieces))
    fixed = len(s1_fixed_pieces(f))
    if fixed != 12:
        raise TranscriptionError(f"expected 12 s1-fixed pieces, got {fixed}")
    return f


def s1_fixed_pieces(f: PiecewiseFunction) -> list[int]:
    """Indices of pieces invariant under swapping k1 and k2."""
    return [
        i for i, p in enumerate(f.pieces)
        if _piece_key((p[0].permuted(S1), p[1].permuted(S1))) == _piece_key(p)
    ]


# ---------------------------------------------------------------------------
# sample pieces of the rank-4 single-near-rectangular function

GL4NR_VARIABLES = ("k1", "k2", "m1", "m2", "m3")


def gl4nr_samples_function() -> PiecewiseFunction:
    """Three printed pieces of #{nu : c_{lam,mu}^nu > 0} at rank 4 with
    lam = (k1+k2, k2, k2, 0) near-rectangular and mu = (m1, m2, m3, 0).

    The support is the ambient dominance cone, and each piece's cone includes
    it; the pieces cover only part of the support, so read them with
    ``values``.  The middle piece is a genuine quasi-polynomial branching on
    the parity of k1+k2+|mu|.
    """
    V = GL4NR_VARIABLES
    k1, k2, m1, m2, m3 = (Polynomial.var(V, v) for v in V)
    base = (
        m3 * Fraction(1, 2)
        * (m2 * (2 * m1 - m2 + 1) + 2 * (m1 + 1) - (m3 + 1) * (k1 + k2 + m1 - m2 + 2))
        - (m2 + 1) * Fraction(1, 6)
        * (3 * (k1**2 + k2**2) - 3 * (k1 + k2) * (2 * m1 + 1) + 3 * m1**2 + 2 * m2**2 - 3 * m1 + 4 * m2 - 6)
    )

    ambient = [_lf(k1=1), _lf(k2=1), _lf(m1=1, m2=-1), _lf(m2=1, m3=-1), _lf(m3=1)]

    cone1 = Cone.make(ambient + [
        _lf(m1=1, k1=-1, m3=-1), _lf(m1=1, k2=-1, m3=-1),
        _lf(m2=1, m3=-1), _lf(k1=1, k2=1, m3=1, m1=-1, m2=-1),
    ])
    piece1 = (cone1, QuasiPolynomial.plain(base))

    cone2 = Cone.make(ambient + [
        _lf(m1=1, m2=1, k1=-1, k2=-1, m3=-1),
        _lf(k2=1, m1=1, k1=-1, m2=-1, m3=-1),
        _lf(k2=1, m3=1, m2=-1),
        _lf(k1=1, m1=1, k2=-1, m2=-1, m3=-1),
        _lf(k1=1, m3=1, m2=-1),
        _lf(k1=1, k2=1, m1=-1),
    ])
    s = k1 + k2 - m1 - m2 + m3
    slope = -2 * k1 - 2 * k2 + 2 * m1 + 2 * m2 + 4 * m3 + 3
    odd = base + Fraction(1, 24) * (s - 1) * (s + 1) * slope
    even = base + Fraction(1, 24) * s * (2 + s * slope)
    selector = _lf(k1=1, k2=1, m1=1, m2=1, m3=1)
    piece2 = (cone2, QuasiPolynomial(2, selector, (even, odd)))

    cone3 = Cone.make(ambient + [
        _lf(m1=1, k1=-1), _lf(m1=1, k2=-1, m3=-1), _lf(m2=1, m3=-1),
        _lf(k2=1, m2=-1), _lf(k1=1, m3=1, m1=-1),
    ])
    piece3 = (cone3, QuasiPolynomial.plain(base + binom3(k1 - m1 + m3 + 1)))

    return PiecewiseFunction(V, Cone.make(ambient), (piece1, piece2, piece3))


# ---------------------------------------------------------------------------
# ground-truth comparison helpers

# each family's table builder and rank, in the order the CLI lists them
FAMILIES = {
    "gl3": (gl3_count_function, 3),
    "gl4nr2": (gl4nr2_count_function, 4),
    "gl4nr-samples": (gl4nr_samples_function, 4),
}


def _family(family: str):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return FAMILIES[family]


@lru_cache(maxsize=None)
def family_function(family: str) -> PiecewiseFunction:
    """The built (and structure-checked) table of a family."""
    return _family(family)[0]()


def _family_pair(family: str, point: Mapping[str, int]) -> tuple[Partition, Partition]:
    """The (lam, mu) that a point of the family's table stands for."""
    n = _family(family)[1]
    lam = padded((point["k1"] + point["k2"],), point["k2"], (0,), n)
    if "m1" in point:  # the samples' mu is any (m1, m2, m3, 0)
        return lam, Partition((point["m1"], point["m2"], point["m3"], 0))
    return lam, padded((point["l1"] + point["l2"],), point["l2"], (0,), n)


def enum_value(family: str, point: Mapping[str, int]) -> int:
    """Enumeration ground truth for one table point; the threshold is 0 in a
    table without a c variable."""
    lam, mu = _family_pair(family, point)
    return count_above_enum(lam, mu, point.get("c", 0))


def verify_family(family: str, bound: int):
    """Scan all integer points with coordinates in [0, bound]; return the first
    (point, table value, enumeration value) mismatch, or None.

    For the full tables the threshold c is the last variable, so the scan
    enumerates each (lam, mu) once and reads every threshold from its
    histogram, in the same point order as a per-point scan.  A table without
    c (the samples) checks every containing piece at every point.
    """
    if bound < 0:
        raise ValueError("verify range must be nonnegative")
    f = family_function(family)
    if "c" not in f.variables:
        for coords in product(range(bound + 1), repeat=len(f.variables)):
            point = point_of(f.variables, coords)
            hits = f.values(point)
            truth = enum_value(family, point) if hits else None
            for _, value in hits:
                if value != truth:
                    return point, value, truth
        return None
    for coords in product(range(bound + 1), repeat=len(f.variables) - 1):
        histogram = multiplicity_multiset(*_family_pair(family, point_of(f.variables, coords)))
        for c in range(bound + 1):
            point = point_of(f.variables, coords + (c,))
            value, _ = f.evaluate(point)
            truth = histogram.count_above(c)
            if value != truth:
                return point, value, truth
    return None


# ---------------------------------------------------------------------------
# JSON schema (compatibility surface)


def _form_to_json(lf: LinearForm) -> dict:
    return {"coeffs": {v: str(c) for v, c in lf.coeffs}, "constant": str(lf.constant)}


def _form_from_json(d: dict) -> LinearForm:
    return LinearForm.make(d["coeffs"], d["constant"])


def _cone_to_json(cone: Cone) -> dict:
    return {"constraints": sorted((_form_to_json(c) for c in cone.constraints), key=repr)}


def _cone_from_json(d: dict) -> Cone:
    return Cone.make(_form_from_json(c) for c in d["constraints"])


def _poly_to_json(p: Polynomial) -> dict:
    return {
        "monomials": [
            {"exponents": list(e), "numerator": c.numerator, "denominator": c.denominator}
            for e, c in p.terms
        ]
    }


def _poly_from_json(d: dict, variables) -> Polynomial:
    return Polynomial.make(
        variables,
        {
            tuple(m["exponents"]): Fraction(m["numerator"], m["denominator"])
            for m in d["monomials"]
        },
    )


def piecewise_to_json(f: PiecewiseFunction) -> dict:
    return {
        "variables": list(f.variables),
        "support": _cone_to_json(f.support),
        "pieces": [
            {
                "cone": _cone_to_json(cone),
                "modulus": q.modulus,
                "selector": _form_to_json(q.selector),
                "branches": [_poly_to_json(b) for b in q.branches],
            }
            for cone, q in f.pieces
        ],
    }


def piecewise_from_json(d: dict) -> PiecewiseFunction:
    variables = tuple(d["variables"])
    pieces = tuple(
        (
            _cone_from_json(p["cone"]),
            QuasiPolynomial(
                p["modulus"],
                _form_from_json(p["selector"]),
                tuple(_poly_from_json(b, variables) for b in p["branches"]),
            ),
        )
        for p in d["pieces"]
    )
    return PiecewiseFunction(variables, _cone_from_json(d["support"]), pieces)
