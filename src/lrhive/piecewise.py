"""Exact piecewise (quasi-)polynomial counting functions.

Represents functions like "number of nu with c_{lam,mu}^nu > c" as a finite
set of (cone, quasi-polynomial) pieces over named integer variables, with
exact rational coefficients.  Includes the hard-coded 7-piece rank-3 table
and the 36-piece rank-4 near-rectangular table, generated from 3 and 8 orbit
representatives by one structure-checked builder (``_orbit_table``), three
sample pieces of the rank-4 single-near-rectangular function, and the
ground-truth enumeration they are validated against, read once per class
of (lam, mu) under swapping the factors and dualizing both.  One algebra type,
``Polynomial``, holds the branches and, at degree <= 1 with integer
coefficients, every cone constraint and selector, so a transcription reads
as its printed inequality (``k1 + k2 - l1 - c``) and one ``permuted`` moves
walls and branches alike.  The frozen records (``partitions.Record``) hold a
table for building, orbit expansion, deduplication by value and its JSON
export (``piecewise_to_json``, the bytes of ``piecewise --dump``; no loader
reads a table back, the tables live in code); the only way to evaluate one
is its compiled form, built on first use, which reads the table one line
of its last variable at a time (the threshold c of a full table;
``evaluate_line``) and a point as a line of one point (``evaluate_at`` and
``values_at``, on a tuple of coordinates in the table's variable order;
``evaluate`` and ``values`` read a mapping into one).  Once per line, the
support's interval on the line comes from exact floor and ceiling
division, the distinct cone forms that do not read the last variable give
their sign bits, and the monomials free of it fill their slots of one
table of the table's monomials, closed under parents degree by degree.
Once per point, the other forms' signs complete one mask that picks the
containing pieces, the other monomials fill the rest of the table, and
every containing piece's branch takes its slots as one tuple
(``_getter``, the one ``itemgetter`` call).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product
from math import gcd, lcm
from operator import itemgetter, mul

from .coefficients import lr_coefficient
from .partitions import Partition, Record, dual_parts, enumerate_nu_candidates, padded_parts
from .product import _lr_counts

Rational = Fraction | int


# ---------------------------------------------------------------------------
# polynomials with exact rational coefficients


def _getter(keys) -> Callable:
    """``itemgetter(*keys)``, returning a tuple for any number of keys:
    ``itemgetter`` of one key returns a bare value, and of none is an error."""
    keys = tuple(keys)
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda items: tuple(items[k] for k in keys)


class Polynomial(Record):
    """Multivariate polynomial over ``variables``: the sum of
    numerator * x**exponents, divided by ``denominator``.

    Kept in lowest terms (gcd of the denominator and all numerators is 1), so
    equal polynomials compare and hash equal.  Only a table's compiled form
    evaluates it: an integer sum followed by one exact division.
    """

    _fields = ("variables", "numerators", "denominator")

    def __init__(self, variables: tuple[str, ...],
                 numerators: tuple[tuple[tuple[int, ...], int], ...],  # sorted by exponents, no zeros
                 denominator: int = 1):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

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

    def permuted(self, perm: Mapping[str, str]) -> "Polynomial":
        moved = _mover(self.variables, tuple(perm.items()))
        terms = sorted((moved(e), c) for e, c in self.numerators)
        return Polynomial(self.variables, tuple(terms), self.denominator)


@lru_cache(maxsize=None)
def _mover(variables: tuple[str, ...], perm: tuple[tuple[str, str], ...]) -> Callable:
    """The reader of an exponent tuple over ``variables`` that moves the
    exponent of v to the position of perm(v), built once per (variables,
    permutation): a table build permutes each branch and form by the few
    permutations of its group."""
    perm = dict(perm)
    target = [variables.index(perm.get(v, v)) for v in variables]
    return _getter(sorted(range(len(target)), key=target.__getitem__))


def binom3(expr: Polynomial) -> Polynomial:
    """binom(x, 3) as the polynomial x(x-1)(x-2)/6, valid for every integer x."""
    return expr * (expr - 1) * (expr - 2) * Fraction(1, 6)


def _linear_form(p: Polynomial) -> Polynomial:
    """``p``, checked to be a linear form with integer coefficients.

    Raises ValueError on a rational coefficient and on degree above 1.
    """
    if p.denominator != 1:
        c = next(Fraction(c, p.denominator) for _, c in p.numerators if c % p.denominator)
        raise ValueError(f"linear forms need integer coefficients, not {c}")
    degree = max((sum(e) for e, _ in p.numerators), default=0)
    if degree > 1:
        raise ValueError(f"linear forms have degree at most 1, not {degree}")
    return p


class Cone(Record):
    """Closed polyhedral cone: each constraint, a linear form, read as >= 0.

    ``make`` checks each form with ``_linear_form`` and stores it divided by
    the gcd of its coefficients, so positive multiples of a form are stored
    as one.
    """

    _fields = ("constraints",)

    def __init__(self, constraints: frozenset[Polynomial]):
        object.__setattr__(self, "constraints", constraints)

    @classmethod
    def make(cls, constraints: Iterable[Polynomial]) -> "Cone":
        primitive = []
        for form in map(_linear_form, constraints):
            g = gcd(*(c for _, c in form.numerators))
            if g > 1:
                form = Polynomial(form.variables, tuple((e, c // g) for e, c in form.numerators))
            primitive.append(form)
        return cls(frozenset(primitive))

    def permuted(self, perm: Mapping[str, str]) -> "Cone":
        # a permuted primitive linear form is one too
        return Cone(frozenset(c.permuted(perm) for c in self.constraints))


class QuasiPolynomial(Record):
    """m branch polynomials selected by (selector value) mod m; m = 1 is plain.

    The selector is a linear form with integer coefficients (checked with
    ``_linear_form``), kept as written: its value mod m picks the branch.
    """

    _fields = ("modulus", "selector", "branches")

    def __init__(self, modulus: int, selector: Polynomial, branches: tuple[Polynomial, ...]):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "selector", selector)
        object.__setattr__(self, "branches", branches)
        _linear_form(selector)
        if type(modulus) is not int or modulus < 1 or len(branches) != modulus:
            raise ValueError(f"a quasi-polynomial of modulus {modulus} needs that many "
                             f"branches (>= 1), not {len(branches)}")

    @classmethod
    def plain(cls, poly: Polynomial) -> "QuasiPolynomial":
        return cls(1, Polynomial(poly.variables, ()), (poly,))

    def permuted(self, perm: Mapping[str, str]) -> "QuasiPolynomial":
        return QuasiPolynomial(
            self.modulus,
            self.selector.permuted(perm),
            tuple(b.permuted(perm) for b in self.branches),
        )


Piece = tuple[Cone, QuasiPolynomial]


class PieceAgreementError(AssertionError):
    """Two overlapping pieces disagreed at an integer point: transcription bug."""


# The compiled forms, over coordinate tuples in a table's variable order: a
# linear form is (constant, ((variable index, coefficient), ...)), and a
# branch is (denominator, numerators, take): its value is the sum of each
# numerator times its monomial, which ``take`` reads, all in one tuple, from
# the point's monomial table.  A table is read along lines of its last
# variable, t: a line form is (constant, prefix terms, coefficient of t), so
# its value at a point is its value at the line's prefix plus that
# coefficient times t.
IndexedForm = tuple[int, tuple[tuple[int, int], ...]]
LineForm = tuple[int, tuple[tuple[int, int], ...], int]
IndexedBranch = tuple[int, tuple[int, ...], Callable[[list[int]], tuple[int, ...]]]


def _affine(form: Polynomial) -> IndexedForm:
    """A linear form compiled: its exponent tuples are zero or one unit."""
    return (sum(c for e, c in form.numerators if not any(e)),
            tuple((e.index(1), c) for e, c in form.numerators if any(e)))


def _line_form(form: IndexedForm, last: int) -> LineForm:
    """A compiled form split at the variable of index ``last``."""
    constant, terms = form
    return (constant, tuple((j, c) for j, c in terms if j != last),
            sum(c for j, c in terms if j == last))


def _monomial_recipe(exponents: Iterable[tuple[int, ...]]) -> tuple[dict, tuple[tuple[int, int], ...]]:
    """(slot of each exponent tuple, recipe) of a monomial table.

    Slot 0 is the constant 1; recipe entry s - 1 is (parent slot, variable
    index), and slot s is the parent's monomial times that variable: the
    parent lowers the first nonzero exponent by one.  The exponents are
    closed under parents one degree at a time, from the top degree down, so
    a sparse table gets its parent chains and no other monomial.  Slots go
    by degree, so parents come before their children and one pass over the
    recipe fills the table.
    """
    def parent(e):
        j = next(j for j, k in enumerate(e) if k)
        return e[:j] + (e[j] - 1,) + e[j + 1:], j

    needed = set(exponents)
    for degree in range(max(map(sum, needed), default=0), 0, -1):
        needed |= {parent(e)[0] for e in needed if sum(e) == degree}
    order = sorted(needed, key=lambda e: (sum(e), e))
    slot = {e: s for s, e in enumerate(order)}
    return slot, tuple((slot[up], j) for up, j in map(parent, order[1:]))


class PiecewiseFunction(Record):
    """Raises ValueError on no variables or repeated ones, and on a form or
    branch over other variables."""

    _fields = ("variables", "support", "pieces")

    def __init__(self, variables: tuple[str, ...], support: Cone, pieces: tuple[Piece, ...]):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "pieces", pieces)
        if not variables:  # a table is read along lines of its last variable
            raise ValueError("a table needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError(f"repeated variable in {list(variables)}")
        branches = [branch for _, q in pieces for branch in q.branches]
        forms = [*support.constraints,
                 *(form for cone, q in pieces for form in (*cone.constraints, q.selector))]
        for kind, parts in (("branch", branches), ("form", forms)):
            for p in parts:
                if p.variables != variables:
                    raise ValueError(f"a {kind} over {list(p.variables)} in a table over "
                                     f"{list(variables)}")

    @cached_property
    def _compiled(self):
        """(coordinates, support, forms, cones, pieces, recipes, hits): the
        one evaluator of the table, built on the first evaluation, so a table
        never evaluated costs nothing.

        ``coordinates`` reads a mapping as a tuple in the order of
        ``variables``, and the rest refer to variables by position in that
        tuple.  ``support`` holds the support's line forms.  ``forms`` holds
        each distinct cone form once, as (bit, *line form), so a point's
        signs pack into one mask; each cone is the mask of its forms' bits,
        and contains the point when the point's mask covers it.  Each piece
        is (modulus, selector, branches).  ``recipes`` splits the monomial
        table's recipe (see ``_monomial_recipe``) into the (slot, parent
        slot, variable index) steps of the monomials free of the last
        variable, filled once per line, and the rest, filled once per point;
        slots go by degree in both, so parents still come first.  Each
        branch takes its slots in one tuple (``_getter``).  ``hits``
        memoizes sign mask -> indices of the containing pieces, ascending.
        ``support`` and ``forms`` go in ascending (constant, terms), so every
        process compiles the same order: a frozenset's iteration order
        follows the string hash seed.
        """
        last = len(self.variables) - 1
        # pieces share forms and exponent tuples: compile each one once
        affine = {form: _affine(form) for form in {f for cone, _ in self.pieces for f in cone.constraints}}
        bits = {form: 1 << b for b, form in enumerate(sorted(affine, key=affine.get))}
        forms = tuple((bit, *_line_form(affine[form], last)) for form, bit in bits.items())
        slot, recipe = _monomial_recipe(
            e for _, q in self.pieces for b in q.branches for e, _ in b.numerators)
        order = sorted(slot, key=slot.get)
        steps = [(s, up, j) for s, (up, j) in enumerate(recipe, start=1)]
        recipes = tuple(tuple(step for step in steps if bool(order[step[0]][last]) == per_point)
                        for per_point in (False, True))

        def branch(p: Polynomial) -> IndexedBranch:
            return (p.denominator, tuple(c for _, c in p.numerators),
                    _getter(slot[e] for e, _ in p.numerators))

        cones = tuple(sum(bits[form] for form in cone.constraints) for cone, _ in self.pieces)
        pieces = tuple((q.modulus, _affine(q.selector), tuple(map(branch, q.branches)))
                       for _, q in self.pieces)
        support = tuple(_line_form(form, last) for form in sorted(map(_affine, self.support.constraints)))
        return _getter(self.variables), support, forms, cones, pieces, recipes, {}

    def _line(self, x: list[int], count: int, checked: bool) -> Iterator:
        """The table at ``count`` points, from the point ``x`` on in steps of
        1 in the last coordinate t, lazily and in order, so a reader that
        stops early makes no later point raise; each point is written into
        ``x``, the caller's own list.  Checked, each point reads as
        ``evaluate_at`` gives it: (0, None) outside the support, else (value,
        lowest containing piece), after the agreement checks.  Unchecked,
        each point reads as ``values_at`` gives it: (index, value) of every
        containing piece.

        Once per line: the support's interval in t, in exact floor and
        ceiling division, and nothing more if no point of the line is in it;
        the signs of the cone forms that do not read t; the other forms'
        values at t = 0; and, at the line's first point in a piece, the
        monomials free of t.  Once per point: those other forms' signs, the
        monomials that read t, and each containing piece's branch.
        """
        if len(x) != len(self.variables):  # the one length check of every reader
            raise ValueError(f"a point of ({','.join(self.variables)}) has {len(self.variables)} "
                             f"coordinates, not {len(x)}")
        ts = range(x[-1], x[-1] + count)
        _, support, forms, cones, pieces, (per_line, per_point), memo = self._compiled
        lo, hi = ts.start, ts.stop - 1
        if checked:
            for value, terms, slope in support:
                for j, c in terms:
                    value += c * x[j]
                if slope > 0:  # value + slope * t >= 0 from t = ceil(-value / slope) on
                    value = -(value // slope)
                    if value > lo:
                        lo = value
                elif slope < 0:  # and up to t = floor(value / -slope)
                    value //= -slope
                    if value < hi:
                        hi = value
                elif value < 0:
                    hi = ts.start - 1  # no point of the line
            if lo > hi:
                for _ in ts:
                    yield 0, None
                return
        fixed, moving = 0, []  # the mask bits of the forms free of t; (bit, value at t = 0, slope) of the rest
        for bit, value, terms, slope in forms:
            for j, c in terms:
                value += c * x[j]
            if slope:
                moving.append((bit, value, slope))
            elif value >= 0:
                fixed |= bit
        monomials = None  # filled at the first point in a piece
        for t in ts:
            if not lo <= t <= hi:
                yield 0, None
                continue
            x[-1] = t
            mask = fixed
            for bit, value, slope in moving:
                if value + slope * t >= 0:
                    mask |= bit
            hits = memo.get(mask)
            if hits is None:
                hits = memo[mask] = tuple(i for i, cone in enumerate(cones) if mask & cone == cone)
            if hits:
                if monomials is None:
                    monomials = [1] * (1 + len(per_line) + len(per_point))
                    for s, up, j in per_line:
                        monomials[s] = monomials[up] * x[j]
                for s, up, j in per_point:
                    monomials[s] = monomials[up] * x[j]
            found = []  # (index, numerator, denominator): the piece's value is their quotient
            for i in hits:
                modulus, (total, terms), branches = pieces[i]
                for j, c in terms:  # a plain piece's selector is the zero form: no terms
                    total += c * x[j]
                den, nums, take = branches[total % modulus]
                found.append((i, sum(map(mul, nums, take(monomials))), den))
            yield _agreed(found, self.variables, x) if checked else _each(found, self.variables, x)

    def evaluate_line(self, prefix: tuple[int, ...], ts: range) -> Iterator[tuple[int, int | None]]:
        """``evaluate_at`` at the point prefix + (t,) for each t in ``ts``,
        a range of step 1, lazily and in order: ``prefix`` holds every
        coordinate but the last, in the order of ``variables``."""
        if not isinstance(ts, range) or ts.step != 1:
            raise ValueError(f"a line is read over a range in steps of 1, not {ts!r}")
        return self._line([*prefix, ts.start], len(ts), True)

    def evaluate_at(self, coords: tuple[int, ...]) -> tuple[int, int | None]:
        """Value and lowest containing piece index at the point whose
        coordinates, in the order of ``variables``, are ``coords``; (0, None)
        outside support.

        Every containing piece is evaluated and agreement is asserted, always.
        """
        return next(self._line([*coords], 1, True))

    def values_at(self, coords: tuple[int, ...]) -> list[tuple[int, int]]:
        """(index, value) of every piece whose cone contains the point whose
        coordinates, in the order of ``variables``, are ``coords``, each
        evaluated on its own: no support test and no agreement check."""
        return next(self._line([*coords], 1, False))

    def evaluate(self, point: Mapping[str, int]) -> tuple[int, int | None]:
        """``evaluate_at`` at the point of a mapping from variable names."""
        return self.evaluate_at(self._compiled[0](point))

    def values(self, point: Mapping[str, int]) -> list[tuple[int, int]]:
        """``values_at`` at the point of a mapping from variable names."""
        return self.values_at(self._compiled[0](point))


def _agreed(found: list[tuple[int, int, int]], variables, coords) -> tuple[int, int]:
    """(value, index) of the first of the (index, numerator, denominator)
    values of the pieces that contain an in-support point, which must all
    be one integer."""
    if not found:
        raise PieceAgreementError(f"no piece covers in-support point {point_of(variables, coords)}")
    index, num, den = found[0]
    value, rem = divmod(num, den)
    # every piece gave the same integer: the first piece's, with no remainder
    if not rem and (len(found) == 1 or all(n == value * d for _, n, d in found)):
        return value, index
    exact = {Fraction(num, den) for _, num, den in found}
    if len(exact) != 1:
        raise PieceAgreementError(
            f"pieces {[i for i, _, _ in found]} disagree at {point_of(variables, coords)}: {sorted(exact)}")
    raise PieceAgreementError(f"non-integral value {exact.pop()} at {point_of(variables, coords)}")


def _each(found: list[tuple[int, int, int]], variables, coords) -> list[tuple[int, int]]:
    """(index, value) of each of the (index, numerator, denominator) values,
    which must be integers."""
    out = []
    for i, num, den in found:
        value, rem = divmod(num, den)
        if rem:
            raise PieceAgreementError(f"non-integral value {Fraction(num, den)} at {point_of(variables, coords)}")
        out.append((i, value))
    return out


def point_of(variables, values) -> dict[str, int]:
    return dict(zip(variables, values))


# ---------------------------------------------------------------------------
# orbit expansion


def orbit_expand(representatives: Iterable[Piece], group: Iterable[Mapping[str, str]]) -> list[Piece]:
    """Closure of the pieces under variable permutations, deduplicated."""
    group = list(group)  # read once per representative, so a one-shot iterator works too
    return list(dict.fromkeys((cone.permuted(perm), q.permuted(perm))
                              for cone, q in representatives for perm in group))


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


class MultiplicityMultiset(Record):
    """Histogram of positive coefficient values over all nu for fixed (lam, mu)."""

    _fields = ("counts",)

    def __init__(self, counts: tuple[tuple[int, int], ...]):  # (value, number of nu), sorted
        object.__setattr__(self, "counts", counts)

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
        coefficients = _lr_counts(lam, mu)[0].values()
    else:
        coefficients = [c for nu in enumerate_nu_candidates(lam, mu)
                        if (c := lr_coefficient(lam, mu, nu, method))]
    return MultiplicityMultiset.make(Counter(coefficients))


def count_above_enum(lam: Partition, mu: Partition, c: int) -> int:
    """#{nu : c_{lam,mu}^nu > c}, read from the (lam, mu) histogram."""
    if c < 0:
        raise ValueError("threshold must be nonnegative")
    return multiplicity_multiset(lam, mu).count_above(c)


# ---------------------------------------------------------------------------
# the full tables, built from orbit representatives

GL3_VARIABLES = ("k1", "k2", "l1", "l2", "c")

# k1 <-> k2 (lam -> lam dagger), l1 <-> l2 (mu -> mu dagger), k <-> l (lam <-> mu)
S1 = {"k1": "k2", "k2": "k1"}
T = {"l1": "l2", "l2": "l1"}
S2 = {"k1": "l1", "l1": "k1", "k2": "l2", "l2": "k2"}


class TranscriptionError(AssertionError):
    """A hard-coded table failed its structural self-check."""


def _orbit_table(representatives, generators, total: int) -> PiecewiseFunction:
    """The table over (k1, k2, l1, l2, c) whose pieces are the orbits of the
    (cone, polynomial, expected orbit size) representatives under the order-8
    group the generators span, listed orbit by orbit.

    Raises TranscriptionError unless the group has order 8, each orbit has
    its expected size and the orbits give ``total`` distinct pieces.
    """
    group = permutation_group(generators, GL3_VARIABLES)
    if len(group) != 8:
        raise TranscriptionError(f"symmetry group has order {len(group)}, expected 8")
    pieces: list[Piece] = []
    for cone, poly, expected in representatives:
        orbit = orbit_expand([(cone, QuasiPolynomial.plain(poly))], group)
        if len(orbit) != expected:
            raise TranscriptionError(f"orbit size {len(orbit)} != expected {expected}")
        pieces.extend(orbit)
    distinct = len(set(pieces))
    if distinct != total or len(pieces) != total:
        raise TranscriptionError(f"expected {total} distinct pieces, got {distinct} of {len(pieces)}")
    # everything >= c >= 0
    k1, k2, l1, l2, c = (Polynomial.var(GL3_VARIABLES, v) for v in GL3_VARIABLES)
    support = Cone.make([c, k1 - c, k2 - c, l1 - c, l2 - c])
    return PiecewiseFunction(GL3_VARIABLES, support, tuple(pieces))


# ---------------------------------------------------------------------------
# the rank-3 table (7 pieces from 3 representatives)


def gl3_count_function() -> PiecewiseFunction:
    """The 7-piece degree-2 table for #{nu : c_{lam,mu}^nu > c} at rank 3,
    over fundamental-weight coordinates (k1, k2, l1, l2) and threshold c,
    generated by orbit expansion."""
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
    p4 = (
        Fraction(5, 2) * c**2
        - c * (2 * k1 + 2 * k2 + l1 + Fraction(5, 2))
        + k1 * k2
        + (k1 + k2) * (l1 + 1)
        - half * l1 * (l1 - 1)
        + 1
    )
    # k1+k2 >= max(l1,l2)+c, l1+l2 >= max(k1,k2)+c
    c1 = Cone.make([k1 + k2 - l1 - c, k1 + k2 - l2 - c, l1 + l2 - k1 - c, l1 + l2 - k2 - c])
    c2 = Cone.make([l1 + c - k1 - k2, l2 + c - k1 - k2])
    c4 = Cone.make([k1 + k2 - l1 - c, l2 + c - k1 - k2])
    # [T, S2], not [S1, S2]: the orbit order is the piece order that the
    # dump and the point output's piece index show
    return _orbit_table([(c1, p1, 1), (c2, p2, 2), (c4, p4, 4)], [T, S2], 7)


# ---------------------------------------------------------------------------
# the rank-4 near-rectangular-pair table (36 pieces from 8 representatives)


def gl4nr2_count_function() -> PiecewiseFunction:
    """The 36-piece degree-3 table for #{nu : c_{lam,mu}^nu > c} at rank 4
    with both factors near-rectangular, generated by orbit expansion."""
    V = GL3_VARIABLES
    k1, k2, l1, l2, c = (Polynomial.var(V, v) for v in V)
    p1 = Fraction(-1, 2) * (c - l2 - 1) * (c - l1 - 1) * (2 * c - l1 - l2 - 2)
    p16 = p1 - binom3(l1 + l2 - k2 - c + 2)
    p2 = p16 - binom3(l1 + l2 - k1 - c + 2)
    p19 = p2 + binom3(l1 - k2 + 1)
    p21 = p16 + binom3(l1 - k2 + 1)
    p29 = p19 + binom3(l2 - k2 + 1)
    p27 = p29 + binom3(l1 + l2 - k1 - k2 + 1)
    p36 = p21 + binom3(l2 - k2 + 1)

    c1 = Cone.make([k1 + c - l1 - l2, k2 + c - l1 - l2])
    c16 = Cone.make([k1 + c - l1 - l2, l1 + l2 - k2 - c, k2 - l1, k2 - l2])
    c2 = Cone.make([l1 + l2 - k1 - c, l1 + l2 - k2 - c, k1 - l1, k1 - l2, k2 - l1, k2 - l2])
    c19 = Cone.make([l1 + l2 - k1 - c, k1 - l1, l1 - k2, k2 - l2])
    c21 = Cone.make([k1 + c - l1 - l2, l1 - k2, k2 - l2])
    c29 = Cone.make([k1 + k2 - l1 - l2, l1 + l2 - k1 - c, l1 - k2, l2 - k2])
    c27 = Cone.make([l1 + l2 - k1 - k2, k1 - l1, k1 - l2])
    c36 = Cone.make([k1 + c - l1 - l2, l1 - k2, l2 - k2])

    f = _orbit_table([(c1, p1, 2), (c16, p16, 4), (c2, p2, 2), (c19, p19, 8),
                      (c21, p21, 8), (c29, p29, 4), (c27, p27, 4), (c36, p36, 4)], [S1, S2], 36)
    fixed = len(s1_fixed_pieces(f))
    if fixed != 12:
        raise TranscriptionError(f"expected 12 s1-fixed pieces, got {fixed}")
    return f


def s1_fixed_pieces(f: PiecewiseFunction) -> list[int]:
    """Indices of pieces invariant under swapping k1 and k2."""
    return [i for i, (cone, q) in enumerate(f.pieces)
            if (cone.permuted(S1), q.permuted(S1)) == (cone, q)]


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

    ambient = [k1, k2, m1 - m2, m2 - m3, m3]

    cone1 = Cone.make(ambient + [m1 - k1 - m3, m1 - k2 - m3, m2 - m3, k1 + k2 + m3 - m1 - m2])
    piece1 = (cone1, QuasiPolynomial.plain(base))

    cone2 = Cone.make(ambient + [
        m1 + m2 - k1 - k2 - m3, k2 + m1 - k1 - m2 - m3, k2 + m3 - m2,
        k1 + m1 - k2 - m2 - m3, k1 + m3 - m2, k1 + k2 - m1,
    ])
    s = k1 + k2 - m1 - m2 + m3
    slope = -2 * k1 - 2 * k2 + 2 * m1 + 2 * m2 + 4 * m3 + 3
    odd = base + Fraction(1, 24) * (s - 1) * (s + 1) * slope
    even = base + Fraction(1, 24) * s * (2 + s * slope)
    selector = k1 + k2 + m1 + m2 + m3
    piece2 = (cone2, QuasiPolynomial(2, selector, (even, odd)))

    cone3 = Cone.make(ambient + [m1 - k1, m1 - k2 - m3, m2 - m3, k2 - m2, k1 + m3 - m1])
    piece3 = (cone3, QuasiPolynomial.plain(base + binom3(k1 - m1 + m3 + 1)))

    return PiecewiseFunction(V, Cone.make(ambient), (piece1, piece2, piece3))


# ---------------------------------------------------------------------------
# ground-truth comparison helpers

def _nr(n: int, a: int, b: int) -> tuple[int, ...]:
    """The parts (a + b, b^{n-2}, 0) of the rank-n near-rectangular partition
    with fundamental-weight coordinates (a, b)."""
    return padded_parts((a + b,), b, (0,), n)


# each family's table builder and its two factor maps, on coordinates as
# arguments: lam's parts from (k1, k2), mu's from the rest but c; in CLI order
FAMILIES = {
    "gl3": (gl3_count_function, partial(_nr, 3), partial(_nr, 3)),
    "gl4nr2": (gl4nr2_count_function, partial(_nr, 4), partial(_nr, 4)),
    # the samples' mu is any (m1, m2, m3, 0)
    "gl4nr-samples": (gl4nr_samples_function, partial(_nr, 4), lambda *m: (*m, 0)),
}


def _family(family: str):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return FAMILIES[family]


@lru_cache(maxsize=None)
def family_function(family: str) -> PiecewiseFunction:
    """The built (and structure-checked) table of a family."""
    return _family(family)[0]()


def enum_value(family: str, point: Mapping[str, int]) -> int:
    """Enumeration ground truth for one table point; the threshold is 0 in a
    table without a c variable."""
    _, lam, mu = _family(family)
    x = [point[v] for v in family_function(family).variables if v != "c"]
    return count_above_enum(Partition(lam(*x[:2])), Partition(mu(*x[2:])), point.get("c", 0))


def verify_family(family: str, bound: int):
    """Scan all integer points with coordinates in [0, bound]; return the first
    (point, table value, enumeration value) mismatch, or None.

    The scan reads coordinate tuples, in the table's variable order, lam's
    outside mu's, and builds a point's mapping only for the mismatch it
    returns.  A full table's last variable is the threshold c, and each
    prefix's line of c is read through ``evaluate_line``, point by point in
    order, with ``evaluate_at``'s checks; the samples have no c (their
    threshold is 0) and cover part of their support, so every containing
    piece is checked, through ``values_at``.  Each factor's parts and dual
    are built once per factor coordinate.  The scan enumerates one histogram
    per class of (lam, mu), the first time a value of the class is checked,
    and reads every threshold from it.
    """
    if bound < 0:
        raise ValueError("verify range must be nonnegative")
    _, lam_parts, mu_parts = _family(family)
    f = family_function(family)
    full = "c" in f.variables  # as an int: 1 when each prefix leaves out c, the last variable
    thresholds = range(bound + 1) if full else (0,)
    # (coordinates, parts, dual) of each lam factor, then of each mu factor
    lams, mus = ([(x, parts, dual_parts(parts)) for x in product(range(bound + 1), repeat=arity)
                  for parts in (factor(*x),)]
                 for factor, arity in ((lam_parts, 2), (mu_parts, len(f.variables) - full - 2)))
    truths: dict[tuple, list[int]] = {}  # class -> #{nu : coefficient > c} for each c
    for k, lam, lam_star in lams:
        for m, mu, mu_star in mus:
            coords = k + m
            # each point's (value, piece) on the prefix's line of c, or the samples' one list of (piece, value)
            line = f.evaluate_line(coords, thresholds) if full else (f.values_at(coords),)
            truth = None
            for c, read in enumerate(line):
                values = read[:1] if full else [v for _, v in read]
                if values and truth is None:
                    # one histogram per key: c^nu_{lam,mu} = c^nu_{mu,lam} = c^{nu*}_{lam*,mu*}.
                    # lam -> lam* alone is no such identity: for these rank-3 and near-rectangular
                    # rank-4 lam it is lam -> lam-dagger, the conjecture the tables are checked against
                    key = min((lam, mu), (mu, lam), (lam_star, mu_star), (mu_star, lam_star))
                    if key not in truths:
                        histogram = multiplicity_multiset(Partition(lam), Partition(mu))
                        truths[key] = [histogram.count_above(t) for t in thresholds]
                    truth = truths[key]
                for value in values:
                    if value != truth[c]:
                        return point_of(f.variables, coords + (c,) * full), value, truth[c]
    return None


# ---------------------------------------------------------------------------
# JSON export, the output of ``piecewise --dump``: tests pin its bytes and
# read it as the Fraction reference the tables are checked against


def _form_to_json(form: Polynomial) -> dict:
    constant, terms = _affine(form)
    coeffs = {form.variables[j]: c for j, c in terms}
    return {"coeffs": {v: str(coeffs[v]) for v in sorted(coeffs)}, "constant": str(constant)}


def _cone_to_json(cone: Cone) -> dict:
    return {"constraints": sorted((_form_to_json(c) for c in cone.constraints), key=repr)}


def _poly_to_json(p: Polynomial) -> dict:
    return {
        "monomials": [
            {"exponents": list(e), "numerator": c.numerator, "denominator": c.denominator}
            for e, c in ((e, Fraction(c, p.denominator)) for e, c in p.numerators)  # each reduced
        ]
    }


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
