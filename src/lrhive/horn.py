"""Horn-cone facet systems for the near-rectangular faces at rank 4.

The two hard-coded systems ("nr2": both factors near-rectangular, "nr": only
the first) decide nonvanishing of c_{lam,mu}^nu by a finite list of linear
inequalities in (lam, mu, nu), plus the balance equality, on a fixed domain
that each system checks itself.  Extremal-ray /
Hilbert-basis generators are transcribed and re-verified, not computed.
"""

from __future__ import annotations

from .partitions import Partition, Record, is_near_rectangular

# A facet is (name, coeffs) with coeffs over (l1..l4, m1..m4, n1..n4),
# interpreted as coeffs . x >= 0.
Facet = tuple[str, tuple[int, ...]]


def _facet(name: str, lam=(0, 0, 0, 0), mu=(0, 0, 0, 0), nu=(0, 0, 0, 0)) -> Facet:
    return (name, tuple(lam) + tuple(mu) + tuple(nu))


_NR2_FACETS: list[Facet] = [
    _facet("nu1-nu2>=0", nu=(1, -1, 0, 0)),
    _facet("nu4>=0", nu=(0, 0, 0, 1)),
    _facet("nu3+nu4-lam2-mu2>=0", lam=(0, -1, 0, 0), mu=(0, -1, 0, 0), nu=(0, 0, 1, 1)),
    _facet("nu1+nu3-lam1-lam2-mu2>=0", lam=(-1, -1, 0, 0), mu=(0, -1, 0, 0), nu=(1, 0, 1, 0)),
    _facet("nu1+nu3-lam2-mu1-mu2>=0", lam=(0, -1, 0, 0), mu=(-1, -1, 0, 0), nu=(1, 0, 1, 0)),
    _facet("nu2-lam2-mu2>=0", lam=(0, -1, 0, 0), mu=(0, -1, 0, 0), nu=(0, 1, 0, 0)),
    _facet("lam2+mu2-nu3>=0", lam=(0, 1, 0, 0), mu=(0, 1, 0, 0), nu=(0, 0, -1, 0)),
    _facet("nu3-lam2>=0", lam=(0, -1, 0, 0), nu=(0, 0, 1, 0)),
    _facet("nu3-mu2>=0", mu=(0, -1, 0, 0), nu=(0, 0, 1, 0)),
    _facet("lam1+mu2-nu2>=0", lam=(1, 0, 0, 0), mu=(0, 1, 0, 0), nu=(0, -1, 0, 0)),
    _facet("lam2+mu1-nu2>=0", lam=(0, 1, 0, 0), mu=(1, 0, 0, 0), nu=(0, -1, 0, 0)),
]

# Full list for the nr face, min/max conditions expanded to atomic facets.
# Two printed compound bounds are read as max(lam1, mu1, lam2+mu2) and
# min(lam1, mu1, lam2+mu3): a comma is evidently missing in both, and the
# expansion below is the one validated against hive enumeration.
_NR_FACETS: list[Facet] = [
    # dominance
    _facet("nu1-nu2>=0", nu=(1, -1, 0, 0)),
    _facet("nu2-nu3>=0", nu=(0, 1, -1, 0)),
    _facet("nu3-nu4>=0", nu=(0, 0, 1, -1)),
    _facet("nu4>=0", nu=(0, 0, 0, 1)),
    _facet("lam1-lam2>=0", lam=(1, -1, 0, 0)),
    _facet("lam2>=0", lam=(0, 1, 0, 0)),
    _facet("mu1-mu2>=0", mu=(1, -1, 0, 0)),
    _facet("mu2-mu3>=0", mu=(0, 1, -1, 0)),
    _facet("mu3>=0", mu=(0, 0, 1, 0)),
    # upper bounds on nu
    _facet("lam1+mu1-nu1>=0", lam=(1, 0, 0, 0), mu=(1, 0, 0, 0), nu=(-1, 0, 0, 0)),
    _facet("lam2+mu1-nu2>=0", lam=(0, 1, 0, 0), mu=(1, 0, 0, 0), nu=(0, -1, 0, 0)),
    _facet("lam1+mu2-nu2>=0", lam=(1, 0, 0, 0), mu=(0, 1, 0, 0), nu=(0, -1, 0, 0)),
    _facet("lam2+mu2-nu3>=0", lam=(0, 1, 0, 0), mu=(0, 1, 0, 0), nu=(0, 0, -1, 0)),
    _facet("lam1+mu3-nu3>=0", lam=(1, 0, 0, 0), mu=(0, 0, 1, 0), nu=(0, 0, -1, 0)),
    _facet("lam1-nu4>=0", lam=(1, 0, 0, 0), nu=(0, 0, 0, -1)),
    _facet("mu1-nu4>=0", mu=(1, 0, 0, 0), nu=(0, 0, 0, -1)),
    _facet("lam2+mu3-nu4>=0", lam=(0, 1, 0, 0), mu=(0, 0, 1, 0), nu=(0, 0, 0, -1)),
    # lower bounds on nu
    _facet("nu1-lam1>=0", lam=(-1, 0, 0, 0), nu=(1, 0, 0, 0)),
    _facet("nu1-mu1>=0", mu=(-1, 0, 0, 0), nu=(1, 0, 0, 0)),
    _facet("nu1-lam2-mu2>=0", lam=(0, -1, 0, 0), mu=(0, -1, 0, 0), nu=(1, 0, 0, 0)),
    _facet("nu2-mu2>=0", mu=(0, -1, 0, 0), nu=(0, 1, 0, 0)),
    _facet("nu2-lam2-mu3>=0", lam=(0, -1, 0, 0), mu=(0, 0, -1, 0), nu=(0, 1, 0, 0)),
    _facet("nu3-lam2>=0", lam=(0, -1, 0, 0), nu=(0, 0, 1, 0)),
    _facet("nu3-mu3>=0", mu=(0, 0, -1, 0), nu=(0, 0, 1, 0)),
    # pair sums
    _facet("nu1+nu2-lam1-lam2-mu2>=0", lam=(-1, -1, 0, 0), mu=(0, -1, 0, 0), nu=(1, 1, 0, 0)),
    _facet("nu1+nu2-lam2-mu1-mu2>=0", lam=(0, -1, 0, 0), mu=(-1, -1, 0, 0), nu=(1, 1, 0, 0)),
    _facet("nu1+nu3-lam1-lam2-mu3>=0", lam=(-1, -1, 0, 0), mu=(0, 0, -1, 0), nu=(1, 0, 1, 0)),
    _facet("nu1+nu3-lam2-mu1-mu3>=0", lam=(0, -1, 0, 0), mu=(-1, 0, -1, 0), nu=(1, 0, 1, 0)),
    _facet("nu2+nu3-lam2-mu2-mu3>=0", lam=(0, -1, 0, 0), mu=(0, -1, -1, 0), nu=(0, 1, 1, 0)),
    _facet("nu1+nu4-lam2-mu1>=0", lam=(0, -1, 0, 0), mu=(-1, 0, 0, 0), nu=(1, 0, 0, 1)),
    _facet("nu2+nu4-lam2-mu2>=0", lam=(0, -1, 0, 0), mu=(0, -1, 0, 0), nu=(0, 1, 0, 1)),
    _facet("nu3+nu4-lam2-mu3>=0", lam=(0, -1, 0, 0), mu=(0, 0, -1, 0), nu=(0, 0, 1, 1)),
]

assert len(_NR2_FACETS) == 11
assert len(_NR_FACETS) == 32


class RayGenerator(Record):
    _fields = ("lam", "mu", "nu", "description")

    def __init__(self, lam: Partition, mu: Partition, nu: Partition, description: str):
        for name, value in zip(self._fields, (lam, mu, nu, description)):
            object.__setattr__(self, name, value)


def _ray(lam, mu, nu, desc) -> RayGenerator:
    return RayGenerator(Partition(lam), Partition(mu), Partition(nu), desc)


_NR2_GENERATORS = [
    _ray((1, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0), "V(1) in V(1)xV(0)"),
    _ray((0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), "V(1) in V(0)xV(1)"),
    _ray((1, 1, 1, 0), (0, 0, 0, 0), (1, 1, 1, 0), "V(1^3) in V(1^3)xV(0)"),
    _ray((0, 0, 0, 0), (1, 1, 1, 0), (1, 1, 1, 0), "V(1^3) in V(0)xV(1^3)"),
    _ray((1, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), "V(1^2) in V(1)xV(1)"),
    _ray((1, 0, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1), "V(1^4) in V(1)xV(1^3)"),
    _ray((1, 1, 1, 0), (1, 0, 0, 0), (1, 1, 1, 1), "V(1^4) in V(1^3)xV(1)"),
    _ray((1, 1, 1, 0), (1, 1, 1, 0), (2, 2, 1, 1), "V(2^2 1^2) in V(1^3)xV(1^3)"),
]

_NR_GENERATORS = [
    _ray((1, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0), "V(1) in V(1)xV(0)"),
    _ray((1, 1, 1, 0), (0, 0, 0, 0), (1, 1, 1, 0), "V(1^3) in V(1^3)xV(0)"),
    _ray((0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), "V(1) in V(0)xV(1)"),
    _ray((0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0), "V(1^2) in V(0)xV(1^2)"),
    _ray((0, 0, 0, 0), (1, 1, 1, 0), (1, 1, 1, 0), "V(1^3) in V(0)xV(1^3)"),
    _ray((1, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), "V(1^2) in V(1)xV(1)"),
    _ray((1, 0, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1), "V(1^4) in V(1)xV(1^3)"),
    _ray((1, 1, 1, 0), (1, 0, 0, 0), (1, 1, 1, 1), "V(1^4) in V(1^3)xV(1)"),
    _ray((1, 1, 1, 0), (1, 1, 1, 0), (2, 2, 1, 1), "V(2^2 1^2) in V(1^3)xV(1^3)"),
    _ray((2, 1, 1, 0), (1, 1, 0, 0), (2, 2, 1, 1), "V(2^2 1^2) in V(2 1^2)xV(1^2)"),
    _ray((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), "V(1^3) in V(1)xV(1^2)"),
    _ray((1, 1, 1, 0), (1, 1, 0, 0), (2, 1, 1, 1), "V(2 1^3) in V(1^3)xV(1^2)"),
]


class FacetSystem(Record):
    """Named list of linear facets over (lam, mu, nu) plus the balance
    equality, with the Hilbert-basis generators of its face.

    The facets decide nonvanishing only on the system's domain: rank 4, lam
    and mu bar-reduced (last part 0), lam near-rectangular, and mu too when
    ``mu_near_rectangular`` is set.
    """

    _fields = ("name", "facets", "mu_near_rectangular", "generators")

    def __init__(self, name: str, facets: tuple[Facet, ...], mu_near_rectangular: bool,
                 generators: tuple[RayGenerator, ...]):
        for field, value in zip(self._fields, (name, facets, mu_near_rectangular, generators)):
            object.__setattr__(self, field, value)

    def violated(self, lam: Partition, mu: Partition, nu: Partition) -> list[int]:
        """Indices of violated facets; the balance equality is index -1.

        Raises ValueError on a triple outside the domain.
        """
        if not lam.n == mu.n == nu.n == 4:
            raise ValueError(f"{self.name} facets need rank 4, not ranks {lam.n}, {mu.n}, {nu.n}")
        for p, what, near_rect in ((lam, "lam", True), (mu, "mu", self.mu_near_rectangular)):
            if p[3] != 0:
                raise ValueError(f"{what} must have last part 0")
            if near_rect and not is_near_rectangular(p):
                raise ValueError(f"{what} must be near-rectangular for the {self.name} facets")
        x = lam.parts + mu.parts + nu.parts
        bad = []
        if nu.size != lam.size + mu.size:
            bad.append(-1)
        for idx, (_, coeffs) in enumerate(self.facets):
            if sum(c * v for c, v in zip(coeffs, x)) < 0:
                bad.append(idx)
        return bad


NR2_SYSTEM = FacetSystem("nr2", tuple(_NR2_FACETS), True, tuple(_NR2_GENERATORS))
NR_SYSTEM = FacetSystem("nr", tuple(_NR_FACETS), False, tuple(_NR_GENERATORS))


def facet_system(name: str) -> FacetSystem:
    if name == "nr2":
        return NR2_SYSTEM
    if name == "nr":
        return NR_SYSTEM
    raise ValueError(f"unknown facet system {name!r}")


def hilbert_generators(face: str) -> list[RayGenerator]:
    """The 8 (nr2) or 12 (nr) Hilbert-basis triples for the face."""
    return list(facet_system(face).generators)


def horn4_nr2_member(lam: Partition, mu: Partition, nu: Partition) -> bool:
    """Nonvanishing test for rank 4 with both lam and mu near-rectangular."""
    return not NR2_SYSTEM.violated(lam, mu, nu)


def horn4_nr_member(lam: Partition, mu: Partition, nu: Partition) -> bool:
    """Nonvanishing test for rank 4 with lam near-rectangular, mu arbitrary."""
    return not NR_SYSTEM.violated(lam, mu, nu)
