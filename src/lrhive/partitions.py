"""Partitions at fixed rank, dualization, reductions and candidate enumeration.

Every other module works with ``Partition`` values: weakly decreasing tuples
of nonnegative integers with exactly ``n`` explicit parts (trailing zeros are
stored, not implied).  Equality is component-wise at fixed rank, since duals
and cone membership depend on the ambient rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Partition:
    """A partition with exactly ``n`` parts, zero-padded and weakly decreasing."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if len(parts) < 1:
            raise ValueError("a partition needs rank n >= 1")
        for p in parts:
            if type(p) is not int:
                raise ValueError(f"partition parts must be integers, not {p!r}")
            if p < 0:
                raise ValueError(f"negative part in {parts}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")

    @property
    def n(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Partition":
        """Parse comma-separated parts, e.g. ``"5,3"``.

        Omitted trailing zeros are allowed when ``n`` supplies the rank.
        """
        text = text.strip()
        parts = [int(tok) for tok in text.split(",")] if text else []
        if n is not None:
            if len(parts) > n:
                raise ValueError(f"{len(parts)} parts exceed rank {n}")
            parts += [0] * (n - len(parts))
        elif not parts:
            raise ValueError("empty partition needs an explicit rank")
        return cls(tuple(parts))


def dual_star(lam: Partition) -> Partition:
    """The dual partition (lam1 - lam_n, ..., lam1 - lam_2, 0).

    Parametrizes the dual representation up to a determinant power.
    """
    top = lam[0]
    return Partition(tuple(top - lam[lam.n - 1 - i] for i in range(lam.n)))


def bar_reduce(lam: Partition) -> Partition:
    """Subtract the last part from every part; the result ends in 0."""
    last = lam[lam.n - 1]
    return Partition(tuple(p - last for p in lam))


def is_near_rectangular(lam: Partition) -> bool:
    """True iff all middle parts lam_2 = ... = lam_{n-1} coincide."""
    middle = lam.parts[1 : lam.n - 1]
    return all(p == middle[0] for p in middle) if middle else True


def padded(head: tuple[int, ...], middle: int, tail: tuple[int, ...], n: int) -> Partition:
    """The rank-n partition head, middle^{n - len(head) - len(tail)}, tail.

    The one padding rule for near-rectangular data: lam = padded((lam1,), lam2,
    (0,), n) and the pinched nu = padded((nu1, nu2), lam2 + mu2, (nu3, nu4), n).
    """
    fill = n - len(head) - len(tail)
    if fill < 0:
        raise ValueError(f"{len(head)} + {len(tail)} fixed parts exceed rank {n}")
    return Partition(head + (middle,) * fill + tail)


def partitions_of(total: int, max_parts: int, max_first: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total`` into at most ``max_parts`` parts, largest
    part at most ``max_first``, in lexicographically decreasing order."""
    cap = total if max_first is None else max_first
    parts: list[int] = []
    remaining = total
    while True:
        # fill the tail greedily: the largest parts that fit under cap
        while remaining > 0 and cap > 0 and len(parts) < max_parts:
            cap = min(cap, remaining)
            parts.append(cap)
            remaining -= cap
        if remaining:
            return  # only the first fill can fall short: nothing fits
        yield tuple(parts)
        # the next one down: lower the rightmost part whose tail still fits
        while parts:
            part = parts.pop()
            remaining += part
            cap = part - 1
            if cap * (max_parts - len(parts)) >= remaining:
                break
        else:
            return


def enumerate_nu_candidates(lam: Partition, mu: Partition) -> list[Partition]:
    """Every rank-n partition nu with |nu| = |lam| + |mu| and nu_1 <= lam_1 + mu_1.

    The first-part bound is the crudest Weyl inequality, so this superset
    contains every nu with a positive Littlewood-Richardson coefficient.
    Ordered lexicographically decreasing, duplicate-free.
    """
    if lam.n != mu.n:
        raise ValueError("rank mismatch")
    n = lam.n
    total = lam.size + mu.size
    out = []
    for shape in partitions_of(total, n, lam[0] + mu[0]):
        out.append(Partition(shape + (0,) * (n - len(shape))))
    return out
