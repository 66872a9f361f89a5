"""Small exact linear algebra over the rationals.

Vectors live over the rationals but elimination is fraction-free: a vector
is carried as an integer array plus a positive denominator, rows of the
echelon are primitive integer vectors, and each pivot step cross-multiplies
instead of dividing.  Everything stays exact; Fractions only appear at the
boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _scaled(vec) -> tuple[list[int], int]:
    """Represent a rational vector as (integer vector, positive denominator)."""
    den = 1
    for x in vec:
        d = getattr(x, "denominator", 1)
        if d != 1:
            den = den // gcd(den, d) * d
    if den == 1:
        return [int(x) for x in vec], 1
    return [int(x * den) for x in vec], den


class SpanBuilder:
    """Incrementally row-reduced span of a set of rational vectors."""

    def __init__(self, width: int):
        self.width = width
        # pivot column -> primitive integer row, zero before the pivot,
        # positive at it
        self.rows: dict[int, list[int]] = {}
        self._pivots: list[int] = []  # kept sorted

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce_int(self, ivec: list[int]) -> tuple[list[int], int]:
        """Eliminate all pivot coordinates; returns (vector, scale) where the
        exact residual is vector / scale."""
        scale = 1
        w = self.width
        for p in self._pivots:
            c = ivec[p]
            if not c:
                continue
            row = self.rows[p]
            lead = row[p]
            g = gcd(c, lead)
            mv = lead // g
            mr = c // g
            if mv == 1:
                for i in range(w):
                    if row[i]:
                        ivec[i] -= row[i] * mr
            else:
                for i in range(w):
                    ivec[i] = ivec[i] * mv - row[i] * mr
                scale *= mv
        return ivec, scale

    def reduce(self, vec) -> list[Fraction]:
        """Exact residual of vec after eliminating all pivot coordinates."""
        ivec, den = _scaled(vec)
        if len(ivec) != self.width:
            raise ValueError(f"expected width {self.width}, got {len(ivec)}")
        ivec, scale = self._reduce_int(ivec)
        d = den * scale
        return [Fraction(x, d) for x in ivec]

    def add(self, vec) -> bool:
        """Add vec to the span; True when the rank grew."""
        ivec, _ = _scaled(vec)
        if len(ivec) != self.width:
            raise ValueError(f"expected width {self.width}, got {len(ivec)}")
        ivec, _ = self._reduce_int(ivec)
        p = next((i for i, x in enumerate(ivec) if x), None)
        if p is None:
            return False
        g = 0
        for x in ivec:
            g = gcd(g, x)
        if ivec[p] < 0:
            g = -g
        row = [x // g for x in ivec]
        self.rows[p] = row
        self._pivots.append(p)
        self._pivots.sort()
        return True

    def pivots(self) -> list[int]:
        return list(self._pivots)
