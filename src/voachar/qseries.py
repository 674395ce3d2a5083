"""Truncated q-power series with exact integer coefficients."""

from __future__ import annotations

from math import comb
from typing import Mapping


class TruncSeries:
    """Series in q kept to a fixed order; ``coeffs[k]`` is the q^k coefficient.

    Coefficients are arbitrary-precision ints.  Binary operations never
    extend the truncation order: they truncate to the smaller operand.
    """

    __slots__ = ("trunc", "coeffs")

    def __init__(self, trunc: int, coeffs=None):
        if trunc < 0:
            raise ValueError("trunc must be non-negative")
        if coeffs is None:
            coeffs = [0] * (trunc + 1)
        coeffs = [int(c) for c in coeffs]
        if len(coeffs) != trunc + 1:
            raise ValueError("need exactly trunc+1 coefficients")
        self.trunc = trunc
        self.coeffs = coeffs

    @classmethod
    def zero(cls, trunc: int) -> "TruncSeries":
        return cls(trunc)

    @classmethod
    def one(cls, trunc: int) -> "TruncSeries":
        return cls.monomial(0, trunc)

    @classmethod
    def monomial(cls, power: int, trunc: int, coeff: int = 1) -> "TruncSeries":
        s = cls(trunc)
        if 0 <= power <= trunc:
            s.coeffs[power] = int(coeff)
        return s

    def coeff(self, k: int) -> int:
        if not 0 <= k <= self.trunc:
            raise ValueError(f"power {k} beyond truncation {self.trunc}")
        return self.coeffs[k]

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by q^k (k >= 0), keeping the truncation order."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        out = TruncSeries(self.trunc)
        for i in range(self.trunc + 1 - k):
            out.coeffs[i + k] = self.coeffs[i]
        return out

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        t = min(self.trunc, other.trunc)
        return TruncSeries(t, [self.coeffs[k] + other.coeffs[k] for k in range(t + 1)])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        t = min(self.trunc, other.trunc)
        return TruncSeries(t, [self.coeffs[k] - other.coeffs[k] for k in range(t + 1)])

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.trunc, [-c for c in self.coeffs])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        t = min(self.trunc, other.trunc)
        out = [0] * (t + 1)
        for i, a in enumerate(self.coeffs[: t + 1]):
            if a == 0:
                continue
            for j in range(t + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncSeries(t, out)

    def scale(self, c: int) -> "TruncSeries":
        return TruncSeries(self.trunc, [c * x for x in self.coeffs])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.trunc, tuple(self.coeffs)))

    def __repr__(self) -> str:
        return f"TruncSeries({self.trunc}, {self.coeffs})"

    def to_record(self) -> dict:
        """Serialize as {"trunc": N, "coeffs": [decimal strings]}."""
        return {"trunc": self.trunc, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_record(cls, rec: dict) -> "TruncSeries":
        return cls(int(rec["trunc"]), [int(c) for c in rec["coeffs"]])


def _binomial_factor(j: int, e: int, trunc: int) -> TruncSeries:
    # (1 - q^j)^e expanded to order trunc; e may be negative.
    out = TruncSeries(trunc)
    if e >= 0:
        for m in range(min(e, trunc // j) + 1):
            out.coeffs[j * m] = (-1) ** m * comb(e, m)
    else:
        k = -e
        for m in range(trunc // j + 1):
            out.coeffs[j * m] = comb(m + k - 1, k - 1)
    return out


def euler_product(exps: Mapping[int, int], trunc: int) -> TruncSeries:
    """Expand prod_j (1 - q^j)^{e_j} to order trunc.

    ``exps`` maps j >= 1 to an integer exponent e_j; absent j means e_j = 0,
    and j > trunc cannot contribute.
    """
    out = TruncSeries.one(trunc)
    for j in sorted(exps):
        if j < 1:
            raise ValueError("factor indices must be >= 1")
        if j > trunc:
            continue
        e = exps[j]
        if e:
            out = out * _binomial_factor(j, e, trunc)
    return out


def partition_power(n: int, trunc: int) -> TruncSeries:
    """P(q)^n where P(q) = prod_j (1 - q^j)^{-1}."""
    return euler_product({j: -n for j in range(1, trunc + 1)}, trunc)
