"""Graded character of the fermionic Fock space, its isotypic decomposition,
and the invariant-subalgebra character as a Clebsch-Gordan-weighted sum of
branching-function products.

Two routes to the same series are kept deliberately independent:
``theorem2_character`` evaluates sum_{tuples} m^0 * B_{lam_1}...B_{lam_d},
while ``invariant_series_oracle`` decomposes the full q-graded character
level by level and reads off the trivial component.
"""

from __future__ import annotations

import itertools
from math import comb, factorial

from .branching import branching_product
from .qseries import TruncSeries
from .rootsys import (
    DEFAULT_WEYL_CAP,
    Weight,
    conformal_h_int,
    dominant_weights_up_to,
    zero_weight,
)
from .weylchar import LaurentPoly, decompose, is_weyl_invariant, tensor_multiplicity


class QLaurent:
    """q-graded formal character: levels[k] is the Laurent polynomial at q^k."""

    __slots__ = ("n", "trunc", "levels")

    def __init__(self, n: int, trunc: int, levels=None):
        self.n = n
        self.trunc = trunc
        if levels is None:
            levels = [LaurentPoly.zero(n) for _ in range(trunc + 1)]
        if len(levels) != trunc + 1:
            raise ValueError("need exactly trunc+1 levels")
        self.levels = list(levels)

    @classmethod
    def one(cls, n: int, trunc: int) -> "QLaurent":
        out = cls(n, trunc)
        out.levels[0] = LaurentPoly.one(n)
        return out

    def mul_factor(self, factor: list[tuple[int, LaurentPoly]]) -> "QLaurent":
        """Multiply by sum_j poly_j q^{k_j} given as (k_j, poly_j) pairs."""
        out = QLaurent(self.n, self.trunc)
        for k, poly in factor:
            if k < 0:
                raise ValueError("q-powers must be non-negative")
            for lvl in range(self.trunc + 1 - k):
                cur = self.levels[lvl]
                if not cur.is_zero() and not poly.is_zero():
                    out.levels[lvl + k] = out.levels[lvl + k] + cur * poly
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QLaurent)
            and (self.n, self.trunc) == (other.n, other.trunc)
            and self.levels == other.levels
        )

    def __repr__(self) -> str:
        return f"QLaurent(n={self.n}, trunc={self.trunc})"


def fermion_character(n: int, d: int, trunc: int) -> QLaurent:
    """prod_{i=1..n, j>=1} (1 + e^{-eps_i} q^j)^d (1 + e^{+eps_i} q^j)^d
    expanded to order q^trunc."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    out = QLaurent.one(n, trunc)
    for i in range(1, n + 1):
        for j in range(1, trunc + 1):
            for sign in (-1, 1):
                base = Weight(tuple(2 * sign if t == i - 1 else 0 for t in range(n)))
                factor = []
                for s in range(d + 1):
                    if j * s > trunc:
                        break
                    mono = Weight(tuple(s * c for c in base.coords2))
                    factor.append((j * s, LaurentPoly.monomial(mono, comb(d, s))))
                out = out.mul_factor(factor)
    return out


def decompose_by_level(
    chi: QLaurent, cap: int = DEFAULT_WEYL_CAP
) -> dict[Weight, TruncSeries]:
    """Multiplicity series S_lam(q) with chi = sum_lam ch L(lam) S_lam(q)."""
    out: dict[Weight, TruncSeries] = {}
    for lvl, poly in enumerate(chi.levels):
        if poly.is_zero():
            continue
        if not is_weyl_invariant(poly):
            raise ValueError(f"level {lvl} is not Weyl invariant")
        for lam, m in decompose(poly, cap).items():
            if lam not in out:
                out[lam] = TruncSeries.zero(chi.trunc)
            out[lam].coeffs[lvl] = m
    return out


def invariant_series_oracle(
    n: int, d: int, trunc: int, cap: int = DEFAULT_WEYL_CAP
) -> TruncSeries:
    """Trivial-isotypic multiplicity series of the fermionic character; the
    decomposition-route oracle for theorem2_character."""
    series = decompose_by_level(fermion_character(n, d, trunc), cap)
    return series.get(zero_weight(n), TruncSeries.zero(trunc))


def _trivial_multiplicity(lams, n: int, cap: int) -> int:
    """m^0 of a tuple of dominant weights: the multiplicity of L(0)."""
    return tensor_multiplicity(lams, zero_weight(n), cap)


def _weight_multisets(weights, d: int, budget: int):
    """Multisets of at most d nonzero dominant weights with total h <= budget."""

    def rec(start: int, slots: int, rem: int, acc: list[Weight]):
        yield list(acc)
        if slots == 0:
            return
        for idx in range(start, len(weights)):
            lam = weights[idx]
            h = conformal_h_int(lam)
            if h > rem:
                break  # weights sorted by h
            acc.append(lam)
            yield from rec(idx, slots - 1, rem - h, acc)
            acc.pop()

    yield from rec(0, d, budget, [])


def theorem2_character(
    n: int, d: int, trunc: int, cap: int = DEFAULT_WEYL_CAP
) -> TruncSeries:
    """Graded dimension of the invariant subalgebra:
    sum over d-tuples of dominant weights of m^0 * B_{lam_1} ... B_{lam_d}.

    Tuples are enumerated as multisets of the nonzero entries (padded with
    zero weights) and weighted by the number of ordered arrangements.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    nonzero = [lam for lam in dominant_weights_up_to(n, trunc) if not lam.is_zero()]
    b_cache: dict[Weight, TruncSeries] = {
        lam: branching_product(lam, n, trunc) for lam in nonzero
    }
    b_zero = branching_product(zero_weight(n), n, trunc)
    total = TruncSeries.zero(trunc)
    for mset in _weight_multisets(nonzero, d, trunc):
        m0 = _trivial_multiplicity(mset, n, cap)
        if m0 == 0:
            continue
        zeros = d - len(mset)
        arrangements = factorial(d) // factorial(zeros)
        for _, grp in itertools.groupby(lam.coords2 for lam in mset):
            arrangements //= factorial(sum(1 for _ in grp))
        term = TruncSeries.one(trunc)
        for lam in mset:
            term = term * b_cache[lam]
        for _ in range(zeros):
            term = term * b_zero
        total = total + term.scale(m0 * arrangements)
    return total
