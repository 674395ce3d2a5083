"""Root data for sp(2n) / so(2n+1), weights in the epsilon basis, and the
signed-permutation Weyl group.

Weights live on the half-integer lattice and are stored with doubled
integer coordinates, so all arithmetic stays in int.  The bilinear form is
(eps_i, eps_j) = delta_ij.  Dominance follows the increasing convention
0 <= lam_1 <= ... <= lam_n fixed by the positive roots -eps_i + eps_j (i<j).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple

DEFAULT_WEYL_CAP = 100_000


class CapExceededError(ValueError):
    """A configured enumeration cap would be exceeded."""

    def __init__(self, cap_name: str, needed: int, cap: int):
        self.cap_name = cap_name
        self.needed = needed
        self.cap = cap
        super().__init__(f"{cap_name} cap exceeded: need {needed}, cap is {cap}")


@dataclass(frozen=True)
class Weight:
    """Point of (1/2 Z)^n in the epsilon basis; coords2[i] is twice coordinate i."""

    coords2: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.coords2)

    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, 2) for c in self.coords2)

    def __add__(self, other: "Weight") -> "Weight":
        _check_rank(self, other)
        return Weight(tuple(a + b for a, b in zip(self.coords2, other.coords2)))

    def __sub__(self, other: "Weight") -> "Weight":
        _check_rank(self, other)
        return Weight(tuple(a - b for a, b in zip(self.coords2, other.coords2)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords2))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords2)

    def is_dominant(self) -> bool:
        """Integral and 0 <= lam_1 <= ... <= lam_n."""
        cs = self.coords2
        if any(c % 2 for c in cs):
            return False
        return cs[0] >= 0 and all(cs[i] <= cs[i + 1] for i in range(len(cs) - 1))


def weight(*coords: int) -> Weight:
    """Weight with integer coordinates."""
    return Weight(tuple(2 * c for c in coords))


def zero_weight(n: int) -> Weight:
    return Weight((0,) * n)


def eps(i: int, n: int) -> Weight:
    """Basis weight eps_i, 1-based."""
    if not 1 <= i <= n:
        raise ValueError("basis index out of range")
    return Weight(tuple(2 if j == i - 1 else 0 for j in range(n)))


def parse_weight(text: str) -> Weight:
    """Parse "a,b,..." where entries are integers or halves like "3/2"."""
    coords2 = []
    for pos, piece in enumerate(text.split(","), start=1):
        piece = piece.strip()
        try:
            f = Fraction(piece)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"coordinate {pos}: cannot parse {piece!r}") from None
        d = 2 * f
        if d.denominator != 1:
            raise ValueError(f"coordinate {pos}: {piece!r} is not a half-integer")
        coords2.append(int(d))
    if not coords2:
        raise ValueError("empty weight")
    return Weight(tuple(coords2))


def format_weight(w: Weight) -> str:
    out = []
    for c in w.coords2:
        out.append(str(c // 2) if c % 2 == 0 else f"{c}/2")
    return ",".join(out)


def _check_rank(u: Weight, v: Weight) -> None:
    if u.n != v.n:
        raise ValueError(f"rank mismatch: {u.n} vs {v.n}")


def inner(u: Weight, v: Weight) -> Fraction:
    """Sum_i u_i v_i under (eps_i, eps_j) = delta_ij."""
    _check_rank(u, v)
    return Fraction(sum(a * b for a, b in zip(u.coords2, v.coords2)), 4)


def conformal_h(lam: Weight) -> Fraction:
    """h(lam) = (lam+rho1, lam+rho1)/2 - (rho1, rho1)/2 = sum lam_i(lam_i+1)/2."""
    return Fraction(sum(c * (c + 2) for c in lam.coords2), 8)


def conformal_h_int(lam: Weight) -> int:
    h = conformal_h(lam)
    if h.denominator != 1:
        raise ValueError(f"non-integer conformal weight for {lam}")
    return h.numerator


@dataclass(frozen=True)
class RootData:
    n: int
    phi0_plus: tuple[Weight, ...]
    phi1_plus: tuple[Weight, ...]
    phi_plus: tuple[Weight, ...]
    rho0: Weight
    rho1: Weight
    rho: Weight


def _half_sum(roots) -> Weight:
    n = roots[0].n
    total = zero_weight(n)
    for r in roots:
        total = total + r
    if any(c % 2 for c in total.coords2):
        raise AssertionError("half-sum not on the half-integer lattice")
    return Weight(tuple(c // 2 for c in total.coords2))


def build_root_data(n: int) -> RootData:
    """Positive roots of sp(2n) and so(2n+1), the odd roots, and rho's."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    phi0, phi1, phi = [], [], []
    for j in range(1, n + 1):
        for i in range(1, j):
            phi0.append(eps(j, n) - eps(i, n))
            phi0.append(eps(i, n) + eps(j, n))
            phi.append(eps(j, n) - eps(i, n))
            phi.append(eps(i, n) + eps(j, n))
        phi0.append(eps(j, n) + eps(j, n))
        phi1.append(eps(j, n))
        phi.append(eps(j, n))
    rho0 = _half_sum(phi0)
    rho1 = _half_sum(phi1)
    rho = _half_sum(phi)
    assert len(phi0) == n * n and len(phi) == n * n and len(phi1) == n
    assert rho0.coords2 == tuple(2 * i for i in range(1, n + 1))
    assert rho1.coords2 == (1,) * n
    assert rho == rho0 - rho1
    return RootData(n, tuple(phi0), tuple(phi1), tuple(phi), rho0, rho1, rho)


class SignedPerm(NamedTuple):
    """w(eps_i) = signs[i] * eps_{perm[i]} (0-based); parity is det(w)."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]
    parity: int


def _perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def check_weyl_cap(n: int, cap: int) -> None:
    """Raise unless the Weyl group of rank n (order 2^n n!) fits in ``cap``.

    Callers that memoize run this before their cache lookup, so a cap holds
    whatever ran earlier.
    """
    size = (2**n) * factorial(n)
    if size > cap:
        raise CapExceededError("weyl", size, cap)


def weyl_elements(n: int, cap: int = DEFAULT_WEYL_CAP) -> list[SignedPerm]:
    """All signed permutations of n letters with parity (-1)^{l(w)}."""
    check_weyl_cap(n, cap)
    out = []
    for p in itertools.permutations(range(n)):
        ps = _perm_sign(p)
        for signs in itertools.product((1, -1), repeat=n):
            flips = sum(1 for s in signs if s < 0)
            out.append(SignedPerm(p, signs, ps * (-1) ** flips))
    return out


def apply_weyl(w: SignedPerm, u: Weight) -> Weight:
    out = [0] * u.n
    for i, c in enumerate(u.coords2):
        out[w.perm[i]] = w.signs[i] * c
    return Weight(tuple(out))


def dominant_weights_up_to(n: int, bound: int) -> list[Weight]:
    """Dominant integral weights with conformal weight h(lam) <= bound,
    sorted by (h(lam), coordinates)."""
    if bound < 0:
        return []
    found: list[Weight] = []

    def rec(pos: int, prev: int, budget: Fraction, acc: list[int]):
        if pos == n:
            found.append(weight(*acc))
            return
        v = prev
        while True:
            cost = v * (v + 1) // 2
            if cost * (n - pos) > budget:
                break
            acc.append(v)
            rec(pos + 1, v, budget - cost, acc)
            acc.pop()
            v += 1

    rec(0, 0, Fraction(bound), [])
    found.sort(key=lambda w_: (conformal_h(w_), w_.coords2))
    return found


def dominance_leq(mu: Weight, lam: Weight) -> bool:
    """mu <= lam in the dominance order: lam - mu is a non-negative integer
    combination of positive roots (both weights dominant integral)."""
    _check_rank(mu, lam)
    d = [(a - b) // 2 for a, b in zip(lam.coords2, mu.coords2)]
    if sum(d) % 2:
        return False
    tail = 0
    for x in reversed(d):
        tail += x
        if tail < 0:
            return False
    return True
