"""Formal characters of simple sp(2n)-modules and their tensor arithmetic.

Characters are sparse Laurent polynomials in e^{eps_1},...,e^{eps_n} with
integer coefficients, exponent vectors stored doubled so e^{rho} and other
half-integer exponents stay exact.  Irreducible characters come from the
quotient of two alternating Weyl sums by exact sparse division.
"""

from __future__ import annotations

from .rootsys import (
    DEFAULT_WEYL_CAP,
    SignedPerm,
    Weight,
    apply_weyl,
    build_root_data,
    check_weyl_cap,
    conformal_h,
    dominance_leq,
    inner,
    weyl_elements,
    zero_weight,
)


class InexactDivisionError(ArithmeticError):
    """Sparse division did not terminate exactly; signals an internal bug."""


class DecompositionError(ValueError):
    """Input is not a Z-combination of sp(2n) irreducible characters."""


class LaurentPoly:
    """Sparse map from doubled exponent vectors (length n) to ints."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    if len(e) != n:
                        raise ValueError("exponent length mismatch")
                    self.terms[tuple(e)] = int(c)

    @classmethod
    def zero(cls, n: int) -> "LaurentPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "LaurentPoly":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def monomial(cls, w: Weight, coeff: int = 1) -> "LaurentPoly":
        return cls(w.n, {w.coords2: coeff})

    def coeff(self, w: Weight) -> int:
        return self.terms.get(w.coords2, 0)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return LaurentPoly(self.n, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + other.scale(-1)

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly(self.n)
        return LaurentPoly(self.n, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return LaurentPoly(self.n, out)

    def apply_weyl(self, w: SignedPerm) -> "LaurentPoly":
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            ne = [0] * self.n
            for i, x in enumerate(e):
                ne[w.perm[i]] = w.signs[i] * x
            out[tuple(ne)] = c
        return LaurentPoly(self.n, out)

    def specialize_ones(self) -> int:
        """Evaluate every e^{mu} at 1; on a character this is the dimension."""
        return sum(self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        items = ", ".join(f"{e}:{c}" for e, c in sorted(self.terms.items()))
        return f"LaurentPoly({self.n}, {{{items}}})"


def _weyl_generators(n: int) -> list[SignedPerm]:
    # Adjacent transpositions plus one sign flip generate the group.
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(SignedPerm(tuple(perm), (1,) * n, -1))
    signs = [1] * n
    signs[n - 1] = -1
    gens.append(SignedPerm(tuple(range(n)), tuple(signs), -1))
    return gens


def is_weyl_invariant(chi: LaurentPoly) -> bool:
    return all(chi.apply_weyl(g) == chi for g in _weyl_generators(chi.n))


def alternating_sum(mu: Weight, cap: int = DEFAULT_WEYL_CAP) -> LaurentPoly:
    """Sum over signed permutations of (-1)^{l(w)} e^{w(mu)}."""
    out = LaurentPoly(mu.n)
    for w in weyl_elements(mu.n, cap):
        out = out + LaurentPoly.monomial(apply_weyl(w, mu), w.parity)
    return out


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient of sparse Laurent polynomials (lex leading-term loop)."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    dlead = max(den.terms)
    dcoeff = den.terms[dlead]
    rem = dict(num.terms)
    quot: dict[tuple[int, ...], int] = {}
    steps = 0
    while rem:
        steps += 1
        if steps > 1_000_000:
            raise InexactDivisionError("division loop did not terminate")
        rlead = max(rem)
        rcoeff = rem[rlead]
        if rcoeff % dcoeff:
            raise InexactDivisionError("leading coefficient not divisible")
        qexp = tuple(a - b for a, b in zip(rlead, dlead))
        qc = rcoeff // dcoeff
        quot[qexp] = quot.get(qexp, 0) + qc
        for e, c in den.terms.items():
            t = tuple(a + b for a, b in zip(qexp, e))
            v = rem.get(t, 0) - qc * c
            if v:
                rem[t] = v
            else:
                rem.pop(t, None)
    return LaurentPoly(num.n, quot)


_irr_cache: dict[tuple[int, ...], LaurentPoly] = {}


def irr_character(lam: Weight, cap: int = DEFAULT_WEYL_CAP) -> LaurentPoly:
    """ch L(lam) = alt(lam + rho0) / alt(rho0), exact."""
    if not lam.is_dominant():
        raise ValueError(f"weight {lam.coords2} is not dominant")
    check_weyl_cap(lam.n, cap)
    key = lam.coords2
    hit = _irr_cache.get(key)
    if hit is not None:
        return hit
    rd = build_root_data(lam.n)
    num = alternating_sum(lam + rd.rho0, cap)
    den = alternating_sum(rd.rho0, cap)
    chi = divide_exact(num, den)
    _irr_cache[key] = chi
    return chi


def weyl_dim(lam: Weight) -> int:
    """prod over positive even roots of (lam+rho0, alpha) / (rho0, alpha)."""
    if not lam.is_dominant():
        raise ValueError(f"weight {lam.coords2} is not dominant")
    rd = build_root_data(lam.n)
    shifted = lam + rd.rho0
    num = 1
    den = 1
    for alpha in rd.phi0_plus:
        num *= inner(shifted, alpha)
        den *= inner(rd.rho0, alpha)
    val = num / den
    if val.denominator != 1 or val <= 0:
        raise AssertionError("dimension formula returned a non-positive-integer")
    return val.numerator


def _exponent_h(e: tuple[int, ...]):
    return conformal_h(Weight(e))


def _is_dominant_exponent(e: tuple[int, ...]) -> bool:
    if any(x % 2 for x in e):
        return False
    return e[0] >= 0 and all(e[i] <= e[i + 1] for i in range(len(e) - 1))


def decompose(chi: LaurentPoly, cap: int = DEFAULT_WEYL_CAP) -> dict[Weight, int]:
    """Multiplicities m_lam with chi = sum m_lam ch L(lam).

    Repeatedly subtracts the character of the (h, lex)-maximal surviving
    dominant exponent; the selected exponents strictly decrease in that
    order, and a nonzero final remainder means the input was not a
    character combination.
    """
    if not is_weyl_invariant(chi):
        raise DecompositionError("input is not Weyl invariant")
    rem = dict(chi.terms)
    out: dict[Weight, int] = {}
    prev_key = None
    while rem:
        dominants = [e for e in rem if _is_dominant_exponent(e)]
        if not dominants:
            raise DecompositionError("no dominant exponent remains but terms do")
        top = max(dominants, key=lambda e: (_exponent_h(e), e))
        key = (_exponent_h(top), top)
        if prev_key is not None and key >= prev_key:
            raise DecompositionError("selection order failed to decrease")
        prev_key = key
        lam = Weight(top)
        m = rem[top]
        out[lam] = m
        for e, c in irr_character(lam, cap).terms.items():
            v = rem.get(e, 0) - m * c
            if v:
                rem[e] = v
            else:
                rem.pop(e, None)
    return out


_pair_cache: dict[tuple, dict[Weight, int]] = {}


def tensor_decompose_pair(
    lam: Weight, mu: Weight, cap: int = DEFAULT_WEYL_CAP
) -> dict[Weight, int]:
    """Decomposition of L(lam) (x) L(mu), memoized on the sorted pair."""
    check_weyl_cap(lam.n, cap)
    a, b = sorted((lam.coords2, mu.coords2), key=lambda e: (_exponent_h(e), e))
    key = (a, b)
    hit = _pair_cache.get(key)
    if hit is not None:
        return hit
    prod = irr_character(Weight(a), cap) * irr_character(Weight(b), cap)
    res = decompose(prod, cap)
    _pair_cache[key] = res
    return res


def tensor_decompose(
    lams, cap: int = DEFAULT_WEYL_CAP, target: Weight | None = None
) -> dict[Weight, int]:
    """Decomposition of L(lam_1) (x) ... (x) L(lam_d), folding pairwise.

    With a ``target`` mu, only the part that can still contain L(mu) is
    kept: a partial result tau is dropped unless tau <= mu + (sum of the
    remaining lams) in dominance.  Since sp(2n) modules are self-dual, L(mu)
    lies in L(tau) (x) L(rest) only if L(tau) lies in L(mu) (x) L(rest),
    whose highest weights are all <= mu + (sum of rest).
    """
    lams = list(lams)
    if not lams:
        if target is None:
            raise ValueError("no weights given")
        return {zero_weight(target.n): 1}
    bounds = [target] * len(lams)  # bounds[i]: target + sum of lams[i+1:]
    if target is not None:
        for i in range(len(lams) - 2, -1, -1):
            bounds[i] = bounds[i + 1] + lams[i + 1]
    state: dict[Weight, int] = {lams[0]: 1}
    for lam, bound in zip(lams[1:], bounds[1:]):
        nxt: dict[Weight, int] = {}
        for nu, m in state.items():
            for tau, k in tensor_decompose_pair(nu, lam, cap).items():
                if bound is None or dominance_leq(tau, bound):
                    nxt[tau] = nxt.get(tau, 0) + m * k
        state = nxt
    return state


def tensor_multiplicity(
    lams, mu: Weight, cap: int = DEFAULT_WEYL_CAP
) -> int:
    """Multiplicity of L(mu) inside L(lam_1) (x) ... (x) L(lam_d)."""
    return tensor_decompose(lams, cap, target=mu).get(mu, 0)
