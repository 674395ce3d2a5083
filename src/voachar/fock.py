"""Fermionic Fock space on d copies of a 2n-dimensional symplectic space,
with the sp(2n) action, exact invariant subspaces, and the quadratic
invariant operators; the direct oracle everything else is checked against.

A monomial factor is (m, a, w): mode -m (m >= 1), flavor a in 1..d, and
symplectic index w in 1..2n where w <= n names psi_w and w > n names
psi*_{w-n}.  The pairing is <psi*_i, psi_j> = delta_ij = -<psi_j, psi*_i>.
Wedge factors are kept strictly increasing in (m, a, w); reordering signs
are position-count parity.  All stated checks (dimensions, eigenvalues,
commutators) are independent of these conventions.
"""

from __future__ import annotations

from fractions import Fraction

from .rootsys import CapExceededError

DEFAULT_BASIS_CAP = 20_000

Factor = tuple  # (m, a, w)
FockVector = dict  # monomial tuple -> Fraction


def _pair_h(a: int, b: int) -> int:
    return 1 if a == b else 0


def _pair_w(w1: int, w2: int, n: int) -> int:
    # <psi_i, psi*_j> = -delta_ij, <psi*_i, psi_j> = +delta_ij
    if w1 <= n < w2 and w2 - n == w1:
        return -1
    if w2 <= n < w1 and w1 - n == w2:
        return 1
    return 0


def factor_pairing(f1: Factor, f2: Factor, n: int) -> int:
    """<(a1 (x) w1), (a2 (x) w2)> ignoring modes."""
    return _pair_h(f1[1], f2[1]) * _pair_w(f1[2], f2[2], n)


def vec_add(dst: FockVector, mono: tuple, coeff: Fraction) -> None:
    v = dst.get(mono, Fraction(0)) + coeff
    if v:
        dst[mono] = v
    else:
        dst.pop(mono, None)


def vec_sum(*vecs: FockVector) -> FockVector:
    out: FockVector = {}
    for v in vecs:
        for mono, c in v.items():
            vec_add(out, mono, c)
    return out


def vec_scale(v: FockVector, c) -> FockVector:
    c = Fraction(c)
    if c == 0:
        return {}
    return {mono: c * x for mono, x in v.items()}


def vacuum() -> FockVector:
    return {(): Fraction(1)}


def vec_degree(v: FockVector) -> int:
    deg = 0
    for mono in v:
        deg = max(deg, sum(f[0] for f in mono))
    return deg


def creation_annihilation(p: int, a: int, w: int, v: FockVector, n: int) -> FockVector:
    """Apply the oscillator (a (x) w)(p); p < 0 wedges, p > 0 contracts with
    {u(p), f(-m)} = p <u, f> delta_{p,m}, and p = 0 acts as zero."""
    out: FockVector = {}
    if p == 0:
        return out
    if p < 0:
        f = (-p, a, w)
        for mono, c in v.items():
            if f in mono:
                continue
            pos = 0
            while pos < len(mono) and mono[pos] < f:
                pos += 1
            sign = -1 if pos % 2 else 1
            vec_add(out, mono[:pos] + (f,) + mono[pos:], sign * c)
        return out
    for mono, c in v.items():
        for i, f in enumerate(mono):
            if f[0] != p:
                continue
            pairing = factor_pairing((p, a, w), f, n)
            if pairing == 0:
                continue
            sign = -1 if i % 2 else 1
            vec_add(out, mono[:i] + mono[i + 1 :], sign * p * pairing * c)
    return out


def graded_basis(n: int, d: int, level: int) -> list[tuple]:
    """All wedge monomials of total degree ``level`` in increasing order."""
    if level < 0:
        raise ValueError("level must be >= 0")
    factors = [
        (m, a, w)
        for m in range(1, level + 1)
        for a in range(1, d + 1)
        for w in range(1, 2 * n + 1)
    ]
    out: list[tuple] = []

    def rec(start: int, rem: int, acc: list[Factor]):
        if rem == 0:
            out.append(tuple(acc))
            return
        for idx in range(start, len(factors)):
            f = factors[idx]
            if f[0] > rem:
                continue
            acc.append(f)
            rec(idx + 1, rem - f[0], acc)
            acc.pop()

    rec(0, level, [])
    out.sort()
    return out


def sp_generators(n: int) -> list[tuple[str, dict[int, list[tuple[int, int]]]]]:
    """Chevalley generator pairs e_i, f_i of sp(2n) acting on the symplectic
    basis; the joint kernel of all of them is the invariant subspace."""
    gens = []
    for i in range(1, n):
        # root eps_i - eps_{i+1}: psi_{i+1} -> psi_i, psi*_i -> -psi*_{i+1}
        gens.append((f"e{i}", {i + 1: [(i, 1)], n + i: [(n + i + 1, -1)]}))
        gens.append((f"f{i}", {i: [(i + 1, 1)], n + i + 1: [(n + i, -1)]}))
    # long root 2 eps_n: psi*_n -> psi_n, and its opposite
    gens.append((f"e{n}", {2 * n: [(n, 1)]}))
    gens.append((f"f{n}", {n: [(2 * n, 1)]}))
    return gens


def cartan_generators(n: int) -> list[tuple[str, dict[int, list[tuple[int, int]]]]]:
    return [
        (f"h{i}", {i: [(i, 1)], n + i: [(n + i, -1)]}) for i in range(1, n + 1)
    ]


def sp_action(action: dict[int, list[tuple[int, int]]], v: FockVector) -> FockVector:
    """Derivation action of a W_n endomorphism across every wedge factor."""
    out: FockVector = {}
    for mono, c in v.items():
        for i, (m, a, w) in enumerate(mono):
            for w2, coeff in action.get(w, ()):
                nf = (m, a, w2)
                rest = mono[:i] + mono[i + 1 :]
                if nf in rest:
                    continue
                pos = 0
                while pos < len(rest) and rest[pos] < nf:
                    pos += 1
                # moved past i factors removed, reinserted at pos
                sign = -1 if (i + pos) % 2 else 1
                vec_add(out, rest[:pos] + (nf,) + rest[pos:], sign * coeff * c)
    return out


def _row_reduce(
    rows: list[list[Fraction]], ncols: int
) -> tuple[list[int], list[list[Fraction]]]:
    """Gauss-Jordan elimination of an exact rational matrix: the pivot
    columns and the nonzero rows of the reduced row echelon form."""
    m = [row[:] for row in rows if any(row)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots, m[:r]


def _null_space(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis of an exact rational matrix, read off its reduced rows."""
    pivots, m = _row_reduce(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis


def invariant_subspace(
    n: int, d: int, level: int, cap: int = DEFAULT_BASIS_CAP
) -> tuple[int, list[FockVector]]:
    """Joint kernel of the Chevalley generators on a graded component;
    returns (dimension, basis of invariant vectors)."""
    basis = graded_basis(n, d, level)
    if len(basis) > cap:
        raise CapExceededError("basis", len(basis), cap)
    index = {mono: i for i, mono in enumerate(basis)}
    rows: list[list[Fraction]] = []
    for _, action in sp_generators(n):
        images = [sp_action(action, {mono: Fraction(1)}) for mono in basis]
        targets = sorted({t for img in images for t in img})
        for t in targets:
            rows.append([img.get(t, Fraction(0)) for img in images])
    kernel = _null_space(rows, len(basis))
    vectors = []
    for coeffs in kernel:
        vec: FockVector = {}
        for mono, i in index.items():
            if coeffs[i]:
                vec[mono] = coeffs[i]
        vectors.append(vec)
    return len(kernel), vectors


def mode_apply(a: int, b: int, k: int, l: int, v: FockVector, n: int) -> FockVector:
    """Quadratic invariant operator: half the difference of the two
    normal-ordered flavor-pairing sums over j = 1..n."""
    out: FockVector = {}
    half = Fraction(1, 2)
    for j in range(1, n + 1):
        t1 = _normal_ordered_pair((a, j), k, (b, n + j), l, v, n)
        t2 = _normal_ordered_pair((a, n + j), k, (b, j), l, v, n)
        for mono, c in t1.items():
            vec_add(out, mono, half * c)
        for mono, c in t2.items():
            vec_add(out, mono, -half * c)
    return out


def _normal_ordered_pair(uw, k, vw, l, vec, n):
    # :u(k)v(l): = -v(l)u(k) if k >= l (both odd), else u(k)v(l);
    # rightmost operator acts first.
    ua, uwi = uw
    va, vwi = vw
    if k >= l:
        t = creation_annihilation(k, ua, uwi, vec, n)
        t = creation_annihilation(l, va, vwi, t, n)
        return vec_scale(t, -1)
    t = creation_annihilation(l, va, vwi, vec, n)
    return creation_annihilation(k, ua, uwi, t, n)


def fock_mode_operator(
    a: int, b: int, l: int, v: FockVector, n: int
) -> FockVector:
    """Mode sum L_{a,b}(l) = sum_k L_{a,b}(-k+l-1, k); the window follows
    from modes above the state degree acting as zero."""
    deg = vec_degree(v)
    out: FockVector = {}
    for k in range(l - 1 - deg, deg + 1):
        out = vec_sum(out, mode_apply(a, b, -k + l - 1, k, v, n))
    return out


def virasoro_vector(n: int, d: int) -> FockVector:
    """omega = sum_a L_{a,a}(-1,-1) . 1."""
    out: FockVector = {}
    for a in range(1, d + 1):
        out = vec_sum(out, mode_apply(a, a, -1, -1, vacuum(), n))
    return out


def virasoro_check(
    n: int, d: int, maxlevel: int = 4, cap: int = DEFAULT_BASIS_CAP
) -> tuple[Fraction, bool]:
    """Verify omega(1) grades the Fock space and extract the central charge
    from omega(3)omega = (c/2) vacuum; asserts c = -2dn."""
    omega = virasoro_vector(n, d)
    grading_ok = True
    for level in range(maxlevel + 1):
        basis = graded_basis(n, d, level)
        if len(basis) > cap:
            raise CapExceededError("basis", len(basis), cap)
        for mono in basis:
            vec = {mono: Fraction(1)}
            image = {}
            for a in range(1, d + 1):
                image = vec_sum(image, fock_mode_operator(a, a, 1, vec, n))
            if image != vec_scale(vec, level):
                grading_ok = False
    image = {}
    for a in range(1, d + 1):
        image = vec_sum(image, fock_mode_operator(a, a, 3, omega, n))
    for mono in image:
        if mono != ():
            raise AssertionError("omega(3)omega is not a vacuum multiple")
    c_value = 2 * image.get((), Fraction(0))
    if not grading_ok:
        raise AssertionError("omega(1) failed to grade by level")
    if c_value != -2 * d * n:
        raise AssertionError(f"central charge {c_value} != {-2 * d * n}")
    return c_value, grading_ok


def _rank_and_reduce(
    vectors: list[FockVector],
) -> tuple[int, list[FockVector]]:
    """Row-reduce vectors over the monomial basis; returns (rank, basis)."""
    monos = sorted({m for v in vectors for m in v})
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for v in vectors:
        row = [Fraction(0)] * len(monos)
        for m, c in v.items():
            row[index[m]] = c
        rows.append(row)
    _, reduced = _row_reduce(rows, len(monos))
    basis = [{monos[i]: x for i, x in enumerate(row) if x} for row in reduced]
    return len(reduced), basis


def generation_check(
    n: int, d: int, maxlevel: int, cap: int = DEFAULT_BASIS_CAP
) -> dict[int, bool]:
    """Iteratively apply the creation quadratics L_{a,b}(-s,-t), s+t <= level,
    to previously generated states and compare each level's span with the
    full invariant subspace."""
    spans: dict[int, list[FockVector]] = {0: [vacuum()]}
    results: dict[int, bool] = {0: True}
    keys = []
    for a in range(1, d + 1):
        for b in range(a, d + 1):
            keys.append((a, b))
    for level in range(1, maxlevel + 1):
        candidates: list[FockVector] = []
        # L_{b,a}(-s,-t) = L_{a,b}(-t,-s), so keys with a <= b over all
        # ordered (s,t) already run through every operator once.
        for s in range(1, level + 1):
            for t in range(1, level - s + 1):
                src = level - s - t
                for vec in spans.get(src, []):
                    for a, b in keys:
                        img = mode_apply(a, b, -s, -t, vec, n)
                        if img:
                            candidates.append(img)
        rank, basis = _rank_and_reduce(candidates)
        expected, _ = invariant_subspace(n, d, level, cap)
        results[level] = rank == expected
        spans[level] = basis
    return results
