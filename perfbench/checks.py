"""Output checks, each independent of the code path the op exercises.

``check_op`` judges one op on its own; ``check_pairs`` compares the
theorem-sum and decomposition-oracle ``char`` ops run at the same point.
A verdict is ``"ok"`` or a one-line reason for failure.
"""

from __future__ import annotations

import json
from fractions import Fraction


def sp_dim(lam) -> int:
    """Weyl dimension of the sp(2n) irreducible with highest weight ``lam``
    (increasing convention 0 <= l_1 <= ... <= l_n), by the product formula
    over the positive roots e_i +- e_j and 2 e_i."""
    n = len(lam)
    rho = list(range(n, 0, -1))
    mu = [Fraction(x) for x in reversed(lam)]  # decreasing convention
    shifted = [m + r for m, r in zip(mu, rho)]
    num, den = Fraction(1), Fraction(1)
    for i in range(n):
        num *= shifted[i]
        den *= rho[i]
        for j in range(i + 1, n):
            num *= shifted[i] ** 2 - shifted[j] ** 2
            den *= rho[i] ** 2 - rho[j] ** 2
    dim = num / den
    if dim.denominator != 1 or dim <= 0:
        raise ValueError(f"weight {lam} gives non-integral dimension {dim}")
    return int(dim)


def _parse_weight(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in text.split(","))


def _payload(result: dict):
    if result.get("error"):
        return None, "exception: " + result["error"].strip().splitlines()[-1]
    if result.get("status") != 0:
        return None, f"exit status {result.get('status')}: {result.get('stderr', '').strip()[:200]}"
    try:
        return json.loads(result["stdout"]), None
    except (KeyError, ValueError):
        return None, "stdout is not JSON"


def check_op(op, result: dict) -> str:
    """Verdict for one op from its child report."""
    payload, reason = _payload(result)
    if reason:
        return reason
    try:
        return _check_payload(op, payload)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _check_payload(op, payload) -> str:
    kind = op.kind
    if kind in ("branching", "denom-check", "griess", "fock-invariants"):
        return "ok" if payload.get("equal") is True else "equal is not true"
    if kind == "generation":
        return "ok" if payload.get("generated") is True else "generated is not true"
    if kind == "virasoro":
        n, d = op.params
        expected = str(-2 * d * n)
        if payload.get("central_charge") != expected:
            return f"central_charge {payload.get('central_charge')} != {expected}"
        return "ok" if payload.get("grading_ok") is True else "grading_ok is not true"
    if kind == "tensor":
        lam, nu = op.params
        n = len(lam)
        total = 0
        for row in payload.get("multiplicities", []):
            mu, m = _parse_weight(row["mu"]), int(row["m"])
            if len(mu) != n or m <= 0:
                return f"bad multiplicity row {row}"
            total += m * sp_dim(mu)
        expected = sp_dim(lam) * sp_dim(nu)
        return "ok" if total == expected else f"dimension sum {total} != {expected}"
    if kind.startswith("char-"):
        n, d, trunc = op.params
        series = payload.get("series", {})
        coeffs = series.get("coeffs", [])
        if series.get("trunc") != trunc or len(coeffs) != trunc + 1:
            return "series has the wrong length"
        head = [1, 0, d * (d + 1) // 2][: trunc + 1]
        if [int(c) for c in coeffs[: len(head)]] != head:
            return f"leading coefficients {coeffs[:3]} != {head}"
        return "ok"
    return f"no check for kind {kind}"


def check_pairs(ops, results, verdicts) -> None:
    """Mark both ops of a char pair failed when their series differ."""
    by_key: dict[str, list[int]] = {}
    for i, op in enumerate(ops):
        if op.pair:
            by_key.setdefault(op.pair, []).append(i)
    for idxs in by_key.values():
        series = []
        for i in idxs:
            payload, _ = _payload(results[i])
            series.append(payload.get("series") if isinstance(payload, dict) else None)
        if len(idxs) < 2 or any(s != series[0] for s in series):
            for i in idxs:
                if verdicts[i] == "ok":
                    verdicts[i] = "theorem2 and oracle series differ"
