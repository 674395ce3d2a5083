"""Seeded op generators for the three benchmark workloads.

A workload is a list of slots, made for each round.  Each round draws
every slot once from a ``random.Random`` seeded by (workload, seed, round) and shuffles the ops, so
a given seed always yields the same rounds, and a run of k rounds is the
first k rounds of that seed.  A slot's candidates are inputs of one op kind
whose costs are within a small factor of each other; the seed changes which
inputs run, while the mix of kinds and costs in a round stays put.  That
keeps the per-run medians steady across seeds (see README.md for the
measured costs behind each slot).

Every argv stays valid under stricter input validation: n >= 1, d >= 1,
maxlevel >= 0, tensor weights of rank --n, and rationals and matrices passed
as ``--x=...`` so a leading minus sign is not read as an option.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    # Parameters the output checks need (point, weights, expected values).
    params: tuple = ()
    # Ops sharing a non-empty pair key are checked against each other.
    pair: str = ""


def conformal_h(lam) -> int:
    return sum(x * (x + 1) // 2 for x in lam)


def dominant_weights(n: int, hmax: int, hmin: int = 0) -> list[tuple[int, ...]]:
    """Integral dominant weights 0 <= l_1 <= ... <= l_n with hmin <= h <= hmax."""
    out = []

    def rec(prefix, lo):
        if len(prefix) == n:
            if hmin <= conformal_h(prefix) <= hmax:
                out.append(tuple(prefix))
            return
        v = lo
        while conformal_h(prefix) + (n - len(prefix)) * (v * (v + 1) // 2) <= hmax:
            rec(prefix + [v], v)
            v += 1

    rec([], 0)
    return sorted(out, key=lambda w: (conformal_h(w), w))


def fmt_weight(lam) -> str:
    return ",".join(str(x) for x in lam)


def fmt_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def char_pair(rng: random.Random, points) -> list[Op]:
    """theorem2 and oracle at one drawn (n, d, trunc) point."""
    n, d, trunc = rng.choice(points)
    key = f"char:{n},{d},{trunc}"
    base = ("char", "--n", str(n), "--d", str(d), "--trunc", str(trunc))
    return [
        Op(f"char-{m}", base + ("--method", m, "--format", "json"), (n, d, trunc), key)
        for m in ("theorem2", "oracle")
    ]


def tensor_op(n: int, pairs):
    def draw(rng: random.Random) -> list[Op]:
        lam, nu = rng.choice(pairs)
        if rng.random() < 0.5:
            lam, nu = nu, lam
        weights = f"{fmt_weight(lam)};{fmt_weight(nu)}"
        argv = ("tensor", "--n", str(n), f"--weights={weights}", "--format", "json")
        return [Op("tensor", argv, (lam, nu))]

    return draw


def branching_op(n: int, hmax: int, trunc: int):
    lams = dominant_weights(n, hmax)

    def draw(rng: random.Random) -> list[Op]:
        lam = rng.choice(lams)
        argv = ("branching", "--n", str(n), f"--lam={fmt_weight(lam)}",
                "--trunc", str(trunc), "--format", "json")
        return [Op("branching", argv)]

    return draw


def fixed_op(kind: str, *argv: str, params=()):
    def draw(rng: random.Random) -> list[Op]:
        return [Op(kind, (*argv, "--format", "json"), params)]

    return draw


def fock_op(kind: str, points):
    """fock-invariants or generation at a drawn (n, d, maxlevel) point."""
    def draw(rng: random.Random) -> list[Op]:
        n, d, maxlevel = rng.choice(points)
        argv = (kind, "--n", str(n), "--d", str(d), "--maxlevel", str(maxlevel),
                "--format", "json")
        return [Op(kind, argv, (n, d, maxlevel))]

    return draw


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))


def griess_op(sizes):
    def draw(rng: random.Random) -> list[Op]:
        size = rng.choice(sizes)
        mats = []
        for _ in range(2):
            m = [[Fraction(0)] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    m[i][j] = m[j][i] = _rational(rng)
            mats.append(",".join(fmt_rat(x) for row in m for x in row))
        r = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) or Fraction(1, 2)
        argv = ("griess", f"--r={fmt_rat(r)}", f"--x={mats[0]}", f"--y={mats[1]}",
                "--format", "json")
        return [Op("griess", argv, (size,))]

    return draw


def virasoro_op(n: int, d: int):
    return fixed_op("virasoro", "virasoro", "--n", str(n), "--d", str(d), params=(n, d))


def _pairs(weights, max_h: int):
    return [
        (a, b)
        for i, a in enumerate(weights)
        for b in weights[i:]
        if conformal_h(a) + conformal_h(b) <= max_h
    ]


def sp8_ladder(rng: random.Random) -> list[Op]:
    """char pairs at n = 4, d = 2 and 3, trunc 4 and 6: the same four points
    every round.  They are a round's largest ops, so drawing among them would
    move the tail percentile and a third of the round's time with the seed."""
    return [op for d in (2, 3) for t in (4, 6) for op in char_pair(rng, [(4, d, t)])]


def _lie_highrank(rnd: int):
    w4 = dominant_weights(4, 4, hmin=1)
    return [
        # sp(8) characters: theorem sum and decomposition oracle.
        sp8_ladder,
        lambda rng: char_pair(rng, [(4, 1, t) for t in (5, 6)]),
        lambda rng: char_pair(rng, [(3, d, t) for d in (2, 3) for t in (6, 7, 8)]),
        tensor_op(4, [p for p in _pairs(w4, 7) if (0, 0, 1, 2) not in p]),
        tensor_op(4, [p for p in _pairs(w4, 7) if (0, 0, 1, 2) in p]),
        branching_op(4, 12, 12),
        branching_op(5, 12, 12),
        fixed_op("denom-check", "denom-check", "--n", "4", params=(4,)),
        fixed_op("denom-check", "denom-check", "--n", "5", params=(5,)),
    ]


def _char_flavors(rnd: int):
    # Two op kinds only, theorem2 and oracle at the same points; the tiers
    # split the op time about evenly between them and put the median op
    # inside a cluster of similar costs.
    return [
        lambda rng: char_pair(rng, [(1, d, 2 * d) for d in range(8, 13)]),
        lambda rng: char_pair(rng, [(2, d, 12) for d in (3, 4, 5)]),
        lambda rng: char_pair(rng, [(1, d, 2 * d + 2) for d in (16, 17, 18)]),
        lambda rng: char_pair(rng, [(2, d, 20) for d in (6, 7, 8)]),
        lambda rng: char_pair(rng, [(1, d, 40) for d in (19, 20)]),
        lambda rng: char_pair(rng, [(2, d, 20) for d in (3, 4, 5)]),
    ]


def _fock_vertex(rnd: int):
    # The (2, 2, 4) kernel op is the round's largest; its kind alternates
    # by round, so neither kind's share of op time depends on the seed.
    return [
        fock_op(("fock-invariants", "generation")[rnd % 2], [(2, 2, 4)]),
        fock_op("fock-invariants", [(1, 3, 5), (1, 4, 4)]),
        fock_op("generation", [(1, 3, 5), (1, 4, 4)]),
        fock_op("fock-invariants", [(2, 1, 5), (1, 2, 5), (2, 2, 3), (1, 3, 4)]),
        fock_op("generation", [(2, 2, 3), (1, 3, 4)]),
        virasoro_op(2, 2),
        virasoro_op(3, 1),
        virasoro_op(1, 3),
        virasoro_op(1, 4),
        virasoro_op(2, 3),
        griess_op(range(6, 13)),
        griess_op(range(6, 13)),
        griess_op(range(6, 13)),
    ]


WORKLOADS = {
    "lie-highrank": _lie_highrank,
    "char-flavors": _char_flavors,
    "fock-vertex": _fock_vertex,
}


def round_ops(workload: str, seed: int, rnd: int) -> list[Op]:
    """The ops of round ``rnd`` of ``workload`` under ``seed``, in run order."""
    rng = random.Random(f"{workload}/{seed}/{rnd}")
    ops = [
        replace(op, pair=f"{rnd}/{op.pair}") if op.pair else op
        for slot in WORKLOADS[workload](rnd)
        for op in slot(rng)
    ]
    rng.shuffle(ops)
    return ops
