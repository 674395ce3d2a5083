import itertools
import random

import pytest

from voachar.rootsys import (
    CapExceededError,
    build_root_data,
    conformal_h_int,
    dominant_weights_up_to,
    weight,
    zero_weight,
)
from voachar.weylchar import (
    DecompositionError,
    LaurentPoly,
    alternating_sum,
    decompose,
    divide_exact,
    irr_character,
    is_weyl_invariant,
    tensor_decompose,
    tensor_decompose_pair,
    tensor_multiplicity,
    weyl_dim,
)


def test_alternating_sum_examples():
    rd = build_root_data(1)
    alt = alternating_sum(rd.rho)
    assert alt.terms == {(1,): 1, (-1,): -1}

    assert alternating_sum(zero_weight(1)).is_zero()

    alt2 = alternating_sum(build_root_data(2).rho0)
    assert len(alt2.terms) == 8
    assert set(alt2.terms.values()) <= {1, -1}


def test_irr_character_sl2():
    assert irr_character(weight(1)).terms == {(2,): 1, (-2,): 1}
    assert irr_character(weight(2)).terms == {(4,): 1, (0,): 1, (-4,): 1}
    for n in (1, 2, 3):
        assert irr_character(zero_weight(n)) == LaurentPoly.one(n)


def test_irr_character_rejects_non_dominant():
    with pytest.raises(ValueError):
        irr_character(weight(1, 0))


def test_weyl_dim_examples():
    for k in range(6):
        assert weyl_dim(weight(k)) == k + 1
    assert weyl_dim(zero_weight(3)) == 1
    assert weyl_dim(weight(0, 1)) == 4


def test_decompose_examples():
    chi = irr_character(weight(1)) * irr_character(weight(1))
    assert decompose(chi) == {weight(2): 1, weight(0): 1}

    assert decompose(LaurentPoly.one(2)) == {zero_weight(2): 1}

    chi = irr_character(weight(0, 1)) * irr_character(weight(0, 1))
    out = decompose(chi)
    assert out[zero_weight(2)] == 1
    assert sum(m * weyl_dim(lam) for lam, m in out.items()) == 16
    assert sorted(weyl_dim(lam) for lam in out) == [1, 5, 10]


def test_decompose_rejects_non_invariant():
    chi = LaurentPoly(1, {(2,): 1})
    with pytest.raises(DecompositionError):
        decompose(chi)


def test_decompose_rejects_non_character():
    # Weyl-invariant but with a half-integer orbit: not a character combo
    rd = build_root_data(1)
    chi = LaurentPoly(1, {(1,): 1, (-1,): 1})
    assert is_weyl_invariant(chi)
    with pytest.raises(DecompositionError):
        decompose(chi)
    assert rd.rho1.coords2 == (1,)


def test_divide_exact_round_trip():
    rng = random.Random(13)
    for n in (1, 2):
        for _ in range(10):
            a = LaurentPoly(
                n,
                {
                    tuple(rng.randint(-3, 3) for _ in range(n)): rng.randint(-5, 5)
                    for _ in range(4)
                },
            )
            b = LaurentPoly(
                n,
                {
                    tuple(rng.randint(-3, 3) for _ in range(n)): rng.choice([-1, 1])
                    for _ in range(3)
                },
            )
            if a.is_zero() or b.is_zero():
                continue
            assert divide_exact(a * b, b) == a


def test_tensor_multiplicity_examples():
    assert tensor_multiplicity([weight(1), weight(1)], weight(0)) == 1
    assert tensor_multiplicity([weight(3)], weight(3)) == 1
    assert tensor_multiplicity([weight(1), weight(1), weight(1)], weight(0)) == 0


def test_target_pruning_matches_full_table():
    # Every pair and triple of nonzero weights with total h <= 8, n <= 3:
    # the pruned fold towards mu keeps the full table's multiplicity of mu.
    checks = 0
    for n in (1, 2, 3):
        pool = [lam for lam in dominant_weights_up_to(n, 8) if not lam.is_zero()]
        for k in (2, 3):
            for lams in itertools.combinations_with_replacement(pool, k):
                if sum(conformal_h_int(lam) for lam in lams) > 8:
                    continue
                for mu, m in tensor_decompose(lams).items():
                    assert tensor_multiplicity(lams, mu) == m
                    checks += 1
    assert checks == 504


def test_caps_hold_after_cache_hit():
    lam = weight(0, 1)
    for call in (
        lambda cap: irr_character(lam, cap),
        lambda cap: tensor_decompose_pair(lam, lam, cap),
    ):
        call(1000)  # warm the cache
        with pytest.raises(CapExceededError):
            call(5)


def test_specialization_equals_dim():
    for n in (1, 2, 3):
        for lam in dominant_weights_up_to(n, 6):
            assert irr_character(lam).specialize_ones() == weyl_dim(lam)


def test_decompose_of_irreducible_is_delta():
    for n in (1, 2, 3):
        for lam in dominant_weights_up_to(n, 6):
            assert decompose(irr_character(lam)) == {lam: 1}


def test_tensor_dimension_sum_rule():
    rng = random.Random(21)
    for n in (1, 2):
        pool = dominant_weights_up_to(n, 4)
        for _ in range(8):
            lam, mu = rng.choice(pool), rng.choice(pool)
            out = tensor_decompose_pair(lam, mu)
            total = sum(m * weyl_dim(nu) for nu, m in out.items())
            assert total == weyl_dim(lam) * weyl_dim(mu)
            assert all(m > 0 for m in out.values())


def test_trivial_multiplicity_detects_self_duality():
    for n in (1, 2):
        pool = dominant_weights_up_to(n, 4)
        for lam in pool:
            for mu in pool:
                expected = 1 if lam == mu else 0
                assert tensor_multiplicity([lam, mu], zero_weight(n)) == expected


def test_weyl_invariance_of_characters():
    for n in (1, 2):
        for lam in dominant_weights_up_to(n, 4):
            assert is_weyl_invariant(irr_character(lam))
