import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nclp.models.freegroup import (
    EVEN_PS,
    GroupPoly,
    SupportOverflowError,
    dyadic_unconditionality,
    reduce_word,
    word_from_string,
    word_inverse,
    word_mul,
    word_to_string,
)


class TestWords:
    def test_reduction(self):
        assert reduce_word((1, -1)) == ()
        assert reduce_word((1, 2, -2, -1)) == ()
        assert reduce_word((1, 2, -2, 1)) == (1, 1)

    def test_inverse(self):
        w = (1, 2, -1)
        assert word_mul(w, word_inverse(w)) == ()
        assert word_inverse(word_inverse(w)) == w

    def test_string_round_trip(self):
        for s in ("e", "a", "a B a", "c c A"):
            assert word_to_string(word_from_string(s)) == s

    def test_length_is_reduced_letter_count(self):
        assert len(word_from_string("a B a")) == 3
        assert len(word_mul((1,), (-1,))) == 0


class TestAlgebra:
    def test_generator_times_inverse(self):
        x = GroupPoly.lam("a") * GroupPoly.lam("A")
        assert x.coeffs == {(): 1.0}

    def test_distinct_generators_concatenate(self):
        x = GroupPoly.lam("a") * GroupPoly.lam("b")
        assert set(x.coeffs) == {(1, 2)}

    def test_square_of_symmetric_element(self):
        x = GroupPoly.lam("a") + GroupPoly.lam("A")
        sq = x * x
        assert sq.coeffs == {(1, 1): 1.0, (): 2.0, (-1, -1): 1.0}

    def test_star_antihomomorphism(self):
        x = GroupPoly.lam("a", 2.0 + 1j) + GroupPoly.lam("b A", -0.5j)
        y = GroupPoly.lam("b", 1.5) + GroupPoly.lam("a a", 1j)
        lhs = (x * y).star()
        rhs = y.star() * x.star()
        assert lhs.coeffs.keys() == rhs.coeffs.keys()
        for w in lhs.coeffs:
            assert lhs.coeffs[w] == pytest.approx(rhs.coeffs[w])

    def test_associativity(self):
        a, b, c = GroupPoly.lam("a"), GroupPoly.lam("b", 2.0), GroupPoly.lam("A b")
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.coeffs == rhs.coeffs

    def test_support_cap(self):
        x = GroupPoly({(1,): 1.0, (2,): 1.0, (3,): 1.0}, cap=5)
        with pytest.raises(SupportOverflowError):
            _ = x * x * x * x

    def test_text_round_trip(self):
        x = GroupPoly.lam("a B a", 1.25 - 3j) + GroupPoly.lam("e", 0.5)
        y = GroupPoly.loads(x.dumps())
        assert y.coeffs == x.coeffs


class TestNorms:
    def test_single_group_element_norm_one(self):
        for w in ("a", "a b", "A c c"):
            for p in (2, 4, 6, 8):
                assert GroupPoly.lam(w).norm_even(p) == pytest.approx(1.0, abs=1e-12)

    def test_l2_formula(self):
        x = GroupPoly.lam("a") + GroupPoly.lam("b")
        assert x.norm_even(2) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_symmetric_element_p4(self):
        x = GroupPoly.lam("a") + GroupPoly.lam("A")
        assert x.norm_even(4) == pytest.approx(6.0 ** 0.25, abs=1e-13)

    def test_trace_of_star_product_is_l2(self, rng):
        words = [(), (1,), (1, 2), (-2, 1)]
        coeffs = {
            w: complex(rng.standard_normal(), rng.standard_normal()) for w in words
        }
        x = GroupPoly(coeffs)
        assert (x.star() * x).trace().real == pytest.approx(
            sum(abs(c) ** 2 for c in coeffs.values()), rel=1e-12
        )

    def test_norm_monotonicity_2_vs_4(self, rng):
        # normalized trace: || . ||_2 <= || . ||_4
        for _ in range(10):
            words = [(), (1,), (2, 1), (-1,)]
            x = GroupPoly(
                {w: complex(rng.standard_normal(), rng.standard_normal()) for w in words}
            )
            assert x.norm_even(2) <= x.norm_even(4) + 1e-10

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            GroupPoly.lam("a").norm_even(3)

    def test_zero_polynomial(self):
        for p in EVEN_PS:
            assert GroupPoly.zero().norm_even(p) == 0.0


# words of the benchmark's signs workload
FG_WORDS = ((), (1,), (2,), (1, 2), (-1, 2), (1, 1), (2, -1))

_coeff = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
_word = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=2).map(tuple)


def _full_depth_norm(x, p):
    """||x||_p from the whole power tau((x* x)^{p/2}), built by repeated
    convolution: the reference the half-depth identity must reproduce."""
    if not x.coeffs:
        return 0.0
    if p == 2:
        return x.norm2()
    y = x.star() * x
    power = y
    for _ in range(p // 2 - 1):
        power = power * y
    return max(power.trace().real, 0.0) ** (1.0 / p)


class TestHalfDepthNorm:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.dictionaries(_word, _coeff, min_size=1, max_size=4))
    def test_matches_full_depth_convolution(self, coeffs):
        x = GroupPoly(coeffs)
        assume(x.norm2() > 1e-3)
        for p in EVEN_PS:
            assert x.norm_even(p) == pytest.approx(_full_depth_norm(x, p), rel=1e-12)

    def test_signs_words(self):
        for seed in range(2):
            rng = np.random.default_rng(seed)
            x = GroupPoly({w: complex(*rng.standard_normal(2)) for w in FG_WORDS})
            for p in EVEN_PS:
                assert x.norm_even(p) == pytest.approx(_full_depth_norm(x, p), rel=1e-12)

    def test_dyadic_shells_p6_fit_the_default_cap(self):
        # the full-depth power of these sums overflows 200,000 words
        for seed in range(3):
            shells = _random_shells(np.random.default_rng(seed), 3)
            val = dyadic_unconditionality(shells, 6)
            assert math.isfinite(val) and val >= 1.0 - 1e-12

    def test_half_depth_product_honours_cap(self):
        x = GroupPoly({(1,): 1.0, (2,): 1.0, (3,): 1.0}, cap=10)
        assert len(x.star() * x) <= x.cap  # y = x* x fits, so p = 4 runs
        ref = _full_depth_norm(GroupPoly(x.coeffs), 4)  # y y needs the default cap
        assert x.norm_even(4) == pytest.approx(ref, rel=1e-12)
        for p in (6, 8):  # x y and y y do not
            with pytest.raises(SupportOverflowError):
                x.norm_even(p)


class TestPoissonSemigroup:
    def test_t_zero_identity(self):
        x = GroupPoly.lam("a b", 2.0) + GroupPoly.lam("e", -1.0)
        assert x.poisson(0.0).coeffs == x.coeffs

    def test_length_three_scaling(self):
        x = GroupPoly.lam("a b a")
        y = x.poisson(math.log(2.0))
        assert y.coeffs[(1, 2, 1)] == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_semigroup_law_exact(self):
        x = GroupPoly.lam("a", 1.0) + GroupPoly.lam("a b", -2j) + GroupPoly.lam("e", 0.3)
        lhs = x.poisson(0.4).poisson(0.9)
        rhs = x.poisson(1.3)
        for w in x.coeffs:
            assert lhs.coeffs[w] == pytest.approx(rhs.coeffs[w], rel=1e-14)

    def test_contractive_in_even_norms(self, rng):
        words = [(), (1,), (2,), (1, 2), (-1, 2), (1, 1)]
        for _ in range(25):
            x = GroupPoly(
                {w: complex(rng.standard_normal(), rng.standard_normal()) for w in words}
            )
            t = float(rng.uniform(0.0, 2.0))
            for p in (2, 4):
                assert x.poisson(t).norm_even(p) <= x.norm_even(p) + 1e-10


class TestLengthMultiplier:
    def test_constant_one_preserves(self):
        x = GroupPoly.lam("a b") + GroupPoly.lam("e", 5.0)
        y = x.length_multiplier(lambda m: 1.0)
        assert y.coeffs == x.coeffs

    def test_exponential_equals_poisson_off_identity(self):
        x = GroupPoly.lam("a", 2.0) + GroupPoly.lam("a b A", 1j) + GroupPoly.lam("e", 7.0)
        t = 0.8
        y = x.length_multiplier(lambda m: math.exp(-t * m))
        z = x.poisson(t)
        for w in x.coeffs:
            if w == ():
                assert y.coeffs[w] == 7.0
            else:
                assert y.coeffs[w] == pytest.approx(z.coeffs[w], rel=1e-14)

    def test_dyadic_sign_flip_is_a_multiplier(self, rng):
        # a sign pattern at dyadic lengths acts as a length multiplier
        shells = _random_shells(rng, 3)
        signs = {1: 1.0, 2: -1.0, 4: 1.0}
        total = shells[0] + shells[1] + shells[2]
        flipped = total.length_multiplier(lambda m: signs[m])
        direct = shells[0] + (-1.0) * shells[1] + shells[2]
        assert flipped.coeffs.keys() == direct.coeffs.keys()
        for w in flipped.coeffs:
            assert flipped.coeffs[w] == pytest.approx(direct.coeffs[w])


def _random_shells(rng, count):
    """Polynomials supported on |g| = 1, 2, 4 in two generators."""
    shells = []
    pools = {
        0: [(1,), (-1,), (2,), (-2,)],
        1: [(1, 1), (1, 2), (2, 1), (-1, 2), (2, 2)],
        2: [(1, 2, 1, 2), (1, 1, 2, 2), (2, -1, 2, 1), (1, 2, -1, -2)],
    }
    for k in range(count):
        coeffs = {
            w: complex(rng.standard_normal(), rng.standard_normal())
            for w in pools[k]
        }
        shells.append(GroupPoly(coeffs))
    return shells


class TestDyadicUnconditionality:
    def test_single_shell_is_one(self, rng):
        shells = _random_shells(rng, 1)
        assert dyadic_unconditionality(shells, 4) == pytest.approx(1.0, abs=1e-12)

    def test_two_shells_p2_sign_invariant(self, rng):
        shells = _random_shells(rng, 2)
        assert dyadic_unconditionality(shells, 2) == pytest.approx(1.0, abs=1e-12)

    def test_three_shells_finite_and_seed_stable(self):
        vals = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            shells = _random_shells(rng, 3)
            vals.append(dyadic_unconditionality(shells, 4))
        assert all(math.isfinite(v) and v >= 1.0 - 1e-12 for v in vals)
        assert max(vals) / min(vals) <= 1.10

    def test_shell_violation_rejected(self, rng):
        bad = [GroupPoly.lam("a b")]  # length 2 in the k = 0 slot
        with pytest.raises(ValueError):
            dyadic_unconditionality(bad, 4)
