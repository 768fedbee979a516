import math
from fractions import Fraction

import pytest

from cafreq.block_sampler import (
    BlockMeasureParams,
    BlockSampler,
    XorPowerSampler,
    block_length,
    containment_probability,
    default_copy_probs,
    estimate_cylinder,
    sample_hierarchical,
    triangular,
    xor_iterate,
    xor_power,
)
from cafreq.rng import SplitMix64
from cafreq.rules import iterate_word, parse_rule

XOR = parse_rule("2 1 0110")

ALWAYS = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))


class TestGeometry:
    def test_triangular(self):
        assert [triangular(n) for n in range(5)] == [0, 1, 3, 6, 10]

    def test_block_length(self):
        assert [block_length(n) for n in range(5)] == [1, 2, 8, 64, 1024]

    def test_default_copy_probs(self):
        assert default_copy_probs(4) == (
            Fraction(0),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(3, 4),
        )

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BlockMeasureParams(levels=2, alpha=Fraction(3, 2))
        with pytest.raises(ValueError):
            BlockMeasureParams(levels=2, copy_probs=(Fraction(1),))

    def test_levels_guard(self):
        # every sample builds a whole top block: 2^21 bits at 6 levels, 2^28 at 7
        assert BlockMeasureParams(levels=6).window_capacity == 1 << 21
        with pytest.raises(ValueError, match="levels"):
            BlockMeasureParams(levels=7)

    def test_containment_probability(self):
        params = BlockMeasureParams(levels=2)
        assert containment_probability(params, 8) == Fraction(1, 8)
        assert containment_probability(params, 1) == 1


class TestXorPower:
    def test_lag_two(self):
        assert xor_power("0011", 1) == "11"

    def test_lag_one_is_single_step(self):
        assert xor_power("01", 0) == "1"
        assert xor_power("0011", 0) == "010"

    def test_constant_window(self):
        for k in (0, 1, 2):
            for c in "01":
                window = c * 20
                out = xor_power(window, k)
                assert out == "0" * len(out)

    def test_too_short(self):
        with pytest.raises(ValueError):
            xor_power("01", 1)

    def test_long_lag_refused_without_the_power(self):
        # 2^20000 is not built: the window is refused from k alone
        with pytest.raises(ValueError, match=r"length 2 too short for lag 2\^20000$"):
            xor_power("01", 20000)
        with pytest.raises(ValueError, match=r"length 4 too short for lag 4$"):
            xor_power("0110", 2)

    def test_matches_rule_iteration_sampled(self):
        rng = SplitMix64(2)
        for _ in range(120):
            length = 9 + rng.below(12)
            t = rng.below(min(length, 9))
            bits = rng.below(1 << length)
            w = format(bits, f"0{length}b")
            assert xor_iterate(w, t) == iterate_word(XOR, w, t)

    def test_iterate_zero(self):
        assert xor_iterate("0110", 0) == "0110"


class TestSampling:
    def test_alternating_hand_recursion(self):
        # copy probability one and alternation-only mix: the level-2 block is
        # the anchored 2-cell block followed by alternating negations
        params = BlockMeasureParams(levels=2, alpha=Fraction(0), copy_probs=(Fraction(1), Fraction(1)))
        sample = sample_hierarchical(params, 8, SplitMix64(4))
        assert sample.window in ("01100110", "10011001")
        assert sample.offsets == (0, 0, 0)

    def test_copy_always_gives_constant(self):
        params = BlockMeasureParams(levels=3, alpha=Fraction(1), copy_probs=(Fraction(1),) * 3)
        seen = set()
        for i in range(40):
            w = sample_hierarchical(params, 16, SplitMix64.for_index(11, i)).window
            assert w in ("0" * 16, "1" * 16)
            seen.add(w)
        assert len(seen) == 2

    def test_offsets_are_consistent_residues(self):
        params = BlockMeasureParams(levels=3)
        for i in range(60):
            s = sample_hierarchical(params, 5, SplitMix64.for_index(3, i))
            top = s.offsets[-1]
            for n in range(len(s.offsets)):
                assert s.offsets[n] == top % block_length(n)
            assert top + 5 <= block_length(3)

    def test_window_too_long(self):
        params = BlockMeasureParams(levels=2)
        with pytest.raises(ValueError):
            sample_hierarchical(params, 9, SplitMix64(0))

    def test_deterministic(self):
        params = BlockMeasureParams(levels=3)
        a = sample_hierarchical(params, 20, SplitMix64(99))
        b = sample_hierarchical(params, 20, SplitMix64(99))
        assert a == b


class TestEstimation:
    def test_degenerate_copy_sampler(self):
        params = BlockMeasureParams(levels=3, alpha=Fraction(1), copy_probs=(Fraction(1),) * 3)
        est = estimate_cylinder(BlockSampler(params), "1", 4000, seed=21)
        assert abs(est.estimate - 0.5) <= 4 * est.std_error + 1e-12

    def test_degenerate_after_xor_is_zero(self):
        params = BlockMeasureParams(levels=3, alpha=Fraction(1), copy_probs=(Fraction(1),) * 3)
        sampler = XorPowerSampler(BlockSampler(params), 2)
        est = estimate_cylinder(sampler, "1", 500, seed=8)
        assert est.hits == 0 and est.estimate == 0.0

    def test_reproducible_and_jobs_invariant(self):
        params = BlockMeasureParams(levels=3)
        a = estimate_cylinder(BlockSampler(params), "01", 600, seed=5)
        b = estimate_cylinder(BlockSampler(params), "01", 600, seed=5)
        c = estimate_cylinder(BlockSampler(params), "01", 600, seed=5, jobs=2)
        assert a == b == c

    def test_capacity_guard(self):
        params = BlockMeasureParams(levels=2)
        with pytest.raises(ValueError):
            estimate_cylinder(BlockSampler(params), "0" * 9, 10, seed=0)
        with pytest.raises(ValueError):
            estimate_cylinder(XorPowerSampler(BlockSampler(params), 4), "0" * 5, 10, seed=0)

    def test_negation_symmetry_extremes(self):
        # the window distribution is invariant under cellwise negation
        params0 = BlockMeasureParams(levels=3, alpha=Fraction(0))
        params1 = BlockMeasureParams(levels=3, alpha=Fraction(1))
        for params in (params0, params1):
            sampler = BlockSampler(params)
            a = estimate_cylinder(sampler, "01", 4000, seed=33)
            b = estimate_cylinder(sampler, "10", 4000, seed=77)
            combined = math.hypot(a.std_error, b.std_error)
            assert abs(a.estimate - b.estimate) <= 5 * combined

    def test_std_error_formula(self):
        params = BlockMeasureParams(levels=2)
        est = estimate_cylinder(BlockSampler(params), "0", 100, seed=1)
        assert est.std_error == pytest.approx(
            math.sqrt(est.estimate * (1 - est.estimate) / 100)
        )
