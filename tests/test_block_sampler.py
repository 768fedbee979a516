import gc
import math
from fractions import Fraction

import pytest

from cafreq import block_sampler
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
from cafreq.rng import ChunkedDraws, SplitMix64
from cafreq.rules import iterate_word, parse_rule

XOR = parse_rule("2 1 0110")

ALWAYS = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))


# ---------------------------------------------------------------------------
# oracle: the block recursion one scalar draw at a time, with shift-or copies


def oracle_below(rng, n):
    if n == 1:
        return 0
    k = 1
    while (1 << (64 * k)) < n:
        k += 1
    span = 1 << (64 * k)
    limit = span - span % n
    while True:
        r = 0
        for _ in range(k):
            r = r << 64 | rng.next64()
        if r < limit:
            return r % n


def oracle_bernoulli(rng, p):
    if p <= 0:
        return False
    if p >= 1:
        return True
    return oracle_below(rng, p.denominator) < p.numerator


def oracle_block(params, level, rng):
    if level == 0:
        return rng.next64() >> 63
    child_len = block_length(level - 1)
    first = oracle_block(params, level - 1, rng)
    children = 1 << level
    if oracle_bernoulli(rng, params.copy_probs[level - 1]):
        if oracle_bernoulli(rng, params.alpha):
            out = 0
            for _ in range(children):
                out = (out << child_len) | first
        else:
            flipped = first ^ ((1 << child_len) - 1)
            out = 0
            for j in range(children):
                out = (out << child_len) | (first if j % 2 == 0 else flipped)
    else:
        out = first
        for _ in range(children - 1):
            out = (out << child_len) | oracle_block(params, level - 1, rng)
    return out


def oracle_sample(params, length, rng):
    cap = block_length(params.levels)
    rejections = 0
    while True:
        offset = oracle_below(rng, cap)
        if offset + length <= cap:
            break
        rejections += 1
    block = oracle_block(params, params.levels, rng)
    bits = (block >> (cap - offset - length)) & ((1 << length) - 1)
    offsets = tuple(offset % block_length(n) for n in range(params.levels + 1))
    return block_sampler.HierarchicalSample(bits, length, offsets, rejections)


ALPHAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(1, 2**64 + 1))


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
        assert containment_probability(params, params.window_capacity + 1) == 0
        for length in (0, -4):  # (cap - length + 1) / cap would exceed 1
            with pytest.raises(ValueError, match=f"window length {length} is below 1"):
                containment_probability(params, length)


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
        assert xor_iterate(0b0110, 0, 4) == "0110"

    def test_packed_window_matches_word(self):
        rng = SplitMix64(5)
        for _ in range(120):
            length = 1 + rng.below(40)
            t = rng.below(length)
            bits = rng.below(1 << length)
            w = format(bits, f"0{length}b")
            assert xor_iterate(bits, t, length) == xor_iterate(w, t) == iterate_word(XOR, w, t)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("0120", 0), "binary word"),
            (("01 1", 1), "binary word"),
            (("0_11", 1), "binary word"),
            (("012", -1), "step count"),
            (("012", 3), "too short for 3 steps"),
            ((16, 1, 4), "does not fit in 4 cells"),
            ((-1, 1, 4), "does not fit in 4 cells"),
            ((3, 4, 4), "too short for 4 steps"),
        ],
    )
    def test_iterate_refusals(self, args, message):
        with pytest.raises(ValueError, match=message):
            xor_iterate(*args)

    def test_power_refuses_non_binary(self):
        for window in ("0120", "0_11", "01 1", "+011"):
            with pytest.raises(ValueError, match="binary word"):
                xor_power(window, 1)


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
        assert a.window == format(a.bits, "020b")

    def test_xor_sampler_is_xor_of_the_drawn_word(self):
        params = BlockMeasureParams(levels=4, alpha=Fraction(1, 2))
        for steps in (0, 1, 5, 12):
            sampler = XorPowerSampler(BlockSampler(params), steps)
            for i in range(10):
                a, b = SplitMix64.for_index(6, i), SplitMix64.for_index(6, i)
                assert sampler.draw(30, a) == xor_iterate(BlockSampler(params).draw(30 + steps, b), steps)
                assert a.state == b.state


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


class TestAgainstScalarOracle:
    @pytest.mark.parametrize("custom", [False, True], ids=["default", "custom"])
    @pytest.mark.parametrize("alpha", ALPHAS, ids=["0", "1/3", "1/2", "1", "1/(2^64+1)"])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
    def test_blocks_and_states(self, levels, alpha, custom):
        probs = (Fraction(2, 3), Fraction(0), Fraction(1), Fraction(2, 3), Fraction(1, 2))
        params = BlockMeasureParams(levels, alpha, probs[:levels] if custom else None)
        for i in range(12 if levels == 5 else 25):
            rng, oracle = SplitMix64.for_index(41, i), SplitMix64.for_index(41, i)
            source = ChunkedDraws(rng)
            block = block_sampler._generate_block(params._plan, levels, source.take)
            source.close()
            assert block == oracle_block(params, levels, oracle)
            assert rng.state == oracle.state

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1, 2**64 + 1)], ids=["1/3", "big"])
    def test_level_six_blocks(self, alpha):
        params = BlockMeasureParams(6, alpha)
        for i in range(2):
            rng, oracle = SplitMix64.for_index(66, i), SplitMix64.for_index(66, i)
            source = ChunkedDraws(rng)
            block = block_sampler._generate_block(params._plan, 6, source.take)
            source.close()
            assert block == oracle_block(params, 6, oracle)
            assert rng.state == oracle.state

    @pytest.mark.parametrize("alpha", ALPHAS, ids=["0", "1/3", "1/2", "1", "1/(2^64+1)"])
    def test_samples_and_states(self, alpha):
        # one stream across many samples: every sample leaves the oracle's state
        params = BlockMeasureParams(3, alpha, (Fraction(0), Fraction(2, 3), Fraction(1)))
        rng, oracle = SplitMix64(alpha.denominator), SplitMix64(alpha.denominator)
        for length in (1, 5, 8, 33, 64, 2, 17):
            assert sample_hierarchical(params, length, rng) == oracle_sample(params, length, oracle)
            assert rng.state == oracle.state

    def test_samples_leave_no_reference_cycles(self):
        # a cycle would keep each sample's draw buffer alive until a collection
        params = BlockMeasureParams(4)
        gc.collect()
        gc.disable()
        try:
            for i in range(20):
                sample_hierarchical(params, 10, SplitMix64.for_index(1, i))
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_every_public_name_resolves():
    # a deleted function must not linger in __all__
    missing = [name for name in block_sampler.__all__ if not hasattr(block_sampler, name)]
    assert missing == []
