import gc
import math
from fractions import Fraction

import pytest

from cafreq import block_sampler
from cafreq.block_sampler import (
    BlockMeasureParams,
    BlockSampler,
    block_length,
    containment_probability,
    default_copy_probs,
    estimate_cylinder,
    sample_hierarchical,
    triangular,
    xor_iterate,
    xor_power,
)
from cafreq.rng import ChunkedDraws, SplitMix64, Uniform
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
        # every sample walks the coins of a whole top block: 2^21 cells at 6 levels, 2^28 at 7
        assert BlockSampler(BlockMeasureParams(levels=6)).capacity == 1 << 21
        with pytest.raises(ValueError, match="7 levels exceed 6"):
            BlockSampler(BlockMeasureParams(levels=7))
        with pytest.raises(ValueError, match="levels"):
            sample_hierarchical(BlockMeasureParams(levels=7), 1, SplitMix64(0))

    @pytest.mark.parametrize("levels", [7, 12])
    def test_params_past_six_levels_build_no_plan(self, levels):
        params, cap = BlockMeasureParams(levels=levels), 1 << triangular(levels)
        assert params.window_capacity == cap
        assert containment_probability(params, 8) == Fraction(cap - 7, cap)
        assert len(params.copy_probs) == levels
        assert "_plan" not in vars(params)

    def test_plan_is_built_once_on_first_use(self):
        params = BlockMeasureParams(levels=3)
        assert "_plan" not in vars(params)
        sampler = BlockSampler(params)
        assert vars(params)["_plan"] is params._plan
        assert params == BlockMeasureParams(levels=3)
        assert sampler.draw(4, SplitMix64(1)) == sample_hierarchical(params, 4, SplitMix64(1)).window

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

    def test_zero_step_sampler_draws_the_hierarchical_window(self):
        params = BlockMeasureParams(levels=4, alpha=Fraction(1, 3))
        sampler = BlockSampler(params, 0)
        assert sampler == BlockSampler(params) and sampler.capacity == params.window_capacity
        for length in (1, 7, 64, 1024):
            a, b = SplitMix64.for_index(9, length), SplitMix64.for_index(9, length)
            assert sampler.draw(length, a) == sample_hierarchical(params, length, b).window
            assert a.state == b.state

    def test_xor_sampler_is_xor_of_the_drawn_word(self):
        params = BlockMeasureParams(levels=4, alpha=Fraction(1, 2))
        for steps in (0, 1, 5, 12):
            sampler = BlockSampler(params, steps)
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
        sampler = BlockSampler(params, 2)
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
            estimate_cylinder(BlockSampler(params, 4), "0" * 5, 10, seed=0)
        with pytest.raises(ValueError, match="word of length 5 exceeds sampler capacity 4"):
            BlockSampler(params, 4).check_fits("0" * 5)
        BlockSampler(params, 4).check_fits("0" * 4)
        with pytest.raises(ValueError, match="XOR step count must be >= 0, got -1"):
            estimate_cylinder(BlockSampler(params, -1), "0", 2, seed=0)

    @pytest.mark.parametrize("word", ["", "12", "0a1"])
    @pytest.mark.parametrize("steps", [0, 2])
    def test_empty_or_non_binary_word_refused_before_any_draw(self, word, steps, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a window was drawn for a word no window can hold")

        monkeypatch.setattr(block_sampler, "sample_hierarchical", no_draw)
        sampler = BlockSampler(BlockMeasureParams(3), steps)
        with pytest.raises(ValueError, match="word must be a nonempty binary word"):
            estimate_cylinder(sampler, word, 50, seed=1)

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


def cell_mask(length, cells):
    """Ranges (lo, hi) of a `length`-cell word as a mask, the first cell highest."""
    mask = 0
    for lo, hi in cells:
        mask |= ((1 << (hi - lo)) - 1) << (length - hi)
    return mask


def random_cells(rng, length):
    """A mask of one to four disjoint ranges of [0, length)."""
    points = sorted({rng.below(length + 1) for _ in range(2 * (1 + rng.below(4)))})
    cells = [(lo, hi) for lo, hi in zip(points[::2], points[1::2])]
    return cell_mask(length, cells or [(0, length)])


class TestAgainstScalarOracle:
    @staticmethod
    def check_block(params, seed, i, want=None):
        """Walk stream (seed, i)'s top block for the cells of the mask `want`,
        the whole block by default; check those cells and the stream's state
        against the oracle."""
        length = params.window_capacity
        if want is None:
            want = (1 << length) - 1
        rng, oracle = SplitMix64.for_index(seed, i), SplitMix64.for_index(seed, i)
        source = ChunkedDraws(rng)
        box, used = block_sampler._walk(params._plan, params.levels, source, 0, want)
        source.close(used)
        block = oracle_block(params, params.levels, oracle)
        assert 0 <= box < 1 << length
        assert box & want == block & want
        assert rng.state == oracle.state
        return source, used

    @pytest.mark.parametrize("custom", [False, True], ids=["default", "custom"])
    @pytest.mark.parametrize("alpha", ALPHAS, ids=["0", "1/3", "1/2", "1", "1/(2^64+1)"])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
    def test_blocks_and_states(self, levels, alpha, custom):
        probs = (Fraction(2, 3), Fraction(0), Fraction(1), Fraction(2, 3), Fraction(1, 2))
        params = BlockMeasureParams(levels, alpha, probs[:levels] if custom else None)
        for i in range(12 if levels == 5 else 25):
            self.check_block(params, 41, i)

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1, 2**64 + 1)], ids=["1/3", "big"])
    def test_level_six_blocks(self, alpha):
        params = BlockMeasureParams(6, alpha)
        for i in range(2):
            self.check_block(params, 66, i)

    @pytest.mark.parametrize("levels, seed, i", [(5, 41, 1), (5, 41, 11), (6, 66, 12)])
    def test_resampled_top_walks_across_several_extensions(self, levels, seed, i):
        params = BlockMeasureParams(levels, Fraction(1, 3))
        walk = SplitMix64.for_index(seed, i)
        oracle_block(params, levels - 1, walk)  # the first child, then the top coin
        assert not oracle_bernoulli(walk, params.copy_probs[-1])
        source, _ = self.check_block(params, seed, i)
        assert len(source.words) >= 8 * ChunkedDraws.FIRST  # three extensions or more

    def test_last_draw_is_the_last_hashed(self):
        # a 3-level block of runs reads exactly the first 64 draws, one slice
        runs = BlockMeasureParams(3, copy_probs=(Fraction(0),) * 3)
        source, used = self.check_block(runs, 5, 0)
        assert used == len(source.words) == ChunkedDraws.FIRST
        # a walk of coins and runs that ends on draw 4096, hashed by the sixth extension
        source, used = self.check_block(BlockMeasureParams(5, Fraction(1, 2)), 41, 251)
        assert used == len(source.words) == 4096

    @pytest.mark.parametrize("levels, i", [(3, 200), (5, 5)])
    def test_wide_alpha_across_a_chunk_boundary(self, levels, i, monkeypatch):
        # alpha 1/(2^64+1) reads two words per candidate through rng.Coin
        straddles = []
        flip = block_sampler._flip

        def recording_flip(coin, source, at):
            held = len(source.words)
            heads, after = flip(coin, source, at)
            if at < held < after:
                straddles.append(held)
            return heads, after

        monkeypatch.setattr(block_sampler, "_flip", recording_flip)
        self.check_block(BlockMeasureParams(levels, Fraction(1, 2**64 + 1)), 41, i)
        assert straddles  # a coin's words came from both sides of an extension

    @pytest.mark.parametrize("alpha", ALPHAS, ids=["0", "1/3", "1/2", "1", "1/(2^64+1)"])
    def test_samples_and_states(self, alpha):
        # one stream across many samples: every sample leaves the oracle's state
        params = BlockMeasureParams(3, alpha, (Fraction(0), Fraction(2, 3), Fraction(1)))
        rng, oracle = SplitMix64(alpha.denominator), SplitMix64(alpha.denominator)
        for length in (1, 5, 8, 33, 64, 2, 17):
            assert sample_hierarchical(params, length, rng) == oracle_sample(params, length, oracle)
            assert rng.state == oracle.state

    @pytest.mark.parametrize("x, heads", [(3, True), (2, False)], ids=["heads", "tails"])
    @pytest.mark.parametrize("coin", ["copy", "alpha"])
    def test_inline_coin_skips_a_rejected_draw(self, coin, x, heads):
        # a 2/3 coin rejects a draw at or past Uniform(3).limit = 2^64 - 1, a
        # chance of 2^-64 that no seeded stream reaches: the words are set by hand
        p = Fraction(2, 3)
        if coin == "copy":  # alpha 1: heads copies plainly, tails resamples
            params = BlockMeasureParams(1, copy_probs=(p,))
        else:  # always copy: heads plainly, tails alternating
            params = BlockMeasureParams(1, alpha=p, copy_probs=(Fraction(1),))
        assert getattr(params._plan[1], coin) == (2**64 - 1, 3, 2)
        words = [1 << 63, 2**64 - 1, x, 0]  # leaf 1, the rejected draw, x, leaf 0
        source = ChunkedDraws(SplitMix64(0))
        source.words = list(words)
        # Uniform.draw skips the first word and decides on x: two draws
        reader = iter(words[1:])
        assert (Uniform(3).draw(reader.__next__) < 2) is heads
        assert list(reader) == [0]
        block, used = block_sampler._walk(params._plan, 1, source, 0, cell_mask(2, [(0, 2)]))
        if heads:
            assert (block, used) == (0b11, 3)
        elif coin == "copy":
            assert (block, used) == (0b10, 4)  # the resampled leaf is the last word
        else:
            assert (block, used) == (0b10, 3)  # the negated copy

    @pytest.mark.parametrize("custom", [False, True], ids=["default", "custom"])
    @pytest.mark.parametrize("alpha", ALPHAS, ids=["0", "1/3", "1/2", "1", "1/(2^64+1)"])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
    def test_requested_cells_and_states(self, levels, alpha, custom):
        probs = (Fraction(2, 3), Fraction(0), Fraction(1), Fraction(2, 3), Fraction(1, 2))
        params = BlockMeasureParams(levels, alpha, probs[:levels] if custom else None)
        length, child = params.window_capacity, block_length(levels - 1)
        requests = [
            cell_mask(length, [(child - 1, child + 1)]),  # across the first child boundary
            cell_mask(length, [(0, 1), (length - 1, length)]),  # the first cell and the last
        ]
        taps = block_sampler._tap_cells(3, child + 1)  # d in {0, 1, child, child + 1}
        if taps < 1 << length:  # two ranges from 3 levels on, at the block's end
            requests.append(taps)
        pick = SplitMix64(levels)
        for i in range(6 if levels == 5 else 12):
            for want in requests + [random_cells(pick, length)]:
                _, used = self.check_block(params, 41, i, want)
                # a walk that builds nothing reads the same draws
                assert self.check_block(params, 41, i, 0)[1] == used

    @pytest.mark.parametrize(
        "steps", [0, 1, 3, 5, 2, 64, 512, 1000, 255, 0b101010101, "cap"],
        ids=lambda s: f"steps={s}",
    )
    def test_draw_is_the_xor_of_the_oracle_window(self, steps):
        # one stream across many draws: every draw leaves the oracle's state
        params = BlockMeasureParams(4, Fraction(1, 2))
        for n in (1, 2, 5):
            t = params.window_capacity - n if steps == "cap" else steps
            sampler = BlockSampler(params, t)
            rng, oracle = SplitMix64(n), SplitMix64(n)
            for _ in range(5):
                raw = oracle_sample(params, n + t, oracle)
                assert sampler.draw(n, rng) == xor_iterate(raw.bits, t, raw.length)
                assert rng.state == oracle.state

    def test_tap_cells_are_the_lucas_taps(self):
        # output cell k after t steps reads the cells k + d with d & ~t == 0
        for n, t in [(1, 0), (1, 5), (2, 5), (3, 64), (4, 1024), (1, 0b10101010), (2, 0b1011)]:
            cells = {k + d for k in range(n) for d in range(t + 1) if d & ~t == 0}
            assert block_sampler._tap_cells(n, t) == sum(1 << (n + t - 1 - x) for x in cells)
        for k in (1, 4, 10, 21):  # 2^k - 1 steps read every cell
            assert block_sampler._tap_cells(3, 2**k - 1) == (1 << 2**k + 2) - 1

    def test_dense_step_count_draws_the_oracle_xor(self):
        # 8 spread set bits: the taps are 256 ranges, more than the top block's 32 children
        params, t = BlockMeasureParams(5, Fraction(1, 2)), 0b101010101010101
        sampler = BlockSampler(params, t)
        for n in (1, 3):
            rng, oracle = SplitMix64(n), SplitMix64(n)
            for _ in range(2):
                raw = oracle_sample(params, n + t, oracle)
                assert sampler.draw(n, rng) == xor_iterate(raw.bits, t, raw.length)
                assert rng.state == oracle.state

    @pytest.mark.parametrize("cells", [[], [(0, 1)], [(2, 5), (9, 30), (30, 31)], [(0, 40)]])
    def test_sample_fills_only_the_requested_cells(self, cells):
        params, mask = BlockMeasureParams(4, Fraction(1, 3)), cell_mask(40, cells)
        for i in range(8):
            rng, oracle = SplitMix64.for_index(3, i), SplitMix64.for_index(3, i)
            want = oracle_sample(params, 40, oracle)
            got = sample_hierarchical(params, 40, rng, mask)
            assert got == block_sampler.HierarchicalSample(
                want.bits & mask, 40, want.offsets, want.rejections
            )
            assert rng.state == oracle.state

    @pytest.mark.parametrize(
        "cells", [-1, -(1 << 39), 1 << 40, (1 << 41) - 1], ids=["-1", "-2^39", "2^40", "2^41-1"]
    )
    def test_cells_outside_the_window_refused_before_any_draw(self, cells):
        rng = SplitMix64(1)
        with pytest.raises(ValueError, match="cells are not a mask of 40 cells"):
            sample_hierarchical(BlockMeasureParams(4), 40, rng, cells)
        assert rng.state == 1

    def test_samples_leave_no_reference_cycles(self):
        # a cycle would keep each sample's draw buffer alive until a collection
        params = BlockMeasureParams(4)
        wide = BlockMeasureParams(4, Fraction(1, 2**64 + 1))  # its coins read through a closure
        gc.collect()
        gc.disable()
        try:
            for i in range(20):
                sample_hierarchical(params, 10, SplitMix64.for_index(1, i))
                sample_hierarchical(wide, 10, SplitMix64.for_index(1, i))
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_every_public_name_resolves():
    # a deleted function must not linger in __all__
    missing = [name for name in block_sampler.__all__ if not hasattr(block_sampler, name)]
    assert missing == []
