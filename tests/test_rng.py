import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cafreq
from cafreq.rng import (
    GOLDEN,
    MASK64,
    ChunkedDraws,
    Coin,
    SplitMix64,
    bernoulli_word,
    derive_seed,
    draws,
    map_ranges,
    mix64,
)


def scalar_below(rng, n):
    """The rejection rule written out on next64: k-draw candidates below limit."""
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


def scalar_bernoulli(rng, p):
    """Bernoulli(p) with Fraction comparisons, as the stream defines it."""
    if p <= 0:
        return False
    if p >= 1:
        return True
    return scalar_below(rng, p.denominator) < p.numerator


class TestStream:
    def test_deterministic(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        assert [a.next64() for _ in range(10)] == [b.next64() for _ in range(10)]

    def test_draw_is_pure_function_of_counter(self):
        seed = 99
        rng = SplitMix64(seed)
        draws = [rng.next64() for _ in range(5)]
        direct = [mix64((seed + k * GOLDEN) & MASK64) for k in range(1, 6)]
        assert draws == direct

    def test_for_index_streams_differ(self):
        a = SplitMix64.for_index(7, 0).next64()
        b = SplitMix64.for_index(7, 1).next64()
        assert a != b
        assert SplitMix64.for_index(7, 1).next64() == b

    def test_derive_seed_tags(self):
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)

    def test_below_range_and_determinism(self):
        rng = SplitMix64(1)
        values = [rng.below(7) for _ in range(2000)]
        assert set(values) <= set(range(7))
        assert len(set(values)) == 7

    def test_below_stream_is_unchanged(self):
        # recorded before bounds above 2^64 were supported
        rng = SplitMix64(1)
        assert [rng.below(7) for _ in range(12)] == [2, 0, 1, 0, 5, 2, 0, 3, 1, 4, 1, 2]
        rng = SplitMix64(5)
        assert rng.below(2**64) == 7134611160154358618
        assert rng.state == (5 + GOLDEN) & MASK64  # no rejection at 2^64: one draw

    @pytest.mark.parametrize("n, draws", [(2**64 + 1, 2), (2**200, 4)])
    def test_below_beyond_64_bits(self, n, draws):
        rng = SplitMix64(1)
        values = [rng.below(n) for _ in range(50)]
        assert all(0 <= v < n for v in values)
        # these bounds reject a candidate with probability 2^-128 or 0
        assert rng.state == (1 + 50 * draws * GOLDEN) & MASK64

    def test_below_invalid(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)

    def test_bernoulli_edges_draw_nothing(self):
        rng = SplitMix64(4)
        state = rng.state
        assert rng.bernoulli(Fraction(1)) is True
        assert rng.bernoulli(Fraction(0)) is False
        assert rng.state == state

    def test_bernoulli_exactness_small_denominator(self):
        # below(b) < a is an exact event; check frequencies roughly
        rng = SplitMix64(10)
        hits = sum(rng.bernoulli(Fraction(1, 3)) for _ in range(9000))
        assert abs(hits / 9000 - 1 / 3) < 0.02


    @pytest.mark.parametrize(
        "p",
        [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 2**64 + 1), Fraction(5, 7),
         Fraction(-1, 2), Fraction(3, 2)],
        ids=["0", "1", "1/3", "1/(2^64+1)", "5/7", "-1/2", "3/2"],
    )
    def test_bernoulli_matches_the_fraction_rule(self, p):
        rng, oracle = SplitMix64(77), SplitMix64(77)
        flips = [rng.bernoulli(p) for _ in range(300)]
        assert flips == [scalar_bernoulli(oracle, p) for _ in range(300)]
        assert rng.state == oracle.state

    def test_coin_flip_matches_bernoulli(self):
        rng, oracle = SplitMix64(3), SplitMix64(3)
        coin = Coin(Fraction(2, 3))
        assert [coin.flip(rng.next64) for _ in range(200)] == [
            oracle.bernoulli(Fraction(2, 3)) for _ in range(200)
        ]
        assert rng.state == oracle.state

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1, 3**50])
    def test_below_matches_the_rejection_rule(self, n):
        rng, oracle = SplitMix64(12), SplitMix64(12)
        assert [rng.below(n) for _ in range(100)] == [scalar_below(oracle, n) for _ in range(100)]
        assert rng.state == oracle.state


class TestChunkedDraws:
    def test_draws_are_the_next64_sequence(self):
        rng = SplitMix64(2024)
        assert draws(2024, 40).tolist() == [rng.next64() for _ in range(40)]

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 1023, 1024, 1025])
    @pytest.mark.parametrize("seed", [5, MASK64 - 3 * GOLDEN // 2, MASK64])
    def test_take_then_close_equals_next64(self, count, seed):
        # `count` draws taken by index, then closed; the two larger seeds
        # wrap around 2^64 within the first few draws
        rng, oracle = SplitMix64(seed), SplitMix64(seed)
        source = ChunkedDraws(rng)
        held = [len(source.words)]
        while len(source.words) < count:
            source.extend()
            held.append(len(source.words))
        # 64 draws first, then each extension doubles what is held
        assert held == [64 << k for k in range(len(held))]
        expected = [oracle.next64() for _ in range(held[-1])]
        assert source.words == expected
        assert rng.state == seed & MASK64  # untouched until close
        source.close(count)
        oracle = SplitMix64(seed)
        for _ in range(count):
            oracle.next64()
        assert rng.state == oracle.state
        # the stream goes on from where the used draws end
        assert rng.next64() == oracle.next64()


class TestBernoulliWord:
    def test_matches_scalar_threshold_draws(self):
        p = Fraction(1, 5)
        threshold = (p.numerator << 64) // p.denominator
        word_rng = SplitMix64(42)
        word = bernoulli_word(word_rng, 64, p)
        scalar_rng = SplitMix64(42)
        expected = "".join(
            "1" if scalar_rng.next64() < threshold else "0" for _ in range(64)
        )
        assert word == expected
        assert word_rng.state == scalar_rng.state

    def test_degenerate_densities(self):
        rng = SplitMix64(3)
        assert bernoulli_word(rng, 10, Fraction(0)) == "0" * 10
        assert bernoulli_word(rng, 10, Fraction(1)) == "1" * 10

    def test_state_advances_by_length(self):
        rng = SplitMix64(8)
        before = rng.state
        bernoulli_word(rng, 17, Fraction(1, 2))
        assert rng.state == (before + 17 * GOLDEN) & MASK64

    def test_empty(self):
        rng = SplitMix64(8)
        assert bernoulli_word(rng, 0, Fraction(1, 2)) == ""


class TestMapRanges:
    def test_one_job_is_one_in_process_call(self):
        # a lambda cannot be pickled, so this also shows no pool is used
        assert map_ranges(lambda tag, lo, hi: (tag, lo, hi), 10, 1, "x") == [("x", 0, 10)]

    def test_empty_range(self):
        assert map_ranges(range, 0, 4) == [range(0, 0)]

    def test_one_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert map_ranges(lambda lo, hi: (lo, hi), 10, 8) == [(0, 10)]

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert map_ranges(range, 10, 64) == [range(0, 5), range(5, 10)]

    def test_serial_run_does_not_import_the_pool(self):
        code = (
            "import sys; from cafreq import cli; "
            "cli.main(['sweep', '--q', '2', '--r', '1', '--check', 'prefix_sums', '--jobs', '1']); "
            "assert 'concurrent.futures' not in sys.modules"
        )
        src = str(Path(cafreq.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)


@given(st.integers(0, MASK64))
@settings(max_examples=200, deadline=None)
def test_mix64_is_within_range(z):
    assert 0 <= mix64(z) <= MASK64
