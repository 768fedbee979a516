"""Sampling from a hierarchical block measure, and fast XOR iteration.

Positions are grouped into level-n blocks of length 2^(n(n+1)/2); each
level-(n+1) block consists of 2^(n+1) consecutive level-n blocks.  A window
is generated inside one top-level block: the leftmost cell gets a fair bit,
and each level is expanded to the next by either copying the filled block
to all its siblings (with the level's copy probability, split by the
alternation mix alpha between plain copies and copies alternating with the
cellwise negation) or sampling every sibling independently by recursion.

The alternation phase is fixed: sibling j of the expanded block receives
the filled content when j is even, the negation when j is odd, the filled
block itself being child 0.

The two-neighbor XOR map iterated 2^k times reduces to a single lag-2^k
cellwise XOR; xor_power implements that shortcut and xor_iterate composes
it along the binary expansion of the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .rng import SplitMix64, map_ranges
from .rules import size_text

__all__ = [
    "triangular",
    "block_length",
    "default_copy_probs",
    "BlockMeasureParams",
    "HierarchicalSample",
    "BlockSampler",
    "XorPowerSampler",
    "CylinderEstimate",
    "sample_hierarchical",
    "containment_probability",
    "xor_power",
    "xor_iterate",
    "estimate_cylinder",
]


def triangular(n: int) -> int:
    return n * (n + 1) // 2


def block_length(level: int) -> int:
    """Length 2^(level(level+1)/2) of a level-n block."""
    return 1 << triangular(level)


def default_copy_probs(levels: int) -> tuple[Fraction, ...]:
    """Copy probability 1 - 1/(n+1) for expanding level n, n = 0..levels-1."""
    return tuple(Fraction(n, n + 1) for n in range(levels))


#: every sample builds a whole top block, 2^21 bits at 6 levels (2^28 at 7)
MAX_LEVELS = 6


@dataclass(frozen=True)
class BlockMeasureParams:
    """Top level count, alternation mix alpha, per-level copy probabilities."""

    levels: int
    alpha: Fraction = Fraction(1)
    copy_probs: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("need at least one level")
        if self.levels > MAX_LEVELS:
            raise ValueError(
                f"{self.levels} levels exceed {MAX_LEVELS}: a top block of "
                f"more than 2^{triangular(MAX_LEVELS)} bits"
            )
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must lie in [0, 1]")
        if self.copy_probs is None:
            object.__setattr__(self, "copy_probs", default_copy_probs(self.levels))
        else:
            probs = tuple(Fraction(p) for p in self.copy_probs)
            if len(probs) != self.levels:
                raise ValueError("need one copy probability per level")
            if any(p < 0 or p > 1 for p in probs):
                raise ValueError("copy probabilities must lie in [0, 1]")
            object.__setattr__(self, "copy_probs", probs)

    @property
    def window_capacity(self) -> int:
        return block_length(self.levels)


def _generate_block(params: BlockMeasureParams, level: int, rng: SplitMix64) -> int:
    """Sample one level block as a packed integer, leftmost cell highest bit."""
    if level == 0:
        return rng.bit()
    child_len = block_length(level - 1)
    first = _generate_block(params, level - 1, rng)
    children = 1 << level
    if rng.bernoulli(params.copy_probs[level - 1]):
        if rng.bernoulli(params.alpha):
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
            out = (out << child_len) | _generate_block(params, level - 1, rng)
    return out


@dataclass(frozen=True)
class HierarchicalSample:
    window: str
    offsets: tuple[int, ...]  # window start offset modulo each level's block length
    rejections: int  # block-boundary resamples before the window fit


def containment_probability(params: BlockMeasureParams, length: int) -> Fraction:
    """Chance that a uniformly placed window fits inside one top block."""
    cap = params.window_capacity
    if length > cap:
        return Fraction(0)
    return Fraction(cap - length + 1, cap)


def sample_hierarchical(
    params: BlockMeasureParams, length: int, rng: SplitMix64
) -> HierarchicalSample:
    """Sample one window of the block measure.

    The window's offset inside its top-level block is uniform; offsets that
    would make it straddle a block boundary are rejected and redrawn.  The
    per-level offsets are the top offset reduced modulo each block length.
    """
    cap = params.window_capacity
    if not 1 <= length <= cap:
        raise ValueError(
            f"window length {length} not in [1, {cap}] for {params.levels} levels"
        )
    rejections = 0
    while True:
        offset = rng.below(cap)
        if offset + length <= cap:
            break
        rejections += 1
    block = _generate_block(params, params.levels, rng)
    shift = cap - offset - length
    window_bits = (block >> shift) & ((1 << length) - 1)
    window = format(window_bits, f"0{length}b")
    offsets = tuple(
        offset % block_length(n) for n in range(params.levels + 1)
    )
    return HierarchicalSample(window=window, offsets=offsets, rejections=rejections)


def xor_power(window: str, k: int) -> str:
    """Lag-2^k cellwise XOR: output i is window[i] ^ window[i + 2^k].

    Equals 2^k iterations of the two-neighbor XOR rule; the output is 2^k
    symbols shorter.
    """
    if k < 0:
        raise ValueError("power must be >= 0")
    # 2^k > len(window) once k reaches its bit length: refused unbuilt
    if k >= len(window).bit_length() or len(window) <= 1 << k:
        raise ValueError(
            f"window of length {len(window)} too short for lag {size_text(2, k)}"
        )
    lag = 1 << k
    n = len(window) - lag
    if any(c not in "01" for c in window):
        raise ValueError("window must be a binary word")
    bits = int(window, 2)
    out = ((bits >> lag) ^ bits) & ((1 << n) - 1)
    return format(out, f"0{n}b")


def xor_iterate(window: str, t: int) -> str:
    """t steps of the two-neighbor XOR rule via the binary expansion of t."""
    if t < 0:
        raise ValueError("step count must be >= 0")
    if len(window) < t + 1:
        raise ValueError(f"window of length {len(window)} too short for {t} steps")
    k = 0
    while t:
        if t & 1:
            window = xor_power(window, k)
        t >>= 1
        k += 1
    return window


@dataclass(frozen=True)
class BlockSampler:
    """Draws windows of the hierarchical block measure."""

    params: BlockMeasureParams

    @property
    def capacity(self) -> int:
        return self.params.window_capacity

    def draw(self, length: int, rng: SplitMix64) -> str:
        return sample_hierarchical(self.params, length, rng).window


@dataclass(frozen=True)
class XorPowerSampler:
    """A sampler composed with t steps of the two-neighbor XOR rule."""

    base: BlockSampler
    steps: int

    @property
    def capacity(self) -> int:
        return self.base.capacity - self.steps

    def draw(self, length: int, rng: SplitMix64) -> str:
        raw = self.base.draw(length + self.steps, rng)
        return xor_iterate(raw, self.steps)


Sampler = Union[BlockSampler, XorPowerSampler]


@dataclass(frozen=True)
class CylinderEstimate:
    word: str
    samples: int
    hits: int
    estimate: float
    std_error: float
    seed: int


def _count_hits(sampler: Sampler, word: str, seed: int, lo: int, hi: int) -> int:
    n = len(word)
    hits = 0
    for i in range(lo, hi):
        rng = SplitMix64.for_index(seed, i)
        if sampler.draw(n, rng) == word:
            hits += 1
    return hits


def estimate_cylinder(
    sampler: Sampler, word: str, samples: int, seed: int, jobs: int = 1
) -> CylinderEstimate:
    """Monte Carlo frequency of the word at the windows' base position.

    Sample i uses the stream derived from (seed, i), so the estimate is
    reproducible bit for bit and independent of the job count.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if len(word) > sampler.capacity:
        raise ValueError(
            f"word of length {len(word)} exceeds sampler capacity {sampler.capacity}"
        )
    hits = sum(map_ranges(_count_hits, samples, jobs, sampler, word, seed))
    est = hits / samples
    return CylinderEstimate(
        word=word,
        samples=samples,
        hits=hits,
        estimate=est,
        std_error=math.sqrt(est * (1 - est) / samples),
        seed=seed,
    )
