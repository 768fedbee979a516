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

A block is one packed integer.  Its draws come from the sample's stream in
numpy chunks (`rng.ChunkedDraws`), its coins compare integers (`rng.Coin`),
and a copy is one product with a repunit: `first * sum_k 2^(k * child_len)`.

The two-neighbor XOR map iterated 2^k times reduces to a single lag-2^k
cellwise XOR; xor_power implements that shortcut and xor_iterate composes
it along the binary expansion of the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from .rng import ChunkedDraws, Coin, SplitMix64, map_ranges
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
class _Level:
    """How to expand level n-1 blocks into a level n block, in integers."""

    child_len: int
    children: int
    child_mask: int  # child_len ones: negates a child
    plain: int  # sum over the children of 2^(k * child_len)
    odd: int  # the same sum over the odd children only
    copy: Coin
    alpha: Coin


@dataclass(frozen=True)
class BlockMeasureParams:
    """Top level count, alternation mix alpha, per-level copy probabilities."""

    levels: int
    alpha: Fraction = Fraction(1)
    copy_probs: Optional[tuple[Fraction, ...]] = None
    # block lengths of levels 0..levels, and _Level plans for 1..levels
    lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _plan: tuple[Optional[_Level], ...] = field(init=False, repr=False, compare=False)

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
        lengths = tuple(block_length(n) for n in range(self.levels + 1))
        object.__setattr__(self, "lengths", lengths)
        alpha = Coin(self.alpha)
        plan: list[Optional[_Level]] = [None]
        for n in range(1, self.levels + 1):
            child_len, children = lengths[n - 1], 1 << n
            # child j (0 = leftmost) sits at bit k * child_len, k = children-1-j
            units = [1 << (k * child_len) for k in range(children)]
            plan.append(
                _Level(
                    child_len=child_len,
                    children=children,
                    child_mask=(1 << child_len) - 1,
                    plain=sum(units),
                    odd=sum(units[children - 1 - j] for j in range(1, children, 2)),
                    copy=Coin(self.copy_probs[n - 1]),
                    alpha=alpha,
                )
            )
        object.__setattr__(self, "_plan", tuple(plan))

    @property
    def window_capacity(self) -> int:
        return self.lengths[-1]


def _generate_block(plan: tuple, level: int, take: Callable[[], int]) -> int:
    """Sample one level block as a packed integer, leftmost cell highest bit.

    `take` returns the stream's next 64-bit draw; a leaf cell is its top bit.
    """
    step = plan[level]
    if level == 1:
        first = take() >> 63
    else:
        first = _generate_block(plan, level - 1, take)
    if step.copy.flip(take):
        if step.alpha.flip(take):
            return first * step.plain
        odd = step.odd
        return (first ^ step.child_mask) * odd + first * (step.plain - odd)
    out = first
    shift = step.child_len
    if level == 1:
        for _ in range(step.children - 1):
            out = out << shift | take() >> 63
    else:
        for _ in range(step.children - 1):
            out = out << shift | _generate_block(plan, level - 1, take)
    return out


@dataclass(frozen=True)
class HierarchicalSample:
    bits: int  # the window packed, its first cell the highest of `length` bits
    length: int
    offsets: tuple[int, ...]  # window start offset modulo each level's block length
    rejections: int  # block-boundary resamples before the window fit

    @property
    def window(self) -> str:
        return format(self.bits, f"0{self.length}b")


def containment_probability(params: BlockMeasureParams, length: int) -> Fraction:
    """Chance that a uniformly placed window fits inside one top block."""
    if length < 1:
        raise ValueError(f"window length {length} is below 1")
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
    source = ChunkedDraws(rng)
    block = _generate_block(params._plan, params.levels, source.take)
    source.close()
    shift = cap - offset - length
    bits = (block >> shift) & ((1 << length) - 1)
    offsets = tuple(offset % n for n in params.lengths)
    return HierarchicalSample(bits=bits, length=length, offsets=offsets, rejections=rejections)


def _lag_xor(bits: int, length: int, k: int) -> tuple[int, int]:
    """xor_power on a packed window: (bits, length) -> (bits, length - 2^k)."""
    lag = 1 << k
    n = length - lag
    return ((bits >> lag) ^ bits) & ((1 << n) - 1), n


def _packed(window: str) -> int:
    if window.count("0") + window.count("1") != len(window):
        raise ValueError("window must be a binary word")
    return int(window, 2)


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
    bits, n = _lag_xor(_packed(window), len(window), k)
    return format(bits, f"0{n}b")


def xor_iterate(window: Union[str, int], t: int, length: Optional[int] = None) -> str:
    """t steps of the two-neighbor XOR rule via the binary expansion of t.

    The window is a binary word, or, when `length` is given, that many cells
    packed into an integer with the first cell in the highest bit.
    """
    packed = length is not None
    if not packed:
        length = len(window)
    if t < 0:
        raise ValueError("step count must be >= 0")
    if length < t + 1:
        raise ValueError(f"window of length {length} too short for {t} steps")
    if not packed:
        window = _packed(window)
    elif not 0 <= window < 1 << length:
        raise ValueError(f"packed window does not fit in {length} cells")
    k = 0
    while t:
        if t & 1:
            window, length = _lag_xor(window, length, k)
        t >>= 1
        k += 1
    return format(window, f"0{length}b")


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
        raw = sample_hierarchical(self.base.params, length + self.steps, rng)
        return xor_iterate(raw.bits, self.steps, raw.length)


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
