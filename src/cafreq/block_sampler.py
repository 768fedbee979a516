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

A block is one packed integer, read from the sample's stream by index
(`rng.ChunkedDraws`): the generator walks every coin of the whole block in
the order of one `next64` call per draw, and returns the index it stopped
at.  A level that copies with probability 0 at and below itself is a run of
leaf draws, one slice of the stream's top bits.  A coin whose denominator
fits one word compares each draw with its precomputed rejection limit
inline, as `rng.Uniform` does; a wider one reads its words through
`rng.Coin`.  A copy doubles: `first`, or the pair of `first` and its
negation, shifted onto itself until it fills the block.

The two-neighbor XOR map iterated 2^k times reduces to a single lag-2^k
cellwise XOR; xor_power implements that shortcut and xor_iterate composes
it along the binary expansion of the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .rng import ChunkedDraws, Coin, SplitMix64, map_ranges
from .rules import size_text

__all__ = [
    "triangular",
    "block_length",
    "default_copy_probs",
    "check_levels",
    "BlockMeasureParams",
    "HierarchicalSample",
    "BlockSampler",
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


#: a coin of the plan: p in {0, 1} as a bool (no draw), a denominator of at
#: most 2^64 as Uniform's (limit, n) and p's numerator, otherwise an rng.Coin
_CoinPlan = Union[bool, tuple[int, int, int], Coin]


def _coin_plan(p: Fraction) -> _CoinPlan:
    coin = Coin(p)
    uniform = coin.uniform
    if uniform is None:
        return coin.num > 0
    if uniform.words == 1:
        return (uniform.limit, uniform.n, coin.num)
    return coin


#: every sample builds a whole top block, 2^21 bits at 6 levels (2^28 at 7)
MAX_LEVELS = 6


def check_levels(levels: int) -> None:
    """Refuse more levels than a sampler builds, before anything is built."""
    if levels > MAX_LEVELS:
        raise ValueError(
            f"{levels} levels exceed {MAX_LEVELS}: a top block of "
            f"more than 2^{triangular(MAX_LEVELS)} bits"
        )


@dataclass(frozen=True, slots=True)
class _Level:
    """How to expand level n-1 blocks into a level n block, in integers."""

    length: int  # block_length(n)
    child_len: int
    child_mask: int  # child_len ones: negates a child
    run: bool  # copy probability 0 at levels 1..n: `length` leaf draws in a row
    child_run: bool  # level n-1 is a run, or the single leaf of level 0
    copy: _CoinPlan
    alpha: _CoinPlan


@dataclass(frozen=True)
class BlockMeasureParams:
    """Top level count, alternation mix alpha, per-level copy probabilities."""

    levels: int
    alpha: Fraction = Fraction(1)
    copy_probs: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("need at least one level")
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

    # _Level plans for levels 1..levels, built on first use: the value admits
    # any level count, the plan (a sampler's) at most MAX_LEVELS
    @cached_property
    def _plan(self) -> tuple[Optional[_Level], ...]:
        check_levels(self.levels)
        alpha = _coin_plan(self.alpha)
        plan: list[Optional[_Level]] = [None]
        run = True  # level 0, a single leaf draw
        for n in range(1, self.levels + 1):
            child_len, child_run = block_length(n - 1), run
            run = child_run and self.copy_probs[n - 1] == 0
            plan.append(
                _Level(
                    length=block_length(n),
                    child_len=child_len,
                    child_mask=(1 << child_len) - 1,
                    run=run,
                    child_run=child_run,
                    copy=_coin_plan(self.copy_probs[n - 1]),
                    alpha=alpha,
                )
            )
        return tuple(plan)


def _leaves(source: ChunkedDraws, i: int, n: int) -> tuple[int, int]:
    """The top bits of draws i..i+n-1 as one integer, and the next index."""
    end = i + n
    while len(source.tops) < end:
        source.extend()
    return int(source.tops[i:end], 2), end


def _flip(coin: _CoinPlan, source: ChunkedDraws, i: int) -> tuple[bool, int]:
    """A coin that one word does not decide, read from draw i on.

    Returns its outcome and the next index.  p in {0, 1} draws nothing; a
    denominator past 2^64 reads each candidate's words through `Coin.flip`.
    """
    if coin.__class__ is bool:
        return coin, i

    def next64() -> int:
        nonlocal i
        if i == len(source.words):
            source.extend()
        i += 1
        return source.words[i - 1]

    return coin.flip(next64), i


def _generate_block(plan: tuple, level: int, source: ChunkedDraws, i: int) -> tuple[int, int]:
    """Sample one level block from draw i on: the block and the next index.

    The block is a packed integer, leftmost cell highest bit; a leaf cell is
    the top bit of its draw.  Draws are read in the order of the scalar
    recursion: the first child, the copy coin, then the alpha coin or the
    other children.  A one-word coin is `Uniform.draw` written inline.
    """
    step = plan[level]
    if step.run:
        return _leaves(source, i, step.length)
    if step.child_run:
        first, i = _leaves(source, i, step.child_len)
    else:
        first, i = _generate_block(plan, level - 1, source, i)
    words = source.words  # extended in place
    coin = step.copy
    if coin.__class__ is tuple:
        limit, n, num = coin
        while True:
            if i == len(words):
                source.extend()
            r = words[i]
            i += 1
            if r < limit:  # a draw at or past limit is skipped
                break
        copied = r % n < num
    else:
        copied, i = _flip(coin, source, i)
    if copied:
        coin = step.alpha
        if coin.__class__ is tuple:
            limit, n, num = coin
            while True:
                if i == len(words):
                    source.extend()
                r = words[i]
                i += 1
                if r < limit:
                    break
            plain = r % n < num
        else:
            plain, i = _flip(coin, source, i)
        if plain:
            out, width = first, step.child_len
        else:
            out, width = first << step.child_len | first ^ step.child_mask, 2 * step.child_len
        while width < step.length:
            out = out << width | out
            width <<= 1
        return out, i
    if step.child_run:
        rest, end = _leaves(source, i, step.length - step.child_len)
        return first << (end - i) | rest, end
    out = first
    shift = step.child_len
    for _ in range(step.length // shift - 1):
        child, i = _generate_block(plan, level - 1, source, i)
        out = out << shift | child
    return out, i


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
    plan = params._plan
    cap = params.window_capacity
    if not 1 <= length <= cap:
        raise ValueError(
            f"window length {length} not in [1, {cap}] for {params.levels} levels"
        )
    offset, rejections = rng.below(cap), 0
    while offset + length > cap:
        offset, rejections = rng.below(cap), rejections + 1
    source = ChunkedDraws(rng)
    block, used = _generate_block(plan, params.levels, source, 0)
    source.close(used)
    shift = cap - offset - length
    bits = (block >> shift) & ((1 << length) - 1)
    # level 0 blocks are single cells, so their offset is always 0
    offsets = (0, *(offset % step.length for step in plan[1:]))
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
    """Windows of the block measure after `steps` two-neighbor XOR steps."""

    params: BlockMeasureParams
    steps: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"XOR step count must be >= 0, got {self.steps}")
        self.params._plan  # refuses too many levels before any draw or worker

    @property
    def capacity(self) -> int:
        return self.params.window_capacity - self.steps

    def check_fits(self, word: str) -> None:
        """Refuse a word no window can hold: empty, not binary, or too long."""
        if not word or word.strip("01"):
            raise ValueError(f"word must be a nonempty binary word, got {word!r}")
        if len(word) > self.capacity:
            raise ValueError(
                f"word of length {len(word)} exceeds sampler capacity {self.capacity}"
            )

    def draw(self, length: int, rng: SplitMix64) -> str:
        raw = sample_hierarchical(self.params, length + self.steps, rng)
        return xor_iterate(raw.bits, self.steps, raw.length)


@dataclass(frozen=True)
class CylinderEstimate:
    word: str
    samples: int
    hits: int
    estimate: float
    std_error: float
    seed: int


def _count_hits(sampler: BlockSampler, word: str, seed: int, lo: int, hi: int) -> int:
    n = len(word)
    hits = 0
    for i in range(lo, hi):
        rng = SplitMix64.for_index(seed, i)
        if sampler.draw(n, rng) == word:
            hits += 1
    return hits


def estimate_cylinder(
    sampler: BlockSampler, word: str, samples: int, seed: int, jobs: int = 1
) -> CylinderEstimate:
    """Monte Carlo frequency of the word at the windows' base position.

    Sample i uses the stream derived from (seed, i), so the estimate is
    reproducible bit for bit and independent of the job count.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    sampler.check_fits(word)
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
