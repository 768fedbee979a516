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

A sample reads its stream by index (`rng.ChunkedDraws`): the walk visits
every coin of the whole top block in the order of one `next64` call per
draw, and returns the index it stopped at, but it builds only the cells it
is asked for.  The cells are asked for as one mask, packed as the block is,
the first cell the highest bit.  A level that copies with probability 0 at
and below itself is a run of leaf draws: the top bits of one slice of the
stream from the first cell asked for to the last, or stepped over unread
when none is.  A block asks its first child for the OR of every child's
slice of the mask, because the copy coin comes after that child; a copy
then fills each child asked for with `first` or its negation.  Every coin
is an `rng.Coin`.  `_flip` reads any coin by index; `_skip`, which reads
most coins, compares a one-word coin's draws with its rejection limit
inline.  `BlockSampler.draw` asks only for the cells that its XOR output
reads, so the whole-block walk of coins is what a sample costs.

The two-neighbor XOR map iterated 2^k times reduces to a single lag-2^k
cellwise XOR; xor_power implements that shortcut and xor_iterate composes
it along the binary expansion of the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import NamedTuple, Optional, Union

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


#: every sample walks the coins of a whole top block, 2^21 cells at 6 levels
#: (2^28 at 7), and may build all of it
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
    run: bool  # level 0, or copy probability 0 at levels 1..n: `length` leaf draws
    child_run: bool  # level n-1 is a run
    copy: Coin
    alpha: Coin


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

    # _Level plans for levels 0..levels, built on first use: the value admits
    # any level count, the plan (a sampler's) at most MAX_LEVELS
    @cached_property
    def _plan(self) -> tuple[_Level, ...]:
        check_levels(self.levels)
        alpha = Coin(self.alpha)
        # level 0 is a single leaf draw: a run without children, its coin never read
        plan = [_Level(1, 0, 0, run=True, child_run=False, copy=Coin(Fraction(0)), alpha=alpha)]
        run = True
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
                    copy=Coin(self.copy_probs[n - 1]),
                    alpha=alpha,
                )
            )
        return tuple(plan)


def _flip(coin: Coin, source: ChunkedDraws, i: int) -> tuple[bool, int]:
    """`coin.flip` read from draw i on: its outcome and the next index.

    A candidate is `coin.words` draws, the first most significant, accepted
    below `coin.limit`, as in `Uniform.draw`; p in {0, 1} draws nothing.
    """
    k, words = coin.words, source.words  # words is extended in place
    if not k:
        return coin.num > 0, i
    while True:
        while i + k > len(words):
            source.extend()
        r = 0
        for word in words[i : i + k]:
            r = r << 64 | word
        i += k
        if r < coin.limit:
            return r % coin.n < coin.num, i


def _skip(plan: tuple, level: int, source: ChunkedDraws, i: int) -> int:
    """Walk the coins of one level block from draw i on: the next index.

    Nothing is built, and leaf runs are stepped over unread.  `_flip` is
    written out here for one-word coins, which are most of the coins read.
    """
    step = plan[level]
    if step.run:
        return i + step.length
    i = i + step.child_len if step.child_run else _skip(plan, level - 1, source, i)
    words = source.words
    coin = step.copy
    if coin.words == 1:
        limit = coin.limit
        while True:
            while i >= len(words):
                source.extend()
            r = words[i]
            i += 1
            if r < limit:
                break
        copied = r % coin.n < coin.num
    else:
        copied, i = _flip(coin, source, i)
    if copied:
        coin = step.alpha
        if coin.words == 1:
            limit = coin.limit
            while True:
                while i >= len(words):
                    source.extend()
                i += 1
                if words[i - 1] < limit:
                    return i
        return _flip(coin, source, i)[1]
    if step.child_run:
        return i + step.length - step.child_len
    for _ in range(step.length // step.child_len - 1):
        i = _skip(plan, level - 1, source, i)
    return i


def _walk(plan: tuple, level: int, source: ChunkedDraws, i: int, want: int) -> tuple[int, int]:
    """Sample one level block from draw i on, building only the cells of `want`.

    `want` is a mask of the block's cells, packed as the block is: the first
    cell is the highest of `length` bits.  Returns the block, exact at the
    bits of `want` (the others may hold anything), and the next index.
    Draws are read in the order of the scalar recursion: the first child,
    the copy coin, then the alpha coin or the other children.  The first
    child is asked for the OR of every child's slice of `want`, which a copy
    reads there; a child asked for nothing is `_skip`ped.  A leaf cell is
    the top bit of its draw.
    """
    if not want:
        return 0, _skip(plan, level, source, i)
    step = plan[level]
    low = (want & -want).bit_length() - 1  # the lowest bit of `want`
    if step.run:  # one slice of draws, from the first wanted cell to the last
        lo, hi = i + step.length - want.bit_length(), i + step.length - low
        words = source.words
        while len(words) < hi:
            source.extend()
        bits = bytes([49 if r >= 1 << 63 else 48 for r in words[lo:hi]])  # top bits, b'0'/b'1'
        return int(bits, 2) << low, i + step.length
    c, mask = step.child_len, step.child_mask
    last = step.length // c - 1  # child j sits at bit (last - j) * c
    # the nonzero slices of `want` by child, read up from its lowest bit's child
    w, j, parts = want >> low // c * c, last - low // c, {}
    while w:
        if part := w & mask:
            parts[j] = part
        w >>= c
        j -= 1
    first, i = _walk(plan, level - 1, source, i, reduce(or_, parts.values()))
    copied, i = _flip(step.copy, source, i)
    if copied:
        plain, i = _flip(step.alpha, source, i)
        odd = first if plain else first ^ mask
        out = 0
        for j in parts:
            out |= (odd if j & 1 else first) << (last - j) * c
        return out, i
    out = first << last * c
    for j in range(1, last + 1):
        part = parts.get(j)
        if part is None:
            i = _skip(plan, level - 1, source, i)
        else:
            child, i = _walk(plan, level - 1, source, i, part)
            out |= child << (last - j) * c
    return out, i


class HierarchicalSample(NamedTuple):
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
    params: BlockMeasureParams, length: int, rng: SplitMix64, cells: Optional[int] = None
) -> HierarchicalSample:
    """Sample one window of the block measure.

    The window's offset inside its top-level block is uniform; offsets that
    would make it straddle a block boundary are rejected and redrawn.  The
    per-level offsets are the top offset reduced modulo each block length.
    `cells`, a mask of the window packed as `bits` is, names the cells to
    fill; the others read 0.  By default the whole window is filled.  The
    stream is used the same way whichever cells are filled.
    """
    plan = params._plan
    cap = params.window_capacity
    if not 1 <= length <= cap:
        raise ValueError(
            f"window length {length} not in [1, {cap}] for {params.levels} levels"
        )
    if cells is None:
        cells = (1 << length) - 1
    elif not 0 <= cells < 1 << length:
        raise ValueError(f"cells are not a mask of {length} cells")
    offset, rejections = rng.below(cap), 0
    while offset + length > cap:
        offset, rejections = rng.below(cap), rejections + 1
    source = ChunkedDraws(rng)
    shift = cap - offset - length  # the bit of the window's last cell in the top block
    box, used = _walk(plan, params.levels, source, 0, cells << shift)
    source.close(used)
    offsets = tuple(offset % step.length for step in plan)
    return HierarchicalSample(
        bits=box >> shift & cells, length=length, offsets=offsets, rejections=rejections
    )


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
        """A window of `length` cells after the XOR steps, from one sample.

        By Lucas' theorem output cell k reads only the cells k + d with
        `d & ~steps == 0`, so the sample fills only those taps, asked for as
        one mask (`_tap_cells`); the others read 0 and change no output cell.
        """
        cells = _tap_cells(length, self.steps)
        raw = sample_hierarchical(self.params, length + self.steps, rng, cells=cells)
        return xor_iterate(raw.bits, self.steps, raw.length)


@lru_cache(maxsize=64)
def _tap_cells(length: int, steps: int) -> int:
    """The cells that `length` outputs of `steps` XOR steps read, as a mask.

    The mask covers the `length + steps` cells of the window, the first the
    highest bit: the first `length` cells, ORed with the mask shifted by
    each set bit of `steps` in turn.  It costs a few shifts of the window's
    bit length per set bit, however spread the taps are.
    """
    mask, bit = ((1 << length) - 1) << steps, 1
    while bit <= steps:
        if steps & bit:
            mask |= mask >> bit
        bit <<= 1
    return mask


class CylinderEstimate(NamedTuple):
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
