"""Deterministic, splittable randomness for reproducible experiments.

Everything here is built on the splitmix64 counter sequence: state steps by a
fixed odd constant and each output is a finalizer hash of the state.  Streams
are therefore pure functions of (seed, counter), which makes them cheap to
split per sample or per worker without any coordination.  `map_ranges` is
the one place that does that split across processes.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Callable

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
ALGORITHM_ID = "splitmix64-v1"

_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective hash."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent stream seed from a base seed and integer tags.

    Defined as iterated mixing: s <- mix64(mix64(s) ^ mix64(tag + 1)).
    """
    s = seed & MASK64
    for tag in tags:
        s = mix64(mix64(s) ^ mix64((tag + 1) & MASK64))
    return s


class SplitMix64:
    """splitmix64 stream; draw k is mix64(seed + k * GOLDEN)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    @classmethod
    def for_index(cls, seed: int, index: int) -> "SplitMix64":
        """Stream for one sample/worker index, independent per index."""
        return cls(derive_seed(seed, index))

    def next64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def bit(self) -> int:
        return self.next64() >> 63

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection (see `Uniform`)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        if n == 1:
            return 0
        return Uniform(n).draw(self.next64)

    def bernoulli(self, p: Fraction) -> bool:
        """Exact Bernoulli(p) event for rational p; p in {0, 1} draws nothing."""
        return Coin(p).flip(self.next64)


class Uniform:
    """The rejection rule that turns 64-bit draws into a uniform [0, n).

    A candidate is `words` draws read as one number, the first most
    significant, with `words` the least k such that 2^(64k) >= n; it is 1
    for every n <= 2^64, which keeps one draw per candidate there.  A
    candidate at or above `limit`, the largest multiple of n that fits, is
    rejected and redrawn.
    """

    __slots__ = ("n", "words", "limit")

    def __init__(self, n: int):
        self.n = n
        self.words = 1
        self.limit = (1 << 64) - (1 << 64) % n
        while not self.limit:  # 2^(64k) < n: every candidate would be rejected
            self.words += 1
            span = 1 << (64 * self.words)
            self.limit = span - span % n

    def draw(self, next64: Callable[[], int]) -> int:
        while True:
            r = next64()
            for _ in range(self.words - 1):
                r = r << 64 | next64()
            if r < self.limit:
                return r % self.n


class Coin:
    """An exact Bernoulli(p) event for rational p, in integers only.

    The event is `Uniform(den).draw(...) < num`, so `flip` compares
    integers and touches no `Fraction`; p <= 0 and p >= 1 draw nothing.
    """

    __slots__ = ("num", "uniform")

    def __init__(self, p: Fraction):
        self.num = p.numerator
        self.uniform = Uniform(p.denominator) if 0 < p.numerator < p.denominator else None

    def flip(self, next64: Callable[[], int]) -> bool:
        if self.uniform is None:  # p <= 0 or p >= 1
            return self.num > 0
        return self.uniform.draw(next64) < self.num


def map_ranges(fn: Callable, count: int, jobs: int, *args) -> list:
    """[fn(*args, lo, hi), ...] for consecutive ranges covering [0, count).

    Results come back in index order.  The ranges are spread over
    min(jobs, count, CPU count) worker processes; with one worker this is
    exactly [fn(*args, 0, count)], run in-process.  When fn's work for index
    i depends only on i (as with `SplitMix64.for_index`), the concatenated
    results do not depend on `jobs`.  Parallel runs pickle fn and args.
    """
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*args, 0, count)]
    from concurrent import futures

    bounds = [count * w // workers for w in range(workers + 1)]
    columns = [[arg] * workers for arg in args]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *columns, bounds[:-1], bounds[1:]))


_GOLDEN_U64, _MUL1_U64, _MUL2_U64 = np.uint64(GOLDEN), np.uint64(_MUL1), np.uint64(_MUL2)
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))


def draws(state: int, count: int) -> np.ndarray:
    """Draws 1..count of the stream at `state`, hashed at once as uint64.

    Entry k-1 is mix64(state + k * GOLDEN), the k-th `next64` from a
    stream whose state is `state`; the caller advances the stream.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= _GOLDEN_U64  # array arithmetic wraps modulo 2^64 without a warning
    z += np.uint64(state & MASK64)
    z ^= z >> _SHIFTS[0]
    z *= _MUL1_U64
    z ^= z >> _SHIFTS[1]
    z *= _MUL2_U64
    z ^= z >> _SHIFTS[2]
    return z


class ChunkedDraws:
    """The draws of a stream, hashed ahead with `draws` and read by index.

    `words[k]` is the stream's (k+1)-th `next64` draw.  The first FIRST
    draws are hashed at once; each `extend` hashes as many more as are
    held, and `words` grows in place.  The stream is left alone until
    `close(used)`, which advances it past the first `used` draws: reading
    draws 0..used-1 and closing consumes the same draws in the same order
    as `used` calls of `next64`, and leaves the same state.
    """

    FIRST = 64

    __slots__ = ("rng", "words")

    def __init__(self, rng: SplitMix64):
        self.rng = rng
        self.words: list[int] = []
        self.extend()

    def extend(self) -> None:
        held = len(self.words)
        self.words += draws(self.rng.state + held * GOLDEN, held or self.FIRST).tolist()

    def close(self, used: int) -> None:
        self.rng.state = (self.rng.state + used * GOLDEN) & MASK64


def bernoulli_word(rng: SplitMix64, length: int, p: Fraction) -> str:
    """Binary word of i.i.d. cells with 1-density p, vectorized.

    Cell i is 1 iff draw i of the stream is below floor(p * 2^64); the
    deviation from exact p is at most 2^-64 per cell.  Advances the stream
    by exactly `length` draws, matching the scalar next64 sequence.
    """
    if length == 0:
        return ""
    if p <= 0 or p >= 1:
        rng.state = (rng.state + length * GOLDEN) & MASK64
        return ("1" if p >= 1 else "0") * length
    threshold = (p.numerator << 64) // p.denominator
    z = draws(rng.state, length)
    rng.state = (rng.state + length * GOLDEN) & MASK64
    bits = np.where(z < np.uint64(threshold), ord("1"), ord("0"))
    return bits.astype(np.uint8).tobytes().decode("ascii")
