"""Reversible recoding of the gaps between occurrences of a marker word.

The marker is the sparse word (10)^n 0.  A window decomposes into intervals
bounded by consecutive marker occurrences; every interval is short, medium,
or long by its length.  The swap map rewrites the free part (the content
after the marker) of each complete medium interval:

  * a "sparse" free part (weight within a band around its Bernoulli mean,
    marker-free) is replaced by a "dense" code word built from blocks 110b
    followed by a zero tail, carrying the sparse word's lexicographic rank
    in its code bits;
  * a dense code word whose rank is a valid sparse rank is decoded back;
  * everything else is left unchanged.

Applied twice, the map is the identity, and no marker occurrence is created
or destroyed.  To guarantee the latter, the encoding side only uses dense
code words that are themselves marker-free: code words ending in a set code
bit directly before a zero tail of length >= 2 contain (10)^2 0 for n = 2,
so the naive full code family would break both properties.

Ranking and counting use a DP over (position, weight, marker-automaton
state) with big-integer counts, shared across all lengths via a lazily
grown suffix table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .rng import SplitMix64, bernoulli_word, map_ranges

__all__ = [
    "SwapParams",
    "SwapParamsReport",
    "Interval",
    "IntervalDecomposition",
    "SwapStats",
    "SwapTrial",
    "weight_bounds",
    "count_avoiding",
    "rank_avoiding",
    "unrank_avoiding",
    "sparse_count",
    "rank_sparse",
    "unrank_sparse",
    "dense_size",
    "rank_dense",
    "unrank_dense",
    "safe_dense_count",
    "rank_dense_safe",
    "unrank_dense_safe",
    "marker_occurrences",
    "classify_interval",
    "decompose_intervals",
    "check_swap_params",
    "apply_swap",
    "run_swap_trials",
]


@dataclass(frozen=True)
class SwapParams:
    """Marker repetition count n and Bernoulli 1-density p."""

    n: int
    p: Fraction

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("marker repetition count must be >= 1")
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p < 1:
            raise ValueError("density must satisfy 0 < p < 1")

    @property
    def marker(self) -> str:
        return "10" * self.n + "0"

    @property
    def marker_prob(self) -> Fraction:
        """Bernoulli-p probability of the marker word."""
        return self.p**self.n * (1 - self.p) ** (self.n + 1)

    @property
    def short_bound(self) -> int:
        """Intervals of length below ceil(2n/p) are short."""
        return math.ceil(Fraction(2 * self.n) / self.p)

    @property
    def medium_bound(self) -> int:
        """Intervals of length above ceil(n/marker_prob) + 2|marker| are long."""
        return math.ceil(Fraction(self.n) / self.marker_prob) + 2 * len(self.marker)

    @property
    def max_free_length(self) -> int:
        return self.medium_bound - len(self.marker)


def weight_bounds(length: int, p: Fraction) -> tuple[int, int]:
    """Sparse-family weight band [ceil(length*p/2), floor(3*length*p/2)]."""
    lo = math.ceil(Fraction(length) * p / 2)
    hi = math.floor(Fraction(3 * length) * p / 2)
    return lo, hi


# ---------------------------------------------------------------------------
# marker automaton and counting tables


def _factor_automaton(pattern: str) -> list[tuple[int, int]]:
    """KMP automaton of the pattern; state len(pattern) means 'occurred'."""
    m = len(pattern)
    fail = [0] * m
    k = 0
    for i in range(1, m):
        while k and pattern[i] != pattern[k]:
            k = fail[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        fail[i] = k
    delta = []
    for s in range(m):
        row = []
        for ch in "01":
            k = s
            while k and pattern[k] != ch:
                k = fail[k - 1]
            if pattern[k] == ch:
                k += 1
            row.append(k)
        delta.append((row[0], row[1]))
    return delta


class _MarkerEngine:
    """Shared DP tables for one avoided pattern and one weight cap.

    `layers[j][s][t]` counts pattern-free binary words of length j, read
    from automaton state s, with at most t ones (t clamped at the cap).
    Layers grow lazily; code tables for the dense family are per tail
    length (rem in 0..3) and grow by block count.
    """

    def __init__(self, pattern: str, max_weight: int):
        if not pattern or any(c not in "01" for c in pattern):
            raise ValueError("avoided pattern must be a nonempty binary word")
        self.pattern = pattern
        self.max_weight = max_weight
        self.states = len(pattern)
        self.delta = _factor_automaton(pattern)
        self.layers: list[list[list[int]]] = [
            [[1] for _ in range(self.states)]
        ]
        # code word scaffolding: advance through "110b" blocks and a 0-tail
        self._block_step: list[list[Optional[int]]] = []
        for s in range(self.states):
            row: list[Optional[int]] = []
            for bit in "01":
                row.append(self._advance(s, "110" + bit))
            self._block_step.append(row)
        self._code_layers: dict[int, list[list[int]]] = {}

    def _advance(self, state: int, text: str) -> Optional[int]:
        for ch in text:
            state = self.delta[state][ch == "1"]
            if state >= self.states:
                return None
        return state

    # -- sparse side -------------------------------------------------------

    def ensure(self, length: int) -> None:
        m = self.states
        delta = self.delta
        cap = self.max_weight
        while len(self.layers) <= length:
            j = len(self.layers)
            prev = self.layers[-1]
            tp = min(j - 1, cap)
            tc = min(j, cap)
            layer = []
            for s in range(m):
                s0, s1 = delta[s]
                p0 = prev[s0] if s0 < m else None
                p1 = prev[s1] if s1 < m else None
                row = []
                for t in range(tc + 1):
                    v = 0
                    if p0 is not None:
                        v += p0[t if t <= tp else tp]
                    if p1 is not None and t >= 1:
                        v += p1[t - 1 if t - 1 <= tp else tp]
                    row.append(v)
                layer.append(row)
            self.layers.append(layer)

    def count_le(self, j: int, s: int, t: int) -> int:
        if t < 0:
            return 0
        row = self.layers[j][s]
        return row[t] if t < len(row) else row[-1]

    def count_range(self, j: int, s: int, lo: int, hi: int) -> int:
        return self.count_le(j, s, hi) - self.count_le(j, s, lo - 1)

    def count(self, length: int, lo: int, hi: int) -> int:
        self.ensure(length)
        return self.count_range(length, 0, lo, hi)

    def rank(self, word: str, lo: int, hi: int) -> int:
        length = len(word)
        self.ensure(length)
        m = self.states
        delta = self.delta
        rank = 0
        s = 0
        w = 0
        for i, ch in enumerate(word):
            j = length - 1 - i
            s0, s1 = delta[s]
            if ch == "1":
                if s0 < m:
                    rank += self.count_range(j, s0, lo - w, hi - w)
                w += 1
                s = s1
            elif ch == "0":
                s = s0
            else:
                raise ValueError(f"not a binary word: {word!r}")
            if s >= m:
                raise ValueError("word contains the avoided pattern")
        if not lo <= w <= hi:
            raise ValueError(f"weight {w} outside [{lo}, {hi}]")
        return rank

    def unrank(self, length: int, index: int, lo: int, hi: int) -> str:
        total = self.count(length, lo, hi)
        if not 0 <= index < total:
            raise ValueError(f"index {index} out of range [0, {total})")
        m = self.states
        delta = self.delta
        out = []
        s = 0
        w = 0
        for i in range(length):
            j = length - 1 - i
            s0, s1 = delta[s]
            c0 = self.count_range(j, s0, lo - w, hi - w) if s0 < m else 0
            if index < c0:
                out.append("0")
                s = s0
            else:
                index -= c0
                out.append("1")
                w += 1
                s = s1
        assert index == 0 and lo <= w <= hi
        return "".join(out)

    # -- dense (code word) side ---------------------------------------------

    def _ensure_code(self, rem: int, blocks: int) -> list[list[int]]:
        layers = self._code_layers.get(rem)
        if layers is None:
            base = []
            for s in range(self.states):
                alive = self._advance(s, "0" * rem)
                base.append(1 if alive is not None else 0)
            layers = [base]
            self._code_layers[rem] = layers
        while len(layers) <= blocks:
            prev = layers[-1]
            layer = []
            for s in range(self.states):
                v = 0
                for bit in (0, 1):
                    nxt = self._block_step[s][bit]
                    if nxt is not None:
                        v += prev[nxt]
                layer.append(v)
            layers.append(layer)
        return layers

    def safe_dense_count(self, length: int) -> int:
        blocks, rem = divmod(length, 4)
        return self._ensure_code(rem, blocks)[blocks][0]

    def rank_dense_safe(self, word: str) -> int:
        bits = _dense_code_bits(word)
        if bits is None:
            raise ValueError("not a dense code word")
        blocks, rem = divmod(len(word), 4)
        layers = self._ensure_code(rem, blocks)
        rank = 0
        s = 0
        for i, bit in enumerate(bits):
            remaining = blocks - 1 - i
            s0 = self._block_step[s][0]
            if bit == "1":
                if s0 is not None:
                    rank += layers[remaining][s0]
                s = self._block_step[s][1]
            else:
                s = s0
            if s is None:
                raise ValueError("code word contains the avoided pattern")
        if self._advance(s, "0" * rem) is None:
            raise ValueError("code word contains the avoided pattern")
        return rank

    def unrank_dense_safe(self, length: int, index: int) -> str:
        blocks, rem = divmod(length, 4)
        layers = self._ensure_code(rem, blocks)
        if not 0 <= index < layers[blocks][0]:
            raise ValueError(
                f"index {index} out of range [0, {layers[blocks][0]})"
            )
        s = 0
        bits = []
        for i in range(blocks):
            remaining = blocks - 1 - i
            s0 = self._block_step[s][0]
            c0 = layers[remaining][s0] if s0 is not None else 0
            if index < c0:
                bits.append("0")
                s = s0
            else:
                index -= c0
                bits.append("1")
                s = self._block_step[s][1]
        assert index == 0
        return "".join("110" + b for b in bits) + "0" * rem


#: the most recently used engine only: a count table can take hundreds of MB
_ENGINES: dict[tuple[str, int], _MarkerEngine] = {}


def _engine(pattern: str, max_weight: int) -> _MarkerEngine:
    key = (pattern, max_weight)
    eng = _ENGINES.get(key)
    if eng is None:
        _ENGINES.clear()
        eng = _MarkerEngine(pattern, max_weight)
        _ENGINES[key] = eng
    return eng


def _params_engine(params: SwapParams) -> _MarkerEngine:
    _, hi = weight_bounds(params.max_free_length, params.p)
    return _engine(params.marker, max(hi, 0))


# ---------------------------------------------------------------------------
# public ranking API


def count_avoiding(pattern: str, length: int, min_weight: int, max_weight: int) -> int:
    """Number of pattern-free binary words of the length with bounded weight."""
    return _engine(pattern, max_weight).count(length, min_weight, max_weight)


def rank_avoiding(pattern: str, word: str, min_weight: int, max_weight: int) -> int:
    """Lexicographic rank of the word within the pattern-free weight family."""
    return _engine(pattern, max_weight).rank(word, min_weight, max_weight)


def unrank_avoiding(
    pattern: str, length: int, index: int, min_weight: int, max_weight: int
) -> str:
    return _engine(pattern, max_weight).unrank(length, index, min_weight, max_weight)


def sparse_count(params: SwapParams, length: int) -> int:
    lo, hi = weight_bounds(length, params.p)
    return _params_engine(params).count(length, lo, hi)


def rank_sparse(params: SwapParams, word: str) -> int:
    """Rank within the sparse family of the word's own length."""
    lo, hi = weight_bounds(len(word), params.p)
    return _params_engine(params).rank(word, lo, hi)


def unrank_sparse(params: SwapParams, length: int, index: int) -> str:
    lo, hi = weight_bounds(length, params.p)
    return _params_engine(params).unrank(length, index, lo, hi)


def _dense_code_bits(word: str) -> Optional[str]:
    blocks, rem = divmod(len(word), 4)
    if word[4 * blocks :] != "0" * rem:
        return None
    bits = []
    for i in range(blocks):
        piece = word[4 * i : 4 * i + 4]
        if piece[:3] != "110" or piece[3] not in "01":
            return None
        bits.append(piece[3])
    return "".join(bits)


def dense_size(length: int) -> int:
    """Size 2^(length//4) of the full dense code family."""
    return 1 << (length // 4)


def rank_dense(word: str) -> int:
    """Code bits of a dense word read as a binary number (full family)."""
    bits = _dense_code_bits(word)
    if bits is None:
        raise ValueError(f"not a dense code word: {word!r}")
    return int(bits, 2) if bits else 0


def unrank_dense(length: int, index: int) -> str:
    """Dense code word of the length whose code bits spell the index."""
    blocks, rem = divmod(length, 4)
    if not 0 <= index < (1 << blocks):
        raise ValueError(f"index {index} out of range [0, {1 << blocks})")
    bits = format(index, f"0{blocks}b") if blocks else ""
    return "".join("110" + b for b in bits) + "0" * rem


def safe_dense_count(params: SwapParams, length: int) -> int:
    """Dense code words of the length that avoid the marker."""
    return _params_engine(params).safe_dense_count(length)


def rank_dense_safe(params: SwapParams, word: str) -> int:
    return _params_engine(params).rank_dense_safe(word)


def unrank_dense_safe(params: SwapParams, length: int, index: int) -> str:
    return _params_engine(params).unrank_dense_safe(length, index)


# ---------------------------------------------------------------------------
# interval decomposition


@dataclass(frozen=True)
class Interval:
    start: int  # position of the opening marker occurrence
    length: int  # distance to the next occurrence (or window end if incomplete)
    kind: str  # "short" | "medium" | "long"
    complete: bool


@dataclass(frozen=True)
class IntervalDecomposition:
    window: str
    occurrences: tuple[int, ...]
    intervals: tuple[Interval, ...]


def marker_occurrences(window: str, marker: str) -> list[int]:
    """All (possibly overlapping) occurrence positions of the marker."""
    out = []
    i = window.find(marker)
    while i != -1:
        out.append(i)
        i = window.find(marker, i + 1)
    return out


def classify_interval(length: int, params: SwapParams) -> str:
    if length < params.short_bound:
        return "short"
    if length <= params.medium_bound:
        return "medium"
    return "long"


def decompose_intervals(window: str, params: SwapParams) -> IntervalDecomposition:
    """Split a window into marker-bounded intervals with classes.

    Only intervals bounded by two occurrences inside the window are
    complete; the trailing piece after the last occurrence is reported as
    incomplete.  Content before the first occurrence belongs to no interval.
    """
    occ = marker_occurrences(window, params.marker)
    intervals = []
    for a, b in zip(occ, occ[1:]):
        intervals.append(
            Interval(a, b - a, classify_interval(b - a, params), True)
        )
    if occ:
        tail = len(window) - occ[-1]
        intervals.append(
            Interval(occ[-1], tail, classify_interval(tail, params), False)
        )
    return IntervalDecomposition(window, tuple(occ), tuple(intervals))


# ---------------------------------------------------------------------------
# parameter validity


@dataclass(frozen=True)
class SwapParamsReport:
    valid: bool
    vacuous: bool  # True when no medium free-part length exists
    min_free_length: int
    max_free_length: int
    reasons: tuple[str, ...]


#: refuse parameters whose sparse count table would hold more big-int cells
MAX_SWAP_TABLE_CELLS = 1 << 23


@lru_cache(maxsize=16)
def check_swap_params(params: SwapParams) -> SwapParamsReport:
    """Check that the swap map is well defined for these parameters.

    For every medium free-part length l this requires the sparse/dense
    weight separation 3*l*p/2 < 2*(l//4) (so the families are disjoint) and
    an injective encoding |sparse(l)| <= |safe dense(l)|, counted exactly.
    Refuses, before building it, a count table of more than
    MAX_SWAP_TABLE_CELLS cells: |marker| rows of min(j, cap) + 1 per length j.
    """
    mlen = len(params.marker)
    lo_l = max(params.short_bound - mlen, 0)
    hi_l = params.max_free_length
    if lo_l > hi_l:
        return SwapParamsReport(
            valid=True,
            vacuous=True,
            min_free_length=0,
            max_free_length=-1,
            reasons=("no medium intervals for these parameters",),
        )
    cap = max(weight_bounds(hi_l, params.p)[1], 0)
    k = min(hi_l, cap)
    cells = mlen * ((k + 1) * (k + 2) // 2 + (hi_l - k) * (cap + 1))
    if cells > MAX_SWAP_TABLE_CELLS:
        raise ValueError(
            f"swap count table of {cells} cells exceeds limit {MAX_SWAP_TABLE_CELLS}"
        )
    engine = _params_engine(params)
    engine.ensure(hi_l)
    reasons: list[str] = []
    for l in range(lo_l, hi_l + 1):
        lo, hi = weight_bounds(l, params.p)
        if not Fraction(3 * l) * params.p / 2 < 2 * (l // 4):
            reasons.append(
                f"weight bound fails at free length {l}: "
                f"3*l*p/2 = {Fraction(3 * l) * params.p / 2} >= {2 * (l // 4)}"
            )
        elif engine.count(l, lo, hi) > engine.safe_dense_count(l):
            reasons.append(
                f"injectivity fails at free length {l}: "
                f"{engine.count(l, lo, hi)} sparse words vs "
                f"{engine.safe_dense_count(l)} safe dense words"
            )
        if len(reasons) >= 3:
            break
    return SwapParamsReport(
        valid=not reasons,
        vacuous=False,
        min_free_length=lo_l,
        max_free_length=hi_l,
        reasons=tuple(reasons),
    )


# ---------------------------------------------------------------------------
# the swap map


@dataclass(frozen=True)
class SwapStats:
    occurrences: int
    complete: int
    medium: int
    to_dense: int
    to_sparse: int
    dense_spans: tuple[tuple[int, int], ...]  # rewritten free parts now in code form


def _apply_swap_details(window: str, params: SwapParams) -> tuple[str, SwapStats]:
    engine = _params_engine(params)
    marker = params.marker
    mlen = len(marker)
    occ = marker_occurrences(window, marker)
    out = list(window)
    complete = medium = to_dense = to_sparse = 0
    dense_spans = []
    for a, b in zip(occ, occ[1:]):
        complete += 1
        k = b - a
        if classify_interval(k, params) != "medium" or k < mlen:
            continue
        medium += 1
        l = k - mlen
        v = window[a + mlen : b]
        lo, hi = weight_bounds(l, params.p)
        bits = _dense_code_bits(v)
        if bits is not None:
            try:
                idx = engine.rank_dense_safe(v)
            except ValueError:
                continue  # code word containing the marker cannot occur here
            if idx < engine.count(l, lo, hi):
                out[a + mlen : b] = engine.unrank(l, idx, lo, hi)
                to_sparse += 1
        elif lo <= v.count("1") <= hi:
            idx = engine.rank(v, lo, hi)
            out[a + mlen : b] = engine.unrank_dense_safe(l, idx)
            to_dense += 1
            dense_spans.append((a + mlen, b))
    stats = SwapStats(
        occurrences=len(occ),
        complete=complete,
        medium=medium,
        to_dense=to_dense,
        to_sparse=to_sparse,
        dense_spans=tuple(dense_spans),
    )
    return "".join(out), stats


def apply_swap(window: str, params: SwapParams) -> str:
    """Apply the interval swap map to a binary window.

    Incomplete intervals and non-medium intervals are untouched; the output
    has the window's length.  The parameters are checked once (cached) and
    rejected if the map would not be a well-defined involution.
    """
    if any(c not in "01" for c in window):
        raise ValueError("window must be a binary word")
    report = check_swap_params(params)
    if not report.valid:
        raise ValueError("invalid swap parameters: " + "; ".join(report.reasons))
    return _apply_swap_details(window, params)[0]


# ---------------------------------------------------------------------------
# seeded experiment trials


@dataclass(frozen=True)
class SwapTrial:
    index: int
    occurrences: int
    complete: int
    medium: int
    to_dense: int
    to_sparse: int
    involution_ok: bool
    occurrences_conserved: bool
    quad_free: bool  # no 1111 inside any freshly written dense free part
    max_dense_run: int  # longest 1-run inside those parts (diagnostic)


def _max_run(text: str, ch: str) -> int:
    best = cur = 0
    for c in text:
        cur = cur + 1 if c == ch else 0
        if cur > best:
            best = cur
    return best


def _run_trial(index: int, params: SwapParams, seed: int, length: int) -> SwapTrial:
    rng = SplitMix64.for_index(seed, index)
    window = bernoulli_word(rng, length, params.p)
    once, stats = _apply_swap_details(window, params)
    twice, _ = _apply_swap_details(once, params)
    marker = params.marker
    conserved = marker_occurrences(window, marker) == marker_occurrences(once, marker)
    quad_free = True
    max_run = 0
    for s, e in stats.dense_spans:
        piece = once[s:e]
        run = _max_run(piece, "1")
        max_run = max(max_run, run)
        if run >= 4:
            quad_free = False
    return SwapTrial(
        index=index,
        occurrences=stats.occurrences,
        complete=stats.complete,
        medium=stats.medium,
        to_dense=stats.to_dense,
        to_sparse=stats.to_sparse,
        involution_ok=twice == window,
        occurrences_conserved=conserved,
        quad_free=quad_free,
        max_dense_run=max_run,
    )


def _trial_range(
    params: SwapParams, seed: int, length: int, lo: int, hi: int
) -> list[SwapTrial]:
    return [_run_trial(i, params, seed, length) for i in range(lo, hi)]


def run_swap_trials(
    params: SwapParams,
    count: int,
    seed: int,
    window_length: Optional[int] = None,
    jobs: int = 1,
) -> list[SwapTrial]:
    """Run seeded random-window trials of the swap map.

    Each trial draws a Bernoulli(p) window from its own stream (seed,
    index), applies the map twice, and checks the involution, occurrence
    conservation, and the absence of 1111 inside freshly coded free parts.
    Results are independent of the job count.
    """
    report = check_swap_params(params)
    if not report.valid:
        raise ValueError("invalid swap parameters: " + "; ".join(report.reasons))
    if window_length is None:
        window_length = 3 * params.medium_bound
    # build the table before workers fork: the report is cached, but its
    # engine may have been evicted since, and no free part outgrows the window
    _params_engine(params).ensure(min(report.max_free_length, window_length))
    parts = map_ranges(_trial_range, count, jobs, params, seed, window_length)
    return [trial for part in parts for trial in part]
