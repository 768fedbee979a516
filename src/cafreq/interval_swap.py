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

Sparse ranking and counting read a lazily grown table with one row of
big-integer counts per length, the one table a process holds: the
generating function of the marker-free words read from any state of the
marker automaton is a short numerator over one shared denominator, so a
count from any state is a few signed reads of the rows of 1/denominator,
and from the start state, for the marker, one read.  Rank and
unrank cost O(weight * log length) table lookups: along a run of zeros the
automaton soon reaches a state that a 0 leaves unchanged, and from there
the whole run is found by one search.  The marker-free code words need no
table: they are the code words whose code bits are free bits followed by a
fixed suffix, so a safe rank is the free bits read as a binary number.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

from .rng import SplitMix64, bernoulli_word, map_ranges
from .rules import check_size, size_text

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

    # cached: classify_interval reads the bounds once per interval
    @cached_property
    def marker_prob(self) -> Fraction:
        """Bernoulli-p probability of the marker word."""
        return self.p**self.n * (1 - self.p) ** (self.n + 1)

    @cached_property
    def short_bound(self) -> int:
        """Intervals of length below ceil(2n/p) are short."""
        return math.ceil(Fraction(2 * self.n) / self.p)

    @cached_property
    def medium_bound(self) -> int:
        """Intervals of length above ceil(n/marker_prob) + 2|marker| are long."""
        return math.ceil(Fraction(self.n) / self.marker_prob) + 2 * len(self.marker)

    @property
    def max_free_length(self) -> int:
        return self.medium_bound - len(self.marker)


def weight_bounds(length: int, p: Fraction) -> tuple[int, int]:
    """Sparse-family weight band [ceil(length*p/2), floor(3*length*p/2)]."""
    num, den = p.numerator, 2 * p.denominator
    return -(-length * num // den), 3 * length * num // den


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


def _series_terms(pattern: str) -> tuple[tuple, list[tuple]]:
    """Den and the numerators N_s of the pattern-free generating functions.

    The words w for which P[:s] + w holds no P, each weighted
    x^len(w) y^wt(w) with wt counting the 1s, have the generating function
    N_s / Den (Guibas and Odlyzko 1981), with
      Den = x^m y^wt(P) + (1 - x - x y) c,
    m = |P| and c the autocorrelation polynomial: a term x^(m-e) y^wt(P[e:])
    for every border length e of P, e = m included.  N_0 = c, and
    N_s = c - E_s, where E_s has a term x^(2m-b-e) y^(wt(P[b:]) + wt(P[e:]))
    for each b in 1..s such that P[:s] ends with P[:b] and P[:s] + P[b:]
    first holds P at its end, and each border length e > m - b.  Both come
    back as (k, w, coef) terms, coef x^k y^w, sorted by k.

    Den starts with the term 1, and its other coefficients are -1 or 1: c
    has one term per power of x below x^m, so (1 - x - x y) c has
    coefficients -1, 0 and 1, and only -1 at x^m, where x^m y^wt(P) lands.
    """
    m = len(pattern)
    wt = [pattern[e:].count("1") for e in range(m + 1)]
    borders = [e for e in range(1, m + 1) if pattern[:e] == pattern[m - e :]]
    corr = {(m - e, wt[e]): 1 for e in borders}
    den = {(m, wt[0]): 1}
    for k, w in corr:
        for key, coef in (((k, w), 1), ((k + 1, w), -1), ((k + 1, w + 1), -1)):
            den[key] = den.get(key, 0) + coef
    numerators = []
    for s in range(m):
        num = dict(corr)
        for b in range(1, s + 1):
            if not pattern[:s].endswith(pattern[:b]):
                continue
            if pattern in (pattern[:s] + pattern[b:])[:-1]:
                continue
            for e in borders:
                if e > m - b:
                    key = (2 * m - b - e, wt[b] + wt[e])
                    num[key] = num.get(key, 0) - 1
        numerators.append(_sorted_terms(num))
    return _sorted_terms(den), numerators


#: the numerator 1, which count_range reads with one row lookup
_UNIT = ((0, 0, 1),)


def _sorted_terms(poly: dict[tuple[int, int], int]) -> tuple[tuple[int, int, int], ...]:
    terms = tuple(sorted((k, w, coef) for (k, w), coef in poly.items() if coef))
    return _UNIT if terms == _UNIT else terms


#: refuse a sparse count table of more big-integer cells than this
MAX_SWAP_TABLE_CELLS = (1 << 23) // 5


def _check_table_size(length: int, cap: int) -> None:
    """Refuse, before it is built, a count table over MAX_SWAP_TABLE_CELLS.

    The table for lengths 0..length holds min(j, cap) + 1 cells per length
    j; a negative cap is counted as 0.
    """
    cap = max(cap, 0)
    k = min(length, cap)
    cells = (k + 1) * (k + 2) // 2 + (length - k) * (cap + 1)
    check_size(MAX_SWAP_TABLE_CELLS, "swap count table of {size} cells", cells)


class _MarkerEngine:
    """The count table of one avoided pattern and one weight cap.

    `rows[j][t]` is the sum of the coefficients of x^j y^u, u <= t, in
    G = 1/Den (see _series_terms), for t <= min(j, cap).  The words of
    length j read from automaton state s with at most t ones, t clamped at
    the cap, number sum coef * rows[j - k][t - w] over the terms of N_s,
    each read clamped at its row's end and 0 off the table.  For a pattern
    without proper borders, such as every marker (10)^n 0, c = 1, so N_0 = 1
    and state 0 reads one row.  Rows grow lazily and never change.
    """

    def __init__(self, pattern: str, max_weight: int):
        if not pattern or any(c not in "01" for c in pattern):
            raise ValueError("avoided pattern must be a nonempty binary word")
        self.pattern = pattern
        self.max_weight = max_weight
        self.states = len(pattern)
        self.delta = _factor_automaton(pattern)
        den, self.numerators = _series_terms(pattern)
        # G * Den = 1: G(j, t) = -sum coef G(j - k, t - w) over Den's terms but 1
        self.recurrence = [(k, w, -coef) for k, w, coef in den if k]
        self.rows: list[list[int]] = [[1]]

    def ensure(self, length: int) -> None:
        rows = self.rows
        if len(rows) > length:
            return
        cap = self.max_weight
        _check_table_size(length, cap)
        if cap < 0:  # no word has fewer than 0 ones
            while len(rows) <= length:
                rows.append([])
            return
        add, sub = operator.add, operator.sub
        while len(rows) <= length:
            j = len(rows)
            size = min(j, cap) + 1
            row = None
            for k, w, coef in self.recurrence:
                if k > j:
                    break
                if w >= size:
                    continue
                # rows[j - k][t - w] for t < size: 0 below w, the last cell past the end
                src = rows[j - k]
                part = src[: size - w]
                if len(part) < size - w:
                    part += [part[-1]] * (size - w - len(part))
                if w:
                    part = [0] * w + part
                if row is None:
                    row = part if coef > 0 else [-v for v in part]
                else:
                    row = list(map(add if coef > 0 else sub, row, part))
            rows.append(row if row is not None else [0] * size)

    def count_range(self, j: int, s: int, lo: int, hi: int) -> int:
        """Words of length j read from state s with lo..hi ones."""
        cap = self.max_weight
        if hi > cap:  # a row ends at the cap: more ones count as the cap
            hi = cap
        below = (lo if lo <= cap else cap + 1) - 1  # the count of at most `below` ones goes
        terms = self.numerators[s]
        if terms is _UNIT:  # N_s = 1: one row, two reads
            row = self.rows[j]
            top = len(row) - 1
            count = row[hi if hi < top else top] if hi >= 0 else 0
            if below >= 0:
                count -= row[below if below < top else top]
            return count
        rows = self.rows
        count = 0
        for k, w, coef in terms:
            if k > j:
                break
            row = rows[j - k]
            top = len(row) - 1
            t = hi - w
            c = row[t if t < top else top] if t >= 0 else 0
            t = below - w
            if t >= 0:
                c -= row[t if t < top else top]
            count += coef * c
        return count

    def count(self, length: int, lo: int, hi: int) -> int:
        self.ensure(length)
        return self.count_range(length, 0, lo, hi)

    def rank(self, word: str, lo: int, hi: int) -> int:
        """Lexicographic rank; visits only the 1s and the zeros that move the state."""
        length = len(word)
        self.ensure(length)
        m = self.states
        delta = self.delta
        # a non-binary character is reported once the walk reaches it, so a
        # pattern occurrence before it is reported first
        end = length
        if word.count("0") + word.count("1") != length:
            end = next(i for i, ch in enumerate(word) if ch not in "01")
        rank = 0
        s = 0
        w = 0
        i = 0
        while True:
            k = word.find("1", i, end)
            zeros = (end if k < 0 else k) - i
            # past a state that a 0 keeps, zeros change nothing
            while zeros and delta[s][0] != s:
                s = delta[s][0]
                zeros -= 1
                if s >= m:
                    raise ValueError("word contains the avoided pattern")
            if k < 0:
                break
            s0, s1 = delta[s]
            if s0 < m:
                rank += self.count_range(length - 1 - k, s0, lo - w, hi - w)
            w += 1
            s = s1
            if s >= m:
                raise ValueError("word contains the avoided pattern")
            i = k + 1
        if end < length:
            raise ValueError(f"not a binary word: {word!r}")
        if not lo <= w <= hi:
            raise ValueError(f"weight {w} outside [{lo}, {hi}]")
        return rank

    def unrank(self, length: int, index: int, lo: int, hi: int) -> str:
        """Word of the given rank; a run of zeros costs O(log run) lookups.

        At a state s that a 0 keeps, a 0 followed by k more cells leaves
        c(k) = count_range(k, s, lo - w, hi - w) words, and c never
        decreases with k: a 0 in front of a valid word keeps it valid.  So
        the next 1 sits where k is the largest one with c(k) <= index,
        found by galloping down from the current position and then
        bisecting; every cell before it is a 0.
        """
        total = self.count(length, lo, hi)
        if not 0 <= index < total:
            raise ValueError(f"index {size_text(index)} out of range [0, {size_text(total)})")
        m = self.states
        delta = self.delta
        count_range = self.count_range
        out = []
        s = 0
        w = 0
        left = length  # cells still to place
        while left:
            j = left - 1  # cells after the next one
            s0, s1 = delta[s]
            if s0 != s:
                c0 = count_range(j, s0, lo - w, hi - w) if s0 < m else 0
                if index < c0:
                    out.append("0")
                    s = s0
                else:
                    index -= c0
                    out.append("1")
                    w += 1
                    s = s1
                left = j
                continue
            a, b = lo - w, hi - w
            k, ck = j, count_range(j, s, a, b)
            if ck > index:
                # gallop to c(k) <= index < c(top), then bisect; c(-1) = 0
                top, step = j, 1
                while True:
                    k = top - step
                    if k < 0:
                        k, ck = -1, 0
                        break
                    ck = count_range(k, s, a, b)
                    if ck <= index:
                        break
                    top, step = k, 2 * step
                while top - k > 1:
                    mid = (k + top) // 2
                    c = count_range(mid, s, a, b)
                    if c <= index:
                        k, ck = mid, c
                    else:
                        top = mid
                out.append("0" * (j - k))
                if k < 0:
                    break
            index -= ck
            out.append("1")
            w += 1
            s = s1
            left = k
        assert index == 0 and lo <= w <= hi
        return "".join(out)


#: the most recently used engine only: the canonical table takes about 100 MB
_ENGINES: dict[tuple[str, int], _MarkerEngine] = {}


def _engine(pattern: str, max_weight: int, length: int = 0) -> _MarkerEngine:
    """The engine of (pattern, max_weight), its count table grown to length.

    A new engine evicts the cached one, and is cached only once its table
    has been accepted and built.
    """
    if length < 0:
        raise ValueError(f"length {length} is negative")
    key = (pattern, max_weight)
    eng = _ENGINES.get(key)
    if eng is None:
        _ENGINES.clear()
        eng = _MarkerEngine(pattern, max_weight)
    eng.ensure(length)
    _ENGINES[key] = eng
    return eng


def _params_engine(params: SwapParams, length: int = 0) -> _MarkerEngine:
    _, hi = weight_bounds(params.max_free_length, params.p)
    return _engine(params.marker, max(hi, 0), length)


# ---------------------------------------------------------------------------
# public ranking API


def count_avoiding(pattern: str, length: int, min_weight: int, max_weight: int) -> int:
    """Number of pattern-free binary words of the length with bounded weight."""
    return _engine(pattern, max_weight, length).count(length, min_weight, max_weight)


def rank_avoiding(pattern: str, word: str, min_weight: int, max_weight: int) -> int:
    """Lexicographic rank of the word within the pattern-free weight family."""
    return _engine(pattern, max_weight, len(word)).rank(word, min_weight, max_weight)


def unrank_avoiding(
    pattern: str, length: int, index: int, min_weight: int, max_weight: int
) -> str:
    return _engine(pattern, max_weight, length).unrank(
        length, index, min_weight, max_weight
    )


def sparse_count(params: SwapParams, length: int) -> int:
    lo, hi = weight_bounds(length, params.p)
    return _params_engine(params, length).count(length, lo, hi)


def rank_sparse(params: SwapParams, word: str) -> int:
    """Rank within the sparse family of the word's own length."""
    lo, hi = weight_bounds(len(word), params.p)
    return _params_engine(params, len(word)).rank(word, lo, hi)


def unrank_sparse(params: SwapParams, length: int, index: int) -> str:
    lo, hi = weight_bounds(length, params.p)
    return _params_engine(params, length).unrank(length, index, lo, hi)


def _dense_code_bits(word: str) -> Optional[str]:
    """Code bits of a dense code word (blocks 110b, then a 0-tail), or None."""
    blocks, rem = divmod(len(word), 4)
    end = 4 * blocks
    ones = "1" * blocks
    bits = word[3:end:4]
    if (
        word[0:end:4] != ones
        or word[1:end:4] != ones
        or word[2:end:4] != "0" * blocks
        or word[end:] != "0" * rem
        or bits.strip("01")  # a character other than 0 and 1 stops the strip
    ):
        return None
    return bits


def _safe_code_shape(n: int, length: int) -> Optional[tuple[int, str]]:
    """Marker-free dense code words of the length as (free, suffix), or None.

    They are the code words whose code bits are `free` arbitrary bits
    followed by `suffix`.  For n >= 2 the marker (10)^n 0 needs the factor
    1010, which a code word holds only where a last code bit 1 meets the
    0-tail; (10)^2 0 also needs two tail zeros, and (10)^3 0 fits nowhere.
    For n = 1 the marker 100 ends at every code bit 0, and at the second
    tail zero after a last code bit 1.
    """
    if length < 0:
        raise ValueError(f"length {length} is negative")
    blocks, rem = divmod(length, 4)
    if n >= 3 or blocks == 0 or (n == 2 and rem < 2):
        return blocks, ""
    if n == 2:
        return blocks - 1, "0"
    return (0, "1" * blocks) if rem < 2 else None


def safe_dense_count(params: SwapParams, length: int) -> int:
    """Dense code words of the length that avoid the marker."""
    shape = _safe_code_shape(params.n, length)
    return 0 if shape is None else 1 << shape[0]


def _rank_safe_code_bits(n: int, bits: str, rem: int) -> int:
    """Rank among the marker-free code words of these code bits and rem."""
    shape = _safe_code_shape(n, 4 * len(bits) + rem)
    if shape is None or not bits.endswith(shape[1]):
        raise ValueError("code word contains the avoided pattern")
    free = shape[0]
    return int(bits[:free], 2) if free else 0


def rank_dense_safe(params: SwapParams, word: str) -> int:
    bits = _dense_code_bits(word)
    if bits is None:
        raise ValueError("not a dense code word")
    return _rank_safe_code_bits(params.n, bits, len(word) % 4)


#: code bit -> its block 110b, for str.translate
_CODE_BLOCKS = {ord("0"): "1100", ord("1"): "1101"}


def unrank_dense_safe(params: SwapParams, length: int, index: int) -> str:
    total = safe_dense_count(params, length)
    if not 0 <= index < total:
        raise ValueError(f"index {size_text(index)} out of range [0, {size_text(total)})")
    free, suffix = _safe_code_shape(params.n, length)
    # the code bits are the index in `free` binary digits, then the suffix
    bits = (format(index, f"0{free}b") if free else "") + suffix
    return bits.translate(_CODE_BLOCKS) + "0" * (length % 4)


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


@lru_cache(maxsize=16)
def check_swap_params(params: SwapParams) -> SwapParamsReport:
    """Check that the swap map is well defined for these parameters.

    For every medium free-part length l this requires the sparse/dense
    weight separation 3*l*p/2 < 2*(l//4) (so the families are disjoint) and
    an injective encoding |sparse(l)| <= |safe dense(l)|, counted exactly.
    Refuses, before building it, a count table of more than
    MAX_SWAP_TABLE_CELLS cells (_check_table_size).
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
    # refused before the cached engine is touched
    _check_table_size(hi_l, max(weight_bounds(hi_l, params.p)[1], 0))
    engine = _params_engine(params, hi_l)
    reasons: list[str] = []
    num, den = params.p.numerator, params.p.denominator
    for l in range(lo_l, hi_l + 1):
        lo, hi = weight_bounds(l, params.p)
        if 3 * l * num >= 4 * (l // 4) * den:  # 3*l*p/2 >= 2*(l//4), in integers
            reasons.append(
                f"weight bound fails at free length {l}: "
                f"3*l*p/2 = {Fraction(3 * l) * params.p / 2} >= {2 * (l // 4)}"
            )
        elif engine.count(l, lo, hi) > safe_dense_count(params, l):
            reasons.append(
                f"injectivity fails at free length {l}: "
                f"{engine.count(l, lo, hi)} sparse words vs "
                f"{safe_dense_count(params, l)} safe dense words"
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
                idx = _rank_safe_code_bits(params.n, bits, l % 4)
            except ValueError:
                continue  # code word containing the marker cannot occur here
            if idx < engine.count(l, lo, hi):
                out[a + mlen : b] = engine.unrank(l, idx, lo, hi)
                to_sparse += 1
        elif lo <= v.count("1") <= hi:
            idx = engine.rank(v, lo, hi)
            out[a + mlen : b] = unrank_dense_safe(params, l, idx)
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


def _max_run(word: str) -> int:
    """Length of the longest run of 1s in a binary word."""
    return max(map(len, word.split("0")))


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
        run = _max_run(piece)
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
    if count < 0:
        raise ValueError(f"window count {count} is negative")
    if window_length is not None and window_length < 0:
        raise ValueError(f"window length {window_length} is negative")
    report = check_swap_params(params)
    if not report.valid:
        raise ValueError("invalid swap parameters: " + "; ".join(report.reasons))
    if window_length is None:
        window_length = 3 * params.medium_bound
    # build the table before workers fork: the report is cached, but its
    # engine may have been evicted since, and no free part outgrows the window;
    # vacuous parameters report max_free_length -1 and need only the empty row
    _params_engine(params, max(min(report.max_free_length, window_length), 0))
    parts = map_ranges(_trial_range, count, jobs, params, seed, window_length)
    return [trial for part in parts for trial in part]
