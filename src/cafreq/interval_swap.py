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

Sparse ranking and counting read a lazily grown table, the one table a
process holds, with one column of big-integer counts per weight up to a
cap: the generating function of the marker-free words read from any state
of the marker automaton is a short numerator over one shared denominator,
so a count from any state is a few signed reads of the columns of
1/denominator, and from the start state, for the marker, one read.  Along
a run of zeros the automaton soon reaches a state that a 0 leaves
unchanged; from there unrank finds the whole run by bisecting a column in
C.  Each state's zero chain, the zeros that lead it to such a state,
lets unrank test the zeros after a 1 with one count from that state,
two column reads, instead of deciding them one at a time.  The
marker-free code words need no table: they are the code words whose code
bits are free bits followed by a fixed suffix, so a safe rank is the free
bits read as a binary number, and a code word is those bits spelled as
one hexadecimal number, block 110b being the digit c + b.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

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
        """Intervals of length below ceil(2n/p) are short.

        As p < 1, the bound is at least 2n + 1, the marker's length, so every
        medium interval holds its opening marker whole.
        """
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

#: refuse a longer avoided pattern: its automaton and series terms cost
#: about the cube of its length before any table is built
MAX_PATTERN_LENGTH = 128


def _check_table_size(length: int, cap: int) -> None:
    """Refuse, before it is built, a count table over MAX_SWAP_TABLE_CELLS.

    The table for lengths 0..length holds cap + 1 columns of length + 1
    cells; a negative cap holds none.
    """
    cells = max(cap + 1, 0) * (length + 1)
    check_size(MAX_SWAP_TABLE_CELLS, "swap count table of {size} cells", cells)


class _MarkerEngine:
    """The count table of one avoided pattern and one weight cap.

    `cols[t][j]` is the sum of the coefficients of x^j y^u, u <= t, in
    G = 1/Den (see _series_terms), for t <= cap and every length j built.
    The words of length j read from automaton state s with at most t ones,
    t clamped at the cap, number sum coef * cols[t - w][j - k] over the
    terms of N_s, each read 0 off the table.  For a pattern without proper
    borders, such as every marker (10)^n 0, c = 1, so N_0 = 1 and state 0
    reads one column.  Columns grow lazily, and built cells never change.
    `chains[s]` is the zero chain of state s (see `_zero_chain`), which
    unrank follows after every 1.
    """

    def __init__(self, pattern: str, max_weight: int):
        if not pattern or any(c not in "01" for c in pattern):
            raise ValueError("avoided pattern must be a nonempty binary word")
        check_size(MAX_PATTERN_LENGTH, "avoided pattern of {size} letters", len(pattern))
        self.pattern = pattern
        self.max_weight = max_weight
        self.states = len(pattern)
        self.delta = _factor_automaton(pattern)
        den, self.numerators = _series_terms(pattern)
        # G * Den = 1: G(j, t) = -sum coef G(j - k, t - w) over Den's terms
        # but 1.  Den's only term with w = 0 is -x, absent for 0^m: then
        # G(j, t) = G(j - 1, t) + the rest, one running sum down a column
        self.recurrence = [(k, w, -coef) for k, w, coef in den if w]
        self.running = (1, 0, -1) in den
        self.chains = [self._zero_chain(s) for s in range(self.states)]
        self.cols: list[list[int]] = [[] for _ in range(max_weight + 1)]
        self.length = -1  # the longest length built

    def _zero_chain(self, s: int) -> Optional[tuple[int, int]]:
        """(d, z) when d >= 0 zeros take state s to a state z that a 0 keeps
        and whose numerator is 1, passing no pattern occurrence; else None.

        The walk ends: after m zeros the state is the longest run of zeros
        that the pattern begins with, which a 0 keeps, or the pattern 0^m
        has occurred.
        """
        delta = self.delta
        d = 0
        while s < self.states and delta[s][0] != s:
            s = delta[s][0]
            d += 1
        if s < self.states and self.numerators[s] is _UNIT:
            return d, s
        return None

    def ensure(self, length: int) -> None:
        start, stop = self.length + 1, length + 1
        if start >= stop:
            return
        cols = self.cols
        for t, col in enumerate(cols):
            if t:
                # no word of length j < t has t ones: G(j, t) = G(j, t - 1)
                col += cols[t - 1][start:min(t, stop)]
            elif not start:
                col.append(1)  # G(0, 0)
            j0 = len(col)
            if j0 == stop:
                continue
            rest = None
            for k, w, coef in self.recurrence:
                if w > t or k >= stop:
                    continue
                # cols[t - w][j - k] for j0 <= j < stop, 0 below length 0
                src = cols[t - w]
                part = src[j0 - k : stop - k] if j0 >= k else [0] * (k - j0) + src[: stop - k]
                if rest is None:
                    rest = part if coef > 0 else map(operator.neg, part)
                else:
                    rest = map(operator.add if coef > 0 else operator.sub, rest, part)
            if rest is None:
                rest = itertools.repeat(0, stop - j0)
            if self.running:
                sums = itertools.islice(itertools.accumulate(rest, initial=col[-1]), 1, None)
                # CPython gives a sum of two positive ints a spare digit and
                # a difference none: x - 0 stores x at its exact size, 2-3 MB
                # less at the canonical parameters
                rest = map(operator.sub, sums, itertools.repeat(0))
            # a list, unlike an iterator, extends a long column at its exact size
            col += list(rest)
        self.length = length

    def count_range(self, j: int, s: int, lo: int, hi: int) -> int:
        """Words of length j read from state s with lo..hi ones."""
        cap = self.max_weight
        if hi > cap:  # a column past the cap counts as the cap's
            hi = cap
        below = (lo if lo <= cap else cap + 1) - 1  # the count of at most `below` ones goes
        cols = self.cols
        terms = self.numerators[s]
        if terms is _UNIT:  # N_s = 1: one column, two reads
            count = cols[hi][j] if hi >= 0 else 0
            if below >= 0:
                count -= cols[below][j]
            return count
        count = 0
        for k, w, coef in terms:
            if k > j:
                break
            t = hi - w
            c = cols[t][j - k] if t >= 0 else 0
            t = below - w
            if t >= 0:
                c -= cols[t][j - k]
            count += coef * c
        return count

    def count(self, length: int, lo: int, hi: int) -> int:
        self.ensure(length)
        return self.count_range(length, 0, lo, hi)

    def rank(self, word: str, lo: int, hi: int) -> int:
        """Lexicographic rank; visits only the 1s and the zeros that move the state.

        Each 1 adds the words that put a 0 there instead, one `count_range`;
        from a state whose numerator is 1 that is two column reads.
        """
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
        """Word of the given rank; a run of zeros costs one or two C bisections.

        At a state s that a 0 keeps and whose numerator is 1, a 0 followed
        by k more cells leaves c(k) = count_range(k, s, lo - w, hi - w)
        words, and c never decreases with k: a 0 in front of a valid word
        keeps it valid.  So the next 1 sits where k is the largest one with
        c(k) <= index, and every cell before it is a 0.  With a..b ones
        still to place, c(k) is cols[b][k] when a <= 0, one bisection of
        cols[b].  Otherwise it is cols[b][k] - cols[a - 1][k], which lies
        between cols[b][k] - cols[a - 1][j] and cols[b][k]: two bisections
        of cols[b] bound k, and an exact bisection between the bounds,
        usually over no cell at all, finds it.

        A state s with the zero chain (d, z) reaches such a state z after d
        zeros (d = 0 at z itself).  The words that begin with 0^d come
        first, and the cells after those zeros, read from z, count them in
        two column reads: when the index falls below that count, the d
        zeros and the run after them are found at once.  Otherwise, and at
        a state without a chain, one cell is decoded.  For the marker
        (10)^n 0 the states after a 1 have chains of one and two zeros, so
        a 1 usually costs one count and the bisections.
        """
        total = self.count(length, lo, hi)
        if not 0 <= index < total:
            raise ValueError(f"index {size_text(index)} out of range [0, {size_text(total)})")
        m = self.states
        delta = self.delta
        chains = self.chains
        cols = self.cols
        cap = self.max_weight
        count_range = self.count_range
        out = []
        s = 0
        w = 0
        left = length  # cells still to place
        while left:
            chain = chains[s]
            if chain is not None:
                d, z = chain
                run = left - d  # cells after the chain's zeros, read from z
                # with a..b ones still to place, c(k) = high[k] - low[k], or
                # high[k] when a <= 0; c(run) counts the words after 0^d
                high = cols[min(hi - w, cap)]
                a = lo - w
                low = cols[a - 1] if a > 0 else None
                if run < 0 or d and index >= high[run] - (low[run] if a > 0 else 0):
                    chain = None
            if chain is None:  # decode one cell
                j = left - 1
                s0, s1 = delta[s]
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
            j = run - 1  # cells after the next one
            # c(k) <= high[k]: c(k) <= index below the first high[k] > index
            k = bisect.bisect_right(high, index, 0, run) - 1
            if a > 0:
                # c(k) >= high[k] - low[j]: c(k) > index from the first
                # high[k] > index + low[j] on
                top = bisect.bisect_right(high, index + low[j], k + 1, run)
                if top > k + 1:
                    k = bisect.bisect_right(
                        range(top), index, k + 1, top, key=lambda i: high[i] - low[i]
                    ) - 1
                ck = high[k] - low[k] if k >= 0 else 0
            else:
                ck = high[k] if k >= 0 else 0
            out.append("0" * (left - 1 - k))  # the chain's zeros and the run's
            if k < 0:
                break
            index -= ck
            out.append("1")
            w += 1
            s = delta[z][1]
            left = k
        assert index == 0 and lo <= w <= hi
        return "".join(out)


#: the most recently used engine only: the canonical table takes about 80 MB
_ENGINES: dict[tuple[str, int], _MarkerEngine] = {}


def _engine(pattern: str, max_weight: int, length: int = 0) -> _MarkerEngine:
    """The engine of (pattern, max_weight), its count table grown to length.

    The table size and then the pattern are checked first, so a refused
    call leaves the cache as it was.  Then the cache is emptied, and the
    engine is cached once its table has been built.
    """
    if length < 0:
        raise ValueError(f"length {length} is negative")
    _check_table_size(length, max_weight)
    eng = _ENGINES.get((pattern, max_weight)) or _MarkerEngine(pattern, max_weight)
    _ENGINES.clear()
    eng.ensure(length)
    _ENGINES[pattern, max_weight] = eng
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


#: code bit -> the hex digit of its block 110b
_HEX_BLOCKS = str.maketrans("01", "cd")


def unrank_dense_safe(params: SwapParams, length: int, index: int) -> str:
    total = safe_dense_count(params, length)
    if not 0 <= index < total:
        raise ValueError(f"index {size_text(index)} out of range [0, {size_text(total)})")
    free, suffix = _safe_code_shape(params.n, length)
    # the code bits are the index in `free` binary digits, then the suffix;
    # block 110b is the hex digit c + b, so one hex number spells the blocks
    bits = (format(index, f"0{free}b") if free else "") + suffix
    if not bits:  # no whole block
        return "0" * length
    code = format(int(bits.translate(_HEX_BLOCKS), 16), f"0{4 * len(bits)}b")
    return code + "0" * (length % 4)


# ---------------------------------------------------------------------------
# interval decomposition


class Interval(NamedTuple):
    start: int  # position of the opening marker occurrence
    length: int  # distance to the next occurrence (or window end if incomplete)
    kind: str  # "short" | "medium" | "long"
    complete: bool


class IntervalDecomposition(NamedTuple):
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


class SwapParamsReport(NamedTuple):
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
    MAX_SWAP_TABLE_CELLS cells (see `_engine`).
    """
    lo_l = params.short_bound - len(params.marker)
    hi_l = params.max_free_length
    if lo_l > hi_l:
        return SwapParamsReport(
            valid=True,
            vacuous=True,
            min_free_length=0,
            max_free_length=-1,
            reasons=("no medium intervals for these parameters",),
        )
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


class SwapStats(NamedTuple):
    occurrences: int
    complete: int
    medium: int
    to_dense: int
    to_sparse: int
    dense_spans: tuple[tuple[int, int], ...]  # rewritten free parts now in code form


def _apply_swap_details(
    window: str, params: SwapParams
) -> tuple[str, SwapStats, list[int]]:
    """The swapped window, its statistics and the window's marker occurrences."""
    engine = _params_engine(params)
    marker = params.marker
    mlen = len(marker)
    occ = marker_occurrences(window, marker)
    pieces = []  # the window's cells up to each rewritten free part, then the part
    kept = 0  # the window's cells before `kept` are in pieces
    complete = medium = to_dense = to_sparse = 0
    dense_spans = []
    for a, b in zip(occ, occ[1:]):
        complete += 1
        k = b - a
        if classify_interval(k, params) != "medium":
            continue
        medium += 1
        l = k - mlen
        v = window[a + mlen : b]
        lo, hi = weight_bounds(l, params.p)
        bits = _dense_code_bits(v)
        if bits is not None:
            # the free part holds no marker, so neither does its code word
            idx = _rank_safe_code_bits(params.n, bits, l % 4)
            if idx >= engine.count(l, lo, hi):
                continue
            part = engine.unrank(l, idx, lo, hi)
            to_sparse += 1
        elif lo <= v.count("1") <= hi:
            part = unrank_dense_safe(params, l, engine.rank(v, lo, hi))
            to_dense += 1
            dense_spans.append((a + mlen, b))
        else:
            continue
        pieces += window[kept : a + mlen], part
        kept = b
    stats = SwapStats(
        occurrences=len(occ),
        complete=complete,
        medium=medium,
        to_dense=to_dense,
        to_sparse=to_sparse,
        dense_spans=tuple(dense_spans),
    )
    pieces.append(window[kept:])
    return "".join(pieces), stats, occ


def apply_swap(window: str, params: SwapParams) -> str:
    """Apply the interval swap map to a binary window.

    Incomplete intervals and non-medium intervals are untouched; the output
    has the window's length.  The parameters are checked once (cached) and
    rejected if the map would not be a well-defined involution.
    """
    if window.strip("01"):  # a character other than 0 and 1 stops the strip
        raise ValueError("window must be a binary word")
    report = check_swap_params(params)
    if not report.valid:
        raise ValueError("invalid swap parameters: " + "; ".join(report.reasons))
    return _apply_swap_details(window, params)[0]


# ---------------------------------------------------------------------------
# seeded experiment trials


class SwapTrial(NamedTuple):
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
    k = 0
    while "1" * (k + 1) in word:
        k += 1
    return k


def _run_trial(index: int, params: SwapParams, seed: int, length: int) -> SwapTrial:
    rng = SplitMix64.for_index(seed, index)
    window = bernoulli_word(rng, length, params.p)
    once, stats, occ = _apply_swap_details(window, params)
    twice, _, occ_once = _apply_swap_details(once, params)
    max_run = max((_max_run(once[s:e]) for s, e in stats.dense_spans), default=0)
    return SwapTrial(
        index=index,
        occurrences=stats.occurrences,
        complete=stats.complete,
        medium=stats.medium,
        to_dense=stats.to_dense,
        to_sparse=stats.to_sparse,
        involution_ok=twice == window,
        occurrences_conserved=occ == occ_once,
        quad_free=max_run < 4,
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
