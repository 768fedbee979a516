"""Preimage histograms, correlations, domination checks, and conservation.

For symbol sets A, B and an effective radius r, the histogram of a rule
counts, for each k, the neighborhoods of length r+1 that map into B and
contain exactly k symbols from A.  The correlation of order m is the m-th
moment of that histogram; the normalized correlation removes the radius
dependence by dividing out the factor of the cells past radius 0.

Everything in this module is exact: integers and rationals only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import comb
from typing import Iterable, Optional, Sequence

from .rules import (
    DEFAULT_ENUMERATION_LIMIT,
    LocalRule,
    _image,
    check_size,
    enumerate_rules,
    is_surjective,
    symbols_word,
    word_symbols,
)

SymbolsLike = Iterable[int]


def normalize_symbols(symbols: SymbolsLike, q: int) -> frozenset[int]:
    """Validate a symbol set against the alphabet {0, ..., q-1}."""
    out = frozenset(symbols)
    for s in out:
        if not 0 <= s < q:
            raise ValueError(f"symbol {s} out of range for alphabet size {q}")
    return out


#: exhaustive scans over words (periodic configurations, finite_correlation
#: inputs) and histograms refuse more than this many words or neighborhoods
MAX_SCAN_WORDS = 1 << 24


#: scans over every proper symbol set (2^q - 2 of them) refuse larger q
MAX_SUBSET_ALPHABET = 16


#: correlation orders (`correlate --m`, `sweep --m-max`) refuse more than
#: this: the solve takes about m^2 products of integers that grow with m; on
#: a 2-core VM `--m 512` took 1.1-1.2 s at r = 3, `--m 800` 5.3 s, `--m 1600` 61 s
MAX_ORDER = 512


def check_order(m: int) -> None:
    """Refuse a correlation order over MAX_ORDER before any moment is summed."""
    check_size(MAX_ORDER, "correlation order {size}", m)


#: histograms of rules with at most this many neighborhoods read their
#: A-counts from a cache of 64 entries (at most 2 MB); larger ones count afresh
CACHED_NEIGHBORHOODS = 1 << 12


def proper_subsets(q: int) -> list[frozenset[int]]:
    """Every nonempty proper symbol set, by size, then lexicographically."""
    if q > MAX_SUBSET_ALPHABET:
        raise ValueError(f"2^{q} - 2 proper symbol sets exceeds 2^{MAX_SUBSET_ALPHABET} - 2")
    return [
        frozenset(c)
        for size in range(1, q)
        for c in itertools.combinations(range(q), size)
    ]


def parse_symbols(text: str, q: int) -> frozenset[int]:
    """Parse a symbol set like "02" or "{0,2}"."""
    cleaned = text.strip().strip("{}").replace(",", "").replace(" ", "")
    return normalize_symbols(word_symbols(cleaned, q), q)


@dataclass(frozen=True)
class Histogram:
    """Counts N_k of B-preimage neighborhoods with k symbols in A."""

    q: int
    r: int
    A: frozenset[int]
    B: frozenset[int]
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        """Number of neighborhoods mapping into B."""
        return sum(self.counts)

    def moment(self, m: int) -> int:
        """Order-m moment, with the convention 0^0 = 1 (Python's)."""
        if m < 0:
            raise ValueError("order must be >= 0")
        return sum(k**m * n for k, n in enumerate(self.counts))

    def normalized_orders(self, m: int) -> tuple[Fraction, ...]:
        """Radius-free correlations nu_0..nu_m, by one generating-function division.

        Each of the r cells past radius 0 multiplies sum_k N_k x^k by
        (q - |A|) + |A| x, as a cell the rule ignores does.  With x = e^t,
        moments multiply by binomial convolution, so the values solve

            M_i = sum_{j<=i} comb(i, j) * nu_j * c_{i-j},

        with M_i = moment(i) and c_k = sum_l comb(r, l) |A|^l (q - |A|)^(r-l) l^k
        the moments of ((q - |A|) + |A| x)^r, c_0 = q^r.  They are solved in
        order, as the integers u_i = nu_i * q^(r(i+1)).  Any radius at or above
        the rule's gives the same values.  They are exact rationals and may be
        negative.
        """
        if m < 0:
            raise ValueError("order must be >= 0")
        check_order(m)
        q, a, r = self.q, len(self.A), self.r
        d = q**r
        # c_k * d^(k-1) for k = 1..m, which keeps every u_i an integer
        c = [
            d ** (k - 1) * sum(comb(r, l) * a**l * (q - a) ** (r - l) * l**k for l in range(r + 1))
            for k in range(1, m + 1)
        ]
        u: list[int] = []
        for i in range(m + 1):
            shift = sum(comb(i, j) * u[j] * c[i - j - 1] for j in range(i))
            u.append(self.moment(i) * d**i - shift)
        return tuple(Fraction(n, d ** (i + 1)) for i, n in enumerate(u))

    def normalized(self, m: int = 1) -> Fraction:
        """Radius-free correlation of order m (see `normalized_orders`)."""
        return self.normalized_orders(m)[m]


@dataclass(frozen=True)
class CorrelationReport:
    order: int
    raw: int
    normalized: Fraction


def histogram(
    rule: LocalRule,
    A: SymbolsLike,
    B: SymbolsLike,
    r_eff: Optional[int] = None,
) -> Histogram:
    """Histogram at radius r_eff >= rule.r.

    The rule's own q^(r+1) neighborhoods are counted; the A-count of each
    is read from `_a_counts`, cached on (q, r, A) up to CACHED_NEIGHBORHOODS
    neighborhoods, as a sweep asks for the same few sets.  Each of the
    r_eff - r extra cells is ignored by f, so it multiplies the polynomial
    sum_k N_k x^k by (q - |A|) + |A| x.  Every count is at most
    q^(r_eff+1), which is refused above MAX_SCAN_WORDS.
    """
    q, r = rule.q, rule.r
    if r_eff is None:
        r_eff = r
    if r_eff < r:
        raise ValueError(f"effective radius {r_eff} below rule radius {r}")
    check_size(MAX_SCAN_WORDS, "q^(r_eff+1) = {q}^{e}", q, r_eff + 1)
    Aset = normalize_symbols(A, q)
    Bset = normalize_symbols(B, q)
    a_counts = _a_counts if q ** (r + 1) <= CACHED_NEIGHBORHOODS else _a_counts.__wrapped__
    counts = [0] * (r + 2)
    for k, image in zip(a_counts(q, r, Aset), rule.table):
        if image in Bset:
            counts[k] += 1
    a = len(Aset)
    for _ in range(r_eff - r):
        counts = [(q - a) * n + a * m for n, m in zip(counts + [0], [0] + counts)]
    return Histogram(q, r_eff, Aset, Bset, tuple(counts))


@lru_cache(maxsize=64)
def _a_counts(q: int, r: int, A: frozenset[int]) -> tuple[int, ...]:
    """The number of A-symbols in each neighborhood of r + 1 cells, in table order."""
    in_a = [s in A for s in range(q)]
    return tuple(map(sum, itertools.product(in_a, repeat=r + 1)))


def correlation(
    rule: LocalRule,
    A: SymbolsLike,
    B: SymbolsLike,
    r_eff: Optional[int] = None,
    m: int = 1,
) -> int:
    """Order-m correlation at radius r_eff: sum of k^m * N_k."""
    if m < 0:
        raise ValueError("order must be >= 0")
    return histogram(rule, A, B, r_eff).moment(m)


def normalized_correlation(
    rule: LocalRule, A: SymbolsLike, B: SymbolsLike, m: int = 1
) -> Fraction:
    """Radius-free correlation of order m (see `Histogram.normalized`)."""
    return histogram(rule, A, B).normalized(m)


def correlation_report(
    rule: LocalRule, A: SymbolsLike, B: SymbolsLike, m: int = 1
) -> CorrelationReport:
    h = histogram(rule, A, B)
    normalized = h.normalized(m)  # refuses m < 0 and m > MAX_ORDER
    return CorrelationReport(order=m, raw=h.moment(m), normalized=normalized)


def identity_correlation(q: int, a_size: int, r: int) -> int:
    """Closed form (q + r*a) * a * q^(r-1) for the identity rule, order 1."""
    if not 0 <= a_size <= q:
        raise ValueError("symbol set size out of range")
    return (q + r * a_size) * a_size * q**r // q


@cache
def _identity_counts(q: int, r: int, a: int) -> tuple[int, ...]:
    """The identity's histogram at radius r for A = B with |A| = a.

    A neighborhood maps into A iff its first cell is in A, so it has k >= 1
    symbols of A when j = k - 1 of the other r cells do:
    N_k = a * comb(r, j) * a^j * (q-a)^(r-j), and N_0 = 0.
    """
    return (0, *(a * comb(r, j) * a**j * (q - a) ** (r - j) for j in range(r + 1)))


def _moments(counts: Sequence[int], m_max: int) -> list[int]:
    """sum_k counts[k] * k^m for m = 0..m_max (0^0 = 1), by repeated products."""
    out = []
    terms = list(counts)
    for _ in range(m_max + 1):
        out.append(sum(terms))
        terms = [k * t for k, t in enumerate(terms)]
    return out


def weighted_square_sum(n: int, a) -> Fraction:
    """sum_k k^2 a^k comb(n, k) = n a (n a + 1) (a + 1)^(n-2) for n >= 2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a = Fraction(a)
    if n < 2:
        return sum((Fraction(k) ** 2) * a**k * comb(n, k) for k in range(n + 1))
    return n * a * (n * a + 1) * (a + 1) ** (n - 2)


def finite_correlation(
    rule: LocalRule, A: SymbolsLike, n: int, limit: int = MAX_SCAN_WORDS
) -> int:
    """Total weight correlation over all input words of length n + r.

    Sums |w|_A * |F(w)|_A over every word w of length n + r, where F(w) has
    length n.  Exact and exhaustive; guarded by q^(n+r) <= limit.
    """
    if n < 1:
        raise ValueError("window length must be >= 1")
    q, r = rule.q, rule.r
    check_size(limit, "q^(n+r) = {size}", q, n + r)
    Aset = normalize_symbols(A, q)
    in_a = [s in Aset for s in range(q)]
    total = 0
    for syms in itertools.product(range(q), repeat=n + r):
        wa = sum(in_a[s] for s in syms)
        if wa:
            total += wa * sum(in_a[s] for s in _image(rule, syms))
    return total


@dataclass(frozen=True)
class OneDominationReport:
    holds: bool
    margin: int
    surjective: bool
    worst_A: frozenset[int]


def check_one_domination(
    rule: LocalRule, A: Optional[SymbolsLike] = None
) -> OneDominationReport:
    """Compare first-order self-correlation against the identity rule.

    Scans every nonempty proper symbol set (or just A when given) and
    reports the minimal margin identity - rule.  Surjective rules are
    expected to dominate; non-surjective inputs are allowed but flagged.
    """
    q, r = rule.q, rule.r
    sets = [normalize_symbols(A, q)] if A is not None else proper_subsets(q)
    margin: Optional[int] = None
    worst = sets[0]
    for s in sets:
        diff = identity_correlation(q, len(s), r) - correlation(rule, s, s)
        if margin is None or diff < margin:
            margin = diff
            worst = s
    return OneDominationReport(
        holds=margin >= 0,
        margin=margin,
        surjective=is_surjective(rule),
        worst_A=worst,
    )


@dataclass(frozen=True)
class HighDominationReport:
    k0: Optional[int]
    strict_at_k0: Optional[bool]
    m_star: Optional[int]


def check_high_domination(
    rule: LocalRule, A: SymbolsLike, m_max: int = 16
) -> HighDominationReport:
    """Find the order from which the identity dominates all higher moments.

    k0 is the largest index where the rule's histogram differs from the
    identity's (None if equal).  m_star is the least m <= m_max such that
    the moment inequality holds for every order in [m, m_max] and the tail
    criterion

        (N_id[k0] - N_rule[k0]) * k0^m > sum_{i<k0} |N_id[i] - N_rule[i]| * i^m

    holds at m; the criterion propagates to every larger order because the
    k0 term grows at least as fast as each lower-index term.  The moment
    inequality at order m is sum_k (N_id[k] - N_rule[k]) * k^m >= 0.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    check_order(m_max)
    r = rule.r
    h_rule = histogram(rule, A, A)
    diffs = [i - f for f, i in zip(h_rule.counts, _identity_counts(rule.q, r, len(h_rule.A)))]
    k0 = None
    for k in range(r + 1, -1, -1):
        if diffs[k] != 0:
            k0 = k
            break
    if k0 is None:
        return HighDominationReport(k0=None, strict_at_k0=None, m_star=0)
    strict = diffs[k0] > 0
    # the moment inequality holds at every order from `first` on
    first = max((m + 1 for m, gap in enumerate(_moments(diffs, m_max)) if gap < 0), default=0)
    m_star = None
    for m in range(first, m_max + 1):
        lead = diffs[k0] * k0**m
        tail = sum(abs(diffs[i]) * i**m for i in range(k0))
        if lead > tail:
            m_star = m
            break
    return HighDominationReport(k0=k0, strict_at_k0=strict, m_star=m_star)


@dataclass(frozen=True)
class PrefixSumReport:
    holds: bool
    witness_n: Optional[int]
    surjective: bool


def check_prefix_sum_conjecture(rule: LocalRule) -> PrefixSumReport:
    """Prefix-sum domination for binary rules with A = B = {1}.

    Checks sum_{k<=n} N_rule(k) >= sum_{k<=n} N_id(k) for every n up to
    r + 1, reporting the first failing n otherwise.
    """
    if rule.q != 2:
        raise ValueError("prefix-sum check is defined for binary rules")
    h_rule = histogram(rule, [1], [1])
    id_counts = _identity_counts(2, rule.r, 1)
    acc_rule = 0
    acc_id = 0
    for n in range(rule.r + 2):
        acc_rule += h_rule.counts[n]
        acc_id += id_counts[n]
        if acc_rule < acc_id:
            return PrefixSumReport(
                holds=False, witness_n=n, surjective=is_surjective(rule)
            )
    return PrefixSumReport(holds=True, witness_n=None, surjective=is_surjective(rule))


def average_normalized_correlation(
    q: int,
    r: int,
    A: SymbolsLike,
    B: SymbolsLike,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> Fraction:
    """Exact average of the normalized correlation over all radius-r rules.

    The normalization is linear in the histogram counts, so the counts are
    summed over every rule and normalized once.
    """
    totals = [0] * (r + 2)
    count = 0
    for rule in enumerate_rules(q, r, limit=limit):
        for k, n in enumerate(histogram(rule, A, B).counts):
            totals[k] += n
        count += 1
    Aset, Bset = normalize_symbols(A, q), normalize_symbols(B, q)
    return Histogram(q, r, Aset, Bset, tuple(totals)).normalized() / count


@dataclass(frozen=True)
class ConservationReport:
    status: str  # "conserves" | "violates"
    witness: Optional[tuple[str, str]]  # (periodic config, its image), one period


def histogram_matches_identity(rule: LocalRule, A: SymbolsLike) -> bool:
    """Histogram equality with the identity rule at the rule's radius."""
    h_rule = histogram(rule, A, A)
    return h_rule.counts == _identity_counts(rule.q, rule.r, len(h_rule.A))


def _periodic_image(rule: LocalRule, syms: Sequence[int]) -> list[int]:
    # one period of the image: the period extended by its first r cells,
    # cycling when the period is shorter than r
    return _image(rule, (syms * (rule.r + 1))[: len(syms) + rule.r])


def apply_periodic(rule: LocalRule, config: str) -> str:
    """One rule step on a spatially periodic configuration, one period."""
    return symbols_word(_periodic_image(rule, word_symbols(config, rule.q)))


def find_conservation_violation(
    rule: LocalRule, A: SymbolsLike, max_period: int
) -> Optional[tuple[str, str]]:
    """Search p-periodic configurations (p <= max_period) for an A-count change.

    Returns the first violating (config, image) in (period, lexicographic)
    order, or None.  Sound for violation, incomplete for conservation.
    Refuses max_period < 1, and q^max_period > MAX_SCAN_WORDS before scanning.
    """
    q = rule.q
    _check_max_period(q, max_period)
    configs = (
        syms for p in range(1, max_period + 1) for syms in itertools.product(range(q), repeat=p)
    )
    return _first_violation(rule, normalize_symbols(A, q), configs)


def _check_max_period(q: int, max_period: int) -> None:
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    check_size(MAX_SCAN_WORDS, "q^max_period = {q}^{e}", q, max_period)


def _first_violation(
    rule: LocalRule, Aset: frozenset[int], configs: Iterable[Sequence[int]]
) -> Optional[tuple[str, str]]:
    """The first periodic configuration whose image has another A-count."""
    in_a = [s in Aset for s in range(rule.q)]
    for syms in configs:
        image = _periodic_image(rule, syms)
        if sum(in_a[s] for s in syms) != sum(in_a[s] for s in image):
            return symbols_word(syms), symbols_word(image)
    return None


def conserves_symbols(
    rule: LocalRule, A: SymbolsLike, max_period: Optional[int] = None
) -> ConservationReport:
    """Decide exactly whether the rule conserves the count of A-symbols.

    A periodic configuration is a closed walk in the de Bruijn graph, whose
    edges are the neighborhoods w, from w[:-1] to w[1:]; each changes the
    A-count by g(w) = [f(w) in A] - [w_0 in A].  Every closed walk sums to 0
    iff g(w) = J(w[1:]) - J(w[:-1]) for a potential J on the r-words
    (Hattori & Takesue 1991).  J is set along the edges 0v, from v // q to
    v, then checked on every edge.

    A violating rule gets `find_conservation_violation` within `max_period`
    (default 2r+1): the first witness, or None.  Some witness always has
    period at most 2r+1 (see `_walk_witness`), so the default finds one.
    When q^(2r+1) exceeds MAX_SCAN_WORDS, the default returns the walk
    witness instead of scanning.  An explicit max_period < 1 or
    q^max_period > MAX_SCAN_WORDS is refused before deciding.
    """
    q, r, table = rule.q, rule.r, rule.table
    if max_period is not None:
        _check_max_period(q, max_period)
    Aset = normalize_symbols(A, q)
    qr = q**r
    g = [(table[w] in Aset) - (w // qr in Aset) for w in range(len(table))]
    potential = [0] * qr
    for v in range(1, qr):
        potential[v] = potential[v // q] + g[v]
    bad = next(
        (w for w in range(len(table)) if potential[w % qr] != potential[w // q] + g[w]),
        None,
    )
    if bad is None:
        return ConservationReport(status="conserves", witness=None)
    if max_period is None:
        if q ** (2 * r + 1) > MAX_SCAN_WORDS:
            return ConservationReport(status="violates", witness=_walk_witness(rule, Aset, bad))
        max_period = 2 * r + 1
    witness = find_conservation_violation(rule, A, max_period)
    return ConservationReport(status="violates", witness=witness)


def _walk_witness(rule: LocalRule, Aset: frozenset[int], w: int) -> tuple[str, str]:
    """A violating periodic configuration from the first edge w contradicting J.

    From the state 0^r, appending w then r zeros (period 2r+1) and w[1:]
    then r zeros (period 2r) are closed walks whose sums differ by the
    contradiction J(w[:-1]) + g(w) - J(w[1:]): their first r steps are tree
    edges or loops at 0^r, and a loop adds 0 unless it is w itself, when
    the first walk is the constant 0.  So one of them violates.
    """
    q, r = rule.q, rule.r
    cells = [w // q ** (r - i) % q for i in range(r + 1)] + [0] * r
    witness = _first_violation(rule, Aset, (cells, cells[1:]))
    assert witness is not None, "a contradicting edge always yields a violating walk"
    return witness
