"""Preimage histograms, correlations, domination checks, and conservation.

For symbol sets A, B and an effective radius r, the histogram of a rule
counts, for each k, the neighborhoods of length r+1 that map into B and
contain exactly k symbols from A.  The correlation of order m is the m-th
moment of that histogram; the normalized correlation removes the radius
dependence by solving the radius recursion down to radius 0.

Everything in this module is exact: integers and rationals only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
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


def _divide_cell(counts: list[int], q: int, a: int) -> Optional[list[int]]:
    """sum_k N_k x^k divided by (q - a) + a x, or None if not exact in integers."""
    if a == 0:  # the factor is the constant q
        if any(n % q for n in counts):
            return None
        return [n // q for n in counts]
    rest = list(counts)
    quotient = [0] * (len(rest) - 1)
    for k in range(len(rest) - 1, 0, -1):  # synthetic division, top term first
        c, remainder = divmod(rest[k], a)
        if remainder:
            return None
        quotient[k - 1] = c
        rest[k - 1] -= (q - a) * c
    return None if rest[0] else quotient


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
        return sum(k**m * n for k, n in enumerate(self.counts))

    def normalized_orders(self, m: int) -> tuple[Fraction, ...]:
        """Radius-free correlations of orders 0..m, from one recursion.

        Solves the radius recursion

            C(rho+1, i) = q * C(rho, i) + |A| * sum_{j<i} comb(i, j) * C(rho, j)

        downward from the histogram's radius to radius 0.  Any radius at or
        above the rule's gives the same values.  They are exact rationals
        and may be negative.

        One step of the recursion multiplies sum_k N_k x^k by
        (q - |A|) + |A| x, as a cell the rule ignores does.  So the counts
        are first divided by that factor, for as long as the division is
        exact over the integers, and the `Fraction` recursion runs only for
        the levels left: the cost does not grow with the radius.
        """
        if m < 0:
            raise ValueError("order must be >= 0")
        counts, levels = list(self.counts), self.r
        while levels:
            quotient = _divide_cell(counts, self.q, len(self.A))
            if quotient is None:
                break
            counts, levels = quotient, levels - 1
        vals = [Fraction(sum(k**i * n for k, n in enumerate(counts))) for i in range(m + 1)]
        for _ in range(levels):
            lower: list[Fraction] = []
            for i in range(m + 1):
                shift = len(self.A) * sum(comb(i, j) * lower[j] for j in range(i))
                lower.append((vals[i] - shift) / self.q)
            vals = lower
        return tuple(vals)

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

    The rule's own q^(r+1) neighborhoods are counted.  Each of the
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
    in_a = [s in Aset for s in range(q)]
    counts = [0] * (r + 2)
    for syms, image in zip(itertools.product(range(q), repeat=r + 1), rule.table):
        if image in Bset:
            counts[sum(in_a[s] for s in syms)] += 1
    a = len(Aset)
    for _ in range(r_eff - r):
        counts = [(q - a) * n + a * m for n, m in zip(counts + [0], [0] + counts)]
    return Histogram(q, r_eff, Aset, Bset, tuple(counts))


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
    normalized = h.normalized(m)  # refuses m < 0
    return CorrelationReport(order=m, raw=h.moment(m), normalized=normalized)


def identity_correlation(q: int, a_size: int, r: int, m: int = 1) -> int:
    """Closed form (q + r*a) * a * q^(r-1) for the identity rule, order 1."""
    if m != 1:
        raise ValueError("closed form available for order 1 only")
    if not 0 <= a_size <= q:
        raise ValueError("symbol set size out of range")
    return (q + r * a_size) * a_size * q**r // q


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
    k0 term grows at least as fast as each lower-index term.
    """
    q, r = rule.q, rule.r
    h_rule = histogram(rule, A, A)
    h_id = histogram(LocalRule.identity(q), A, A, r_eff=r)
    diffs = [i - f for f, i in zip(h_rule.counts, h_id.counts)]
    k0 = None
    for k in range(r + 1, -1, -1):
        if diffs[k] != 0:
            k0 = k
            break
    if k0 is None:
        return HighDominationReport(k0=None, strict_at_k0=None, m_star=0)
    strict = diffs[k0] > 0
    moments_rule = [h_rule.moment(m) for m in range(m_max + 1)]
    moments_id = [h_id.moment(m) for m in range(m_max + 1)]
    m_star = None
    for m in range(m_max + 1):
        lead = diffs[k0] * k0**m
        tail = sum(abs(diffs[i]) * i**m for i in range(k0))
        if lead <= tail:
            continue
        if all(moments_rule[mm] <= moments_id[mm] for mm in range(m, m_max + 1)):
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
    h_id = histogram(LocalRule.identity(2), [1], [1], r_eff=rule.r)
    acc_rule = 0
    acc_id = 0
    for n in range(rule.r + 2):
        acc_rule += h_rule.counts[n]
        acc_id += h_id.counts[n]
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
    h_id = histogram(LocalRule.identity(rule.q), A, A, r_eff=rule.r)
    return h_rule.counts == h_id.counts


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
    Refuses q^max_period > MAX_SCAN_WORDS before scanning.
    """
    q = rule.q
    check_size(MAX_SCAN_WORDS, "q^max_period = {q}^{e}", q, max_period)
    configs = (
        syms for p in range(1, max_period + 1) for syms in itertools.product(range(q), repeat=p)
    )
    return _first_violation(rule, normalize_symbols(A, q), configs)


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
    witness instead of scanning.  An explicit q^max_period > MAX_SCAN_WORDS
    is refused before deciding.
    """
    q, r, table = rule.q, rule.r, rule.table
    if max_period is not None:
        check_size(MAX_SCAN_WORDS, "q^max_period = {q}^{e}", q, max_period)
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
