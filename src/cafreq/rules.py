"""Local rules of one-dimensional cellular automata over finite alphabets.

A rule of radius r on an alphabet of size q is a table f mapping each
neighborhood word of length r+1 to a symbol.  Neighborhoods extend to the
right only: applying the rule to a word w of length n yields a word of
length n - r with output i computed from w[i : i+r+1].

Words are strings of base-q digits (0-9 then a-z, so q <= 36), leftmost
symbol first.  Rule tables are indexed by neighborhoods in lexicographic
order with the leftmost cell most significant, and the text form of a rule
is "q r digits" with exactly q^(r+1) table digits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .rng import SplitMix64, map_ranges

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_ALPHABET = len(DIGITS)

#: refuse to enumerate rule spaces larger than this (tables, not rules tested)
DEFAULT_ENUMERATION_LIMIT = 1 << 26

#: refuse rule spaces of this many tables or more: indices are decoded in int64
MAX_RULE_TABLES = 1 << 63

#: the surjective-rule enumeration decodes table indices in chunks whose
#: largest array holds about this many entries
PREFILTER_CELLS = 1 << 14

#: the surjectivity search keeps one byte per pair of de Bruijn words
MAX_PAIR_VERTICES = 1 << 18

#: self_compose refuses larger tables: composing one, and a pushforward's
#: transfer matrix over it, take about 100 bytes per cell
MAX_COMPOSED_CELLS = 1 << 23


def size_text(q: int, exponent: int = 1) -> str:
    """q^exponent for a message: digits up to 2^64, else q^e, or 2^k+ for exponent 1."""
    if exponent <= 64 and q**exponent <= 1 << 64:
        return str(q**exponent)
    return f"2^{q.bit_length() - 1}+" if exponent == 1 else f"{q}^{exponent}"


def check_size(limit: int, what: str, q: int, exponent: int = 1) -> None:
    """Refuse a size q^exponent over `limit` before anything that large is built.

    The message is `what` then "exceeds limit {limit}".  In `what`, {size}
    stands for the size as `size_text` writes it, {q} and {e} for the base
    and exponent.  From an exponent of max(64, limit.bit_length()) on the
    power is not computed: for q >= 2 it is over the limit.
    """
    if q < 2 or exponent < max(64, limit.bit_length()):
        if q**exponent <= limit:
            return
    text = what.format(q=q, e=exponent, size=size_text(q, exponent))
    raise ValueError(f"{text} exceeds limit {limit}")


def symbol_value(ch: str) -> int:
    v = DIGITS.find(ch)
    if v < 0:
        raise ValueError(f"invalid symbol {ch!r}")
    return v


def word_symbols(word: str, q: int) -> list[int]:
    """Decode a digit string into symbol values, validating against q."""
    out = []
    for ch in word:
        v = symbol_value(ch)
        if v >= q:
            raise ValueError(f"symbol {ch!r} out of range for alphabet size {q}")
        out.append(v)
    return out


def symbols_word(symbols: Iterable[int]) -> str:
    return "".join(DIGITS[s] for s in symbols)


@dataclass(frozen=True)
class LocalRule:
    """A local rule: alphabet size q, radius r, and the full truth table."""

    q: int
    r: int
    table: tuple[int, ...]

    def __post_init__(self):
        if not 2 <= self.q <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}]")
        if self.r < 0:
            raise ValueError("radius must be >= 0")
        n = len(self.table)
        # q^(r+1) > n once r + 1 reaches n's bit length: refused unbuilt
        if self.r + 1 >= n.bit_length() or self.q ** (self.r + 1) != n:
            raise ValueError(
                f"table must have q^(r+1) = {size_text(self.q, self.r + 1)} entries, got {n}"
            )
        for v in self.table:
            if not 0 <= v < self.q:
                raise ValueError(f"table entry {v} out of range")

    @property
    def neighborhood_size(self) -> int:
        return self.r + 1

    def format(self) -> str:
        return f"{self.q} {self.r} {symbols_word(self.table)}"

    def __str__(self) -> str:
        return self.format()

    @classmethod
    def identity(cls, q: int) -> "LocalRule":
        return cls(q, 0, tuple(range(q)))

    @classmethod
    def shift(cls, q: int) -> "LocalRule":
        return cls(q, 1, tuple(b for _ in range(q) for b in range(q)))

    @classmethod
    def xor(cls) -> "LocalRule":
        """The two-neighbor binary XOR rule f(a, b) = a + b mod 2."""
        return cls(2, 1, (0, 1, 1, 0))


def parse_rule(text: str) -> LocalRule:
    """Parse a "q r digits" descriptor into a LocalRule."""
    parts = text.split()
    if len(parts) != 3:
        raise ValueError(f"rule descriptor must be 'q r digits', got {text!r}")
    try:
        q = int(parts[0])
        r = int(parts[1])
    except ValueError as exc:
        raise ValueError(f"bad alphabet size or radius in {text!r}") from exc
    if not 2 <= q <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}]")
    return LocalRule(q, r, tuple(word_symbols(parts[2], q)))


def format_rule(rule: LocalRule) -> str:
    return rule.format()


def _image(rule: LocalRule, syms: Sequence[int]) -> list[int]:
    """The rule read along a symbol sequence; the result is r symbols shorter.

    Application, iteration and the correlation scans all use this one
    sliding window.
    """
    q, r, table = rule.q, rule.r, rule.table
    qr = q**r
    idx = 0
    for s in syms[:r]:
        idx = idx * q + s
    out = []
    for s in syms[r:]:
        idx = idx * q + s
        out.append(table[idx])
        idx %= qr
    return out


def apply_word(rule: LocalRule, word: str) -> str:
    """Apply the rule once; the result is r symbols shorter."""
    syms = word_symbols(word, rule.q)
    if len(syms) < rule.r + 1:
        raise ValueError(
            f"word of length {len(syms)} too short for radius {rule.r}"
        )
    return symbols_word(_image(rule, syms))


def iterate_word(rule: LocalRule, word: str, t: int) -> str:
    """Apply the rule t times; needs |word| >= t*r + 1."""
    if t < 0:
        raise ValueError("iteration count must be >= 0")
    if len(word) < t * rule.r + 1:
        raise ValueError(
            f"word of length {len(word)} too short for {t} steps of radius {rule.r}"
        )
    syms = word_symbols(word, rule.q)
    for _ in range(t):
        syms = _image(rule, syms)
    return symbols_word(syms)


def compose(f: LocalRule, g: LocalRule) -> LocalRule:
    """Rule computing f after g, of radius f.r + g.r.

    Built over every neighborhood at once.  Cell j of g's image reads the
    g.r + 1 digits starting at j, which are the middle axis when the
    neighborhood indices are laid out as (q^j, q^(g.r+1), q^(f.r-j)); those
    f.r + 1 image cells are the index into f's table.
    """
    if f.q != g.q:
        raise ValueError("cannot compose rules over different alphabets")
    q = f.q
    width = q ** (g.r + 1)
    g_table = np.array(g.table, dtype=np.int64).reshape(1, width, 1)
    inner = np.zeros(q ** (f.r + g.r + 1), dtype=np.int64)
    for j in range(f.r + 1):
        inner *= q
        window = inner.reshape(q**j, width, q ** (f.r - j))
        window += g_table
    table = np.array(f.table, dtype=np.uint8)[inner]
    return LocalRule(q, f.r + g.r, tuple(table.tolist()))


def check_composed_size(q: int, r: int, t: int) -> None:
    """Refuse a t-fold composed table of q^(t*r + 1) > MAX_COMPOSED_CELLS cells."""
    check_size(MAX_COMPOSED_CELLS, "composed rule table of {q}^{e} cells", q, t * r + 1)


def self_compose(rule: LocalRule, t: int) -> LocalRule:
    """The rule of the t-fold iterate, radius t*r; t = 0 gives the identity.

    Repeated squaring: iterates of one rule commute, so the powers
    rule^(2^k) for the set bits of t compose in any order.  A table over
    MAX_COMPOSED_CELLS cells is refused before any composing.
    """
    if t < 0:
        raise ValueError("iteration count must be >= 0")
    check_composed_size(rule.q, rule.r, t)
    out = LocalRule.identity(rule.q)
    power = rule
    while t:
        if t & 1:
            out = compose(out, power)
        t >>= 1
        if t:
            power = compose(power, power)
    return out


def is_balanced(rule: LocalRule) -> bool:
    """True iff every symbol has exactly q^r preimage neighborhoods."""
    counts = [0] * rule.q
    for v in rule.table:
        counts[v] += 1
    return all(c == rule.q ** rule.r for c in counts)


def _pairs_balanced(rule: LocalRule) -> bool:
    # balance for two-symbol words: every ab must have exactly q^r preimages
    q, r = rule.q, rule.r
    qr = q**r
    qr1 = q ** (r + 1)
    counts = [0] * (q * q)
    for w in range(q ** (r + 2)):
        a = rule.table[w // q]
        b = rule.table[w % qr1]
        counts[a * q + b] += 1
    return all(c == qr for c in counts)


def is_surjective(rule: LocalRule) -> bool:
    """Decide surjectivity of the global map on bi-infinite configurations.

    In one dimension a rule is surjective iff it is pre-injective: no two
    configurations that differ in finitely many cells share an image
    (Hedlund 1969; Amoroso & Patt 1972).  The pair graph steps from a pair
    (u, v) of de Bruijn words of length r to the last r symbols of (ub, vc)
    when f(ub) = f(vc); such a pair of configurations is a path that leaves
    the diagonal u = v with b != c and returns to it.  Pairs are stored
    unordered, one byte each in a table of q^(2r) <= MAX_PAIR_VERTICES.

    Surjectivity forces balance at every word length, so the balance checks
    at lengths 1 and 2 come first: they cost less than building the graph.
    (An enumerated rule space is filtered on balance before it gets here,
    see `_surjective_in_range`.)
    """
    q, r = rule.q, rule.r
    check_size(MAX_PAIR_VERTICES, "q^(2r) = {size} pair-graph vertices", q, 2 * r)
    qr = q**r
    if not (is_balanced(rule) and _pairs_balanced(rule)):
        return False
    # succ[u][a]: the neighborhoods u+b (as table indices) with output a
    succ = [[[] for _ in range(q)] for _ in range(qr)]
    for w, a in enumerate(rule.table):
        succ[w // q][a].append(w)
    seen = bytearray(qr * qr)
    stack = [u * qr + u for u in range(qr)]
    while stack:
        u, v = divmod(stack.pop(), qr)
        for xs, ys in zip(succ[u], succ[v]):
            for b in xs:
                for c in ys:
                    if b == c:
                        continue  # the same step taken twice from the diagonal
                    x, y = b % qr, c % qr
                    if x == y:
                        return False
                    p = x * qr + y if x < y else y * qr + x
                    if not seen[p]:
                        seen[p] = 1
                        stack.append(p)
    return True


def _preimage_iter(rule: LocalRule, word: str) -> Iterator[str]:
    q, r = rule.q, rule.r
    target = word_symbols(word, q)
    n = len(target)
    if n == 0:
        raise ValueError("preimages need a nonempty word")
    qr = q**r
    table = rule.table

    def extend(prefix: list[int], idx: int, pos: int) -> Iterator[str]:
        if pos == n:
            yield symbols_word(prefix)
            return
        want = target[pos]
        for b in range(q):
            if table[idx * q + b] == want:
                prefix.append(b)
                yield from extend(prefix, (idx * q + b) % qr, pos + 1)
                prefix.pop()
        return

    for start in itertools.product(range(q), repeat=r):
        idx = 0
        for s in start:
            idx = idx * q + s
        yield from extend(list(start), idx, 0)


def preimages(rule: LocalRule, word: str) -> list[str]:
    """All words w with apply_word(rule, w) == word, in lexicographic order."""
    return list(_preimage_iter(rule, word))


def rule_count(q: int, r: int) -> int:
    """Size q^(q^(r+1)) of the radius-r rule space."""
    return q ** (q ** (r + 1))


def rule_from_index(q: int, r: int, index: int) -> LocalRule:
    """The index-th rule in lexicographic table order."""
    entries = q ** (r + 1)
    if not 0 <= index < rule_count(q, r):
        raise ValueError(f"rule index {index} out of range")
    table = [0] * entries
    for pos in range(entries - 1, -1, -1):
        index, table[pos] = divmod(index, q)
    return LocalRule(q, r, tuple(table))


def rule_index(rule: LocalRule) -> int:
    """Position of the rule in lexicographic table order."""
    index = 0
    for v in rule.table:
        index = index * rule.q + v
    return index


def enumerate_rules(
    q: int, r: int, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> Iterator[LocalRule]:
    """Yield every radius-r rule table in lexicographic order.

    Refuses every rule space `check_rule_space` refuses.
    """
    check_rule_space(q, r, limit)
    for table in itertools.product(range(q), repeat=q ** (r + 1)):
        yield LocalRule(q, r, table)


def check_rule_space(q: int, r: int, limit: int) -> int:
    """The size of the radius-r rule space, refused unless it can be enumerated.

    Refuses a negative radius, a space of more than `limit` tables (checked
    before the alphabet bound, so a large q reads as an oversize space), an
    alphabet size outside [2, MAX_ALPHABET], and a space of 2^63 or more
    tables, whose indices int64 cannot hold.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    if q >= 2:
        if r < 63:
            check_size(limit, "rule space of size q^(q^(r+1)) = {size}", q, q ** (r + 1))
        else:  # q^(r+1) >= 2^64 is not built: 2^64 stands in, refused unbuilt
            what = f"rule space of size q^(q^(r+1)) = {q}^({size_text(q, r + 1)})"
            check_size(limit, what, q, 1 << 64)
    if not 2 <= q <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}]")
    count = rule_count(q, r)
    if count >= MAX_RULE_TABLES:
        raise ValueError(
            f"rule space of size q^(q^(r+1)) = {size_text(q, q ** (r + 1))} has "
            f"2^63 or more tables, too many to index"
        )
    return count


def _words_balanced(q: int, r: int, tables: np.ndarray, length: int) -> np.ndarray:
    """Which rows of `tables` give every word of `length` cells q^r preimages.

    Each row is one rule table.  Preimage word w of length + r cells has
    image cell j from the neighborhood w[j : j+r+1]; one bincount, offset
    per row, counts the images.
    """
    rows = len(tables)
    words = q**length
    w = np.arange(q ** (r + length), dtype=np.int64)
    image = np.zeros((rows, len(w)), dtype=np.int64)
    for j in range(length):
        image *= q
        image += tables[:, w // q ** (length - 1 - j) % q ** (r + 1)]
    image += np.arange(rows, dtype=np.int64)[:, None] * words
    counts = np.bincount(image.ravel(), minlength=rows * words)
    return (counts.reshape(rows, words) == q**r).all(axis=1)


def _balanced_tables(q: int, r: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The tables among indices lo..hi-1 balanced on words of lengths 2 and 3.

    Yields one array of table rows, in index order, per chunk of indices.
    A chunk's largest array holds about PREFILTER_CELLS entries.
    """
    place = q ** np.arange(q ** (r + 1) - 1, -1, -1, dtype=np.int64)
    step = max(1, PREFILTER_CELLS // q ** (r + 3))
    for start in range(lo, hi, step):
        index = np.arange(start, min(start + step, hi), dtype=np.int64)
        tables = index[:, None] // place % q
        tables = tables[_words_balanced(q, r, tables, 2)]
        yield tables[_words_balanced(q, r, tables, 3)]


def _surjective_in_range(q: int, r: int, limit: int, lo: int, hi: int) -> list:
    """The surjective rules among table indices lo..hi-1, in table order.

    Surjectivity forces balance at every word length (Hedlund 1969), so
    only the tables balanced on words of lengths 2 and 3 are built and
    searched: 974 of the 65,536 binary radius-3 tables.
    """
    check_rule_space(q, r, limit)
    rules = (
        LocalRule(q, r, tuple(table))
        for chunk in _balanced_tables(q, r, lo, hi)
        for table in chunk.tolist()
    )
    return [rule for rule in rules if is_surjective(rule)]


_SURJECTIVE_RULES: dict[tuple[int, int], tuple[LocalRule, ...]] = {}


def surjective_rules(
    q: int, r: int, limit: int = DEFAULT_ENUMERATION_LIMIT, jobs: int = 1
) -> tuple[LocalRule, ...]:
    """All surjective radius-r rules in table order, cached on (q, r) for sweeps.

    The filter runs on `jobs` workers (see `map_ranges`); the result does
    not depend on `jobs`.  Refuses rule spaces larger than `limit` tables,
    cached or not, and every space `check_rule_space` refuses.
    """
    count = check_rule_space(q, r, limit)
    if (q, r) not in _SURJECTIVE_RULES:
        parts = map_ranges(_surjective_in_range, count, jobs, q, r, limit)
        _SURJECTIVE_RULES[q, r] = tuple(rule for part in parts for rule in part)
    return _SURJECTIVE_RULES[q, r]


def random_rule(q: int, r: int, rng: SplitMix64) -> LocalRule:
    """A uniformly random rule table drawn from the given stream."""
    return LocalRule(q, r, tuple(rng.below(q) for _ in range(q ** (r + 1))))
