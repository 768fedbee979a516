"""Local rules of one-dimensional cellular automata over finite alphabets.

A rule of radius r on an alphabet of size q is a table f mapping each
neighborhood word of length r+1 to a symbol.  Neighborhoods extend to the
right only: applying the rule to a word w of length n yields a word of
length n - r with output i computed from w[i : i+r+1].

Words are strings of base-q digits (0-9 then a-z, so q <= 36), leftmost
symbol first.  Rule tables are indexed by neighborhoods in lexicographic
order with the leftmost cell most significant, and the text form of a rule
is "q r digits" with exactly q^(r+1) table digits.

A LocalRule stores its table as bytes, one symbol per byte.  numpy code reads
it through `LocalRule.array`, a read-only uint8 view, and hands tables back
with `ndarray.tobytes()`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .rng import SplitMix64, map_ranges

DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_ALPHABET = len(DIGITS)

#: every symbol value, and a bytes.translate table from each to its digit
_SYMBOLS = bytes(range(MAX_ALPHABET))
_TO_DIGITS = bytes.maketrans(_SYMBOLS, DIGITS.encode())

#: refuse to enumerate rule spaces larger than this (tables, not rules tested)
DEFAULT_ENUMERATION_LIMIT = 1 << 26

#: refuse rule spaces of this many tables or more, even under a raised
#: limit: no enumeration of 2^63 tables can finish
MAX_RULE_TABLES = 1 << 63

#: the surjective-rule enumeration streams blocks of table indices; every
#: array it builds (tail digits, decoded tables, word images) holds at most
#: about this many entries
PREFILTER_CELLS = 1 << 16

#: the surjectivity search keeps one byte per pair of de Bruijn words
MAX_PAIR_VERTICES = 1 << 18

#: self_compose refuses larger tables: composing one, and a pushforward's
#: transfer matrix over it, take about 35 bytes per cell
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
    """A local rule: alphabet size q, radius r, and the full truth table (ints, kept as bytes)."""

    q: int
    r: int
    table: bytes

    def __post_init__(self):
        if not 2 <= self.q <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [2, {MAX_ALPHABET}]")
        if self.r < 0:
            raise ValueError("radius must be >= 0")
        n = len(self.table)  # a sized sequence, which the error path below reads again
        if not isinstance(self.table, bytes):
            try:  # entry by entry: bytes() of an array would copy its raw buffer
                object.__setattr__(self, "table", bytes(iter(self.table)))
            except ValueError:  # an entry outside range(256)
                bad = next(v for v in self.table if not 0 <= v < self.q)
                raise ValueError(f"table entry {bad} out of range") from None
        # q^(r+1) > n once r + 1 reaches n's bit length: refused unbuilt
        if self.r + 1 >= n.bit_length() or self.q ** (self.r + 1) != n:
            raise ValueError(
                f"table must have q^(r+1) = {size_text(self.q, self.r + 1)} entries, got {n}"
            )
        if bad := self.table.translate(None, _SYMBOLS[: self.q]):  # the non-symbols, in order
            raise ValueError(f"table entry {bad[0]} out of range")

    @property
    def array(self) -> np.ndarray:
        """The table as a read-only uint8 array sharing its bytes."""
        return np.frombuffer(self.table, np.uint8)

    def format(self) -> str:
        return f"{self.q} {self.r} {self.table.translate(_TO_DIGITS).decode()}"

    def __str__(self) -> str:
        return self.format()

    @classmethod
    def identity(cls, q: int) -> "LocalRule":
        return cls(q, 0, _SYMBOLS[:q])

    @classmethod
    def shift(cls, q: int) -> "LocalRule":
        return cls(q, 1, _SYMBOLS[:q] * q)

    @classmethod
    def xor(cls) -> "LocalRule":
        """The two-neighbor binary XOR rule f(a, b) = a + b mod 2."""
        return cls(2, 1, b"\0\1\1\0")


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
    return LocalRule(q, r, word_symbols(parts[2], q))


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


def _image_index(q: int, r: int, tables: np.ndarray, length: int) -> np.ndarray:
    """Base-q index of the image of every word of r + length cells, per table row.

    Each row of `tables` is one radius-r rule table.  Image cell j reads the
    r + 1 cells from j, the middle axis of the word indices laid out as
    (q^j, q^(r+1), q^(length-1-j)): one broadcast add per cell.
    """
    rows, width = len(tables), q ** (r + 1)
    image = np.zeros((rows, q ** (r + length)), dtype=np.int64)
    cells = tables.reshape(rows, 1, width, 1)
    for j in range(length):
        image *= q
        window = image.reshape(rows, q**j, width, q ** (length - 1 - j))
        window += cells
    return image


def compose(f: LocalRule, g: LocalRule) -> LocalRule:
    """Rule computing f after g, of radius f.r + g.r.

    Built over every neighborhood at once: g's image of each one, as an
    index (`_image_index`), looks up f's table.
    """
    if f.q != g.q:
        raise ValueError("cannot compose rules over different alphabets")
    inner = _image_index(g.q, g.r, g.array[None], f.r + 1)[0]
    return LocalRule(f.q, f.r + g.r, f.array[inner].tobytes())


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
    return all(rule.table.count(s) == rule.q**rule.r for s in range(rule.q))


def is_surjective(rule: LocalRule) -> bool:
    """Decide surjectivity of the global map on bi-infinite configurations.

    Rules of q^(2r) > MAX_PAIR_VERTICES are refused first.  Then three
    steps, cheapest first.  Surjectivity forces balance at every word
    length, so a rule unbalanced at length 1 is not surjective.  A left- or
    right-permutive rule is surjective (Hedlund 1969); that covers 496 of
    the 582 binary radius-3 surjective rules and all 420 ternary radius-1
    ones.  Every other rule is decided on the pair graph, see
    `_pair_graph_surjective`.  An enumerated rule space takes the same steps
    on whole blocks of tables, with balance at lengths 2 to 5 as well, see
    `_surjective_in_range`.
    """
    check_size(MAX_PAIR_VERTICES, "q^(2r) = {size} pair-graph vertices", rule.q, 2 * rule.r)
    if not is_balanced(rule):
        return False
    return bool(_permutive_rows(rule.q, rule.array[None])[0]) or _pair_graph_surjective(rule)


def _permutive_rows(q: int, tables: np.ndarray) -> np.ndarray:
    """Which rows of `tables` permute the rightmost or the leftmost cell.

    With the leftmost cell most significant, the neighborhoods that share
    their first r cells are q consecutive table entries, and those that
    share their last r cells are the entries q^r apart.  Such a group is a
    permutation iff the OR of its symbols' bits 1 << s sets all q bits.
    """
    rows, qr = len(tables), tables.shape[1] // q
    bits = np.left_shift(1, tables, dtype=np.int64)  # q > 8 bits overflow a uint8
    full = (1 << q) - 1
    right = np.bitwise_or.reduce(bits.reshape(rows, qr, q), axis=2) == full
    left = np.bitwise_or.reduce(bits.reshape(rows, q, qr), axis=1) == full
    return right.all(axis=1) | left.all(axis=1)


def _pair_graph_surjective(rule: LocalRule) -> bool:
    """Surjectivity by a search of the pair graph; decides every rule.

    In one dimension a rule is surjective iff it is pre-injective: no two
    configurations that differ in finitely many cells share an image
    (Hedlund 1969; Amoroso & Patt 1972).  The pair graph steps from a pair
    (u, v) of de Bruijn words of length r to the last r symbols of (ub, vc)
    when f(ub) = f(vc); such a pair of configurations is a path that leaves
    the diagonal u = v with b != c and returns to it.  Pairs are stored
    unordered, one byte each in a table of q^(2r) entries.
    """
    q, qr = rule.q, rule.q**rule.r
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


def enumerate_rules(
    q: int, r: int, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> Iterator[LocalRule]:
    """Yield every radius-r rule table in lexicographic order.

    Refuses every rule space `check_rule_space` refuses.
    """
    check_rule_space(q, r, limit)
    for table in itertools.product(range(q), repeat=q ** (r + 1)):
        yield LocalRule(q, r, bytes(table))


def check_rule_space(q: int, r: int, limit: int) -> int:
    """The size of the radius-r rule space, refused unless it can be enumerated.

    Refuses a negative radius, a space of more than `limit` tables (checked
    before the alphabet bound, so a large q reads as an oversize space), an
    alphabet size outside [2, MAX_ALPHABET], and a space of 2^63 or more
    tables whatever the limit, as no enumeration of that many can finish.
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

    Each row is one rule table; one bincount, offset per row, counts images.
    Rows go in slices of at most max(1, PREFILTER_CELLS // q^(r+length)), so
    that an image array holds at most about PREFILTER_CELLS entries.
    """
    words = q**length
    step = max(1, PREFILTER_CELLS // q ** (r + length))
    out = []
    for part in np.split(tables, range(step, len(tables), step)):
        rows = len(part)
        image = _image_index(q, r, part, length)
        image += np.arange(rows, dtype=np.int64)[:, None] * words
        counts = np.bincount(image.ravel(), minlength=rows * words)
        out.append((counts.reshape(rows, words) == q**r).all(axis=1))
    return np.concatenate(out)


def _block_digits(q: int, r: int) -> int:
    """The number k of last table entries that vary within a block of q^k indices.

    The largest k, at least 1, such that q^k tables of q^(r+1) cells fit in
    PREFILTER_CELLS: at q=2 r=3 a block holds 4,096 tables, at q=3 r=1 6,561.
    """
    cells = q ** (r + 1)
    k = 1
    while k < cells and q ** (k + 1) * cells <= PREFILTER_CELLS:
        k += 1
    return k


def _balanced_blocks(q: int, r: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The tables of blocks lo..hi-1 balanced on words of lengths 1, 2 and 3.

    Block b holds the q^k tables (k from `_block_digits`) whose first
    q^(r+1) - k entries are b's base-q digits; one array of table rows, in
    table order, is yielded per block.  Balance at length 1 needs a block's
    last k entries to hold q^r of each symbol minus the shared entries'
    counts.  These are read from the precomputed symbol counts of every
    k-digit tail, and only the tables that pass are decoded.  Balance at
    lengths 2 and 3 then filters the decoded rows.  At q=2 r=3, 12,870 of
    the 65,536 tables are balanced at length 1, and 974 at lengths 1 to 3.
    """
    cells, k = q ** (r + 1), _block_digits(q, r)
    tails = np.indices((q,) * k).reshape(k, q**k).T  # every k-digit tail, in order
    tail_counts = np.stack([(tails == s).sum(axis=1) for s in range(q)], axis=1)
    for block in range(lo, hi):
        head = [block // q ** (cells - k - 1 - i) % q for i in range(cells - k)]
        need = [q**r - head.count(s) for s in range(q)]
        if min(need) < 0:
            continue
        rows = np.flatnonzero((tail_counts == need).all(axis=1))
        tables = np.empty((len(rows), cells), dtype=np.uint8)
        tables[:, : cells - k] = head
        tables[:, cells - k :] = tails[rows]
        for length in (2, 3):
            tables = tables[_words_balanced(q, r, tables, length)]
        yield tables


def _surjective_in_range(q: int, r: int, lo: int, hi: int) -> list:
    """The surjective rules of blocks lo..hi-1 (see `_balanced_blocks`), in table order.

    Surjectivity forces balance at every word length (Hedlund 1969).  Each
    block of `_balanced_blocks` (balanced at lengths 1 to 3) keeps its left-
    and right-permutive tables; the others must also be balanced at lengths
    4 and 5, and the pair graph decides what is left.  At q=2 r=3 that is
    974 tables, 496 permutive, and 86 pair-graph calls, all surjective; at
    q=3 r=1 every one of the 420 balanced tables is permutive.
    """
    found = []
    for tables in _balanced_blocks(q, r, lo, hi):
        keep = _permutive_rows(q, tables)
        (rest,) = np.nonzero(~keep)
        for length in (4, 5):
            rest = rest[_words_balanced(q, r, tables[rest], length)]
        keep[rest] = [_pair_graph_surjective(LocalRule(q, r, t.tobytes())) for t in tables[rest]]
        found += [LocalRule(q, r, t.tobytes()) for t in tables[keep]]
    return found


_SURJECTIVE_RULES: dict[tuple[int, int], tuple[LocalRule, ...]] = {}


def surjective_rules(
    q: int, r: int, limit: int = DEFAULT_ENUMERATION_LIMIT, jobs: int = 1
) -> tuple[LocalRule, ...]:
    """All surjective radius-r rules in table order, cached on (q, r) for sweeps.

    The filter runs on `jobs` workers (see `map_ranges`), in whole blocks
    of `_balanced_blocks`; the result does not depend on `jobs`.  Refuses
    rule spaces larger than `limit` tables, cached or not, and every space
    `check_rule_space` refuses.
    """
    count = check_rule_space(q, r, limit)
    if (q, r) not in _SURJECTIVE_RULES:
        parts = map_ranges(_surjective_in_range, count // q ** _block_digits(q, r), jobs, q, r)
        _SURJECTIVE_RULES[q, r] = tuple(rule for part in parts for rule in part)
    return _SURJECTIVE_RULES[q, r]


def table_array(q: int, r: int, rules: Sequence[LocalRule]) -> np.ndarray:
    """The radius-r rule tables as one read-only (N, q^(r+1)) uint8 array, a row per rule."""
    joined = b"".join(rule.table for rule in rules)
    return np.frombuffer(joined, np.uint8).reshape(len(rules), q ** (r + 1))


def random_rule(q: int, r: int, rng: SplitMix64) -> LocalRule:
    """A uniformly random rule table drawn from the given stream."""
    return LocalRule(q, r, tuple(rng.below(q) for _ in range(q ** (r + 1))))
