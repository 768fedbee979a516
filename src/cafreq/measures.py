"""Shift-invariant measures on symbol sequences, queried on cylinders.

A measure is represented by its exact rational cylinder values: the
probability that a given finite word appears at position 0.  Product,
uniform, Dirac, and finite-depth explicit tables are supported.  Exact
values are integers over one denominator.  Each measure builds its own
cylinder vector, `vector(n)`, which holds them for every word of one length;
a rule pushes it from words of n + r cells onto their images of n cells
(`rules._image_index`), and the contraction, invariance and entropy checks
read such vectors.  `pushforward` asks the measure for one image cylinder,
`_image`: by default a pushed vector, while a product measure sums its
preimage weights along its transfer matrix.  Block entropy is the one
floating-point diagnostic (it needs logarithms).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb
from typing import Mapping, Optional

import numpy as np

from .correlation import SymbolsLike, histogram, normalize_symbols
from .rules import (
    DIGITS,
    LocalRule,
    _image_index,
    check_composed_size,
    check_size,
    self_compose,
    symbols_word,
    word_symbols,
)

DEFAULT_PUSHFORWARD_LIMIT = 1 << 26

#: the checks that build cylinder vectors refuse more cells than this by
#: default: contraction at 2^23 cells peaks at about 340 MB
MAX_VECTOR_CELLS = 1 << 23


class CylinderMeasure:
    """Base: a shift-invariant measure described by exact cylinder values."""

    q: int

    def cylinder(self, word: str) -> Fraction:
        raise NotImplementedError

    def vector(self, n: int) -> tuple[np.ndarray, int]:
        """(v, D) with mu([u]) = v[u] / D for every length-n word u.

        v holds Python ints (object dtype) indexed by word, base q, leftmost
        cell most significant; here, the cylinder values over their least
        common denominator.
        """
        values = [self.cylinder(symbols_word(u)) for u in itertools.product(range(self.q), repeat=n)]
        denominator = math.lcm(*(x.denominator for x in values))
        return np.array([int(x * denominator) for x in values], dtype=object), denominator

    def _image(self, rule: LocalRule, word: str) -> Fraction:
        """F mu([word]): the vector over |word| + r cells pushed onto the word."""
        v, denominator = self.vector(len(word) + rule.r)
        return Fraction(_push(rule, v)[int(word, rule.q)], denominator)


@dataclass(frozen=True)
class ProductMeasure(CylinderMeasure):
    """Independent identically distributed cells with rational symbol weights."""

    q: int
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.probs) != self.q:
            raise ValueError("need one probability per symbol")
        if any(p < 0 or p > 1 for p in self.probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if sum(self.probs) != 1:
            raise ValueError("probabilities must sum to 1 exactly")

    @cached_property
    def weights(self) -> tuple[int, tuple[int, ...]]:
        """(D, n): integer symbol weights over a common denominator, probs[s] = n[s] / D."""
        denominator = math.lcm(*(p.denominator for p in self.probs))
        return denominator, tuple(
            p.numerator * (denominator // p.denominator) for p in self.probs
        )

    def cylinder(self, word: str) -> Fraction:
        denominator, n = self.weights
        syms = word_symbols(word, self.q)
        return Fraction(math.prod(n[s] for s in syms), denominator ** len(syms))

    def vector(self, n: int) -> tuple[np.ndarray, int]:
        """The outer product of the integer weights over D^n, each distinct product built once."""
        denominator, weights = self.weights
        values, index = [1], np.zeros(1, dtype=np.int64)
        for _ in range(n):
            products: dict[int, int] = {}  # extend[i][s] numbers values[i] * weights[s]
            extend = [[products.setdefault(x * w, len(products)) for w in weights] for x in values]
            values = list(products)
            index = np.array(extend, dtype=np.int64)[index].reshape(-1)
        return np.array(values, dtype=object)[index], denominator**n

    def _image(self, rule: LocalRule, word: str) -> Fraction:
        """Sum prod n[s] over the word's preimages along a transfer matrix, over D^(|word| + r).

        A vector over the q^r de Bruijn states (the table index of the last r
        cells) holds the weight of the partial preimages ending in each; it
        starts as the cylinder vector at length r, and reading an output a
        extends each by every cell b whose neighborhood state*q + b maps to a.
        """
        q, states = rule.q, rule.q**rule.r
        table = np.array(rule.table, dtype=np.uint8).reshape(states, q)
        weights = np.array(self.weights[1], dtype=object)
        # hits[a][state, b]: n[b] where neighborhood state*q + b maps to a, else 0
        hits = [np.where(table == a, weights, 0) for a in range(q)]
        v = self.vector(rule.r)[0]
        for a in word_symbols(word, q):
            # row-major (state, b) is the neighborhood index; its last r cells,
            # the next state, are the index modulo q^r
            v = (v[:, None] * hits[a]).reshape(q, states).sum(axis=0)
        return Fraction(int(v.sum()), self.weights[0] ** (len(word) + rule.r))

    @classmethod
    def uniform(cls, q: int) -> "ProductMeasure":
        return cls(q, tuple(Fraction(1, q) for _ in range(q)))

    @classmethod
    def bernoulli(cls, p) -> "ProductMeasure":
        """Binary product measure with 1-density p."""
        p = Fraction(p)
        return cls(2, (1 - p, p))

    @classmethod
    def concentrated(cls, q: int, A: SymbolsLike, p) -> "ProductMeasure":
        """Product measure giving total mass p to A, spread uniformly.

        Each symbol of A gets p/|A| and each other symbol (1-p)/(q-|A|).
        """
        Aset = normalize_symbols(A, q)
        p = Fraction(p)
        if not Aset or len(Aset) == q:
            raise ValueError("symbol set must be nonempty and proper")
        inside = p / len(Aset)
        outside = (1 - p) / (q - len(Aset))
        return cls(q, tuple(inside if s in Aset else outside for s in range(q)))


def DiracMeasure(q: int, symbol: int) -> ProductMeasure:
    """Unit mass on the constant configuration of one symbol."""
    if not 0 <= symbol < q:
        raise ValueError("symbol out of range")
    return ProductMeasure(q, tuple(Fraction(int(s == symbol)) for s in range(q)))


class ExplicitMeasure(CylinderMeasure):
    """Cylinder table for every word up to a fixed depth, validated."""

    def __init__(self, q: int, depth: int, table: Mapping[str, Fraction]):
        self.q = q
        self.depth = depth
        self._table = {w: Fraction(v) for w, v in table.items()}
        if self._table.get("", Fraction(1)) != 1:
            raise ValueError("the empty cylinder must have measure 1")
        self._table[""] = Fraction(1)
        words = [
            symbols_word(syms)
            for length in range(depth + 1)
            for syms in itertools.product(range(q), repeat=length)
        ]
        # every value is present and in range before any sum reads one
        for w in words:
            if w not in self._table:
                raise ValueError(f"missing cylinder value for {w!r}")
            if not 0 <= self._table[w] <= 1:
                raise ValueError(f"cylinder value for {w!r} out of [0, 1]")
        for w in words:
            if len(w) < depth:
                v = self._table[w]
                right = sum(self._table[w + DIGITS[a]] for a in range(q))
                left = sum(self._table[DIGITS[a] + w] for a in range(q))
                if right != v or left != v:
                    raise ValueError(
                        f"inconsistent explicit table at {w!r}: "
                        f"{v} vs right {right}, left {left}"
                    )

    def cylinder(self, word: str) -> Fraction:
        word_symbols(word, self.q)
        if len(word) > self.depth:
            raise ValueError(
                f"explicit measure has depth {self.depth}, cannot answer "
                f"cylinder of length {len(word)}"
            )
        return self._table[word]


def _fraction(value) -> Fraction:
    # Fraction("1/0") raises ZeroDivisionError; a bad descriptor is a ValueError
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"not a rational number: {value!r}") from None


def make_measure(spec: str, q: Optional[int] = None) -> CylinderMeasure:
    """Build a measure from a descriptor.

    "uniform", "bernoulli:P", "dirac:S", "product:P0,P1,...", or
    "subset:SYMBOLS:P" (mass P spread over the given symbols).
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "uniform":
        if q is None:
            raise ValueError("uniform measure needs the alphabet size")
        return ProductMeasure.uniform(q)
    if name == "bernoulli":
        return ProductMeasure.bernoulli(_fraction(arg))
    if name == "dirac":
        if q is None:
            raise ValueError("dirac measure needs the alphabet size")
        symbols = word_symbols(arg.strip(), q)
        if len(symbols) != 1:
            raise ValueError(f"dirac needs exactly one symbol, got {arg!r}")
        return DiracMeasure(q, symbols[0])
    if name == "product":
        probs = tuple(_fraction(x) for x in arg.split(","))
        return ProductMeasure(len(probs), probs)
    if name == "subset":
        if q is None:
            raise ValueError("subset measure needs the alphabet size")
        symbols_text, _, p_text = arg.partition(":")
        return ProductMeasure.concentrated(
            q, word_symbols(symbols_text.strip(), q), _fraction(p_text)
        )
    raise ValueError(f"unknown measure descriptor {spec!r}")


#: the pushforward refusal: a length-e preimage word has q^e candidates
_PREIMAGES = "preimage enumeration q^{e} = {size}"


def _check_vector(limit: Optional[int], what: str, q: int, exponent: int) -> None:
    """Refuse a cylinder vector of q^exponent cells over `limit` before it is built.

    By default: over DEFAULT_PUSHFORWARD_LIMIT, as a pushforward, then over MAX_VECTOR_CELLS.
    """
    if limit is None:
        check_size(DEFAULT_PUSHFORWARD_LIMIT, what, q, exponent)
    check_size(MAX_VECTOR_CELLS if limit is None else limit, what, q, exponent)


def _push(rule: LocalRule, v: np.ndarray) -> np.ndarray:
    """Push a cylinder vector over n + r cells onto n cells: u sums v over u's preimages."""
    q, r = rule.q, rule.r
    n = round(math.log(len(v), q)) - r
    image = _image_index(q, r, np.array([rule.table], dtype=np.int64), n)[0]
    out = np.zeros(q**n, dtype=object)
    np.add.at(out, image, v)
    return out


def _check_alphabets(rule: LocalRule, mu: CylinderMeasure) -> None:
    if mu.q != rule.q:
        raise ValueError("measure and rule alphabets differ")


def pushforward(
    rule: LocalRule,
    mu: CylinderMeasure,
    word: str,
    limit: int = DEFAULT_PUSHFORWARD_LIMIT,
) -> Fraction:
    """Image-measure cylinder value: the measure of the word's preimage set (`mu._image`)."""
    if len(word) < 1:
        raise ValueError("pushforward needs a nonempty word")
    _check_alphabets(rule, mu)
    check_size(limit, _PREIMAGES, rule.q, len(word) + rule.r)
    word_symbols(word, rule.q)
    return mu._image(rule, word)


def iterate_pushforward(
    rule: LocalRule,
    mu: CylinderMeasure,
    t: int,
    word: str,
    limit: int = DEFAULT_PUSHFORWARD_LIMIT,
) -> Fraction:
    """Cylinder value after t rule steps, via the t-fold composed rule."""
    check_iterate_pushforward(rule, mu, t, word, limit)
    if t == 0:
        return mu.cylinder(word)
    return pushforward(self_compose(rule, t), mu, word, limit)


def check_iterate_pushforward(
    rule: LocalRule, mu: CylinderMeasure, t: int, word: str, limit: int = DEFAULT_PUSHFORWARD_LIMIT
) -> None:
    """Refuse, before any table is composed, what t steps (t = 0 too) would refuse."""
    if t < 0:
        raise ValueError("step count must be >= 0")
    if not word:
        raise ValueError("pushforward needs a nonempty word")
    _check_alphabets(rule, mu)
    word_symbols(word, rule.q)
    if t:
        check_size(limit, _PREIMAGES, rule.q, len(word) + t * rule.r)
        check_composed_size(rule.q, rule.r, t)


def pushforward_mass_from_histogram(rule: LocalRule, A: SymbolsLike, p) -> Fraction:
    """A-mass of the pushforward of the A-concentrated product measure.

    Evaluates, from the histogram counts N_k alone,

        sum_{l=0}^{r+1} p^l * sum_{k<=l} (-1)^(l-k) C(r+1-k, r+1-l) N_k
                                          / (|A|^k (q-|A|)^(r+1-k))

    which must agree with summing the direct pushforward over the symbols
    of A.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("mass parameter must satisfy 0 < p < 1")
    q, r = rule.q, rule.r
    Aset = normalize_symbols(A, q)
    if not Aset or len(Aset) == q:
        raise ValueError("symbol set must be nonempty and proper")
    counts = histogram(rule, Aset, Aset).counts
    a, b = len(Aset), q - len(Aset)
    total = Fraction(0)
    for l in range(r + 2):
        inner = Fraction(0)
        for k in range(l + 1):
            sign = -1 if (l - k) % 2 else 1
            inner += Fraction(
                sign * comb(r + 1 - k, r + 1 - l) * counts[k],
                a**k * b ** (r + 1 - k),
            )
        total += p**l * inner
    return total


@dataclass(frozen=True)
class ContractionReport:
    lhs: Fraction
    rhs: Fraction
    holds: bool
    witness_u: str
    witness_w: str


def _farthest(v: np.ndarray, denominator: int, q: int, n: int) -> tuple[Fraction, str]:
    """Largest |v[u] / D - q^-n| over length-n words u, and the first u attaining it."""
    scale = q**n  # |x / D - 1 / q^n| = |x q^n - D| / (D q^n)
    d = np.abs(v * scale - denominator)
    i = int(np.argmax(d))
    return Fraction(d[i], denominator * scale), np.base_repr(i, q).zfill(n).lower()


def check_uniform_contraction(
    rule: LocalRule,
    mu: CylinderMeasure,
    n: int,
    limit: Optional[int] = None,
) -> ContractionReport:
    """Compare sup-distance to uniform before and after one rule step.

    lhs is the maximum of |F mu([u]) - q^-n| over length-n words u, rhs the
    same maximum for mu itself; holds means lhs <= rhs.  Witnesses are the
    lexicographically first maximizers.  Both sides are cylinder vectors,
    compared as integers; the image's q^(n+r) cells are refused over
    `limit` (see `_check_vector`).
    """
    if n < 1:
        raise ValueError("cylinder length must be >= 1")
    _check_vector(limit, _PREIMAGES, rule.q, n + rule.r)
    _check_alphabets(rule, mu)
    v, denominator = mu.vector(n + rule.r)
    lhs, witness_u = _farthest(_push(rule, v), denominator, rule.q, n)
    rhs, witness_w = _farthest(*mu.vector(n), rule.q, n)
    return ContractionReport(lhs, rhs, lhs <= rhs, witness_u, witness_w)


def check_measure_invariance(
    rule: LocalRule,
    mu: CylinderMeasure,
    depth: int,
    limit: Optional[int] = None,
) -> bool:
    """True iff the pushforward agrees with mu on all cylinders up to depth.

    One length l at a time, so a mismatch returns False before a longer
    length is refused; q^(l+r) cells are refused over `limit` (see
    `_check_vector`).
    """
    if depth < 1:
        raise ValueError("invariance depth must be >= 1")
    _check_alphabets(rule, mu)
    for length in range(1, depth + 1):
        _check_vector(limit, _PREIMAGES, rule.q, length + rule.r)
        v, denominator = mu.vector(length + rule.r)
        base, base_denominator = mu.vector(length)
        if np.any(_push(rule, v) * base_denominator != base * denominator):
            return False
    return True


@dataclass(frozen=True)
class BlockEntropyReport:
    n: int
    value: float  # H_n in nats
    rate: float  # H_n / n
    increment: float  # H_n - H_{n-1}


def _block_entropy_value(mu: CylinderMeasure, n: int) -> float:
    v, denominator = mu.vector(n)
    total = 0.0
    for x in v.tolist():
        if x:
            p = x / denominator  # correctly rounded, as float(Fraction(x, D)) is
            total -= p * math.log(p)
    return total


def block_entropy(
    mu: CylinderMeasure, n: int, limit: Optional[int] = None
) -> BlockEntropyReport:
    """Shannon entropy of the length-n cylinder distribution (nats, float).

    The one deliberately inexact diagnostic in this module.  Its q^n
    cylinder values are refused over `limit` (see `_check_vector`).
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    _check_vector(limit, "q^n = {size}", mu.q, n)
    h_n = _block_entropy_value(mu, n)
    h_prev = _block_entropy_value(mu, n - 1)
    return BlockEntropyReport(n=n, value=h_n, rate=h_n / n, increment=h_n - h_prev)
