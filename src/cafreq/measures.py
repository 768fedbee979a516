"""Shift-invariant measures on symbol sequences, queried on cylinders.

A measure is represented by its exact rational cylinder values: the
probability that a given finite word appears at position 0.  Product,
uniform, Dirac, and finite-depth explicit tables are supported.  Pushing a
measure forward under a rule sums the measure over all preimage words.  For
a product measure with integer weights n_s over a common denominator D that
sum is an integer over D^(|w|+r), and a transfer matrix over the q^r de
Bruijn states adds it up without listing the preimages; other measures
enumerate them.  Everything is exact except block entropy, which is the one
floating-point diagnostic (it needs logarithms).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Mapping, Optional, Sequence, TypeVar, Union

import numpy as np

from .correlation import SymbolsLike, histogram, normalize_symbols
from .rules import (
    DIGITS,
    LocalRule,
    _preimage_iter,
    check_size,
    self_compose,
    symbols_word,
    word_symbols,
)

DEFAULT_PUSHFORWARD_LIMIT = 1 << 26

V = TypeVar("V", int, Fraction)
Word = tuple[int, ...]


class CylinderMeasure:
    """Base: a shift-invariant measure described by exact cylinder values."""

    q: int

    def cylinder(self, word: str) -> Fraction:
        raise NotImplementedError


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
        for length in range(depth + 1):
            for syms in itertools.product(range(q), repeat=length):
                w = symbols_word(syms)
                if w not in self._table:
                    raise ValueError(f"missing cylinder value for {w!r}")
                v = self._table[w]
                if v < 0 or v > 1:
                    raise ValueError(f"cylinder value for {w!r} out of [0, 1]")
                if length < depth:
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


MeasureSpec = Union[str, Mapping]


def _fraction(value) -> Fraction:
    # Fraction("1/0") raises ZeroDivisionError; a bad descriptor is a ValueError
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"not a rational number: {value!r}") from None


def make_measure(spec: MeasureSpec, q: Optional[int] = None) -> CylinderMeasure:
    """Build a measure from a descriptor.

    Strings: "uniform", "bernoulli:P", "dirac:S", "product:P0,P1,...",
    "subset:SYMBOLS:P" (mass P spread over the given symbols).  Mappings use
    a "kind" key with matching fields; kind "explicit" takes depth and table.
    """
    if isinstance(spec, str):
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
    kind = spec.get("kind")
    if kind == "explicit":
        return ExplicitMeasure(spec["q"], spec["depth"], spec["table"])
    if kind == "product":
        probs = tuple(_fraction(x) for x in spec["probs"])
        return ProductMeasure(len(probs), probs)
    if kind == "uniform":
        return ProductMeasure.uniform(spec["q"])
    if kind == "dirac":
        return DiracMeasure(spec["q"], spec["symbol"])
    raise ValueError(f"unknown measure spec {spec!r}")


#: the pushforward refusal: a length-e preimage word has q^e candidates
_PREIMAGES = "preimage enumeration q^{e} = {size}"


class _TransferMatrix:
    """Preimage weights of a rule under integer symbol weights n.

    A state is the table index of the last r cells of a partial preimage,
    one of the q^r de Bruijn words of length r.  A vector over the states
    holds, per state, the sum of prod n[s] over the partial preimages that
    end there; reading an output symbol a extends each one by every cell b
    whose neighborhood state*q + b maps to a.  After the whole word the
    vector sums to the weight of the word's preimage set.  Entries are
    Python ints in numpy object arrays, so nothing overflows.
    """

    def __init__(self, rule: LocalRule, n: Sequence[int]):
        self.q, self.states = rule.q, rule.q**rule.r
        table = np.array(rule.table, dtype=np.uint8).reshape(self.states, self.q)
        weights = np.array(n, dtype=object)
        # hits[a][state, b]: n[b] where neighborhood state*q + b maps to a, else 0
        self.hits = [np.where(table == a, weights, 0) for a in range(self.q)]
        start = np.ones(1, dtype=object)
        for _ in range(rule.r):
            start = (start[:, None] * weights).reshape(-1)
        self.start = start

    def step(self, v: np.ndarray, a: int) -> np.ndarray:
        # row-major (state, b) is the neighborhood index; its last r cells,
        # the next state, are the index modulo q^r
        return (v[:, None] * self.hits[a]).reshape(self.q, self.states).sum(axis=0)

    def weight(self, syms: Sequence[int]) -> int:
        v = self.start
        for a in syms:
            v = self.step(v, a)
        return int(v.sum())

    def word_weights(self, n: int) -> Iterator[tuple[Word, int]]:
        """(u, weight) for every length-n word u, in lexicographic order.

        Depth first: each prefix's vector is computed once and extended.
        """

        def extend(prefix: Word, v: np.ndarray):
            if len(prefix) == n:
                yield prefix, int(v.sum())
                return
            for a in range(self.q):
                yield from extend(prefix + (a,), self.step(v, a))

        return extend((), self.start)


def _check_alphabets(rule: LocalRule, mu: CylinderMeasure) -> None:
    if mu.q != rule.q:
        raise ValueError("measure and rule alphabets differ")


def pushforward(
    rule: LocalRule,
    mu: CylinderMeasure,
    word: str,
    limit: int = DEFAULT_PUSHFORWARD_LIMIT,
) -> Fraction:
    """Image-measure cylinder value: the measure of the word's preimage set."""
    if len(word) < 1:
        raise ValueError("pushforward needs a nonempty word")
    _check_alphabets(rule, mu)
    check_size(limit, _PREIMAGES, rule.q, len(word) + rule.r)
    if not isinstance(mu, ProductMeasure):
        return sum(
            (mu.cylinder(w) for w in _preimage_iter(rule, word)), Fraction(0)
        )
    syms = word_symbols(word, rule.q)
    denominator, n = mu.weights
    total = _TransferMatrix(rule, n).weight(syms)
    return Fraction(total, denominator ** (len(syms) + rule.r))


def iterate_pushforward(
    rule: LocalRule,
    mu: CylinderMeasure,
    t: int,
    word: str,
    limit: int = DEFAULT_PUSHFORWARD_LIMIT,
) -> Fraction:
    """Cylinder value after t rule steps, via the t-fold composed rule."""
    check_iterate_pushforward(rule, t, word, limit)
    if t == 0:
        return mu.cylinder(word)
    return pushforward(self_compose(rule, t), mu, word, limit)


def check_iterate_pushforward(
    rule: LocalRule, t: int, word: str, limit: int = DEFAULT_PUSHFORWARD_LIMIT
) -> None:
    """Refuse, before any table is composed, what t steps would refuse."""
    if t < 0:
        raise ValueError("step count must be >= 0")
    if t:
        check_size(limit, _PREIMAGES, rule.q, len(word) + t * rule.r)
        if not word:
            raise ValueError("pushforward needs a nonempty word")


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


def _words(q: int, n: int) -> Iterator[Word]:
    """Every length-n symbol tuple, in lexicographic order."""
    return itertools.product(range(q), repeat=n)


def _farthest(values: Iterable[tuple[Word, V]], center: V) -> tuple[V, Word]:
    """Largest |value - center| and the first word attaining it."""
    best, witness = -1, ()
    for u, value in values:
        d = abs(value - center)
        if d > best:
            best, witness = d, u
    return best, witness


def check_uniform_contraction(
    rule: LocalRule,
    mu: CylinderMeasure,
    n: int,
    limit: int = DEFAULT_PUSHFORWARD_LIMIT,
) -> ContractionReport:
    """Compare sup-distance to uniform before and after one rule step.

    lhs is the maximum of |F mu([u]) - q^-n| over length-n words u, rhs the
    same maximum for mu itself; holds means lhs <= rhs.  Witnesses are the
    lexicographically first maximizers.  For a product measure both sides
    are compared as integer numerators over their common denominators.
    """
    if n < 1:
        raise ValueError("cylinder length must be >= 1")
    q = rule.q
    check_size(limit, _PREIMAGES, q, n + rule.r)
    _check_alphabets(rule, mu)
    if isinstance(mu, ProductMeasure):
        denominator, weights = mu.weights
        scale = q**n  # |x / D^k - 1 / q^n| = |x q^n - D^k| / (D^k q^n)
        image_unit, base_unit = denominator ** (n + rule.r), denominator**n
        image = _TransferMatrix(rule, weights).word_weights(n)
        base = ((u, math.prod(weights[s] for s in u)) for u in _words(q, n))
        lhs, witness_u = _farthest(((u, x * scale) for u, x in image), image_unit)
        rhs, witness_w = _farthest(((u, x * scale) for u, x in base), base_unit)
        lhs, rhs = Fraction(lhs, image_unit * scale), Fraction(rhs, base_unit * scale)
    else:
        lam = Fraction(1, q**n)
        image = ((u, pushforward(rule, mu, symbols_word(u), limit)) for u in _words(q, n))
        base = ((u, mu.cylinder(symbols_word(u))) for u in _words(q, n))
        lhs, witness_u = _farthest(image, lam)
        rhs, witness_w = _farthest(base, lam)
    return ContractionReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        witness_u=symbols_word(witness_u),
        witness_w=symbols_word(witness_w),
    )


def check_measure_invariance(
    rule: LocalRule,
    mu: CylinderMeasure,
    depth: int,
    limit: int = DEFAULT_PUSHFORWARD_LIMIT,
) -> bool:
    """True iff the pushforward agrees with mu on all cylinders up to depth."""
    q = rule.q
    for length in range(1, depth + 1):
        for syms in itertools.product(range(q), repeat=length):
            u = symbols_word(syms)
            if pushforward(rule, mu, u, limit) != mu.cylinder(u):
                return False
    return True


@dataclass(frozen=True)
class BlockEntropyReport:
    n: int
    value: float  # H_n in nats
    rate: float  # H_n / n
    increment: float  # H_n - H_{n-1}


def _block_entropy_value(mu: CylinderMeasure, n: int) -> float:
    if n == 0:
        return 0.0
    total = 0.0
    for syms in itertools.product(range(mu.q), repeat=n):
        p = mu.cylinder(symbols_word(syms))
        if p > 0:
            pf = float(p)
            total -= pf * math.log(pf)
    return total


def block_entropy(
    mu: CylinderMeasure, n: int, limit: int = DEFAULT_PUSHFORWARD_LIMIT
) -> BlockEntropyReport:
    """Shannon entropy of the length-n cylinder distribution (nats, float).

    The one deliberately inexact diagnostic in this module.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    check_size(limit, "q^n = {size}", mu.q, n)
    h_n = _block_entropy_value(mu, n)
    h_prev = _block_entropy_value(mu, n - 1)
    return BlockEntropyReport(n=n, value=h_n, rate=h_n / n, increment=h_n - h_prev)
