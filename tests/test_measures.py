import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cafreq import (
    DiracMeasure,
    ExplicitMeasure,
    LocalRule,
    ProductMeasure,
    block_entropy,
    check_measure_invariance,
    check_uniform_contraction,
    iterate_pushforward,
    make_measure,
    parse_rule,
    pushforward,
    pushforward_mass_from_histogram,
    surjective_rules,
)
from cafreq import measures
from cafreq.rng import SplitMix64
from cafreq.rules import iterate_word, preimages, random_rule, symbols_word

XOR = parse_rule("2 1 0110")
IDENTITY2 = LocalRule.identity(2)
UNIFORM2 = ProductMeasure.uniform(2)

# product measures the kernel must handle, zero weights included
KERNEL_MEASURES = {
    2: ("bernoulli:1/3", "bernoulli:2/7", "uniform", "dirac:0", "dirac:1", "subset:1:1"),
    3: ("uniform", "product:1/2,1/3,1/6", "product:1/5,0,4/5", "dirac:2", "subset:02:1",
        "subset:1:1/4"),
}


def enumerated_pushforward(rule, mu, word):
    """Oracle: the measure summed over every preimage word."""
    return sum((mu.cylinder(w) for w in preimages(rule, word)), Fraction(0))


def words_up_to(q, n):
    for length in range(1, n + 1):
        for syms in itertools.product(range(q), repeat=length):
            yield symbols_word(syms)


def explicit_twin(mu, depth):
    """The same measure as an explicit table of every word up to depth."""
    table = {u: mu.cylinder(u) for u in words_up_to(mu.q, depth)}
    return ExplicitMeasure(mu.q, depth, {"": Fraction(1), **table})


def kernel_cases(seed, radii=(0, 1, 2, 3)):
    """Seeded random rules for q in {2, 3} with each measure of that alphabet."""
    rng = SplitMix64(seed)
    for q in (2, 3):
        for r in radii:
            for _ in range(2):
                rule = random_rule(q, r, rng)
                for spec in KERNEL_MEASURES[q]:
                    yield rule, make_measure(spec, q)


def ternary_example_rule():
    import itertools

    table = []
    for a, b, c in itertools.product(range(3), repeat=3):
        table.append(2 if b == c else (1 if a == 0 else 0))
    return LocalRule(3, 2, tuple(table))


class TestMeasureConstruction:
    def test_uniform(self):
        assert UNIFORM2.cylinder("01") == Fraction(1, 4)

    def test_bernoulli(self):
        mu = ProductMeasure.bernoulli(Fraction(1, 4))
        assert mu.cylinder("11") == Fraction(1, 16)

    def test_concentrated(self):
        mu = ProductMeasure.concentrated(3, [0, 2], Fraction(1, 2))
        assert mu.cylinder("0") == Fraction(1, 4)
        assert mu.cylinder("1") == Fraction(1, 2)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ProductMeasure(2, (Fraction(1, 2), Fraction(1, 3)))

    def test_dirac(self):
        mu = DiracMeasure(2, 0)
        assert mu.cylinder("000") == 1
        assert mu.cylinder("010") == 0

    def test_dirac_is_one_hot_product(self):
        assert DiracMeasure(3, 2) == ProductMeasure(3, (Fraction(0), Fraction(0), Fraction(1)))
        assert make_measure("dirac:2", 3).cylinder("22") == 1
        with pytest.raises(ValueError):
            DiracMeasure(2, 2)

    def test_explicit_consistent(self):
        table = {
            "": Fraction(1),
            "0": Fraction(2, 3),
            "1": Fraction(1, 3),
            "00": Fraction(1, 2),
            "01": Fraction(1, 6),
            "10": Fraction(1, 6),
            "11": Fraction(1, 6),
        }
        mu = ExplicitMeasure(2, 2, table)
        assert mu.cylinder("01") == Fraction(1, 6)
        with pytest.raises(ValueError):
            mu.cylinder("010")

    def test_explicit_inconsistent(self):
        bad = {
            "": Fraction(1),
            "0": Fraction(2, 3),
            "1": Fraction(1, 3),
            "00": Fraction(1, 2),
            "01": Fraction(1, 2),
            "10": Fraction(1, 6),
            "11": Fraction(1, 6),
        }
        with pytest.raises(ValueError):
            ExplicitMeasure(2, 2, bad)

    def test_explicit_missing_value_is_named_before_any_sum(self):
        # the length-1 sums would read "01" before its presence was checked
        partial = {"": 1, "0": Fraction(1, 2), "1": Fraction(1, 2), "00": Fraction(1, 4)}
        with pytest.raises(ValueError, match="missing cylinder value for '01'"):
            ExplicitMeasure(2, 2, partial)
        out_of_range = {**partial, "01": Fraction(1, 4), "10": Fraction(1, 4), "11": 2}
        with pytest.raises(ValueError, match=r"cylinder value for '11' out of \[0, 1\]"):
            ExplicitMeasure(2, 2, out_of_range)

    def test_make_measure_descriptors(self):
        assert make_measure("uniform", 2).cylinder("0") == Fraction(1, 2)
        assert make_measure("bernoulli:1/4").cylinder("1") == Fraction(1, 4)
        assert make_measure("dirac:0", 2).cylinder("00") == 1
        assert make_measure("product:1/2,1/4,1/4").cylinder("1") == Fraction(1, 4)
        mu = make_measure("subset:02:1/2", 3)
        assert mu.cylinder("1") == Fraction(1, 2)
        with pytest.raises(ValueError):
            make_measure("nonsense:1")


class TestPushforward:
    def test_xor_uniform(self):
        assert pushforward(XOR, UNIFORM2, "1") == Fraction(1, 2)

    def test_xor_bernoulli(self):
        mu = ProductMeasure.bernoulli(Fraction(1, 4))
        assert pushforward(XOR, mu, "1") == Fraction(3, 8)

    def test_ternary_example_uniform(self):
        mu = ProductMeasure.uniform(3)
        assert pushforward(ternary_example_rule(), mu, "1") == Fraction(2, 9)

    def test_guard(self):
        with pytest.raises(ValueError):
            pushforward(XOR, UNIFORM2, "0" * 40, limit=1 << 10)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            pushforward(XOR, ProductMeasure.uniform(3), "1")

    def test_explicit_measure_depth_shortfall(self):
        # preimage words are one cell longer than the target, beyond depth 1
        table = {"": Fraction(1), "0": Fraction(1, 2), "1": Fraction(1, 2)}
        mu = ExplicitMeasure(2, 1, table)
        with pytest.raises(ValueError):
            pushforward(XOR, mu, "1")


class WrappedMeasure(measures.CylinderMeasure):
    """A measure that defines only `cylinder`, and so takes every default path."""

    def __init__(self, inner):
        self.q = inner.q
        self.inner = inner

    def cylinder(self, word):
        return self.inner.cylinder(word)


class TestVector:
    def test_vector_holds_every_cylinder_over_one_denominator(self):
        for q in (2, 3):
            for spec in KERNEL_MEASURES[q]:
                mu = make_measure(spec, q)
                for measure in (mu, explicit_twin(mu, 4), WrappedMeasure(mu)):
                    for n in range(5):
                        v, denominator = measure.vector(n)
                        words = [symbols_word(u) for u in itertools.product(range(q), repeat=n)]
                        assert len(v) == len(words), (spec, n)
                        for x, u in zip(v, words):
                            assert type(x) is int
                            assert x == measure.cylinder(u) * denominator, (spec, u)

    def test_cylinder_only_measure_gives_the_wrapped_results(self):
        for rule, mu in kernel_cases(106, radii=(0, 1, 2)):
            wrapped = WrappedMeasure(mu)
            for u in words_up_to(rule.q, 3):
                assert pushforward(rule, wrapped, u) == pushforward(rule, mu, u)
            for n in (1, 2, 3):
                assert check_uniform_contraction(rule, wrapped, n) == check_uniform_contraction(
                    rule, mu, n
                )
                assert check_measure_invariance(rule, wrapped, n) == check_measure_invariance(
                    rule, mu, n
                )


class TestKernelOracle:
    def test_pushforward_matches_enumeration(self):
        for rule, mu in kernel_cases(101):
            for u in words_up_to(rule.q, 4):
                assert pushforward(rule, mu, u) == enumerated_pushforward(rule, mu, u)

    def test_iterate_pushforward_matches_enumeration(self):
        # the oracle iterates words itself, so it also checks self_compose
        for rule, mu in kernel_cases(102, radii=(0, 1)):
            q = rule.q
            for t in (2, 3):
                for length in range(1, 5 if q == 2 else 4):
                    words = itertools.product(range(q), repeat=length)
                    expected = {symbols_word(u): Fraction(0) for u in words}
                    for syms in itertools.product(range(q), repeat=length + t * rule.r):
                        w = symbols_word(syms)
                        expected[iterate_word(rule, w, t)] += mu.cylinder(w)
                    for u, value in expected.items():
                        assert iterate_pushforward(rule, mu, t, u) == value

    def test_explicit_table_of_a_product_measure_agrees(self):
        # the same measure as an explicit table takes the enumeration path
        rng = SplitMix64(103)
        for q in (2, 3):
            rule = random_rule(q, 1, rng)
            for spec in KERNEL_MEASURES[q]:
                mu = make_measure(spec, q)
                explicit = explicit_twin(mu, 4)
                for u in words_up_to(q, 3):
                    assert pushforward(rule, explicit, u) == pushforward(rule, mu, u)

    def test_product_cylinder_is_the_product(self):
        mu = make_measure("product:1/2,1/3,1/6")
        for u in words_up_to(3, 4):
            expected = Fraction(1)
            for c in u:
                expected *= mu.probs[int(c)]
            assert mu.cylinder(u) == expected
        assert mu.cylinder("") == 1
        assert mu.weights == (6, (3, 2, 1))


class TestIteratePushforward:
    def test_many_steps_refused_without_the_power(self):
        message = r"preimage enumeration q\^1000001 = 2\^1000001 exceeds limit 67108864"
        with pytest.raises(ValueError, match=message):
            iterate_pushforward(XOR, UNIFORM2, 10**6, "1")

    def test_uniform_invariant_many_steps(self):
        assert iterate_pushforward(XOR, UNIFORM2, 10, "1") == Fraction(1, 2)

    def test_bernoulli_two_steps(self):
        mu = ProductMeasure.bernoulli(Fraction(1, 4))
        assert iterate_pushforward(XOR, mu, 2, "1") == Fraction(3, 8)

    def test_precheck_refuses_the_composed_table(self):
        # radius 24 with one letter: 2^25 preimages pass, the 2^25-cell table does not
        rule = parse_rule("2 2 01101001")
        measures.check_iterate_pushforward(rule, UNIFORM2, 11, "1")
        message = r"composed rule table of 2\^25 cells exceeds limit 8388608"
        with pytest.raises(ValueError, match=message):
            measures.check_iterate_pushforward(rule, UNIFORM2, 12, "1")
        with pytest.raises(ValueError, match=message):
            iterate_pushforward(rule, UNIFORM2, 12, "1")

    def test_zero_steps(self):
        mu = ProductMeasure.bernoulli(Fraction(1, 7))
        assert iterate_pushforward(XOR, mu, 0, "01") == mu.cylinder("01")

    @pytest.mark.parametrize("t", [0, 1])
    @pytest.mark.parametrize(
        "mu, word, message",
        [
            (UNIFORM2, "", "pushforward needs a nonempty word"),
            (UNIFORM2, "012", "symbol '2' out of range for alphabet size 2"),
            (ProductMeasure.uniform(3), "1", "measure and rule alphabets differ"),
        ],
        ids=["empty", "symbol", "alphabets"],
    )
    def test_word_and_alphabets_refused_at_every_step_count(self, t, mu, word, message):
        with pytest.raises(ValueError, match=message):
            measures.check_iterate_pushforward(XOR, mu, t, word)
        with pytest.raises(ValueError, match=message):
            iterate_pushforward(XOR, mu, t, word)

    def test_consistency_both_sides(self):
        # sum over one-symbol extensions on either side returns the value
        rng = SplitMix64(5)
        for _ in range(25):
            q = 2 + rng.below(2)
            rule = random_rule(q, rng.below(2), rng)
            probs = [1 + rng.below(4) for _ in range(q)]
            total = sum(probs)
            mu = ProductMeasure(q, tuple(Fraction(x, total) for x in probs))
            for u in ("0", "01", "010"):
                if any(int(c) >= q for c in u):
                    continue
                v = pushforward(rule, mu, u)
                right = sum(
                    pushforward(rule, mu, u + str(a)) for a in range(q)
                )
                left = sum(pushforward(rule, mu, str(a) + u) for a in range(q))
                assert v == right == left


class TestHistogramMassFormula:
    def test_xor_value(self):
        assert pushforward_mass_from_histogram(XOR, [1], Fraction(1, 3)) == Fraction(4, 9)

    def test_identity_preserves_mass(self):
        for q in (2, 3):
            rule = LocalRule.identity(q)
            for p in (Fraction(1, 3), Fraction(9, 10)):
                assert pushforward_mass_from_histogram(rule, [0], p) == p

    def test_matches_direct_pushforward(self):
        rng = SplitMix64(11)
        for _ in range(100):
            q = 2 + rng.below(2)
            rule = random_rule(q, rng.below(3), rng)
            size = 1 + rng.below(q - 1)
            A = frozenset(range(size))
            for p in (Fraction(1, 3), Fraction(1, 7), Fraction(9, 10)):
                mu = ProductMeasure.concentrated(q, A, p)
                direct = sum(pushforward(rule, mu, str(a)) for a in sorted(A))
                assert pushforward_mass_from_histogram(rule, A, p) == direct

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            pushforward_mass_from_histogram(XOR, [0, 1], Fraction(1, 2))
        with pytest.raises(ValueError):
            pushforward_mass_from_histogram(XOR, [1], Fraction(1))


class TestUniformContraction:
    def test_xor_bernoulli(self):
        mu = ProductMeasure.bernoulli(Fraction(3, 10))
        rep = check_uniform_contraction(XOR, mu, 1)
        assert rep.lhs == Fraction(2, 25)
        assert rep.rhs == Fraction(1, 5)
        assert rep.holds

    def test_uniform_trivial(self):
        for rule in surjective_rules(2, 1):
            rep = check_uniform_contraction(rule, UNIFORM2, 2)
            assert rep.lhs == 0 and rep.rhs == 0 and rep.holds

    def test_identity_equality(self):
        mu = ProductMeasure.bernoulli(Fraction(1, 5))
        for n in (1, 2, 3):
            rep = check_uniform_contraction(IDENTITY2, mu, n)
            assert rep.lhs == rep.rhs and rep.holds

    def test_violated_by_pair_correlated_measure(self):
        # uniform single-cell marginals but correlated pairs: one XOR step
        # moves the cell distribution strictly away from uniform, so the
        # contraction inequality fails even for a surjective rule
        table = {
            "": Fraction(1),
            "0": Fraction(1, 2),
            "1": Fraction(1, 2),
            "00": Fraction(1, 8),
            "01": Fraction(3, 8),
            "10": Fraction(3, 8),
            "11": Fraction(1, 8),
        }
        mu = ExplicitMeasure(2, 2, table)
        rep = check_uniform_contraction(XOR, mu, 1)
        assert rep.rhs == 0
        assert rep.lhs == Fraction(1, 4)
        assert not rep.holds


def reference_contraction(rule, mu, n):
    """Oracle: the per-word loop over enumerated pushforwards."""
    lam = Fraction(1, rule.q**n)
    lhs = rhs = Fraction(-1)
    witness_u = witness_w = ""
    for syms in itertools.product(range(rule.q), repeat=n):
        u = symbols_word(syms)
        d_image = abs(enumerated_pushforward(rule, mu, u) - lam)
        if d_image > lhs:
            lhs, witness_u = d_image, u
        d_base = abs(mu.cylinder(u) - lam)
        if d_base > rhs:
            rhs, witness_w = d_base, u
    return lhs, rhs, lhs <= rhs, witness_u, witness_w


class TestContractionOracle:
    def test_matches_per_word_reference(self):
        for rule, mu in kernel_cases(104, radii=(0, 1, 2)):
            for n in range(1, 5):
                rep = check_uniform_contraction(rule, mu, n)
                got = (rep.lhs, rep.rhs, rep.holds, rep.witness_u, rep.witness_w)
                assert got == reference_contraction(rule, mu, n), (rule, mu, n)

    def test_explicit_twins_match_per_word_reference(self):
        # the same measures as explicit tables, summed cylinder by cylinder
        for rule, mu in kernel_cases(104, radii=(0, 1, 2)):
            twin = explicit_twin(mu, 3 + rule.r)
            for n in range(1, 4):
                rep = check_uniform_contraction(rule, twin, n)
                got = (rep.lhs, rep.rhs, rep.holds, rep.witness_u, rep.witness_w)
                assert got == reference_contraction(rule, twin, n), (rule, mu, n)

    def test_identity_keeps_distance_and_witness(self):
        # the farthest word is the last one, not the first
        mu = make_measure("product:1/5,0,4/5")
        rep = check_uniform_contraction(LocalRule.identity(3), mu, 2)
        assert rep.witness_u == rep.witness_w == "22"
        assert rep.lhs == rep.rhs == Fraction(16, 25) - Fraction(1, 9)

    def test_guard_before_alphabet_check(self):
        with pytest.raises(ValueError, match="exceeds limit"):
            check_uniform_contraction(XOR, ProductMeasure.uniform(3), 12, limit=1 << 10)
        with pytest.raises(ValueError, match="alphabets differ"):
            check_uniform_contraction(XOR, ProductMeasure.uniform(3), 2)


class TestMeasureInvariance:
    def test_uniform_invariant_for_surjective(self):
        for rule in surjective_rules(2, 1):
            assert check_measure_invariance(rule, UNIFORM2, 5)

    def test_bernoulli_not_invariant_under_xor(self):
        mu = ProductMeasure.bernoulli(Fraction(1, 4))
        assert not check_measure_invariance(XOR, mu, 1)

    def test_identity_preserves_everything(self):
        mu = ProductMeasure.bernoulli(Fraction(2, 7))
        assert check_measure_invariance(IDENTITY2, mu, 4)

    def test_depth_below_one_refused(self):
        for depth in (0, -3):
            with pytest.raises(ValueError, match="depth must be >= 1"):
                check_measure_invariance(XOR, UNIFORM2, depth)

    def test_explicit_twins_agree(self):
        # every word of every length against the per-word pushforward
        for rule, mu in kernel_cases(105, radii=(0, 1)):
            twin = explicit_twin(mu, 3 + rule.r)
            expected = all(
                enumerated_pushforward(rule, mu, u) == mu.cylinder(u)
                for u in words_up_to(rule.q, 3)
            )
            assert check_measure_invariance(rule, mu, 3) == expected
            assert check_measure_invariance(rule, twin, 3) == expected

    def test_short_mismatch_before_a_long_refusal(self, monkeypatch):
        # lengths are checked in turn: length 1 already differs
        assert not check_measure_invariance(XOR, ProductMeasure.bernoulli(Fraction(1, 4)), 40)
        monkeypatch.setattr(measures, "MAX_VECTOR_CELLS", 1 << 6)
        with pytest.raises(ValueError, match=r"q\^7 = 128 exceeds limit 64"):
            check_measure_invariance(XOR, UNIFORM2, 6)
        assert check_measure_invariance(XOR, UNIFORM2, 6, limit=1 << 7)


class TestVectorBound:
    RULE = parse_rule("2 2 01101001")
    MU = ProductMeasure.bernoulli(Fraction(1, 3))

    @pytest.fixture
    def unbuilt(self, monkeypatch):
        # a check that passes goes on to build its vector, and stops here
        def refuse(mu, n):
            raise AssertionError(f"built a vector of length {n}")

        for cls in (measures.CylinderMeasure, measures.ProductMeasure):
            monkeypatch.setattr(cls, "vector", refuse)

    def test_default_refuses_before_building(self, unbuilt):
        assert measures.MAX_VECTOR_CELLS == 1 << 23
        message = r"preimage enumeration q\^24 = 16777216 exceeds limit 8388608"
        with pytest.raises(ValueError, match=message):
            check_uniform_contraction(self.RULE, self.MU, 22)
        with pytest.raises(ValueError, match=r"q\^n = 16777216 exceeds limit 8388608"):
            block_entropy(self.MU, 24)

    @pytest.mark.parametrize(
        "call",
        [
            lambda rule, mu: check_uniform_contraction(rule, mu, 21),
            lambda rule, mu: check_uniform_contraction(rule, mu, 22, limit=1 << 24),
            lambda rule, mu: block_entropy(mu, 23),
            lambda rule, mu: block_entropy(mu, 24, limit=1 << 24),
        ],
        ids=["contraction-at-limit", "contraction-raised", "entropy-at-limit", "entropy-raised"],
    )
    def test_limit_itself_and_a_raised_limit_admit(self, unbuilt, call):
        with pytest.raises(AssertionError, match="built a vector"):
            call(self.RULE, self.MU)


class TestBlockEntropy:
    def test_long_block_refused_without_the_power(self):
        with pytest.raises(ValueError, match=r"q\^n = 2\^20000 exceeds limit 67108864"):
            block_entropy(UNIFORM2, 20000)

    def test_uniform(self):
        rep = block_entropy(UNIFORM2, 3)
        assert rep.value == pytest.approx(3 * math.log(2))
        assert rep.rate == pytest.approx(math.log(2))
        assert rep.increment == pytest.approx(math.log(2))

    def test_bernoulli_quarter(self):
        rep = block_entropy(ProductMeasure.bernoulli(Fraction(1, 4)), 1)
        expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
        assert rep.value == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5623, abs=5e-4)

    def test_dirac_zero(self):
        for n in (1, 2, 5):
            assert block_entropy(DiracMeasure(2, 0), n).value == 0.0

    def test_explicit_twin_is_bit_identical(self):
        for q in (2, 3):
            for spec in KERNEL_MEASURES[q]:
                mu = make_measure(spec, q)
                twin = explicit_twin(mu, 4)
                for n in range(1, 5):
                    assert block_entropy(twin, n) == block_entropy(mu, n), (spec, n)

    def test_identity_preserves_block_entropy(self):
        mu = ProductMeasure.bernoulli(Fraction(1, 3))
        for n in (1, 2, 3):
            rep = block_entropy(mu, n)
            pushed = [
                (u, iterate_pushforward(IDENTITY2, mu, 1, u))
                for u in _binary_words(n)
            ]
            h = -sum(float(p) * math.log(float(p)) for _, p in pushed if p > 0)
            assert h == pytest.approx(rep.value, abs=1e-12)


def _binary_words(n):
    return [format(i, f"0{n}b") for i in range(1 << n)]


@given(st.integers(1, 6), st.integers(0, 63))
@settings(max_examples=40, deadline=None)
def test_pushforward_consistency_property(n, bits):
    # right-extension consistency for the XOR pushforward of a biased measure
    mu = ProductMeasure.bernoulli(Fraction(1, 3))
    u = format(bits & ((1 << n) - 1), f"0{n}b")
    total = sum(pushforward(XOR, mu, u + b) for b in "01")
    assert pushforward(XOR, mu, u) == total
