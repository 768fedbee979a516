import csv
import itertools
from fractions import Fraction
from importlib import import_module
from math import comb

import numpy as np
import pytest

from cafreq import (
    LocalRule,
    check_high_domination,
    check_one_domination,
    check_prefix_sum_conjecture,
    conserves_symbols,
    correlation,
    finite_correlation,
    histogram,
    identity_correlation,
    is_surjective,
    normalized_correlation,
    parse_rule,
    surjective_rules,
    weighted_square_sum,
)
from cafreq.cli import main
from cafreq.correlation import (
    ConservationReport,
    apply_periodic,
    average_normalized_correlation,
    find_conservation_violation,
    histogram_matches_identity,
    histograms,
    parse_symbols,
    proper_subsets,
)
from cafreq.rng import SplitMix64
from cafreq import rules as rules_module
from cafreq.rules import (
    apply_word,
    enumerate_rules,
    random_rule,
    self_compose,
    symbols_word,
    table_array,
)

# the package's `correlation` attribute is the function of that name
correlation_module = import_module("cafreq.correlation")

XOR = parse_rule("2 1 0110")
IDENTITY2 = LocalRule.identity(2)
SHIFT2 = LocalRule.shift(2)


def ternary_example_rule():
    # radius-2 ternary rule: 2 when the last two cells agree, else 1 when the
    # first cell is 0, else 0
    table = []
    for a, b, c in itertools.product(range(3), repeat=3):
        table.append(2 if b == c else (1 if a == 0 else 0))
    return LocalRule(3, 2, tuple(table))


def threshold_rule():
    # 1 iff the 3-cell neighborhood has at most two ones
    return LocalRule(2, 2, tuple(1 if bin(w).count("1") <= 2 else 0 for w in range(8)))


def exact_two_rule():
    # 1 iff the 3-cell neighborhood has exactly two ones
    return LocalRule(2, 2, tuple(1 if bin(w).count("1") == 2 else 0 for w in range(8)))


def conservation_counterexample_rule():
    # ternary radius-1 rule: swaps the roles of 01 and 10, copies otherwise
    table = []
    for a, b in itertools.product(range(3), repeat=2):
        if (a, b) == (1, 0):
            table.append(0)
        elif (a, b) == (0, 1):
            table.append(1)
        else:
            table.append(a)
    return LocalRule(3, 1, tuple(table))


def scan_histogram(rule, A, B, r_eff):
    """The scan the closed form replaced: every word of length r_eff + 1."""
    q, r = rule.q, rule.r
    Aset, Bset = frozenset(A), frozenset(B)
    drop = q ** (r_eff - r)  # the rule reads the first r + 1 cells
    counts = [0] * (r_eff + 2)
    for w in range(q ** (r_eff + 1)):
        if rule.table[w // drop] in Bset:
            k = 0
            x = w
            for _ in range(r_eff + 1):
                x, d = divmod(x, q)
                k += d in Aset
            counts[k] += 1
    return tuple(counts)


def recursion_orders(h, m):
    """Orders 0..m by the radius recursion alone, from the histogram's radius."""
    vals = [Fraction(h.moment(i)) for i in range(m + 1)]
    for _ in range(h.r):
        lower = []
        for i in range(m + 1):
            shift = len(h.A) * sum(comb(i, j) * lower[j] for j in range(i))
            lower.append((vals[i] - shift) / h.q)
        vals = lower
    return vals


def moment_list_high_domination(rule, A, m_max):
    """The domination check as it was written: both histograms, both moment lists."""
    r = rule.r
    h_rule = histogram(rule, A, A)
    h_id = histogram(LocalRule.identity(rule.q), A, A, r_eff=r)
    diffs = [i - f for f, i in zip(h_rule.counts, h_id.counts)]
    k0 = next((k for k in range(r + 1, -1, -1) if diffs[k] != 0), None)
    if k0 is None:
        return (None, None, 0)
    for m in range(m_max + 1):
        lead = diffs[k0] * k0**m
        tail = sum(abs(diffs[i]) * i**m for i in range(k0))
        if lead > tail and all(
            h_rule.moment(mm) <= h_id.moment(mm) for mm in range(m, m_max + 1)
        ):
            return (k0, diffs[k0] > 0, m)
    return (k0, diffs[k0] > 0, None)


def per_order_normalized(h, m):
    """Order m alone: the radius recursion truncated at m."""
    return recursion_orders(h, m)[m]


class TestHistogram:
    def test_ternary_example(self):
        h = histogram(ternary_example_rule(), [0], [0, 2])
        assert h.counts == (8, 10, 2, 1)
        assert h.total == 21

    def test_xor(self):
        assert histogram(XOR, [1], [1]).counts == (0, 2, 0)

    def test_identity_extended_to_radius_one(self):
        assert histogram(IDENTITY2, [1], [1], r_eff=1).counts == (0, 1, 1)

    def test_reff_below_radius(self):
        with pytest.raises(ValueError):
            histogram(XOR, [1], [1], r_eff=0)

    def test_total_equals_preimage_count(self):
        for r in (0, 1, 2):
            from cafreq import enumerate_rules

            for rule in enumerate_rules(2, r):
                for A in (frozenset({0}), frozenset({1})):
                    for B in (frozenset({0}), frozenset({1}), frozenset({0, 1})):
                        h = histogram(rule, A, B)
                        expected = sum(1 for v in rule.table if v in B)
                        assert h.total == expected

    def test_scan_guard(self, monkeypatch):
        monkeypatch.setattr(correlation_module, "MAX_SCAN_WORDS", 1 << 4)
        assert histogram(XOR, [1], [1], r_eff=3).total == 8
        with pytest.raises(ValueError, match="r_eff"):
            histogram(XOR, [1], [1], r_eff=4)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="r_eff"):
            histogram(XOR, [1], [1], r_eff=24)  # 2^25 neighborhoods
        with pytest.raises(ValueError, match="r_eff"):
            histogram(XOR, [1], [1], r_eff=10**9)

    def test_closed_form_matches_the_scan(self):
        # every A and B; spaces of up to 2^10 words keep the scan quick
        rng = SplitMix64(2024)
        cases = 0
        for q in (2, 3, 4):
            sets = [frozenset(c) for n in range(q + 1) for c in itertools.combinations(range(q), n)]
            for r in range(3):
                for _ in range(2):
                    rule = random_rule(q, r, rng)
                    for r_eff in range(r, r + 5):
                        if q ** (r_eff + 1) > 1 << 10:
                            break
                        for A in sets:
                            for B in sets:
                                expected = scan_histogram(rule, A, B, r_eff)
                                assert histogram(rule, A, B, r_eff).counts == expected
                                cases += 1
        assert cases == 8416

    def test_identity_closed_form_matches_the_histogram(self):
        for q in (2, 3, 4):
            for r in range(7):
                for A in proper_subsets(q):
                    expected = histogram(LocalRule.identity(q), A, A, r_eff=r).counts
                    assert correlation_module.identity_counts(q, r, len(A)) == expected

    def test_negative_moment_refused(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            histogram(XOR, [1], [1]).moment(-1)

    def test_identity_histograms_match_the_scan(self):
        for q in (2, 3, 5):
            for r in range(6):
                if q ** (r + 1) > 1 << 12:
                    break
                for A in ([0], list(range(q - 1))):
                    h = histogram(LocalRule.identity(q), A, A, r_eff=r)
                    assert h.counts == scan_histogram(LocalRule.identity(q), A, A, r)

    def test_large_tables_bypass_the_count_cache(self):
        # XOR^16 has 2^17 neighborhoods, output x_0 + x_16: N_k = 2 comb(15, k - 1)
        cache = correlation_module._a_counts
        cache.cache_clear()
        h = histogram(self_compose(XOR, 16), [1], [1])
        assert h.counts == (0, *(2 * comb(15, k - 1) for k in range(1, 18)))
        assert cache.cache_info().currsize == 0
        histogram(XOR, [1], [1])
        assert cache.cache_info().currsize == 1

    def test_surjective_total_is_balanced(self):
        for r in (0, 1, 2):
            for rule in surjective_rules(2, r):
                h = histogram(rule, [1], [0, 1])
                assert h.total == 2 * 2**r


# every table of the small spaces, and the surjective q=2 r=3 rules
HISTOGRAM_SPACES = {
    "q2-r0": (2, 0, False),
    "q2-r1": (2, 1, False),
    "q2-r2": (2, 2, False),
    "q3-r0": (3, 0, False),
    "q3-r1": (3, 1, False),
    "q4-r0": (4, 0, False),
    "q2-r3-surjective": (2, 3, True),
}


class TestHistograms:
    @pytest.mark.parametrize("space", HISTOGRAM_SPACES)
    def test_rows_match_the_one_rule_histogram(self, space, monkeypatch):
        q, r, surjective = HISTOGRAM_SPACES[space]
        rules = list(surjective_rules(q, r) if surjective else enumerate_rules(q, r))
        tables = table_array(q, r, rules)
        sets = proper_subsets(q)
        expected = {
            (A, B): [list(histogram(rule, A, B).counts) for rule in rules]
            for A in sets
            for B in sets
        }
        # many rows per slice, then a few (4 to 16) with a remainder
        for cells in (rules_module.PREFILTER_CELLS, 1 << 6):
            monkeypatch.setattr(rules_module, "PREFILTER_CELLS", cells)
            for (A, B), want in expected.items():
                counts = histograms(q, r, tables, A, B)
                assert counts.dtype == np.int64 and counts.shape == (len(rules), r + 2)
                assert counts.tolist() == want

    def test_empty_table_array(self):
        assert histograms(2, 1, np.zeros((0, 4), np.uint8), [1], [1]).shape == (0, 3)

    def test_symbols_refused_as_histogram_refuses(self):
        tables = table_array(2, 1, [XOR])
        for A, B in (([2], [1]), ([1], [0, 5])):
            with pytest.raises(ValueError) as one:
                histogram(XOR, A, B)
            with pytest.raises(ValueError) as many:
                histograms(2, 1, tables, A, B)
            assert str(many.value) == str(one.value)

    def test_oversize_tables_refused_as_histogram_refuses(self, monkeypatch):
        rule = self_compose(XOR, 4)  # 2^5 neighborhoods
        monkeypatch.setattr(correlation_module, "MAX_SCAN_WORDS", 1 << 4)
        with pytest.raises(ValueError) as one:
            histogram(rule, [1], [1])
        with pytest.raises(ValueError) as many:
            histograms(2, 4, table_array(2, 4, [rule]), [1], [1])
        assert str(many.value) == str(one.value) == "q^(r_eff+1) = 2^5 exceeds limit 16"
        monkeypatch.undo()
        with pytest.raises(ValueError, match="q\\^\\(r_eff\\+1\\) = 2\\^25 exceeds limit"):
            histograms(2, 24, np.zeros((0, 0), np.uint8), [1], [1])  # refused unbuilt

    def test_rows_of_another_width_refused(self):
        with pytest.raises(ValueError, match="rows of q\\^\\(r\\+1\\) = 4 entries"):
            histograms(2, 1, table_array(2, 2, [threshold_rule()]), [1], [1])


class TestCorrelation:
    def test_ternary_example_order1(self):
        assert correlation(ternary_example_rule(), [0], [0, 2]) == 17

    def test_threshold_pair(self):
        assert correlation(threshold_rule(), [1], [1]) == 9
        assert correlation(exact_two_rule(), [1], [1]) == 6

    def test_xor_order0(self):
        assert correlation(XOR, [1], [1], m=0) == 2

    def test_report_bundle(self):
        from cafreq import correlation_report

        rep = correlation_report(ternary_example_rule(), [0], [0, 2])
        assert rep.order == 1 and rep.raw == 17 and rep.normalized == Fraction(1, 3)

    def test_symbol_parsing(self):
        assert parse_symbols("{0,2}", 3) == frozenset({0, 2})
        assert parse_symbols("02", 3) == frozenset({0, 2})
        with pytest.raises(ValueError):
            parse_symbols("3", 3)


class TestNormalizedCorrelation:
    def test_any_effective_radius_gives_the_same_value(self):
        rng = SplitMix64(91)
        for q, r in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1)):
            for _ in range(6):
                rule = random_rule(q, r, rng)
                for A in proper_subsets(q):
                    B = proper_subsets(q)[rng.below(2**q - 2)]
                    for m in range(4):
                        expected = normalized_correlation(rule, A, B, m)
                        for extra in (1, 2):
                            h = histogram(rule, A, B, r_eff=r + extra)
                            assert h.normalized(m) == expected

    def test_negative_order_refused(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            histogram(XOR, [1], [1]).normalized(-1)

    def test_ternary_example(self):
        assert normalized_correlation(ternary_example_rule(), [0], [0, 2]) == Fraction(1, 3)

    def test_threshold_pair(self):
        assert normalized_correlation(threshold_rule(), [1], [1]) == Fraction(1, 2)
        assert normalized_correlation(exact_two_rule(), [1], [1]) == Fraction(3, 4)

    def test_identity_self_value(self):
        for q in (2, 3, 4):
            for size in range(1, q):
                A = frozenset(range(size))
                assert normalized_correlation(LocalRule.identity(q), A, A) == size

    def test_closed_form_order1(self):
        # downward recursion must match the direct radius elimination formula
        rng = SplitMix64(7)
        for _ in range(60):
            q = 2 + rng.below(2)
            r = rng.below(3)
            rule = random_rule(q, r, rng)
            A = frozenset({0})
            B = frozenset({1})
            h = histogram(rule, A, B)
            closed = Fraction(h.moment(1), q**r) - Fraction(
                r * len(A) * h.total, q ** (r + 1)
            )
            assert normalized_correlation(rule, A, B) == closed

    def test_surjective_closed_form(self):
        # with balance, |f^-1(B)| = |B| q^r collapses the formula further
        for r in (0, 1, 2):
            for rule in surjective_rules(2, r):
                h = histogram(rule, [1], [1])
                assert h.total == 2**r
                closed = Fraction(h.moment(1), 2**r) - Fraction(r * 1 * 1, 2)
                assert normalized_correlation(rule, [1], [1]) == closed

    def test_all_orders_match_the_per_order_recursion(self):
        rng = SplitMix64(31)
        for _ in range(40):
            q = 2 + rng.below(3)
            r = rng.below(3)
            rule = random_rule(q, r, rng)
            A = frozenset(range(1 + rng.below(q)))
            B = frozenset({rng.below(q)})
            h = histogram(rule, A, B, r_eff=r + rng.below(3))
            for m in range(9):
                expected = tuple(per_order_normalized(h, i) for i in range(m + 1))
                assert h.normalized_orders(m) == expected
                assert h.normalized(m) == expected[m]

    def test_order_over_the_maximum_refused_before_any_moment(self, monkeypatch):
        h = histogram(XOR, [1], [1])
        correlation_module.check_order(correlation_module.MAX_ORDER)

        def no_moment(self, m):
            raise AssertionError("a moment was summed before the refusal")

        monkeypatch.setattr(correlation_module.Histogram, "moment", no_moment)
        for m in (513, 10**6):
            with pytest.raises(ValueError, match=f"correlation order {m} exceeds limit 512"):
                h.normalized_orders(m)

    @pytest.mark.parametrize(
        "descriptor, A, B",
        [
            ("2 2 01101001", {1}, {1}),
            ("2 2 00011110", {0}, {1}),
            ("2 1 0110", set(), {0}),
            ("2 1 0110", {0, 1}, {1}),
            ("2 0 10", {1}, {0}),
            ("2 3 0110100110010110", {1}, {0, 1}),
            ("3 1 012120201", {2}, {0, 2}),
            ("3 1 012120201", {0, 1, 2}, {1}),
            ("4 0 0123", {0, 1}, {2}),
        ],
    )
    def test_orders_match_the_recursion_at_every_radius(self, descriptor, A, B):
        # the one generating-function division against the Fraction radius
        # recursion, up to the largest radius histogram allows
        rule = parse_rule(descriptor)
        top = 22 if rule.q == 2 else {3: 14, 4: 11}[rule.q]
        for r_eff in range(rule.r, top + 1):
            h = histogram(rule, A, B, r_eff)
            assert h.normalized_orders(4) == tuple(recursion_orders(h, 4))

    def test_radius_recursion(self):
        # correlation at radius rho+1 from the values at radius rho
        rng = SplitMix64(13)
        for _ in range(100):
            q = 2 + rng.below(2)
            r = rng.below(3)
            rule = random_rule(q, r, rng)
            A = frozenset({0}) if rng.bit() else frozenset({0, 1})
            B = frozenset({q - 1})
            for k in range(3):
                r_eff = r + k
                for m in range(4):
                    lhs = correlation(rule, A, B, r_eff=r_eff + 1, m=m)
                    rhs = q * correlation(rule, A, B, r_eff=r_eff, m=m) + len(
                        A
                    ) * sum(
                        comb(m, i) * correlation(rule, A, B, r_eff=r_eff, m=i)
                        for i in range(m)
                    )
                    assert lhs == rhs


class TestIdentityCorrelation:
    @pytest.mark.parametrize(
        "q,a,r,expected",
        [(2, 1, 1, 3), (3, 1, 2, 15), (2, 1, 0, 1), (2, 1, 2, 8), (2, 1, 3, 20)],
    )
    def test_values(self, q, a, r, expected):
        assert identity_correlation(q, a, r) == expected

    def test_matches_direct_computation(self):
        for q in (2, 3, 4):
            for r in range(4):
                for size in range(1, q + 1):
                    A = frozenset(range(size))
                    direct = correlation(LocalRule.identity(q), A, A, r_eff=r)
                    assert identity_correlation(q, size, r) == direct


class TestWeightedSquareSum:
    def test_small_values(self):
        assert weighted_square_sum(2, 1) == 6
        assert weighted_square_sum(3, 2) == 126
        assert weighted_square_sum(0, Fraction(7, 2)) == 0
        assert weighted_square_sum(1, Fraction(1, 3)) == Fraction(1, 3)

    def test_against_direct_sum(self):
        for n in range(21):
            for a in (Fraction(1, 3), Fraction(1), Fraction(2), Fraction(7, 2)):
                direct = sum(
                    Fraction(k * k) * a**k * comb(n, k) for k in range(n + 1)
                )
                assert weighted_square_sum(n, a) == direct


class TestFiniteCorrelation:
    def test_definition_at_n1(self):
        assert finite_correlation(XOR, [1], 1) == correlation(XOR, [1], [1])

    def test_xor_n2(self):
        assert finite_correlation(XOR, [1], 2) == 12

    def test_identity_n1(self):
        assert finite_correlation(IDENTITY2, [1], 1) == 1

    def test_guard(self):
        with pytest.raises(ValueError):
            finite_correlation(XOR, [1], 30)

    def test_long_window_refused_without_the_power(self):
        # the refusal once formatted 2^20001 in digits, which Python refuses
        with pytest.raises(ValueError, match=r"q\^\(n\+r\) = 2\^20001 exceeds limit 16777216"):
            finite_correlation(XOR, [1], 20000)

    def test_matches_apply_word_brute_force(self):
        rng = SplitMix64(13)
        for q in (2, 3):
            for r in range(3):
                rule = random_rule(q, r, rng)
                for A in ([0], [q - 1], range(1, q)):
                    digits = {str(a) for a in A}
                    for n in range(1, 5):
                        expected = 0
                        for syms in itertools.product("0123"[:q], repeat=n + r):
                            w = "".join(syms)
                            image = apply_word(rule, w)
                            expected += (
                                sum(c in digits for c in w) * sum(c in digits for c in image)
                            )
                        assert finite_correlation(rule, A, n) == expected

    def test_window_identity_links_local_and_global(self):
        # C(F) = C_n(F) / (n q^(n-1)) - (n-1) |A|^2 q^(r-1), exactly
        for r in (0, 1, 2):
            for rule in surjective_rules(2, r):
                c_local = Fraction(correlation(rule, [1], [1]))
                for n in range(1, 9):
                    c_n = finite_correlation(rule, [1], n)
                    rhs = Fraction(c_n, n * 2 ** (n - 1)) - (n - 1) * Fraction(
                        1
                    ) * Fraction(2) ** (r - 1)
                    assert c_local == rhs, (rule.format(), n)

    def test_cauchy_schwarz_window_bound(self):
        # squared bound compared exactly in the rationals
        for r in (0, 1, 2):
            for rule in surjective_rules(2, r):
                for n in range(1, 9):
                    c_n = finite_correlation(rule, [1], n)
                    q = 2
                    bound_sq = (
                        Fraction(1) * q ** (2 * (n + r - 2))
                        * n
                        * (n + r)
                        * ((n - 1) * 1 + q)
                        * ((n + r - 1) * 1 + q)
                    )
                    assert Fraction(c_n) ** 2 <= bound_sq


class TestOneDomination:
    def test_xor(self):
        rep = check_one_domination(XOR, [1])
        assert rep.holds and rep.margin == 1 and rep.surjective

    def test_identity(self):
        rep = check_one_domination(IDENTITY2)
        assert rep.holds and rep.margin == 0

    def test_constant_image_rule_violates(self):
        rule = parse_rule("2 1 1111")
        rep = check_one_domination(rule, [1])
        assert not rep.holds
        assert rep.margin == 3 - 4
        assert not rep.surjective

    def test_scan_all_subsets(self):
        rep = check_one_domination(parse_rule("2 1 1111"))
        assert not rep.holds and rep.worst_A == frozenset({1})

    def test_subset_scan_alphabet_bound(self):
        assert len(proper_subsets(16)) == (1 << 16) - 2
        with pytest.raises(ValueError, match="proper symbol sets exceeds"):
            check_one_domination(LocalRule.shift(17))


class TestHighDomination:
    def test_xor(self):
        rep = check_high_domination(XOR, [1])
        assert rep.k0 == 2 and rep.strict_at_k0 and rep.m_star == 1

    def test_identity(self):
        rep = check_high_domination(IDENTITY2, [1])
        assert rep.k0 is None and rep.m_star == 0

    def test_shift_matches_identity_histogram(self):
        rep = check_high_domination(SHIFT2, [1])
        assert rep.k0 is None

    def test_order_bound_too_small_reports_none(self):
        rep = check_high_domination(XOR, [1], m_max=0)
        assert rep.k0 == 2 and rep.m_star is None

    def test_negative_order_bound_refused(self):
        with pytest.raises(ValueError, match="m_max must be >= 0"):
            check_high_domination(XOR, [1], m_max=-1)

    def test_order_bound_over_the_maximum_refused(self):
        assert correlation_module.MAX_ORDER == 512
        assert check_high_domination(XOR, [1], m_max=512).m_star is not None
        with pytest.raises(ValueError, match="correlation order 513 exceeds limit 512"):
            check_high_domination(XOR, [1], m_max=513)

    def test_matches_the_moment_lists(self):
        # every rule at q=2 r<=2, the surjective ones at q=2 r=3 and q=3 r=1,
        # and random ternary ones, with order bounds that cut
        rng = SplitMix64(1969)
        sample = [rule for r in range(3) for rule in enumerate_rules(2, r)]
        sample += [*surjective_rules(2, 3), *surjective_rules(3, 1)]
        sample += [random_rule(3, r, rng) for r in (1, 2) for _ in range(100)]
        cases = set()
        for rule in sample:
            for A in proper_subsets(rule.q):
                for m_max in (0, 2, 16):
                    rep = check_high_domination(rule, A, m_max=m_max)
                    expected = moment_list_high_domination(rule, A, m_max)
                    assert (rep.k0, rep.strict_at_k0, rep.m_star) == expected, rule.format()
                    cases.add(expected[2])
        assert {None, 0, 1, 2}.issubset(cases)

    def test_strictness_over_surjective_binary(self):
        for r in (0, 1, 2, 3):
            for rule in surjective_rules(2, r):
                rep = check_high_domination(rule, [1])
                if rep.k0 is not None:
                    assert rep.strict_at_k0, rule.format()
                assert rep.m_star is not None


class TestPrefixSums:
    def test_xor(self):
        assert check_prefix_sum_conjecture(XOR).holds

    def test_identity(self):
        assert check_prefix_sum_conjecture(IDENTITY2).holds

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            check_prefix_sum_conjecture(LocalRule.identity(3))


def per_rule_average(q, r, A, B):
    """Oracle: the normalized correlation of every rule, summed as Fractions."""
    total = Fraction(0)
    count = 0
    for rule in enumerate_rules(q, r):
        total += normalized_correlation(rule, A, B)
        count += 1
    return total / count


class TestAverages:
    @pytest.mark.parametrize(
        "q, r, A, B",
        [(2, 0, [1], [1]), (2, 1, [1], [1]), (2, 1, [0], [1]), (2, 2, [1], [0]),
         (3, 0, [0], [0, 2]), (3, 1, [0, 1], [2]), (4, 0, [1, 3], [0])],
    )
    def test_matches_per_rule_sum(self, q, r, A, B):
        assert average_normalized_correlation(q, r, A, B) == per_rule_average(q, r, A, B)

    def test_binary_radius1(self):
        avg = average_normalized_correlation(2, 1, [1], [1])
        assert avg == Fraction(1, 2)

    def test_ternary_radius0(self):
        avg = average_normalized_correlation(3, 0, [0], [0, 2])
        assert avg == Fraction(2, 3)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            average_normalized_correlation(2, 4, [1], [1])


class TestConservation:
    def test_identity_conserves(self):
        for A in ([0], [1]):
            assert conserves_symbols(IDENTITY2, A).status == "conserves"

    def test_shift_conserves(self):
        assert conserves_symbols(SHIFT2, [1]).status == "conserves"

    def test_xor_violates_with_witness(self):
        rep = conserves_symbols(XOR, [1])
        assert rep.status == "violates"
        assert rep.witness is not None
        config, image = rep.witness
        assert config.count("1") != image.count("1")

    def test_ternary_counterexample(self):
        rule = conservation_counterexample_rule()
        # histogram agrees with the identity yet a period-3 witness violates
        assert histogram_matches_identity(rule, [0])
        assert not is_surjective(rule)
        rep = conserves_symbols(rule, [0])
        assert rep.status == "violates"
        assert rep.witness == ("012", "112")

    def test_unknown_for_quiet_nonsurjective(self):
        # the constant-0 rule is not surjective and has no "unknown" verdict:
        # it turns every 1 into a 0, so the count of 0s grows
        rule = parse_rule("2 1 0000")
        rep = conserves_symbols(rule, [0])
        assert rep.status == "violates"

    def test_apply_periodic(self):
        assert apply_periodic(XOR, "01") == "11"
        assert apply_periodic(conservation_counterexample_rule(), "012") == "112"

    def test_periodic_image_matches_modular_definition(self):
        # out[i] = f(c[(i+j) % p] for j <= r), including periods p <= r
        rng = SplitMix64(14)
        for q in (2, 3):
            for r in range(4):
                rule = random_rule(q, r, rng)
                first_violation = None
                for p in range(1, 5):
                    for c in itertools.product(range(q), repeat=p):
                        out = []
                        for i in range(p):
                            idx = 0
                            for j in range(r + 1):
                                idx = idx * q + c[(i + j) % p]
                            out.append(rule.table[idx])
                        config = "".join(map(str, c))
                        image = "".join(map(str, out))
                        assert apply_periodic(rule, config) == image
                        if first_violation is None and c.count(0) != out.count(0):
                            first_violation = (config, image)
                assert find_conservation_violation(rule, [0], 4) == first_violation

    def test_periodic_search_guard(self, monkeypatch):
        monkeypatch.setattr(correlation_module, "MAX_SCAN_WORDS", 1 << 4)
        assert find_conservation_violation(IDENTITY2, [1], 4) is None
        with pytest.raises(ValueError, match="max_period"):
            find_conservation_violation(IDENTITY2, [1], 5)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="max_period"):
            find_conservation_violation(IDENTITY2, [1], 25)
        with pytest.raises(ValueError, match="max_period"):
            find_conservation_violation(IDENTITY2, [1], 10**9)

    def test_periodic_search_order(self):
        # first witness in (period, lexicographic) order for XOR and A={1}
        witness = find_conservation_violation(XOR, [1], 6)
        assert witness == ("1", "0")

    def test_decision_matches_periodic_search_on_small_rule_spaces(self):
        # a violation has a simple cycle of nonzero sum in the de Bruijn
        # graph, so the periodic search bounded at period q^r is complete
        pairs = conserving = 0
        for q, r_max in ((2, 2), (3, 1)):
            for r in range(r_max + 1):
                for rule in enumerate_rules(q, r):
                    for A in proper_subsets(q):
                        oracle = find_conservation_violation(rule, A, q**r)
                        rep = conserves_symbols(rule, A, q**r)
                        assert rep.status == ("conserves" if oracle is None else "violates")
                        assert rep.witness == oracle
                        pairs += 1
                        conserving += oracle is None
        assert (pairs, conserving) == (118812, 808)

    def test_decision_matches_histogram_on_surjective_ternary_rules(self):
        conserving = 0
        for rule in surjective_rules(3, 1):
            for A in proper_subsets(3):
                expected = histogram_matches_identity(rule, A)
                assert (conserves_symbols(rule, A).status == "conserves") == expected
                conserving += expected
        assert conserving == 96

    def test_decides_rules_past_the_pair_graph_cap(self):
        rule = self_compose(SHIFT2, 10)  # q^(2r) = 2^20 pair-graph vertices
        assert conserves_symbols(rule, [1]).status == "conserves"
        rule = self_compose(XOR, 10)
        assert conserves_symbols(rule, [1], 12) == ConservationReport("violates", ("1", "0"))

    def test_default_bound_decides_past_the_scan_limit(self):
        # q^(3(r+1)) = 2^33 once refused; the default bound 2r+1 scans 2^21
        rule = self_compose(XOR, 10)
        assert conserves_symbols(rule, [1]) == ConservationReport("violates", ("1", "0"))

    def test_walk_witness_past_the_scan_limit(self):
        rule = self_compose(XOR, 12)  # q^(2r+1) = 2^25 periodic words
        rep = conserves_symbols(rule, [1])
        assert rep.status == "violates"
        config, image = rep.witness
        assert len(config) <= 2 * rule.r + 1
        assert apply_periodic(rule, config) == image
        assert config.count("1") != image.count("1")

    def test_walk_witness_for_every_violating_pair(self, monkeypatch):
        # with no room to scan, every violation is witnessed by a walk
        monkeypatch.setattr(correlation_module, "MAX_SCAN_WORDS", 1)
        rng = SplitMix64(77)
        rules = [rule for r in range(3) for rule in enumerate_rules(2, r)]
        rules += [random_rule(3, r, rng) for r in (1, 2) for _ in range(100)]
        witnessed = 0
        for rule in rules:
            for A in proper_subsets(rule.q):
                rep = conserves_symbols(rule, A)
                if rep.status == "conserves":
                    continue
                config, image = rep.witness
                labels = symbols_word(sorted(A))
                assert len(config) <= 2 * rule.r + 1
                assert apply_periodic(rule, config) == image
                assert sum(c in labels for c in config) != sum(c in labels for c in image)
                witnessed += 1
        assert witnessed > 1000

    def test_default_bound_keeps_the_first_witness(self):
        # some witness has period at most 2r+1, so the first one does too
        rng = SplitMix64(78)
        rules = [rule for r in range(3) for rule in enumerate_rules(2, r)]
        rules += [random_rule(3, r, rng) for r in (1, 2) for _ in range(100)]
        for rule in rules:
            for A in proper_subsets(rule.q):
                expected = find_conservation_violation(rule, A, 3 * (rule.r + 1))
                assert conserves_symbols(rule, A).witness == expected

    def test_period_bound_below_one_refused(self):
        with pytest.raises(ValueError, match="max_period must be >= 1"):
            find_conservation_violation(XOR, [1], 0)

    def test_decision_refuses_period_bound_below_one(self):
        with pytest.raises(ValueError, match="max_period must be >= 1"):
            conserves_symbols(XOR, {1}, 0)

    def test_explicit_period_bound_refused_before_deciding(self):
        with pytest.raises(ValueError, match="q\\^max_period = 2\\^25 exceeds limit"):
            conserves_symbols(IDENTITY2, [1], 25)

    def test_sweep_searches_for_witnesses_only_where_violated(
        self, monkeypatch, capsys, tmp_path
    ):
        searched = []
        search = correlation_module.find_conservation_violation

        def counting(rule, A, max_period):
            searched.append((rule.format(), symbols_word(sorted(A))))
            return search(rule, A, max_period)

        monkeypatch.setattr(correlation_module, "find_conservation_violation", counting)
        out_path = tmp_path / "sweep.csv"
        argv = ["sweep", "--q", "2", "--r", "2", "--check", "conservation", "--out", str(out_path)]
        assert main(argv) == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        violating = [(row["rule"], row["A"]) for row in rows if row["witness_config"]]
        assert searched == violating
        assert 0 < len(searched) < len(rows)
