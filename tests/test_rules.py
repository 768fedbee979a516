import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cafreq import (
    LocalRule,
    apply_word,
    compose,
    enumerate_rules,
    format_rule,
    is_balanced,
    is_surjective,
    iterate_word,
    parse_rule,
    preimages,
    random_rule,
    self_compose,
    surjective_rules,
)
from cafreq import rules
from cafreq.rules import _pairs_balanced, rule_count, rule_from_index, rule_index
from cafreq.rng import SplitMix64

XOR = parse_rule("2 1 0110")
IDENTITY2 = parse_rule("2 0 01")
OR = parse_rule("2 1 0111")
AND = parse_rule("2 1 0001")
SHIFT2 = LocalRule.shift(2)


def all_words(q, n):
    return ("".join(map(str, syms)) for syms in itertools.product(range(q), repeat=n))


def image_compose(f, g):
    """Oracle: f after g read off each neighborhood by the sliding window."""
    neighborhoods = itertools.product(range(f.q), repeat=f.r + g.r + 1)
    table = tuple(rules._image(f, rules._image(g, syms))[0] for syms in neighborhoods)
    return LocalRule(f.q, f.r + g.r, table)


def subset_construction_surjective(rule):
    """Oracle: surjectivity by the de Bruijn subset construction.

    Vertices are words of length r, and u reaches v under output a when the
    overlap word w (u = w[:-1], v = w[1:]) has f(w) = a.  Starting from the
    full vertex set, the rule is surjective iff the empty set is
    unreachable.  Exponential in q^r, so only for q^r <= 16.
    """
    q, r = rule.q, rule.r
    nodes = q**r
    assert nodes <= 16
    succ = [[0] * nodes for _ in range(q)]
    for u in range(nodes):
        for b in range(q):
            w = u * q + b
            succ[rule.table[w]][u] |= 1 << (w % nodes)
    full = (1 << nodes) - 1
    seen = {full}
    stack = [full]
    while stack:
        state = stack.pop()
        for rows in succ:
            target = 0
            m = state
            while m:
                target |= rows[(m & -m).bit_length() - 1]
                m &= m - 1
            if target == 0:
                return False
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return True


def filtered_rules(q, r, rng, count):
    """`count` shuffled balanced tables that also pass the length-2 filter."""
    out = []
    while len(out) < count:
        table = [s for s in range(q) for _ in range(q**r)]
        for i in range(len(table) - 1, 0, -1):
            j = rng.below(i + 1)
            table[i], table[j] = table[j], table[i]
        rule = LocalRule(q, r, tuple(table))
        if _pairs_balanced(rule):
            out.append(rule)
    return out


def filtered_composites(q, r, rng, count):
    """Composites of two filtered radius-r rules that pass both filters."""
    pool = filtered_rules(q, r, rng, 30)
    out = []
    while len(out) < count:
        rule = compose(pool[rng.below(len(pool))], pool[rng.below(len(pool))])
        if is_balanced(rule) and _pairs_balanced(rule):
            out.append(rule)
    return out


# surjective radius-3 rules that depend on both end cells and are neither
# left- nor right-permutive, and a non-surjective one that passes both
# balance filters
SURJ_R3 = [parse_rule(t) for t in (
    "2 3 0011101000111100", "2 3 0011001110010011", "2 3 1000001111000111"
)]
NONSURJ_R3 = parse_rule("2 3 0000100111110011")


class TestParsing:
    def test_xor_table(self):
        assert XOR.table == (0, 1, 1, 0)
        assert XOR.q == 2 and XOR.r == 1

    def test_identity(self):
        assert IDENTITY2.table == (0, 1)
        assert IDENTITY2 == LocalRule.identity(2)

    def test_or_rule(self):
        assert OR.table == (0, 1, 1, 1)

    def test_roundtrip(self):
        for text in ("2 1 0110", "3 0 120", "2 2 01101001"):
            assert format_rule(parse_rule(text)) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "2 1",  # missing digits
            "2 1 012",  # wrong count and digit out of range
            "2 1 0120",  # digit >= q
            "1 1 00",  # alphabet too small
            "2 -1 01",  # negative radius
            "x 1 0110",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rule(bad)


class TestApply:
    def test_xor_short(self):
        assert apply_word(XOR, "01") == "1"

    def test_xor_longer(self):
        # cellwise sum mod 2 of adjacent cells; two applications then give 11
        assert apply_word(XOR, "0011") == "010"
        assert apply_word(XOR, "010") == "11"

    def test_length_contract(self):
        for rule in (XOR, OR, LocalRule.shift(2)):
            for n in range(rule.r + 1, 8):
                for w in all_words(2, n):
                    assert len(apply_word(rule, w)) == n - rule.r

    def test_matches_definition(self):
        # output i is f of the neighborhood w[i : i+r+1], read as a base-q index
        rng = SplitMix64(11)
        for q in (2, 3):
            for r in range(4):
                rule = random_rule(q, r, rng)
                for n in range(r + 1, r + 4):
                    for w in all_words(q, n):
                        expected = [rule.table[int(w[i : i + r + 1], q)] for i in range(n - r)]
                        assert apply_word(rule, w) == "".join(map(str, expected))

    def test_too_short(self):
        with pytest.raises(ValueError):
            apply_word(XOR, "1")

    def test_bad_symbol(self):
        with pytest.raises(ValueError):
            apply_word(XOR, "012")


class TestIterate:
    def test_xor_twice(self):
        assert iterate_word(XOR, "0011", 2) == "11"

    def test_zero_steps(self):
        assert iterate_word(OR, "0101", 0) == "0101"

    def test_identity_many_steps(self):
        assert iterate_word(IDENTITY2, "0110", 3) == "0110"

    def test_too_short_for_t(self):
        with pytest.raises(ValueError):
            iterate_word(XOR, "0011", 4)

    def test_matches_repeated_apply_word(self):
        rng = SplitMix64(12)
        for q in (2, 3):
            for r in range(4):
                rule = random_rule(q, r, rng)
                for t in range(4):
                    for _ in range(20):
                        n = t * r + 1 + rng.below(4)
                        w = "".join(str(rng.below(q)) for _ in range(n))
                        expected = w
                        for _ in range(t):
                            expected = apply_word(rule, expected)
                        assert iterate_word(rule, w, t) == expected


class TestCompose:
    def test_identity_neutral(self):
        assert compose(IDENTITY2, XOR).table == XOR.table

    def test_xor_squared(self):
        sq = compose(XOR, XOR)
        assert sq.r == 2
        # table of a xor c over all abc
        expected = tuple((w >> 2) ^ (w & 1) for w in range(8))
        assert sq.table == expected

    def test_shift_squared(self):
        sq = compose(SHIFT2, SHIFT2)
        assert sq.r == 2
        assert sq.table == tuple(w & 1 for w in range(8))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            compose(XOR, LocalRule.identity(3))

    def test_matches_sequential_application(self):
        for f, g in ((XOR, OR), (OR, SHIFT2), (SHIFT2, XOR)):
            fg = compose(f, g)
            for w in all_words(2, fg.r + 3):
                assert apply_word(fg, w) == apply_word(f, apply_word(g, w))

    def test_matches_image_oracle(self):
        # random pairs of unequal radii, r = 0 and q = 3 included
        rng = SplitMix64(4242)
        radii = [(a, b) for a in range(4) for b in range(4)]
        for q in (2, 3):
            for rf, rg in radii:
                if q == 3 and rf + rg > 4:
                    continue
                for _ in range(3):
                    f, g = random_rule(q, rf, rng), random_rule(q, rg, rng)
                    assert compose(f, g) == image_compose(f, g)

    def test_self_compose_is_repeated_compose(self):
        rng = SplitMix64(77)
        for q, r in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1)):
            rule = random_rule(q, r, rng)
            expected = LocalRule.identity(q)
            assert self_compose(rule, 0) == expected
            for t in range(1, 8):
                if q ** (t * r + 1) > 1 << 15:
                    break
                expected = image_compose(expected, rule)
                assert self_compose(rule, t) == expected

    def test_composed_size_guard(self, monkeypatch):
        # XOR has radius 1: its t-fold table has 2^(t+1) cells
        monkeypatch.setattr(rules, "MAX_COMPOSED_CELLS", 1 << 9)
        assert self_compose(XOR, 8).r == 8
        with pytest.raises(ValueError, match=r"2\^10 cells exceeds limit 512"):
            self_compose(XOR, 9)
        monkeypatch.undo()
        rules.check_composed_size(2, 2, 11)  # 2^23 cells: the limit itself
        with pytest.raises(ValueError, match=r"2\^25 cells"):
            rules.check_composed_size(2, 2, 12)
        with pytest.raises(ValueError, match=r"36\^2000000001 cells"):
            rules.check_composed_size(36, 2, 10**9)


class TestBalance:
    def test_xor_balanced(self):
        assert is_balanced(XOR)

    def test_and_unbalanced(self):
        assert not is_balanced(AND)

    def test_identity_balanced(self):
        assert is_balanced(IDENTITY2)


class TestSurjectivity:
    def test_xor(self):
        assert is_surjective(XOR)

    def test_and(self):
        assert not is_surjective(AND)

    def test_two_neighbor_census(self):
        # the six surjective two-neighbor binary rules: a, not a, b, not b,
        # a xor b, not (a xor b)
        surj = {r.table for r in enumerate_rules(2, 1) if is_surjective(r)}
        assert surj == {
            (0, 0, 1, 1),
            (1, 1, 0, 0),
            (0, 1, 0, 1),
            (1, 0, 1, 0),
            (0, 1, 1, 0),
            (1, 0, 0, 1),
        }

    def test_against_brute_force_preimage_counts(self):
        # exact balance of preimage counts at every length is equivalent to
        # surjectivity; verify the decider against counting for all radius-1
        # rules at lengths up to 4
        for rule in enumerate_rules(2, 1):
            expected = True
            for n in range(1, 5):
                counts = Counter(
                    apply_word(rule, w) for w in all_words(2, n + rule.r)
                )
                if any(counts[u] != 2**rule.r for u in all_words(2, n)):
                    expected = False
                    break
            assert is_surjective(rule) == expected, rule.format()

    def test_nonsurjective_unbalanced_within_length_six(self):
        # for every non-surjective (q=2, r<=2) rule some word of length <= 6
        # has a preimage count differing from q^r
        for r in (0, 1, 2):
            for rule in enumerate_rules(2, r):
                if is_surjective(rule):
                    continue
                found = False
                for n in range(1, 7):
                    counts = Counter(
                        apply_word(rule, w) for w in all_words(2, n + rule.r)
                    )
                    if any(counts[u] != 2**rule.r for u in all_words(2, n)):
                        found = True
                        break
                assert found, rule.format()

    def test_surjective_implies_balanced(self):
        for r in (0, 1, 2):
            for rule in enumerate_rules(2, r):
                if is_surjective(rule):
                    assert is_balanced(rule)

    def test_de_bruijn_guard(self, monkeypatch):
        # q^(2r) = 2^20 pair-graph vertices, over the 2^18 cap; refused
        # before the balance filters or the search run
        def unreachable(rule):
            raise AssertionError("filter ran on an oversize rule")

        monkeypatch.setattr(rules, "is_balanced", unreachable)
        with pytest.raises(ValueError, match="pair-graph vertices"):
            is_surjective(LocalRule(2, 10, tuple(0 for _ in range(2**11))))

    def test_largest_accepted_sizes(self):
        # q = 36 at r = 1 and binary rules at r = 9 are within the cap
        assert is_surjective(LocalRule.shift(36))
        assert is_surjective(self_compose(XOR, 9))
        assert not is_surjective(LocalRule(2, 9, tuple(0 for _ in range(2**10))))

    @pytest.mark.parametrize(
        "q, r, surjective", [(2, 0, 2), (2, 1, 6), (2, 2, 30), (2, 3, 582), (3, 0, 6), (3, 1, 420)]
    )
    def test_matches_subset_construction_exhaustive(self, q, r, surjective):
        found = 0
        for rule in enumerate_rules(q, r):
            expected = subset_construction_surjective(rule)
            assert is_surjective(rule) == expected, rule.format()
            found += expected
        assert found == surjective

    def test_matches_subset_construction_random(self):
        rng = SplitMix64(20250)
        sample = (
            filtered_rules(2, 4, rng, 60)
            + filtered_composites(2, 2, rng, 60)
            + filtered_composites(4, 1, rng, 60)
        )
        outcomes = Counter()
        for rule in sample:
            expected = subset_construction_surjective(rule)
            assert is_surjective(rule) == expected, rule.format()
            outcomes[rule.q, expected] += 1
        # both answers occur for both alphabets, so the search decides both
        assert set(outcomes) == {(2, True), (2, False), (4, True), (4, False)}

    def test_composites_beyond_the_subset_construction(self):
        a, b, c = SURJ_R3
        assert is_surjective(compose(a, b))  # r = 6
        assert is_surjective(compose(compose(a, b), c))  # r = 9
        assert not is_surjective(NONSURJ_R3)
        for rule in (compose(a, NONSURJ_R3), compose(NONSURJ_R3, b)):
            assert is_balanced(rule) and _pairs_balanced(rule)
            assert not is_surjective(rule)


class TestPreimages:
    def test_xor_single(self):
        assert preimages(XOR, "1") == ["01", "10"]

    def test_identity(self):
        assert preimages(IDENTITY2, "01") == ["01"]

    def test_xor_pair(self):
        assert preimages(XOR, "11") == ["010", "101"]

    def test_balance_property_small_words(self):
        for r in (0, 1, 2):
            for rule in surjective_rules(2, r):
                for n in range(1, 5):
                    for u in all_words(2, n):
                        assert len(preimages(rule, u)) == 2**rule.r

    def test_preimages_actually_map_back(self):
        for u in ("0", "10", "011"):
            for w in preimages(OR, u):
                assert apply_word(OR, w) == u


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_rules(2, 1)) == 16
        assert sum(1 for _ in enumerate_rules(3, 0)) == 27

    def test_surjective_count(self):
        assert len(surjective_rules(2, 1)) == 6

    def test_surjective_rules_jobs_invariant(self, monkeypatch):
        monkeypatch.setattr(rules, "_SURJECTIVE_RULES", {})
        one = surjective_rules(2, 2, jobs=1)
        monkeypatch.setattr(rules, "_SURJECTIVE_RULES", {})
        assert surjective_rules(2, 2, jobs=2) == one
        assert one == tuple(r for r in enumerate_rules(2, 2) if is_surjective(r))

    def test_surjective_rules_cached_across_limit_and_jobs(self, monkeypatch):
        monkeypatch.setattr(rules, "_SURJECTIVE_RULES", {})
        first = surjective_rules(2, 2)

        def no_pool(*args):
            raise AssertionError("the cached rule list was filtered again")

        monkeypatch.setattr(rules, "map_ranges", no_pool)
        assert surjective_rules(2, 2, limit=256, jobs=2) is first

    def test_surjective_rules_limit_before_pool(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("map_ranges ran on an oversize rule space")

        monkeypatch.setattr(rules, "map_ranges", no_pool)
        with pytest.raises(ValueError, match="exceeds limit"):
            surjective_rules(2, 4, jobs=2)
        with pytest.raises(ValueError, match="exceeds limit"):
            surjective_rules(2, 1, limit=15)

    @pytest.mark.parametrize("q, r", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
    def test_prefilter_keeps_tables_balanced_at_lengths_2_and_3(self, q, r):
        # oracle: preimage counts of every word of length 2 and 3
        kept = {
            tuple(table)
            for chunk in rules._balanced_tables(q, r, 0, rule_count(q, r))
            for table in chunk.tolist()
        }
        expected = {
            rule.table
            for rule in enumerate_rules(q, r)
            if all(
                len(preimages(rule, u)) == q**r
                for n in (2, 3)
                for u in all_words(q, n)
            )
        }
        assert kept == expected

    @pytest.mark.parametrize("q, r", [(2, 3), (3, 1), (4, 0), (5, 0)])
    def test_surjective_rules_match_filtered_enumeration(self, q, r, monkeypatch):
        monkeypatch.setattr(rules, "_SURJECTIVE_RULES", {})
        expected = tuple(rule for rule in enumerate_rules(q, r) if is_surjective(rule))
        assert surjective_rules(q, r) == expected

    @pytest.mark.parametrize("q, r, cuts", [(2, 3, (1000, 40001)), (3, 1, (500, 9999))])
    def test_uneven_ranges_concatenate_to_the_whole(self, q, r, cuts):
        # the cuts fall inside prefilter chunks (256 tables at (2, 3), 202 at (3, 1))
        count = rule_count(q, r)
        bounds = (0, *cuts, count)
        parts = [
            rules._surjective_in_range(q, r, count, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert all(parts)
        assert tuple(itertools.chain(*parts)) == surjective_rules(q, r)

    def test_index_space_refused_at_2_to_the_63(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("map_ranges ran on an unindexable rule space")

        monkeypatch.setattr(rules, "map_ranges", no_pool)
        assert rules.check_rule_space(15, 0, 1 << 70) == 15**15
        for q, r in ((2, 5), (16, 0)):
            with pytest.raises(ValueError, match=r"2\^63 or more tables"):
                surjective_rules(q, r, limit=1 << 70)

    @pytest.mark.parametrize(
        "q, limit, message",
        [
            (0, None, r"alphabet size must be in \[2, 36\]"),
            (1, None, r"alphabet size must be in \[2, 36\]"),
            (-1, None, r"alphabet size must be in \[2, 36\]"),
            (37, None, "exceeds limit 67108864"),
            (37, 1 << 300, r"alphabet size must be in \[2, 36\]"),
        ],
    )
    def test_alphabet_size_refused(self, q, limit, message):
        limit = limit or rules.DEFAULT_ENUMERATION_LIMIT
        with pytest.raises(ValueError, match=message):
            surjective_rules(q, 0, limit=limit)
        with pytest.raises(ValueError, match=message):
            rules._surjective_in_range(q, 0, limit, 0, 1)

    def test_lexicographic_order(self):
        tables = [r.table for r in enumerate_rules(2, 1)]
        assert tables == sorted(tables)

    def test_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_rules(2, 4))

    def test_index_roundtrip(self):
        for i in (0, 1, 255, 65535):
            rule = rule_from_index(2, 3, i)
            assert rule_index(rule) == i
        assert rule_count(2, 3) == 65536


class TestSizeGuard:
    @pytest.mark.parametrize(
        "q, exponent, text",
        [
            (2, 25, "33554432"),
            (2, 64, "18446744073709551616"),
            (2, 65, "2^65"),
            (3000, 3000, "3000^3000"),
            (2, 10**18, "2^1000000000000000000"),
            ((1 << 64) + 1, 1, "2^64+"),
            (5 << 20036, 1, "2^20038+"),
            (4294967296, 1, "4294967296"),
        ],
        ids=["2^25", "2^64", "2^65", "3000^3000", "2^10^18", "whole-2^64+1", "whole-2^20038",
             "whole-2^32"],
    )
    def test_size_text(self, q, exponent, text):
        assert rules.size_text(q, exponent) == text

    def test_limit_is_inclusive(self):
        rules.check_size(1 << 25, "{size}", 2, 25)
        rules.check_size(1 << 70, "{size}", 2, 70)  # past 64, under a long limit
        rules.check_size(27, "{size}", 3, 3)
        with pytest.raises(ValueError, match=r"^2\^71 exceeds limit 1180591620717411303424$"):
            rules.check_size(1 << 70, "{size}", 2, 71)
        with pytest.raises(ValueError, match=r"^81 exceeds limit 80$"):
            rules.check_size(80, "{size}", 3, 4)

    def test_message_fields(self):
        with pytest.raises(ValueError, match=r"^table of 2\^25 = 33554432 cells exceeds limit 9$"):
            rules.check_size(9, "table of {q}^{e} = {size} cells", 2, 25)

    def test_long_exponent_refused_without_the_power(self):
        # 2^(10^18) cannot be built at all, so passing means it was not
        with pytest.raises(ValueError, match=r"= 2\^1000000000000000000 exceeds limit 64"):
            rules.check_size(64, "q^e = {size}", 2, 10**18)
        rules.check_size(1, "{size}", 1, 10**18)  # q = 1: the power is 1
        rules.check_size(0, "{size}", 0, 10**18)

    def test_size_passed_whole(self):
        with pytest.raises(ValueError, match=r"^2\^20038\+ cells exceeds limit 8$"):
            rules.check_size(8, "{size} cells", 5 << 20036)

    def test_rule_space_over_the_limit_is_not_counted(self):
        # the message once formatted 2^32768 in digits, which Python refuses
        with pytest.raises(ValueError, match=r"q\^\(q\^\(r\+1\)\) = 2\^32768 exceeds limit"):
            surjective_rules(2, 14)
        with pytest.raises(ValueError, match=r"q\^\(q\^\(r\+1\)\) = 2\^32768 exceeds limit"):
            list(enumerate_rules(2, 14))
        # a radius of 63 or more is refused without building q^(r+1) either
        message = r"q\^\(q\^\(r\+1\)\) = 2\^\(2\^1000000001\) exceeds limit 67108864"
        with pytest.raises(ValueError, match=message):
            surjective_rules(2, 10**9)
        with pytest.raises(ValueError, match=r"= 3\^\(3\^64\) exceeds limit"):
            rules.check_rule_space(3, 63, 1 << 1000)

    def test_radius_refused_before_the_rule_space(self):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            rules.check_rule_space(2, -1, 1)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            list(enumerate_rules(2, -3))

    def test_long_table_refused_without_the_power(self):
        message = r"table must have q\^\(r\+1\) = 2\^10000001 entries, got 2"
        with pytest.raises(ValueError, match=message):
            LocalRule(2, 10**7, (0, 1))
        with pytest.raises(ValueError, match=message):
            parse_rule("2 10000000 01")
        with pytest.raises(ValueError, match=r"q\^\(r\+1\) = 8 entries, got 4"):
            parse_rule("2 2 0110")
        with pytest.raises(ValueError, match=r"q\^\(r\+1\) = 2 entries, got 0"):
            LocalRule(2, 0, ())


class TestRandomRule:
    def test_deterministic(self):
        a = random_rule(3, 1, SplitMix64(42))
        b = random_rule(3, 1, SplitMix64(42))
        assert a == b
        assert a.q == 3 and a.r == 1


@given(st.integers(0, 2**20 - 1), st.integers(3, 20))
@settings(max_examples=60, deadline=None)
def test_apply_length_property(bits, length):
    w = format(bits & ((1 << length) - 1), f"0{length}b")
    assert len(apply_word(XOR, w)) == length - 1


@given(st.integers(0, 15), st.integers(0, 15))
@settings(max_examples=40, deadline=None)
def test_compose_agreement_property(fi, gi):
    f = rule_from_index(2, 1, fi)
    g = rule_from_index(2, 1, gi)
    fg = compose(f, g)
    for w in all_words(2, 5):
        assert apply_word(fg, w) == apply_word(f, apply_word(g, w))
