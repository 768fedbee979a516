import itertools
import math
from fractions import Fraction

import pytest

from cafreq.interval_swap import (
    SwapParams,
    apply_swap,
    check_swap_params,
    classify_interval,
    count_avoiding,
    decompose_intervals,
    marker_occurrences,
    rank_avoiding,
    rank_dense_safe,
    rank_sparse,
    run_swap_trials,
    safe_dense_count,
    sparse_count,
    unrank_avoiding,
    unrank_dense_safe,
    unrank_sparse,
    weight_bounds,
)
from cafreq import interval_swap
from cafreq.interval_swap import _apply_swap_details, _params_engine
from cafreq.rng import SplitMix64

CANON = SwapParams(2, Fraction(1, 50))


class TestParams:
    def test_marker(self):
        assert CANON.marker == "10100"
        assert SwapParams(1, Fraction(1, 50)).marker == "100"

    def test_marker_prob(self):
        assert CANON.marker_prob == Fraction(1, 50) ** 2 * Fraction(49, 50) ** 3

    def test_bounds(self):
        assert CANON.short_bound == 200
        assert CANON.medium_bound == 5323
        assert CANON.max_free_length == 5318

    def test_medium_intervals_hold_the_marker(self):
        # as 0 < p < 1, ceil(2n/p) >= 2n + 1: no medium interval is shorter
        # than its opening marker, so its free part has length >= 0
        for n in range(1, 9):
            for p in (Fraction(1, 1000), Fraction(1, 50), Fraction(1, 3),
                      Fraction(1, 2), Fraction(2, 3), Fraction(999, 1000)):
                params = SwapParams(n, p)
                assert params.short_bound >= len(params.marker) == 2 * n + 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            SwapParams(0, Fraction(1, 2))
        with pytest.raises(ValueError):
            SwapParams(2, Fraction(1))

    def test_classification_spot_values(self):
        assert classify_interval(150, CANON) == "short"
        assert classify_interval(199, CANON) == "short"
        assert classify_interval(200, CANON) == "medium"
        assert classify_interval(5323, CANON) == "medium"
        assert classify_interval(5324, CANON) == "long"
        assert classify_interval(6000, CANON) == "long"

    def test_weight_bounds(self):
        assert weight_bounds(5318, Fraction(1, 50)) == (54, 159)
        assert weight_bounds(200, Fraction(1, 50)) == (2, 6)

    def test_weight_bounds_match_rational_rounding(self):
        for p, lengths in ((Fraction(1, 50), range(20001)), (Fraction(2, 7), range(3000)),
                           (Fraction(1, 36), range(3000)), (Fraction(5, 9), range(-40, 40))):
            for l in lengths:
                assert weight_bounds(l, p) == (
                    math.ceil(Fraction(l) * p / 2), math.floor(Fraction(3 * l) * p / 2)
                )


class TestToyRanker:
    def test_pair_pattern(self):
        # words of length 2 avoiding "11" with exactly one 1: {01, 10}
        assert count_avoiding("11", 2, 1, 1) == 2
        assert rank_avoiding("11", "01", 1, 1) == 0
        assert rank_avoiding("11", "10", 1, 1) == 1
        assert unrank_avoiding("11", 2, 0, 1, 1) == "01"
        assert unrank_avoiding("11", 2, 1, 1, 1) == "10"

    def test_pattern_member_rejected(self):
        with pytest.raises(ValueError):
            rank_avoiding("11", "11", 0, 2)

    def test_weight_out_of_band_rejected(self):
        with pytest.raises(ValueError):
            rank_avoiding("11", "00", 1, 1)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            unrank_avoiding("11", 2, 2, 1, 1)

    def test_count_matches_brute_force(self):
        for pattern in ("11", "10100", "100"):
            for length in range(0, 15):
                for lo, hi in ((0, length), (1, 3), (2, 5)):
                    expected = 0
                    for bits in range(1 << length):
                        w = format(bits, f"0{length}b") if length else ""
                        if pattern in w:
                            continue
                        if lo <= w.count("1") <= hi:
                            expected += 1
                    assert count_avoiding(pattern, length, lo, hi) == expected

    def test_rank_is_lexicographic(self):
        members = []
        for bits in range(1 << 10):
            w = format(bits, "010b")
            if "10100" not in w and 1 <= w.count("1") <= 3:
                members.append(w)
        members.sort()
        for i, w in enumerate(members):
            assert rank_avoiding("10100", w, 1, 3) == i
            assert unrank_avoiding("10100", 10, i, 1, 3) == w

    def test_roundtrip_random_members(self):
        rng = SplitMix64(3)
        total = count_avoiding("10100", 24, 2, 8)
        for _ in range(1000):
            idx = rng.below(total)
            w = unrank_avoiding("10100", 24, idx, 2, 8)
            assert rank_avoiding("10100", w, 2, 8) == idx

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            count_avoiding("", 3, 0, 3)
        with pytest.raises(ValueError):
            count_avoiding("012", 3, 0, 3)


class TestSparseFamily:
    def test_count_matches_generic(self):
        for length in (195, 240, 300):
            lo, hi = weight_bounds(length, CANON.p)
            assert sparse_count(CANON, length) == count_avoiding(
                CANON.marker, length, lo, hi
            )

    def test_roundtrip(self):
        total = sparse_count(CANON, 211)
        rng = SplitMix64(17)
        for _ in range(50):
            idx = rng.below(total)
            w = unrank_sparse(CANON, 211, idx)
            assert rank_sparse(CANON, w) == idx
            assert CANON.marker not in w


def full_family(length):
    """Every dense code word of the length (blocks 110b, then a 0-tail), in order."""
    blocks, rem = divmod(length, 4)
    return [
        "".join("110" + b for b in bits) + "0" * rem
        for bits in itertools.product("01", repeat=blocks)
    ]


def safe_family(params, length):
    """Marker-free words of the full dense family, in lexicographic order."""
    return [w for w in full_family(length) if params.marker not in w]


#: code bit -> its block 110b, for str.translate
CODE_BLOCKS = {ord("0"): "1100", ord("1"): "1101"}


def translated_dense_word(params, length, index):
    """A safe dense code word built block by block with str.translate."""
    free, suffix = interval_swap._safe_code_shape(params.n, length)
    bits = (format(index, f"0{free}b") if free else "") + suffix
    return bits.translate(CODE_BLOCKS) + "0" * (length % 4)


class TestDenseFamily:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hex_builder_matches_translated_blocks(self, n):
        params = SwapParams(n, CANON.p)
        for length in [*range(61), 5318]:
            total = safe_dense_count(params, length)
            for idx in sorted({0, total // 2, total - 1}) if total else ():
                assert unrank_dense_safe(params, length, idx) == translated_dense_word(
                    params, length, idx
                ), (length, idx)

    def test_spec_words(self):
        # at length 8 every code bit is free: the safe family is the full one
        assert unrank_dense_safe(CANON, 8, 2) == "11011100"
        assert safe_dense_count(CANON, 8) == 4
        assert unrank_dense_safe(CANON, 9, 0) == "110011000"

    def test_malformed(self):
        with pytest.raises(ValueError, match="not a dense code word"):
            rank_dense_safe(CANON, "11111111")
        with pytest.raises(ValueError, match="out of range"):
            unrank_dense_safe(CANON, 8, 4)

    def test_safe_subfamily_excludes_marker_words(self):
        # final code bit 1 before a tail of >= 2 zeros embeds the marker
        assert safe_dense_count(CANON, 6) == 1
        assert full_family(6) == ["110000", "110100"]  # the second holds 10100
        with pytest.raises(ValueError):
            rank_dense_safe(CANON, "110100")
        assert unrank_dense_safe(CANON, 6, 0) == "110000"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_safe_count_matches_brute_force(self, n):
        params = SwapParams(n, CANON.p)
        for length in range(41):
            assert safe_dense_count(params, length) == len(safe_family(params, length))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_safe_roundtrip(self, n):
        params = SwapParams(n, CANON.p)
        for length in range(41):
            family = safe_family(params, length)
            for idx, w in enumerate(family):
                assert unrank_dense_safe(params, length, idx) == w
                assert rank_dense_safe(params, w) == idx
            for bad in (-1, len(family)):
                with pytest.raises(ValueError, match="out of range"):
                    unrank_dense_safe(params, length, bad)
            for w in full_family(length):
                if params.marker in w:
                    with pytest.raises(ValueError, match="avoided pattern"):
                        rank_dense_safe(params, w)

    def test_safe_family_at_a_million_cells(self):
        assert safe_dense_count(CANON, 10**6) == 1 << 250000
        length = 10**6 + 2  # the last code bit is fixed to 0
        total = safe_dense_count(CANON, length)
        assert total == 1 << 249999
        word = unrank_dense_safe(CANON, length, total - 1)
        assert word.endswith("1101" + "1100" + "00")
        assert rank_dense_safe(CANON, word) == total - 1

    def test_dense_calls_leave_the_engine_cache_alone(self):
        sparse_count(CANON, 300)
        cached = dict(interval_swap._ENGINES)
        other = SwapParams(2, Fraction(1, 36))
        for length in (195, 1000):
            idx = safe_dense_count(other, length) - 1
            assert rank_dense_safe(other, unrank_dense_safe(other, length, idx)) == idx
        assert interval_swap._ENGINES == cached


NEGATIVE_LENGTH_CALLS = {
    "count_avoiding": lambda: count_avoiding("10100", -1, 0, 5),
    "unrank_avoiding": lambda: unrank_avoiding("10100", -1, 0, 0, 5),
    "sparse_count": lambda: sparse_count(CANON, -1),
    "unrank_sparse": lambda: unrank_sparse(CANON, -1, 0),
    "safe_dense_count": lambda: safe_dense_count(CANON, -1),
    "unrank_dense_safe": lambda: unrank_dense_safe(CANON, -1, 0),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_LENGTH_CALLS))
def test_negative_length_refused_before_any_table(name):
    # a negative length would read the last cells of the cached table
    count_avoiding("10100", 30, 0, 5)
    cached = dict(interval_swap._ENGINES)
    built = [engine.length for engine in cached.values()]
    with pytest.raises(ValueError, match="length -1 is negative"):
        NEGATIVE_LENGTH_CALLS[name]()
    assert interval_swap._ENGINES == cached
    assert [engine.length for engine in cached.values()] == built


class TestDecomposition:
    def test_no_occurrences(self):
        d = decompose_intervals("0" * 40, CANON)
        assert d.occurrences == ()
        assert d.intervals == ()

    def test_short_interval_n1(self):
        params = SwapParams(1, Fraction(1, 50))
        d = decompose_intervals("100" + "0" + "100", params)
        assert d.occurrences == (0, 4)
        complete = [iv for iv in d.intervals if iv.complete]
        assert len(complete) == 1
        assert complete[0].length == 4 and complete[0].kind == "short"

    def test_adjacent_occurrences(self):
        # the marker never self-overlaps; adjacent copies sit 5 apart
        assert marker_occurrences("1010010100", "10100") == [0, 5]
        assert marker_occurrences("1010100", "10100") == [2]

    def test_trailing_incomplete(self):
        window = "10100" + "0" * 10
        d = decompose_intervals(window, CANON)
        assert len(d.intervals) == 1
        assert not d.intervals[0].complete


def medium_window(free_part: str) -> str:
    return CANON.marker + free_part + CANON.marker


class TestApplySwap:
    def test_no_marker_unchanged(self):
        w = "0" * 500
        assert apply_swap(w, CANON) == w

    def test_short_interval_unchanged(self):
        w = CANON.marker + "0" * 100 + CANON.marker
        assert apply_swap(w, CANON) == w

    def test_sparse_to_dense_roundtrip(self):
        free = unrank_sparse(CANON, 195, 12345)
        w = medium_window(free)
        once = apply_swap(w, CANON)
        assert once != w
        assert marker_occurrences(once, CANON.marker) == [0, 200]
        code = once[5:200]
        assert rank_dense_safe(CANON, code) == 12345
        assert apply_swap(once, CANON) == w

    def test_dense_to_sparse_roundtrip(self):
        code = unrank_dense_safe(CANON, 195, 54321)
        w = medium_window(code)
        once = apply_swap(w, CANON)
        assert once[5:200] == unrank_sparse(CANON, 195, 54321)
        assert apply_swap(once, CANON) == w

    def test_dense_above_sparse_count_unchanged(self):
        idx = sparse_count(CANON, 195)
        assert idx < safe_dense_count(CANON, 195)
        code = unrank_dense_safe(CANON, 195, idx)
        w = medium_window(code)
        assert apply_swap(w, CANON) == w

    def test_free_part_outside_both_families_unchanged(self):
        # weight far above the sparse band, not a code word
        free = "1" * 97 + "0" * 98  # weight 97 >> hi(195)
        assert "10100" not in free
        w = medium_window(free)
        assert apply_swap(w, CANON) == w

    def test_details_track_rewrites(self):
        free = unrank_sparse(CANON, 195, 7)
        out, stats, occ = _apply_swap_details(medium_window(free), CANON)
        assert stats.medium == 1 and stats.to_dense == 1 and stats.to_sparse == 0
        assert stats.dense_spans == ((5, 200),)
        assert occ == [0, 200] == marker_occurrences(out, CANON.marker)
        assert out[:5] + out[200:] == CANON.marker * 2

    def test_invalid_params_rejected(self):
        bad = SwapParams(2, Fraction(1, 5))
        with pytest.raises(ValueError):
            apply_swap("0" * 50, bad)

    def test_non_binary_window_rejected(self):
        with pytest.raises(ValueError):
            apply_swap("012", CANON)

    @pytest.mark.parametrize("bad", ["2", "x", " ", "\u0661"])
    def test_non_binary_character_inside_the_window_rejected(self, bad):
        free = unrank_sparse(CANON, 195, 12345)
        window = medium_window(free[:90] + bad + free[91:])
        with pytest.raises(ValueError, match="window must be a binary word"):
            apply_swap(window, CANON)


class TestParamsValidity:
    def test_counting_check_fails_for_large_density(self):
        report = check_swap_params(SwapParams(2, Fraction(1, 5)))
        assert not report.valid
        assert any("injectivity" in reason for reason in report.reasons)

    def test_vacuous_params(self):
        report = check_swap_params(SwapParams(1, Fraction(1, 50)))
        assert report.valid and report.vacuous
        assert "no medium intervals" in report.reasons[0]

    def test_engine_cache_keeps_one_table(self):
        # each count table can take hundreds of MB; only the last one is kept
        first, last = SwapParams(2, Fraction(1, 36)), SwapParams(2, Fraction(1, 40))
        for params in (first, last):
            sparse_count(params, 300)
        cap = weight_bounds(last.max_free_length, last.p)[1]
        assert list(interval_swap._ENGINES) == [(last.marker, cap)]
        free = unrank_sparse(CANON, 195, 12345)
        once = apply_swap(medium_window(free), CANON)
        assert rank_dense_safe(CANON, once[5:200]) == 12345
        assert apply_swap(once, CANON) == medium_window(free)
        assert len(interval_swap._ENGINES) == 1

    def test_table_size_prediction_is_exact(self, monkeypatch):
        params = SwapParams(2, Fraction(1, 20))
        check_swap_params(params)
        engine = _params_engine(params)
        cells = sum(map(len, engine.cols))
        assert {len(col) for col in engine.cols} == {params.max_free_length + 1}
        check_swap_params.cache_clear()
        monkeypatch.setattr(interval_swap, "MAX_SWAP_TABLE_CELLS", cells)
        check_swap_params(params)
        check_swap_params.cache_clear()
        monkeypatch.setattr(interval_swap, "MAX_SWAP_TABLE_CELLS", cells - 1)
        with pytest.raises(ValueError, match="cells"):
            check_swap_params(params)

    @pytest.mark.parametrize(
        "p, rows, admitted",
        [(Fraction(1, 63), 1_638_964, True), (Fraction(1, 64), 1_715_889, False),
         (Fraction(1, 100), 6_343_995, False)],
    )
    def test_size_guard_boundary_at_n2(self, p, rows, admitted, monkeypatch):
        # the guard admits the same (2, p) as when it counted 5 rows of
        # min(j, cap) + 1 cells per length j against 2^23 cells, now that the
        # table holds cap + 1 columns; no table is built either way
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        params = SwapParams(2, p)
        length = params.max_free_length
        cap = weight_bounds(length, p)[1]
        assert sum(min(j, cap) + 1 for j in range(length + 1)) == rows
        assert (5 * rows <= 1 << 23) == admitted
        cells = (cap + 1) * (length + 1)
        assert cells == {63: 1_658_665, 64: 1_736_190, 100: 6_391_890}[p.denominator]
        assert (cells <= interval_swap.MAX_SWAP_TABLE_CELLS) == admitted
        monkeypatch.setattr(interval_swap, "_ENGINES", {})
        monkeypatch.setattr(interval_swap._MarkerEngine, "ensure", reached)
        check_swap_params.cache_clear()
        with pytest.raises(Reached if admitted else ValueError):
            check_swap_params(params)
        check_swap_params.cache_clear()


# Reference implementations: rank and unrank one bit at a time, and the
# count table one cell and one automaton state at a time.  The engine visits
# only the 1s and reads every state's counts off one row per length.


def reference_layers(pattern, cap, length):
    delta = interval_swap._factor_automaton(pattern)
    m = len(pattern)
    layers = [[[1] for _ in range(m)]]
    for j in range(1, length + 1):
        prev = layers[-1]
        tp = min(j - 1, cap)
        layer = []
        for s in range(m):
            s0, s1 = delta[s]
            p0 = prev[s0] if s0 < m else None
            p1 = prev[s1] if s1 < m else None
            row = []
            for t in range(min(j, cap) + 1):
                v = 0
                if p0 is not None:
                    v += p0[t if t <= tp else tp]
                if p1 is not None and t >= 1:
                    v += p1[t - 1 if t - 1 <= tp else tp]
                row.append(v)
            layer.append(row)
        layers.append(layer)
    return layers


def reference_count(layers, j, s, lo, hi):
    def count_le(t):
        if t < 0:
            return 0
        row = layers[j][s]
        return row[t] if t < len(row) else row[-1]

    return count_le(hi) - count_le(lo - 1)


def reference_rank(pattern, layers, word, lo, hi, count=reference_count):
    delta = interval_swap._factor_automaton(pattern)
    m = len(pattern)
    rank = s = w = 0
    for i, ch in enumerate(word):
        j = len(word) - 1 - i
        s0, s1 = delta[s]
        if ch == "1":
            if s0 < m:
                rank += count(layers, j, s0, lo - w, hi - w)
            w += 1
            s = s1
        elif ch == "0":
            s = s0
        else:
            raise ValueError(f"not a binary word: {word!r}")
        if s >= m:
            raise ValueError("word contains the avoided pattern")
    if not lo <= w <= hi:
        raise ValueError(f"weight {w} outside [{lo}, {hi}]")
    return rank


def reference_unrank(pattern, layers, length, index, lo, hi, count=reference_count):
    total = count(layers, length, 0, lo, hi)
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range [0, {total})")
    delta = interval_swap._factor_automaton(pattern)
    m = len(pattern)
    out = []
    s = w = 0
    for i in range(length):
        j = length - 1 - i
        s0, s1 = delta[s]
        c0 = count(layers, j, s0, lo - w, hi - w) if s0 < m else 0
        if index < c0:
            out.append("0")
            s = s0
        else:
            index -= c0
            out.append("1")
            w += 1
            s = s1
    assert index == 0 and lo <= w <= hi
    return "".join(out)


def engine_count(engine, j, s, lo, hi):
    return engine.count_range(j, s, lo, hi)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


CANON_CAP = weight_bounds(CANON.max_free_length, CANON.p)[1]


@pytest.fixture(scope="module")
def canonical_layers():
    """Reference layers of the canonical marker and cap, lengths up to 1,000."""
    return reference_layers(CANON.marker, CANON_CAP, 1000)


class TestAgainstPerBitOracle:
    @pytest.mark.parametrize(
        "pattern, cap",
        [("10100", 0), ("10100", 4), ("10100", 159), ("0", 3), ("01", 0), ("01", 6),
         ("11", 2), ("1", 5), ("101", 4), ("111", 3), ("0110", 5), ("11011", 6)],
    )
    def test_layers_match_cell_by_cell_build(self, pattern, cap):
        # "101", "111", "0110" and "11011" overlap themselves: c != 1
        layers = reference_layers(pattern, cap, 70)
        engine = interval_swap._MarkerEngine(pattern, cap)
        engine.ensure(70)
        # every band up to two past a small cap; past 14, one end at a time
        top = min(cap, 12) + 2
        bands = [(lo, hi) for lo in range(-1, top + 1) for hi in range(lo - 1, top + 1)]
        bands += [(0, t) for t in range(top + 1, cap + 3)]
        bands += [(t, cap + 2) for t in range(top + 1, cap + 3)]
        for j in range(71):
            for s in range(len(pattern)):
                for lo, hi in bands:
                    assert engine.count_range(j, s, lo, hi) == reference_count(
                        layers, j, s, lo, hi
                    ), (j, s, lo, hi)

    def test_canonical_cells_match_up_to_length_1000(self, canonical_layers):
        engine = interval_swap._MarkerEngine(CANON.marker, CANON_CAP)
        engine.ensure(1000)
        for j in range(1001):
            for s in range(len(CANON.marker)):
                row = canonical_layers[j][s]
                assert [engine.count_range(j, s, 0, t) for t in range(len(row))] == row
                assert engine.count_range(j, s, 0, CANON_CAP + 1) == row[-1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_marker_series_has_no_autocorrelation(self, n):
        # c = 1 for every (10)^n 0: Den = 1 - x - x y + x^m y^n and N_0 = 1,
        # so a row is G(j-1, t) + G(j-1, t-1) - G(j-m, t-n)
        marker = SwapParams(n, CANON.p).marker
        den, numerators = interval_swap._series_terms(marker)
        assert den == ((0, 0, 1), (1, 0, -1), (1, 1, -1), (2 * n + 1, n, 1))
        assert numerators[0] is interval_swap._UNIT

    def test_denominator_coefficients_are_units(self):
        # the column build adds or subtracts whole shifted columns, and -x is
        # Den's only term that reads the column being built (none for 0^m)
        for m in range(1, 9):
            for bits in itertools.product("01", repeat=m):
                pattern = "".join(bits)
                den, _ = interval_swap._series_terms(pattern)
                assert den[0] == (0, 0, 1)
                assert all(abs(coef) == 1 for _, _, coef in den)
                same_column = [term for term in den[1:] if term[1] == 0]
                assert same_column == ([] if pattern == "0" * m else [(1, 0, -1)])

    def test_grown_table_matches_one_build(self):
        grown = interval_swap._MarkerEngine(CANON.marker, CANON_CAP)
        for length in (7, 100, CANON.max_free_length):
            grown.ensure(length)
        once = interval_swap._MarkerEngine(CANON.marker, CANON_CAP)
        once.ensure(CANON.max_free_length)
        assert grown.length == once.length == CANON.max_free_length
        assert grown.cols == once.cols

    @pytest.mark.parametrize("length", [200, 1000])
    def test_unrank_of_packed_ones_matches_per_bit_walk(self, length, canonical_layers):
        # ones last: the first run of zeros still owes lo ones, so its count
        # subtracts a second column; ones first: the last run owes none and
        # reaches the end; ones at both ends take both searches
        lo, hi = weight_bounds(length, CANON.p)
        words = []
        for u in range(lo, hi + 1):
            for first in (0, u, u // 2, 1):
                words.append("1" * first + "0" * (length - u) + "1" * (u - first))
        total = sparse_count(CANON, length)
        for word in words:
            idx = reference_rank(CANON.marker, canonical_layers, word, lo, hi)
            assert rank_sparse(CANON, word) == idx
            assert unrank_sparse(CANON, length, idx) == word
            for i in (idx - 1, idx + 1):
                if 0 <= i < total:
                    assert unrank_sparse(CANON, length, i) == reference_unrank(
                        CANON.marker, canonical_layers, length, i, lo, hi
                    )

    @pytest.mark.parametrize("length", [195, 1000, 5318])
    def test_canonical_unrank_and_rank(self, length, canonical_layers):
        lo, hi = weight_bounds(length, CANON.p)
        total = sparse_count(CANON, length)
        layers, count = canonical_layers, reference_count
        if length >= len(layers):
            # past the reference layers the per-bit walks read the engine's
            # counts, which the cell tests above compare with the reference
            layers, count = _params_engine(CANON, length), engine_count
        rng = SplitMix64(length)
        for idx in [0, total - 1] + [rng.below(total) for _ in range(20)]:
            word = unrank_sparse(CANON, length, idx)
            assert word == reference_unrank(CANON.marker, layers, length, idx, lo, hi, count)
            assert rank_sparse(CANON, word) == idx
            assert reference_rank(CANON.marker, layers, word, lo, hi, count) == idx

    @pytest.mark.parametrize(
        "pattern, length, lo, hi",
        [("0", 4, 2, 4), ("01", 14, 1, 4), ("11", 14, 1, 4), ("10100", 14, 1, 4)],
    )
    def test_results_and_errors_match(self, pattern, length, lo, hi):
        # a 0 keeps no state of "0", state 1 of "01" and state 0 of the others
        layers = reference_layers(pattern, hi, length)
        total = reference_count(layers, length, 0, lo, hi)
        assert count_avoiding(pattern, length, lo, hi) == total
        for idx in (-1, 0, total // 2, total - 1, total):
            assert outcome(unrank_avoiding, pattern, length, idx, lo, hi) == outcome(
                reference_unrank, pattern, layers, length, idx, lo, hi
            )
        words = [
            pattern,  # a pattern member
            "1" * (lo - 1),  # just below the band
            "0" * length,  # weight 0, below the band (or the pattern "0")
            "1" * length,  # weight above the band (or the pattern "11")
            "0" + pattern + "2",  # the pattern comes before the bad character
            "2" + pattern,  # the bad character comes first
            pattern[:-1] + "x" + pattern[-1],
        ]
        rng = SplitMix64(len(pattern))
        words += [reference_unrank(pattern, layers, length, rng.below(total), lo, hi)
                  for _ in range(30)]
        for word in words:
            assert outcome(rank_avoiding, pattern, word, lo, hi) == outcome(
                reference_rank, pattern, layers[: len(word) + 1], word, lo, hi
            ), word

    @pytest.mark.parametrize(
        "call",
        [
            lambda: count_avoiding("10100", 10**6, 0, 10**5),
            lambda: rank_avoiding("10100", "0" * 10**6, 0, 10**5),
            lambda: unrank_avoiding("10100", 10**6, 0, 0, 10**5),
        ],
        ids=["count", "rank", "unrank"],
    )
    def test_oversize_table_refused_at_once(self, call):
        cached = dict(interval_swap._ENGINES)
        with pytest.raises(ValueError, match="count table of .* cells exceeds limit"):
            call()
        assert interval_swap._ENGINES == cached

    def test_long_pattern_refused_before_its_automaton(self, monkeypatch):
        # the automaton and series terms of an m-letter pattern cost about m^3
        def unreachable(*args):
            raise AssertionError("reached the automaton or the series terms")

        sparse_count(CANON, 100)
        cached = dict(interval_swap._ENGINES)
        for name in ("_factor_automaton", "_series_terms"):
            monkeypatch.setattr(interval_swap, name, unreachable)
        with pytest.raises(ValueError, match="avoided pattern of 2001 letters exceeds limit 128"):
            count_avoiding("10" * 1000 + "0", 10, 0, 10)
        assert interval_swap._ENGINES == cached
        monkeypatch.undo()
        assert count_avoiding("1" * 128, 10, 0, 10) == 1 << 10

    def test_refused_table_keeps_the_cached_one(self):
        # a refused call for another pattern does not evict the cached table
        sparse_count(CANON, 100)
        (engine,) = interval_swap._ENGINES.values()
        with pytest.raises(ValueError, match="cells exceeds limit"):
            count_avoiding("10100", 10**7, 0, 10**6)
        assert list(interval_swap._ENGINES.values()) == [engine]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sparse_count(CANON, 10**6),
            lambda: rank_sparse(CANON, "0" * 10**6),
            lambda: unrank_sparse(CANON, 10**6, 0),
        ],
        ids=["count", "rank", "unrank"],
    )
    def test_oversize_sparse_table_refused_and_cached_one_kept(self, call):
        engine = _params_engine(CANON, 200)
        built = engine.length
        with pytest.raises(ValueError, match="cells exceeds limit"):
            call()
        assert list(interval_swap._ENGINES.values()) == [engine]
        assert engine.length == built


class TestZeroChains:
    def test_canonical_chains(self):
        # 1 -> 10 -> 100 = state 0 and 10 -> 100; 101 and 1010 meet the marker
        chains = interval_swap._MarkerEngine(CANON.marker, CANON_CAP).chains
        assert chains == [(0, 0), (2, 0), (1, 0), None, None]
        assert {s: chain for s, chain in enumerate(chains) if chain and chain[0]} == {
            1: (2, 0),
            2: (1, 0),
        }

    def test_chains_follow_the_automaton(self):
        # d zeros lead to z without an occurrence; z is kept by a 0 and
        # reads one column; no state without a chain gets there
        for m in range(1, 9):
            for bits in itertools.product("01", repeat=m):
                engine = interval_swap._MarkerEngine("".join(bits), 0)
                for s, chain in enumerate(engine.chains):
                    seen = [s]
                    while seen[-1] < m and engine.delta[seen[-1]][0] not in seen:
                        seen.append(engine.delta[seen[-1]][0])
                    end = seen[-1]
                    ends_well = (
                        end < m
                        and engine.delta[end][0] == end
                        and engine.numerators[end] is interval_swap._UNIT
                    )
                    assert chain == ((len(seen) - 1, end) if ends_well else None)

    @pytest.mark.parametrize("pattern_len", range(1, 7))
    def test_unrank_matches_per_bit_walk(self, pattern_len):
        # every pattern of the length, with and without chains; each cap and
        # band; the first, middle and last words of each length up to 14
        for bits in itertools.product("01", repeat=pattern_len):
            pattern = "".join(bits)
            for cap in (0, 2, 5):
                layers = reference_layers(pattern, cap, 14)
                engine = interval_swap._MarkerEngine(pattern, cap)
                engine.ensure(14)
                for lo in range(cap + 1):
                    for hi in range(lo, cap + 2):
                        for length in range(15):
                            total = reference_count(layers, length, 0, lo, hi)
                            indices = {0, total // 3, total // 2, total - 1} if total else ()
                            for idx in sorted(indices):
                                assert engine.unrank(length, idx, lo, hi) == reference_unrank(
                                    pattern, layers, length, idx, lo, hi
                                ), (pattern, cap, lo, hi, length, idx)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    pattern_bits=st.integers(0, 31),
    pattern_len=st.integers(1, 5),
    length=st.integers(0, 11),
    lo=st.integers(0, 4),
    width=st.integers(0, 5),
)
@settings(max_examples=60, deadline=None)
def test_ranker_matches_enumeration_property(pattern_bits, pattern_len, length, lo, width):
    pattern = format(pattern_bits & ((1 << pattern_len) - 1), f"0{pattern_len}b")
    hi = lo + width
    members = []
    for bits in range(1 << length):
        w = format(bits, f"0{length}b") if length else ""
        if pattern not in w and lo <= w.count("1") <= hi:
            members.append(w)
    members.sort()
    assert count_avoiding(pattern, length, lo, hi) == len(members)
    for i, w in enumerate(members):
        assert rank_avoiding(pattern, w, lo, hi) == i
        assert unrank_avoiding(pattern, length, i, lo, hi) == w


class TestTrials:
    def test_small_batch_deterministic(self):
        trials = run_swap_trials(CANON, 3, seed=9, window_length=1200)
        again = run_swap_trials(CANON, 3, seed=9, window_length=1200)
        assert trials == again
        assert all(t.involution_ok and t.occurrences_conserved for t in trials)

    @pytest.mark.parametrize(
        "count, window_length", [(-2, None), (3, -5)], ids=["count", "window-length"]
    )
    def test_negative_sizes_refused_before_any_table(self, count, window_length, monkeypatch):
        def unreachable(*args):
            raise AssertionError("reached a table or a worker")

        for name in ("check_swap_params", "_params_engine", "map_ranges"):
            monkeypatch.setattr(interval_swap, name, unreachable)
        with pytest.raises(ValueError, match="negative"):
            run_swap_trials(CANON, count, seed=0, window_length=window_length)

    def test_vacuous_parameters_run(self):
        # no medium free-part length exists, so max_free_length reports -1
        params = SwapParams(1, Fraction(1, 50))
        report = interval_swap.check_swap_params(params)
        assert report.valid and report.vacuous and report.max_free_length == -1
        trials = run_swap_trials(params, 2, seed=0)
        assert [(t.occurrences, t.complete, t.medium) for t in trials] == [(2, 1, 0), (4, 3, 0)]
        assert all(t.involution_ok and t.occurrences_conserved for t in trials)

    def test_jobs_do_not_change_results(self):
        one = run_swap_trials(CANON, 4, seed=5, window_length=900, jobs=1)
        two = run_swap_trials(CANON, 4, seed=5, window_length=900, jobs=2)
        assert one == two


def split_max_run(word):
    """The longest run of 1s, from the word's pieces between zeros."""
    return max(map(len, word.split("0")))


def test_max_run_matches_split_pieces():
    words = ["", "0", "1", "0" * 50, "1" * 50, "0110111", "1110", "0111"]
    rng = SplitMix64(3)
    for density in (2, 10, 50, 90):
        for length in (1, 7, 200, 2000):
            words.append("".join("1" if rng.below(100) < density else "0" for _ in range(length)))
    words.append(unrank_dense_safe(CANON, 5318, safe_dense_count(CANON, 5318) // 3))
    for word in words:
        assert interval_swap._max_run(word) == split_max_run(word), word


def test_every_public_name_resolves():
    # a deleted function must not linger in __all__
    missing = [name for name in interval_swap.__all__ if not hasattr(interval_swap, name)]
    assert missing == []
