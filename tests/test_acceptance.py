"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (run with `pytest -s` to see them all)
and enforces the stated exactness and wall-clock budget.  Statistical
criteria use fixed seeds and generous gap requirements, so reruns are
byte-for-byte reproducible.
"""

import itertools
import math
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from cafreq import (
    LocalRule,
    ProductMeasure,
    check_high_domination,
    check_measure_invariance,
    check_prefix_sum_conjecture,
    conserves_symbols,
    correlation,
    finite_correlation,
    histogram,
    identity_correlation,
    normalized_correlation,
    parse_rule,
    pushforward,
    pushforward_mass_from_histogram,
    surjective_rules,
)
from cafreq.block_sampler import (
    BlockMeasureParams,
    BlockSampler,
    estimate_cylinder,
    sample_hierarchical,
    triangular,
    xor_power,
)
from cafreq.cli import main
from cafreq.correlation import (
    average_normalized_correlation,
    find_conservation_violation,
    histogram_matches_identity,
    parse_symbols,
)
from cafreq.interval_swap import SwapParams, run_swap_trials
from cafreq.rng import SplitMix64, derive_seed
from cafreq.rules import apply_word, random_rule


def ternary_example_rule():
    table = []
    for a, b, c in itertools.product(range(3), repeat=3):
        table.append(2 if b == c else (1 if a == 0 else 0))
    return LocalRule(3, 2, tuple(table))


def report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_acceptance_01_ternary_golden_values():
    start = time.time()
    rule = ternary_example_rule()
    h = histogram(rule, [0], [0, 2])
    assert h.counts == (8, 10, 2, 1)
    assert h.moment(1) == 17
    assert normalized_correlation(rule, [0], [0, 2]) == Fraction(1, 3)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"histogram (8, 10, 2, 1), C=17, normalized 1/3 in {elapsed:.3f}s")


def test_acceptance_02_threshold_pair_golden_values():
    start = time.time()
    f = LocalRule(2, 2, tuple(1 if bin(w).count("1") <= 2 else 0 for w in range(8)))
    g = LocalRule(2, 2, tuple(1 if bin(w).count("1") == 2 else 0 for w in range(8)))
    assert correlation(f, [1], [1]) == 9
    assert correlation(g, [1], [1]) == 6
    assert normalized_correlation(f, [1], [1]) == Fraction(1, 2)
    assert normalized_correlation(g, [1], [1]) == Fraction(3, 4)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(2, f"C=9 vs 6 and normalized 1/2 vs 3/4 in {elapsed:.3f}s")


def test_acceptance_03_order1_domination_sweep():
    start = time.time()
    identity_values = {0: 1, 1: 3, 2: 8, 3: 20}
    violations = 0
    total = 0
    for r in range(4):
        bound = identity_correlation(2, 1, r)
        assert bound == identity_values[r]
        for rule in surjective_rules(2, r):
            total += 1
            if correlation(rule, [1], [1]) > bound:
                violations += 1
    elapsed = time.time() - start
    assert violations == 0
    assert elapsed < 60.0
    report(3, f"0 violations over {total} surjective binary rules, r <= 3, in {elapsed:.1f}s")


def test_acceptance_04_prefix_sum_sweep():
    start = time.time()
    counts = {}
    violations = 0
    for r in range(4):
        rules_r = surjective_rules(2, r)
        counts[r] = len(rules_r)
        for rule in rules_r:
            if not check_prefix_sum_conjecture(rule).holds:
                violations += 1
    elapsed = time.time() - start
    assert violations == 0
    assert counts == {0: 2, 1: 6, 2: 30, 3: 582}
    assert elapsed < 60.0
    report(
        4,
        "0 counterexamples; surjective rules per radius "
        f"{counts[0]}/{counts[1]}/{counts[2]}/{counts[3]} in {elapsed:.1f}s",
    )


def test_acceptance_05_rule_space_averages():
    cases = [
        (2, 1, "1", "1"),
        (2, 2, "1", "1"),
        (3, 0, "0", "02"),
        (3, 1, "1", "0"),
    ]
    for q, r, a_text, b_text in cases:
        A = parse_symbols(a_text, q)
        B = parse_symbols(b_text, q)
        avg = average_normalized_correlation(q, r, A, B)
        assert avg == Fraction(len(A) * len(B), q), (q, r, a_text, b_text)
    report(5, "exact rule-space averages |A||B|/q for all four parameter sets")


def test_acceptance_06_radius_recursion_and_closed_forms():
    rng = SplitMix64(606)
    checked = 0
    for _ in range(100):
        q = 2 + rng.below(2)
        r = rng.below(3)
        rule = random_rule(q, r, rng)
        size_a = 1 + rng.below(q)
        A = frozenset(range(size_a))
        B = frozenset({rng.below(q)})
        for k in range(3):
            r_eff = r + k
            for m in range(4):
                lhs = correlation(rule, A, B, r_eff=r_eff + 1, m=m)
                rhs = q * correlation(rule, A, B, r_eff=r_eff, m=m) + size_a * sum(
                    comb(m, i) * correlation(rule, A, B, r_eff=r_eff, m=i)
                    for i in range(m)
                )
                assert lhs == rhs
        h = histogram(rule, A, B)
        closed = Fraction(h.moment(1), q**r) - Fraction(r * size_a * h.total, q ** (r + 1))
        assert normalized_correlation(rule, A, B) == closed
        checked += 1
    # balanced form for surjective rules: |f^-1(B)| collapses to |B| q^r
    for r in range(3):
        for rule in surjective_rules(2, r):
            h = histogram(rule, [1], [1])
            surj_form = Fraction(h.moment(1), 2**r) - Fraction(r * 1 * 1, 2)
            assert normalized_correlation(rule, [1], [1]) == surj_form
    report(6, f"radius recursion and both closed forms exact on {checked} random rules")


def test_acceptance_07_histogram_mass_formula():
    rng = SplitMix64(707)
    checked = 0
    for _ in range(100):
        q = 2 + rng.below(2)
        rule = random_rule(q, rng.below(3), rng)
        size = 1 + rng.below(q - 1)
        A = frozenset(range(size))
        for p in (Fraction(1, 3), Fraction(1, 7), Fraction(9, 10)):
            mu = ProductMeasure.concentrated(q, A, p)
            direct = sum(pushforward(rule, mu, str(a)) for a in sorted(A))
            assert pushforward_mass_from_histogram(rule, A, p) == direct
        checked += 1
    report(7, f"histogram mass formula equals direct pushforward on {checked} random rules")


def test_acceptance_08_conservation_cross_check():
    start = time.time()
    disagreements = 0
    pairs = 0
    for r in range(3):
        for rule in surjective_rules(2, r):
            for A in (frozenset({0}), frozenset({1})):
                by_histogram = histogram_matches_identity(rule, A)
                witness = find_conservation_violation(rule, A, 12)
                pairs += 1
                if by_histogram != (witness is None):
                    disagreements += 1
    assert disagreements == 0
    # non-surjective ternary rule: histogram agreement yet a period-3 violation
    table = []
    for a, b in itertools.product(range(3), repeat=2):
        if (a, b) == (1, 0):
            table.append(0)
        elif (a, b) == (0, 1):
            table.append(1)
        else:
            table.append(a)
    rule = LocalRule(3, 1, tuple(table))
    assert histogram_matches_identity(rule, [0])
    rep = conserves_symbols(rule, [0])
    assert rep.status == "violates" and rep.witness == ("012", "112")
    elapsed = time.time() - start
    report(
        8,
        f"histogram and periodic verdicts agree on {pairs} pairs; ternary witness "
        f"012 -> 112 in {elapsed:.1f}s",
    )


def test_acceptance_09_swap_trials():
    start = time.time()
    params = SwapParams(2, Fraction(1, 50))
    trials = run_swap_trials(params, 1000, seed=2024)
    bad_involution = sum(not t.involution_ok for t in trials)
    bad_conservation = sum(not t.occurrences_conserved for t in trials)
    bad_quads = sum(not t.quad_free for t in trials)
    rewritten = sum(t.to_dense + t.to_sparse for t in trials)
    assert bad_involution == 0
    assert bad_conservation == 0
    assert bad_quads == 0
    assert rewritten > 1000  # the map must actually fire, not pass vacuously
    # code words legitimately contain 1-runs of length exactly three whenever a
    # set code bit is followed by another block, so the stronger "no 111"
    # reading is unsatisfiable; the property the construction needs and
    # guarantees is the absence of 1111
    max_run = max(t.max_dense_run for t in trials)
    assert max_run == 3
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(
        9,
        f"1000 windows: involution, occurrence conservation, no-1111 all hold "
        f"({rewritten} rewrites, max 1-run {max_run}) in {elapsed:.1f}s",
    )


def test_acceptance_10_hierarchical_limit_toward_zero():
    start = time.time()
    params = BlockMeasureParams(levels=4, alpha=Fraction(1))
    sampler = BlockSampler(params)
    seed = 1010
    # (a) full support: every length-4 word appears
    seen = set()
    for i in range(10_000):
        rng = SplitMix64.for_index(derive_seed(seed, 0), i)
        seen.add(sampler.draw(4, rng))
        if len(seen) == 16:
            break
    assert len(seen) == 16
    # (b) the one-cell 1-frequency after 2^t(n) steps strictly decreases
    estimates = []
    for n in (1, 2, 3):
        steps = 1 << triangular(n)
        est = estimate_cylinder(
            BlockSampler(params, steps), "1", 10_000, derive_seed(seed, n)
        )
        estimates.append(est)
    for a, b in zip(estimates, estimates[1:]):
        gap = a.estimate - b.estimate
        combined = math.hypot(a.std_error, b.std_error)
        assert gap > 3 * combined, (a, b)
    elapsed = time.time() - start
    assert elapsed < 300.0
    values = ", ".join(f"{e.estimate:.4f}" for e in estimates)
    report(10, f"full support at length 4; estimates decrease ({values}) in {elapsed:.1f}s")


def test_acceptance_11_alternation_mix_limit():
    start = time.time()
    seed = 1111
    steps = 1 << triangular(3)
    results = {}
    for word in ("0" * 8, "1" * 8):
        row = []
        for j, alpha in enumerate((Fraction(0), Fraction(1, 2), Fraction(1))):
            params = BlockMeasureParams(levels=4, alpha=alpha)
            sampler = BlockSampler(params, steps)
            est = estimate_cylinder(
                sampler, word, 10_000, derive_seed(seed, len(word), j)
            )
            row.append(est)
        results[word] = row
    zeros = results["0" * 8]
    ones = results["1" * 8]
    for a, b in zip(zeros, zeros[1:]):
        gap = b.estimate - a.estimate
        assert gap > 3 * math.hypot(a.std_error, b.std_error), (a, b)
    for a, b in zip(ones, ones[1:]):
        gap = a.estimate - b.estimate
        assert gap > 3 * math.hypot(a.std_error, b.std_error), (a, b)
    elapsed = time.time() - start
    assert elapsed < 600.0
    z = ", ".join(f"{e.estimate:.3f}" for e in zeros)
    o = ", ".join(f"{e.estimate:.3f}" for e in ones)
    report(11, f"alpha sweep: P(0^8) rises ({z}), P(1^8) falls ({o}) in {elapsed:.1f}s")


def test_acceptance_12_uniform_invariance():
    uniform = ProductMeasure.uniform(2)
    checked = 0
    for r in range(3):
        for rule in surjective_rules(2, r):
            assert check_measure_invariance(rule, uniform, 5)
            checked += 1
    report(12, f"uniform measure invariant to depth 5 for all {checked} surjective rules")


def test_acceptance_13_xor_power_vs_naive_iteration():
    start = time.time()
    # bridge: the packed update used below equals the library's single step
    # and the library's lag shortcut, on a seeded sample
    rng = SplitMix64(1313)
    xor_rule = parse_rule("2 1 0110")
    for _ in range(300):
        length = 2 + rng.below(19)
        w = format(rng.below(1 << length), f"0{length}b")
        bits = int(w, 2)
        packed_step = ((bits >> 1) ^ bits) & ((1 << (length - 1)) - 1)
        assert format(packed_step, f"0{length - 1}b") == apply_word(xor_rule, w)
        k = rng.below(4)
        if length > (1 << k):
            out_len = length - (1 << k)
            packed_lag = ((bits >> (1 << k)) ^ bits) & ((1 << out_len) - 1)
            assert format(packed_lag, f"0{out_len}b") == xor_power(w, k)
    # exhaustive comparison over every window of length <= 20 and t <= 8
    checked = 0
    for length in range(2, 21):
        words = np.arange(1 << length, dtype=np.uint32)
        for t in range(0, min(9, length)):
            naive = words.copy()
            width = length
            for _ in range(t):
                width -= 1
                naive = ((naive >> np.uint32(1)) ^ naive) & np.uint32((1 << width) - 1)
            fast = words.copy()
            width = length
            rest, k = t, 0
            while rest:
                if rest & 1:
                    lag = 1 << k
                    width -= lag
                    fast = ((fast >> np.uint32(lag)) ^ fast) & np.uint32((1 << width) - 1)
                rest >>= 1
                k += 1
            assert np.array_equal(naive, fast), (length, t)
            checked += 1
    elapsed = time.time() - start
    report(13, f"lag shortcut equals naive iteration on {checked} (length, t) grids in {elapsed:.1f}s")


def test_acceptance_14_csv_determinism(tmp_path):
    # reduced-scale reruns of the exact commands behind criteria 9-11:
    # identical bytes across repeats and across --jobs
    def run(name, argv):
        path = tmp_path / name
        assert main(argv + ["--out", str(path)]) == 0
        return path.read_bytes()

    fn_args = [
        "fn", "apply", "--n", "2", "--p", "1/50",
        "--windows", "30", "--window-length", "2500", "--seed", "14",
    ]
    a = run("fn1.csv", fn_args + ["--jobs", "1"])
    b = run("fn2.csv", fn_args + ["--jobs", "1"])
    c = run("fn3.csv", fn_args + ["--jobs", "2"])
    assert a == b == c and a

    xl_args = [
        "xor-limit", "--levels", "4", "--alpha", "1",
        "--samples", "500", "--seed", "14",
    ]
    d = run("xl1.csv", xl_args + ["--jobs", "1"])
    e = run("xl2.csv", xl_args + ["--jobs", "1"])
    f = run("xl3.csv", xl_args + ["--jobs", "2"])
    assert d == e == f and d

    mix_args = [
        "xor-limit", "--levels", "4", "--alpha", "1/2", "--word", "00000000",
        "--n-values", "3", "--samples", "400", "--seed", "15",
    ]
    g = run("mix1.csv", mix_args + ["--jobs", "1"])
    h = run("mix2.csv", mix_args + ["--jobs", "3"])
    assert g == h and g

    sweep_args = ["sweep", "--q", "2", "--r", "3", "--check", "one_domination"]
    i = run("sweep1.csv", sweep_args + ["--jobs", "1"])
    j = run("sweep2.csv", sweep_args + ["--jobs", "2"])
    assert i == j and i
    report(14, "byte-identical CSV across reruns and job counts for all four commands")
