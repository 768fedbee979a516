"""Batch command-line front end: rule reports, sweeps, measures, experiments.

Exit codes: 0 on success, 1 when a requested check found a failure (a
domination violation, a conjecture counterexample, an invalid parameter
set), 2 on usage or guard-limit errors.  All seeded commands are
deterministic: rerunning with the same flags and seed reproduces output
byte for byte, independently of --jobs.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from importlib import import_module

from . import block_sampler, interval_swap, measures, rules
from .rng import derive_seed

# the package re-exports a function named `correlation`, shadowing the
# submodule attribute; fetch the module itself
correlation = import_module("cafreq.correlation")


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("CAFREQ_JOBS", "1")))
    except ValueError:
        return 1


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _symbols(rule: rules.LocalRule, text: str) -> frozenset[int]:
    return correlation.parse_symbols(text, rule.q)


def _fmt_frac(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _write_csv(path: Optional[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    if path is None:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _read_descriptors(path: str) -> list[str]:
    """Rule descriptors of a file: one per line, blank and `#` lines skipped."""
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    return [line for line in lines if line and not line.startswith("#")]


def _refuse_below(flag: str, value: int, least: int) -> None:
    # a value below `least` computes nothing and would report vacuous results
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


def _set_label(symbols: frozenset[int]) -> str:
    return "".join(rules.DIGITS[s] for s in sorted(symbols))


# ---------------------------------------------------------------------------
# rule subcommands


def _cmd_rule_info(args) -> int:
    rule = rules.parse_rule(args.rule)
    subsets = correlation.proper_subsets(rule.q)  # refuses large q first
    lines = [f"rule: {rule.format()}", f"alphabet size: {rule.q}  radius: {rule.r}"]
    lines += [f"balanced: {rules.is_balanced(rule)}", f"surjective: {rules.is_surjective(rule)}"]
    for A in subsets:
        h = correlation.histogram(rule, A, A)
        ident = correlation.identity_correlation(rule.q, len(A), rule.r)
        lines.append(
            f"A=B={{{_set_label(A)}}}: histogram={h.counts} C={h.moment(1)} "
            f"normalized={h.normalized(1)} identity={ident}"
        )
    print("\n".join(lines))  # every line built, and every refusal made, first
    return 0


def _cmd_rule_surjective(args) -> int:
    descriptors = list(args.rules)
    if args.file:
        descriptors.extend(_read_descriptors(args.file))
    if not descriptors:
        raise ValueError("no rules given")
    parsed = [rules.parse_rule(text) for text in descriptors]
    # every rule is decided, or refused, before the first line is printed
    print("\n".join([f"{rule.format()}\t{rules.is_surjective(rule)}" for rule in parsed]))
    return 0


def _cmd_correlate(args) -> int:
    rule = rules.parse_rule(args.rule)
    A = _symbols(rule, args.A)
    B = _symbols(rule, args.B if args.B is not None else args.A)
    _refuse_below("--m", args.m, 0)
    correlation.check_order(args.m)
    h = correlation.histogram(rule, A, B, args.r_eff)
    print(f"histogram (r_eff={h.r}): {h.counts}  total={h.total}")
    rows = []
    labels = (rule.format(), h.r, _set_label(A), _set_label(B))
    for m, norm in enumerate(h.normalized_orders(args.m)):
        raw = h.moment(m)
        try:
            value = float(norm)
        except OverflowError:  # too large for a float: written as inf or -inf
            value = math.inf if norm > 0 else -math.inf
        rows.append((*labels, m, raw, _fmt_frac(norm), value))
        print(f"order {m}: C={raw}  normalized={norm}")
    _write_csv(
        args.out,
        ["rule", "r_eff", "A", "B", "m", "C_raw", "C_normalized", "C_normalized_float"],
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# sweeps


SweepRows = Iterator[tuple[bool, tuple]]


@cache
def _labelled_subsets(q: int) -> tuple[tuple[frozenset[int], str], ...]:
    """Every proper symbol set of the alphabet, with its CSV label."""
    return tuple((A, _set_label(A)) for A in correlation.proper_subsets(q))


def _sweep_counts(swept: Sequence[rules.LocalRule]) -> list[tuple[tuple[int, ...], ...]]:
    """Each swept rule's histogram counts at A = B, per proper symbol set.

    Each run of consecutive rules of one (q, r) is counted with one
    `correlation.histograms` call per set.
    """
    out = []
    for (q, r), run in itertools.groupby(swept, lambda rule: (rule.q, rule.r)):
        tables = rules.table_array(q, r, list(run))
        out += zip(*[
            map(tuple, correlation.histograms(q, r, tables, A, A).tolist())
            for A, _ in _labelled_subsets(q)
        ])
    return out


def _one_domination_rows(rule: rules.LocalRule, counts, args) -> SweepRows:
    for (A, label), n in zip(_labelled_subsets(rule.q), counts):
        c1 = sum(k * count for k, count in enumerate(n))  # the order-1 moment
        ident = correlation.identity_correlation(rule.q, len(A), rule.r)
        holds = c1 <= ident
        yield holds, (label, label, c1, ident, ident - c1, holds)


def _high_domination_rows(rule: rules.LocalRule, counts, args) -> SweepRows:
    for (A, label), n in zip(_labelled_subsets(rule.q), counts):
        id_counts = correlation.identity_counts(rule.q, rule.r, len(A))
        rep = correlation.high_domination(n, id_counts, args.m_max)
        yield rep.m_star is not None, (label, *rep)


def _prefix_sums_rows(rule: rules.LocalRule, counts, args) -> SweepRows:
    rep = correlation.check_prefix_sum_conjecture(rule)
    yield rep.holds, (rep.holds, rep.witness_n)


def _conservation_rows(rule: rules.LocalRule, counts, args) -> SweepRows:
    for (A, label), n in zip(_labelled_subsets(rule.q), counts):
        by_histogram = n == correlation.identity_counts(rule.q, rule.r, len(A))
        witness = correlation.conserves_symbols(rule, A, args.max_period).witness
        agree = by_histogram == (witness is None)
        yield agree, (label, by_histogram, witness is None, agree, *(witness or (None, None)))


#: per-rule sweep checks: name -> (CSV columns after rule,q,r; reads_counts;
#: rows_fn), where rows_fn(rule, counts, args) yields (ok, row) and each row
#: that is not ok counts as a violation.  For a check that reads counts,
#: `counts` holds the rule's histogram counts at A = B for each set of
#: `_labelled_subsets(rule.q)`; otherwise it is empty.  A None field is
#: written empty.
SWEEP_CHECKS: dict[str, tuple[tuple[str, ...], bool, Callable]] = {
    "one_domination": (
        ("A", "B", "C_raw", "C_identity", "margin", "holds"), True, _one_domination_rows
    ),
    "high_domination": (("A", "k0", "strict_at_k0", "m_star"), True, _high_domination_rows),
    "prefix_sums": (("holds", "witness_n"), False, _prefix_sums_rows),
    "conservation": (
        ("A", "conserves_by_histogram", "conserves_by_periodic_search", "agree",
         "witness_config", "witness_image"),
        True,
        _conservation_rows,
    ),
}

CHECKS = (*SWEEP_CHECKS, "averages")


def _sweep_averages(args) -> int:
    q = args.q
    A = correlation.parse_symbols(args.A, q)
    B = correlation.parse_symbols(args.B if args.B is not None else args.A, q)
    expected = Fraction(len(A) * len(B), q)
    rows = []
    for r in range(args.r + 1):
        avg = correlation.average_normalized_correlation(q, r, A, B, limit=args.limit)
        equal = avg == expected
        rows.append(
            (q, r, _set_label(A), _set_label(B), _fmt_frac(avg), _fmt_frac(expected), equal)
        )
        print(f"q={q} r={r}: average={avg} expected={expected} equal={equal}")
    _write_csv(args.out, ["q", "r", "A", "B", "average", "expected", "equal"], rows)
    return 0 if all(row[-1] for row in rows) else 1


def _cmd_sweep(args) -> int:
    _refuse_below("--r", args.r, 0)
    _refuse_below("--max-period", args.max_period, 1)
    _refuse_below("--m-max", args.m_max, 0)
    correlation.check_order(args.m_max)
    if args.check == "averages" and args.rules_file:
        raise ValueError("--check averages averages over every rule and reads no --rules-file")
    if not args.rules_file:
        for r in range(args.r + 1):  # every radius's refusal comes before any enumeration
            rules.check_rule_space(args.q, r, args.limit)
        if args.check == "conservation":
            correlation.check_max_period(args.q, args.max_period)
        if args.check == "prefix_sums":
            correlation.check_prefix_sum_alphabet(args.q)
    if args.check == "averages":
        return _sweep_averages(args)
    columns, reads_counts, rows_fn = SWEEP_CHECKS[args.check]
    if args.rules_file:
        swept = [rules.parse_rule(text) for text in _read_descriptors(args.rules_file)]
        if not swept:
            raise ValueError(f"no rules in --rules-file {args.rules_file}")
        kind = "rules from file"
    else:
        swept = [
            rule
            for r in range(args.r + 1)
            for rule in rules.surjective_rules(args.q, r, args.limit, args.jobs)
        ]
        kind = "surjective rules"
    counts = _sweep_counts(swept) if reads_counts else [()] * len(swept)
    violations = 0
    rows = []
    for rule, rule_counts in zip(swept, counts):
        prefix = (rule.format(), rule.q, rule.r)
        for ok, row in rows_fn(rule, rule_counts, args):
            violations += not ok
            rows.append(prefix + row)
    _write_csv(args.out, ["rule", "q", "r", *columns], rows)
    counts = Counter(rule.r for rule in swept)
    radii = sorted(counts) if args.rules_file else range(args.r + 1)
    per_radius = ", ".join(f"r={r}: {counts[r]}" for r in radii)
    print(f"{violations} violations / {len(swept)} {kind} ({per_radius})")
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# measure subcommands


def _cmd_measure_pushforward(args) -> int:
    if args.t is not None and args.t_max is not None:
        # a trajectory 0..t_max would leave --t unread
        raise ValueError("--t and --t-max cannot be combined")
    rule = rules.parse_rule(args.rule)
    mu = measures.make_measure(args.measure, rule.q)
    if args.t_max is not None:
        _refuse_below("--t-max", args.t_max, 0)
        t_values = range(args.t_max + 1)
    else:
        t_values = [1 if args.t is None else args.t]
    # the largest step count has the largest table and the most preimages
    measures.check_iterate_pushforward(rule, mu, max(t_values), args.word, args.limit)
    rows = []
    for t in t_values:
        value = measures.iterate_pushforward(rule, mu, t, args.word, limit=args.limit)
        rows.append(
            (t, args.word, value.numerator, value.denominator, float(value))
        )
        print(f"t={t}: measure([{args.word}]) = {value} ~ {float(value):.6g}")
    _write_csv(
        args.out,
        ["t", "word", "value_numerator", "value_denominator", "value_float"],
        rows,
    )
    return 0


def _cmd_measure_contraction(args) -> int:
    rule = rules.parse_rule(args.rule)
    mu = measures.make_measure(args.measure, rule.q)
    rep = measures.check_uniform_contraction(rule, mu, args.n, limit=args.limit)
    print(f"lhs (image distance to uniform):  {rep.lhs} at [{rep.witness_u}]")
    print(f"rhs (source distance to uniform): {rep.rhs} at [{rep.witness_w}]")
    print(f"holds: {rep.holds}")
    _write_csv(
        args.out,
        ["n", "lhs", "rhs", "holds", "witness_u", "witness_w"],
        [(args.n, _fmt_frac(rep.lhs), _fmt_frac(rep.rhs), rep.holds, rep.witness_u, rep.witness_w)],
    )
    return 0 if rep.holds else 1


# ---------------------------------------------------------------------------
# construction experiments


def _cmd_fn_check(args) -> int:
    params = interval_swap.SwapParams(args.n, args.p)
    rep = interval_swap.check_swap_params(params)
    print(f"marker: {params.marker}  short_bound: {params.short_bound}  "
          f"medium_bound: {params.medium_bound}")
    print(f"valid: {rep.valid}  vacuous: {rep.vacuous}")
    if not rep.vacuous:
        print(f"medium free-part lengths: [{rep.min_free_length}, {rep.max_free_length}]")
    for reason in rep.reasons:
        print(f"  - {reason}")
    return 0 if rep.valid else 1


def _cmd_fn_apply(args) -> int:
    params = interval_swap.SwapParams(args.n, args.p)
    trials = interval_swap.run_swap_trials(
        params,
        args.windows,
        seed=args.seed,
        window_length=args.window_length,
        jobs=args.jobs,
    )
    _write_csv(
        args.out,
        [  # one column per SwapTrial field: a trial is its own row
            "index", "occurrences", "complete_intervals", "medium_intervals",
            "rewritten_to_dense", "rewritten_to_sparse", "involution_ok",
            "occurrences_conserved", "quad_free", "max_dense_run",
        ],
        trials,
    )
    bad = sum(
        not (t.involution_ok and t.occurrences_conserved and t.quad_free)
        for t in trials
    )
    rewritten = sum(t.to_dense + t.to_sparse for t in trials)
    length = 3 * params.medium_bound if args.window_length is None else args.window_length
    print(
        f"{len(trials)} windows, {rewritten} rewrites, {bad} failures "
        f"(seed={args.seed}, length={length})"
    )
    return 1 if bad else 0


def _cmd_xor_limit(args) -> int:
    if not args.word or args.word.strip("01"):
        raise ValueError(f"--word must be a nonempty binary word, got {args.word!r}")
    block_sampler.check_levels(args.levels)  # before anything sized by the levels
    params = block_sampler.BlockMeasureParams(levels=args.levels, alpha=args.alpha)
    if args.n_values:
        n_values = [int(x) for x in args.n_values.split(",")]
    else:
        n_values = list(range(1, args.levels))
    if not n_values:
        raise ValueError(
            f"no n-values to estimate: the default 1..{args.levels - 1} is empty "
            f"for --levels {args.levels}"
        )
    for n in n_values:  # before any 2^triangular(n) step count is built
        if not 0 <= n < args.levels:
            raise ValueError(
                f"--n-values entry {n} is outside 0..{args.levels - 1} "
                f"for --levels {args.levels}"
            )
    samplers = [
        block_sampler.BlockSampler(params, 1 << block_sampler.triangular(n))
        for n in n_values
    ]
    for sampler in samplers:  # before the first estimate is printed
        sampler.check_fits(args.word)
    rows = []
    for n, sampler in zip(n_values, samplers):
        est = block_sampler.estimate_cylinder(
            sampler,
            args.word,
            args.samples,
            derive_seed(args.seed, n),
            jobs=args.jobs,
        )
        rows.append((n, sampler.steps, _fmt_frac(args.alpha), est.samples,
                     repr(est.estimate), repr(est.std_error), args.seed))
        print(
            f"n={n} (t={sampler.steps}): P([{args.word}]) ~ {est.estimate:.4f} "
            f"+- {est.std_error:.4f} ({est.hits}/{est.samples})"
        )
    _write_csv(
        args.out,
        ["n", "t", "alpha", "samples", "estimate", "stderr", "seed"],
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The parser; given argv, only the command argv names gets its arguments.

    Every command is registered by name and help, so usage, help and
    refusals read as with the whole parser, `build_parser()`.
    """
    parser = argparse.ArgumentParser(
        prog="cafreq",
        description="Exact symbol-frequency analysis for one-dimensional cellular automata.",
    )
    # argparse dispatches on the first word not led by "-" at each level
    path = None if argv is None else [word for word in argv if not word.startswith("-")][:2]

    def add(subparsers, name: str, help: str, func: Optional[Callable] = None):
        p = subparsers.add_parser(name, help=help)
        if path is not None and name not in path:
            return None
        if func:
            p.set_defaults(func=func)
        return p

    sub = parser.add_subparsers(dest="command", required=True)

    if p := add(sub, "rule", "inspect single rules"):
        group = p.add_subparsers(dest="rule_command", required=True)
        if p := add(group, "info", "histograms and correlations of a rule", _cmd_rule_info):
            p.add_argument("rule", help='descriptor "q r digits"')
        if p := add(group, "surjective", "surjectivity of rules", _cmd_rule_surjective):
            p.add_argument("rules", nargs="*", help="rule descriptors")
            p.add_argument("--file", help="file with one descriptor per line")

    if p := add(sub, "correlate", "histogram and correlations for A, B", _cmd_correlate):
        p.add_argument("rule")
        p.add_argument("--A", required=True, help='symbol set, e.g. "1" or "{0,2}"')
        p.add_argument("--B", help="defaults to A")
        p.add_argument("--m", type=int, default=1, help="maximum order")
        p.add_argument("--r-eff", type=int, default=None)
        p.add_argument("--out", help="CSV output path")

    if p := add(sub, "sweep", "exhaustive checks over rule spaces", _cmd_sweep):
        p.add_argument("--q", type=int, default=2)
        p.add_argument("--r", type=int, required=True, help="maximum radius")
        p.add_argument("--check", choices=CHECKS, required=True)
        p.add_argument("--A", default="1", help="symbol set for averages")
        p.add_argument("--B", help="symbol set for averages, defaults to A")
        p.add_argument("--m-max", type=int, default=16)
        p.add_argument("--max-period", type=int, default=12)
        p.add_argument("--limit", type=int, default=rules.DEFAULT_ENUMERATION_LIMIT)
        p.add_argument("--jobs", type=int, default=_default_jobs())
        p.add_argument(
            "--rules-file",
            help="sweep these descriptors (one per line) instead of enumerating",
        )
        p.add_argument("--out", help="CSV output path")

    if p := add(sub, "measure", "exact measure computations"):
        group = p.add_subparsers(dest="measure_command", required=True)
        if p := add(group, "pushforward", "cylinder values after t steps",
                    _cmd_measure_pushforward):
            p.add_argument("rule")
            p.add_argument("--measure", required=True, help='e.g. "bernoulli:1/4"')
            p.add_argument("--word", required=True)
            p.add_argument("--t", type=int, help="step count (default 1)")
            p.add_argument("--t-max", type=int, default=None, help="emit a trajectory 0..t_max")
            p.add_argument("--limit", type=int, default=measures.DEFAULT_PUSHFORWARD_LIMIT)
            p.add_argument("--out", help="CSV output path")
        if p := add(group, "contraction", "sup-distance to uniform, before vs after",
                    _cmd_measure_contraction):
            p.add_argument("rule")
            p.add_argument("--measure", required=True)
            p.add_argument("--n", type=int, required=True, help="cylinder length")
            p.add_argument("--limit", type=int, help="most cylinder-vector cells (default 2^23)")
            p.add_argument("--out", help="CSV output path")

    if p := add(sub, "fn", "marker interval-swap experiments"):
        group = p.add_subparsers(dest="fn_command", required=True)
        if p := add(group, "check", "validity of swap parameters", _cmd_fn_check):
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--p", type=_frac, required=True)
        if p := add(group, "apply", "seeded involution/conservation trials", _cmd_fn_apply):
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--p", type=_frac, required=True)
            p.add_argument("--windows", type=int, default=1000)
            p.add_argument("--window-length", type=int, default=None)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--jobs", type=int, default=_default_jobs())
            p.add_argument("--out", help="CSV output path")

    if p := add(sub, "xor-limit", "hierarchical measure under iterated XOR", _cmd_xor_limit):
        p.add_argument("--levels", type=int, default=4)
        p.add_argument("--alpha", type=_frac, default=Fraction(1))
        p.add_argument("--samples", type=int, default=10000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--word", default="1")
        p.add_argument("--n-values", help="comma-separated levels, default 1..levels-1")
        p.add_argument("--jobs", type=int, default=_default_jobs())
        p.add_argument("--out", help="CSV output path")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
