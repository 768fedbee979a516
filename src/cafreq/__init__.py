"""Exact symbol-frequency analysis for one-dimensional cellular automata.

Subpackages:

* rules: local rule tables, application, composition, surjectivity testing,
  preimage enumeration, rule-space enumeration.
* correlation: preimage histograms, correlations of every order, normalized
  correlations, domination and conservation checks.
* measures: exact cylinder measures, pushforward under rules, contraction
  and invariance checks, block entropy.
* interval_swap: reversible marker-gap recoding maps and their experiments.
* block_sampler: hierarchical block measure sampling and fast XOR iteration.
* cli: the `cafreq` command-line front end.
"""

from .rules import (
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
from .correlation import (
    ConservationReport,
    CorrelationReport,
    HighDominationReport,
    Histogram,
    OneDominationReport,
    PrefixSumReport,
    average_normalized_correlation,
    check_high_domination,
    check_one_domination,
    check_prefix_sum_conjecture,
    conserves_symbols,
    correlation,
    correlation_report,
    finite_correlation,
    histogram,
    identity_correlation,
    normalized_correlation,
    weighted_square_sum,
)
from .measures import (
    BlockEntropyReport,
    ContractionReport,
    CylinderMeasure,
    DiracMeasure,
    ExplicitMeasure,
    ProductMeasure,
    block_entropy,
    check_measure_invariance,
    check_uniform_contraction,
    iterate_pushforward,
    make_measure,
    pushforward,
    pushforward_mass_from_histogram,
)
from .interval_swap import (
    SwapParams,
    apply_swap,
    check_swap_params,
    decompose_intervals,
    run_swap_trials,
)
from .block_sampler import (
    BlockMeasureParams,
    BlockSampler,
    estimate_cylinder,
    sample_hierarchical,
    xor_iterate,
    xor_power,
)
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"
