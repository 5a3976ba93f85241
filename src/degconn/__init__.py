"""Uniform sampling of graphs with a prescribed degree sequence, an
instrumented component-exploration process, and empirical verification of
connectivity-probability bounds against exact small-case oracles."""

from .census import (CensusReport, ComponentTaxonomy, ConnectivityOracle,
                     classify_component, classify_components,
                     connected_components, estimate_disconnection,
                     exact_connectivity_oracle, tightness_experiment)
from .degseq import (DegreeSequence, InvariantSet, compute_invariants,
                     erdos_gallai, theorem1_bound, validate_sequence)
from .errors import (AttemptsExhausted, DegconnError, InfeasibleFamily,
                     InvalidSwitch, NegativeDegree, NotExtendable,
                     NotGraphical, OddSum, PartialMatching, SequenceError,
                     TooLarge, TrialsTooFew, ZeroDegree)
from .exact import conditional_edge_probability
from .explore import (ExplorationTrace, IterationRecord, check_trace,
                      explore, explore_components, explore_matching,
                      explore_revealing, truncated_increment)
from .graphs import (Matching, MultiGraph, SimpleGraph, half_edge,
                     half_edge_owner, matching_to_multigraph)
from .sampler import (default_chain_steps, havel_hakimi_construct,
                      random_matching, rejection_sample_batch, switching)

__version__ = "0.1.0"

__all__ = [
    "AttemptsExhausted", "CensusReport", "ComponentTaxonomy",
    "ConnectivityOracle", "DegconnError", "DegreeSequence",
    "ExplorationTrace", "InfeasibleFamily", "InvalidSwitch",
    "InvariantSet", "IterationRecord", "Matching", "MultiGraph",
    "NegativeDegree", "NotExtendable", "NotGraphical", "OddSum",
    "PartialMatching", "SequenceError", "SimpleGraph", "TooLarge",
    "TrialsTooFew", "ZeroDegree", "check_trace", "classify_component",
    "classify_components", "compute_invariants",
    "conditional_edge_probability", "connected_components",
    "default_chain_steps", "erdos_gallai", "estimate_disconnection",
    "exact_connectivity_oracle", "explore", "explore_components",
    "explore_matching", "explore_revealing", "half_edge", "half_edge_owner",
    "havel_hakimi_construct", "matching_to_multigraph", "random_matching",
    "rejection_sample_batch", "switching", "theorem1_bound",
    "tightness_experiment", "truncated_increment", "validate_sequence",
]
