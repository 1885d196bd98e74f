"""The paper's traffic model: semi-Markov chains, first-event model,
fitting pipeline, persistence, and 5G scaling."""

from .checks import validate_model_set
from .first_event import FirstEventModel
from .inspect import (
    ClusterSummary,
    ModelSetSummary,
    describe_model_set,
    expected_event_rates,
    state_occupancy,
    stationary_distribution,
    summarize_cluster,
    summarize_model_set,
)
from .fit_cache import default_cache_dir, fit_cache_key
from .fitting import fit_model_set
from .model_set import ClusterModel, HourModel, ModelSet, build_machine
from .scaling import (
    NSA_HO_SCALE,
    SA_HO_SCALE,
    drop_event,
    scale_event_frequency,
    scale_to_nsa,
    scale_to_sa,
)
from .semi_markov import Edge, SemiMarkovChain, StateModel

__all__ = [
    "ClusterModel",
    "validate_model_set",
    "ClusterSummary",
    "ModelSetSummary",
    "describe_model_set",
    "expected_event_rates",
    "state_occupancy",
    "stationary_distribution",
    "summarize_cluster",
    "summarize_model_set",
    "Edge",
    "FirstEventModel",
    "HourModel",
    "ModelSet",
    "default_cache_dir",
    "fit_cache_key",
    "NSA_HO_SCALE",
    "SA_HO_SCALE",
    "SemiMarkovChain",
    "StateModel",
    "build_machine",
    "drop_event",
    "fit_model_set",
    "scale_event_frequency",
    "scale_to_nsa",
    "scale_to_sa",
]
