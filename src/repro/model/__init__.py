"""The paper's traffic model: per-(device, hour) semi-Markov tables with
first-event and overlay models, the fitting pipeline (one job per hour
of day, fitting every device type's model of that hour), persistence,
and 5G scaling."""

from .checks import validate_model_set
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
from .model_set import HourModel, ModelSet, build_machine
from .scaling import NSA_HO_SCALE, SA_HO_SCALE, scale_to_nsa, scale_to_sa

__all__ = [
    "validate_model_set",
    "ClusterSummary",
    "ModelSetSummary",
    "describe_model_set",
    "expected_event_rates",
    "state_occupancy",
    "stationary_distribution",
    "summarize_cluster",
    "summarize_model_set",
    "HourModel",
    "ModelSet",
    "default_cache_dir",
    "fit_cache_key",
    "NSA_HO_SCALE",
    "SA_HO_SCALE",
    "build_machine",
    "fit_model_set",
    "scale_to_nsa",
    "scale_to_sa",
]
