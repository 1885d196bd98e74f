"""Behaviour-driven ground-truth traces (substitute for the carrier data)."""

from .profiles import (
    CONNECTED_CAR_PROFILE,
    DEFAULT_PROFILES,
    PAPER_DEVICE_MIX,
    PHONE_PROFILE,
    TABLET_PROFILE,
    DeviceProfile,
    LognormalSpec,
    MixtureSpec,
)
from .simulator import (
    UEArchetype,
    resolve_device_counts,
    sample_archetype,
    simulate_ground_truth,
    simulate_ue,
)

__all__ = [
    "CONNECTED_CAR_PROFILE",
    "DEFAULT_PROFILES",
    "DeviceProfile",
    "LognormalSpec",
    "MixtureSpec",
    "PAPER_DEVICE_MIX",
    "PHONE_PROFILE",
    "TABLET_PROFILE",
    "UEArchetype",
    "resolve_device_counts",
    "sample_archetype",
    "simulate_ground_truth",
    "simulate_ue",
]
