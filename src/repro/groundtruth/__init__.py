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
from .simulator import resolve_device_counts, simulate_ground_truth

__all__ = [
    "CONNECTED_CAR_PROFILE",
    "DEFAULT_PROFILES",
    "DeviceProfile",
    "LognormalSpec",
    "MixtureSpec",
    "PAPER_DEVICE_MIX",
    "PHONE_PROFILE",
    "TABLET_PROFILE",
    "resolve_device_counts",
    "simulate_ground_truth",
]
