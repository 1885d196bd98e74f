"""Containers for fitted models and their persistence.

A :class:`ModelSet` holds one :class:`ClusterModel` per (device type,
hour-of-day, UE cluster) — the paper instantiates 20,216 of these for
its carrier trace — plus the cluster assignment of every training UE,
which the generator uses to give each synthetic UE a coherent
"persona" across hours (§7: per-UE generators are distributed over
clusters "according to the distribution of the UEs in the modeled
trace").
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
from typing import Dict, List, Optional, Union

import numpy as np

from ..statemachines.fsm import StateMachine
from ..statemachines.lte import emm_ecm_machine, two_level_machine
from ..statemachines.nr import nr_sa_machine
from ..trace.events import DeviceType, EventType
from .first_event import FirstEventModel
from .semi_markov import SemiMarkovChain

PathLike = Union[str, "os.PathLike[str]"]


def build_machine(machine_kind: str) -> StateMachine:
    """Instantiate the state machine for a model-set kind."""
    if machine_kind == "two_level":
        return two_level_machine()
    if machine_kind == "emm_ecm":
        return emm_ecm_machine()
    if machine_kind == "nr_sa":
        return nr_sa_machine()
    raise ValueError(f"unknown machine_kind {machine_kind!r}")


@dataclasses.dataclass
class ClusterModel:
    """The fitted model of one (device, hour, cluster) combination."""

    chain: SemiMarkovChain
    first_event: FirstEventModel
    overlay_rates: Dict[EventType, float]  #: per-UE rates for HO/TAU overlays
    num_ues: int
    num_segments: int

    def to_dict(self) -> dict:
        return {
            "chain": self.chain.to_dict(),
            "first_event": self.first_event.to_dict(),
            "overlay_rates": {e.name: r for e, r in self.overlay_rates.items()},
            "num_ues": self.num_ues,
            "num_segments": self.num_segments,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterModel":
        return cls(
            chain=SemiMarkovChain.from_dict(data["chain"]),
            first_event=FirstEventModel.from_dict(data["first_event"]),
            overlay_rates={
                EventType[name]: float(r)
                for name, r in data["overlay_rates"].items()
            },
            num_ues=int(data["num_ues"]),
            num_segments=int(data["num_segments"]),
        )


@dataclasses.dataclass
class HourModel:
    """All cluster models of one (device, hour) combination."""

    clusters: List[ClusterModel]
    assignment: Dict[int, int]  #: training ue_id -> cluster index

    def weights(self) -> np.ndarray:
        """UE-count share of each cluster."""
        counts = np.asarray([max(c.num_ues, 0) for c in self.clusters], dtype=float)
        total = counts.sum()
        if total <= 0:
            return np.full(len(self.clusters), 1.0 / max(len(self.clusters), 1))
        return counts / total

    def cluster_for_ue(
        self, ue_id: int, rng: np.random.Generator
    ) -> int:
        """Cluster of a training UE, or a weighted draw if unknown."""
        cid = self.assignment.get(ue_id)
        if cid is not None:
            return cid
        return int(rng.choice(len(self.clusters), p=self.weights()))

    def to_dict(self) -> dict:
        return {
            "clusters": [c.to_dict() for c in self.clusters],
            "assignment": {str(ue): cid for ue, cid in self.assignment.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HourModel":
        return cls(
            clusters=[ClusterModel.from_dict(c) for c in data["clusters"]],
            assignment={int(ue): int(cid) for ue, cid in data["assignment"].items()},
        )


@dataclasses.dataclass
class ModelSet:
    """The complete fitted traffic model (every device, hour, cluster)."""

    machine_kind: str                    #: "two_level" | "emm_ecm" | "nr_sa"
    family: str                          #: "empirical" | "poisson"
    clustered: bool
    models: Dict[DeviceType, Dict[int, HourModel]]
    device_ues: Dict[DeviceType, List[int]]  #: training UEs per device
    theta_f: float
    theta_n: int

    # ------------------------------------------------------------------
    @property
    def num_models(self) -> int:
        """Total number of (device, hour, cluster) models."""
        return sum(
            len(hm.clusters)
            for hours in self.models.values()
            for hm in hours.values()
        )

    @property
    def device_types(self) -> List[DeviceType]:
        return sorted(self.models, key=int)

    def hours(self, device_type: DeviceType) -> List[int]:
        """Hours-of-day with a fitted model for ``device_type``."""
        return sorted(self.models[device_type])

    def hour_model(self, device_type: DeviceType, hour: int) -> Optional[HourModel]:
        """The models of one hour-of-day, or ``None`` if not fitted."""
        return self.models.get(device_type, {}).get(hour % 24)

    def machine(self) -> StateMachine:
        return build_machine(self.machine_kind)

    def __getstate__(self) -> dict:
        # The compiled generator tables (``_compiled_cache``) are derived
        # data that a worker process rebuilds faster than it unpickles.
        state = dict(self.__dict__)
        state.pop("_compiled_cache", None)
        return state

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON serialization of this model set.

        Generation checkpoints (:mod:`repro.generator.checkpoint`) embed
        this hash so a resumed run can prove it is using byte-identical
        model content — resuming against a different (or re-fitted)
        model set would silently break the bit-identity guarantee.
        Memoized per instance; mutating a model set after hashing it is
        not supported.
        """
        cached = getattr(self, "_content_hash_cache", None)
        if cached is None:
            payload = json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            self._content_hash_cache = cached
        return cached

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": "repro-model-set-v1",
            "machine_kind": self.machine_kind,
            "family": self.family,
            "clustered": self.clustered,
            "theta_f": self.theta_f,
            "theta_n": self.theta_n,
            "models": {
                dt.name: {str(h): hm.to_dict() for h, hm in hours.items()}
                for dt, hours in self.models.items()
            },
            "device_ues": {
                dt.name: list(ues) for dt, ues in self.device_ues.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSet":
        if data.get("format") != "repro-model-set-v1":
            raise ValueError(f"unknown model-set format {data.get('format')!r}")
        return cls(
            machine_kind=data["machine_kind"],
            family=data["family"],
            clustered=bool(data["clustered"]),
            theta_f=float(data["theta_f"]),
            theta_n=int(data["theta_n"]),
            models={
                DeviceType[name]: {
                    int(h): HourModel.from_dict(hm) for h, hm in hours.items()
                }
                for name, hours in data["models"].items()
            },
            device_ues={
                DeviceType[name]: [int(u) for u in ues]
                for name, ues in data["device_ues"].items()
            },
        )

    def save(self, path: PathLike) -> None:
        """Write the model set as (gzipped, if ``.gz``) JSON."""
        payload = json.dumps(self.to_dict())
        if str(path).endswith(".gz"):
            with gzip.open(path, "wt") as fh:
                fh.write(payload)
        else:
            with open(path, "w") as fh:
                fh.write(payload)

    @classmethod
    def load(cls, path: PathLike) -> "ModelSet":
        """Read a model set written by :meth:`save`."""
        if str(path).endswith(".gz"):
            with gzip.open(path, "rt") as fh:
                data = json.load(fh)
        else:
            with open(path) as fh:
                data = json.load(fh)
        return cls.from_dict(data)
