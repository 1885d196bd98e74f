"""Content-addressed disk cache for fitted :class:`ModelSet` objects.

Refitting the same training trace with the same parameters is pure —
the result is a deterministic function of (trace content, fit
parameters, code schema).  The paper's evaluation refits identical
traces for 15+ tables and figures, so ``fit_model_set`` can skip the
whole pipeline when a prior run already produced the answer.

The cache key is a SHA-256 over the trace's content hash plus every
fit parameter plus :data:`FIT_CACHE_SCHEMA`.  Entries are pickled ModelSet
objects — bit-exact by construction and an order of magnitude faster
to load than the JSON persistence format at large model sizes, which
is what makes a warm hit a small fraction of the cold fit.  They are
written atomically (temp file + ``os.replace``) so concurrent fits
never observe a partial entry; a corrupt or unreadable entry reads as
a miss.  Only ever load entries from a cache directory you trust
(pickle executes code on load) — the default is the user's own
``~/.cache/repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Union

from ..trace.trace import Trace
from .model_set import ModelSet

PathLike = Union[str, "os.PathLike[str]"]

#: Bump when the ModelSet schema or fitting semantics change, so stale
#: cache entries from older code can never be returned.
FIT_CACHE_SCHEMA = 4

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def fit_cache_key(
    trace: Trace,
    *,
    machine_kind: str,
    family: str,
    clustered: bool,
    theta_f: float,
    theta_n: int,
    trace_start_hour: int,
    max_cdf_points: int,
) -> str:
    """Content-addressed key for one (trace, fit parameters) pair."""
    payload = json.dumps(
        {
            "schema": FIT_CACHE_SCHEMA,
            "trace": trace.content_hash(),
            "machine_kind": machine_kind,
            "family": family,
            "clustered": bool(clustered),
            "theta_f": float(theta_f),
            "theta_n": int(theta_n),
            "trace_start_hour": int(trace_start_hour),
            "max_cdf_points": int(max_cdf_points),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _entry_path(cache_dir: PathLike, key: str) -> Path:
    return Path(cache_dir) / f"modelset-{key}.pkl"


def load_cached(cache_dir: PathLike, key: str) -> Optional[ModelSet]:
    """Load a cached model set; any failure (missing, corrupt) is a miss."""
    path = _entry_path(cache_dir, key)
    try:
        with open(path, "rb") as handle:
            model_set = pickle.load(handle)
    except Exception:
        return None
    return model_set if isinstance(model_set, ModelSet) else None


def store_cached(cache_dir: PathLike, key: str, model_set: ModelSet) -> Path:
    """Atomically store ``model_set`` under ``key``; returns the entry path."""
    path = _entry_path(cache_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=".modelset-", suffix=".pkl", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(model_set, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
