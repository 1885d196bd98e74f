"""Counter-based random variates: a SplitMix64 mix of (key, slot, counter).

Both simulation engines draw every random number as a pure function of
where it is used, never from a stream that advances as the program
runs: the generation engine (:mod:`repro.generator.compiled`) keys a
draw by ``(seed, UE, hour, purpose, step)``, the ground-truth engine
(:mod:`repro.groundtruth.simulator`) by ``(seed, UE, purpose, slot,
step)``.  A draw therefore does not depend on which other UEs share a
batch, a job or a process, and any partition of a population produces
the same bits.

A *slot* ``(k0, k1, c1, c2, c3)`` names one SplitMix64 stream (Steele,
Lea & Flood, OOPSLA 2014); word ``w`` of the stream is
``mix64(base + w·γ)`` (:func:`slot_base`, :func:`slot_words`), and
:func:`splitmix64_counter` returns words ``4·c0 .. 4·c0 + 3`` at once.
Uniforms take the top 53 bits (:func:`to_unit`); normals are the Acklam
inverse of a uniform (:func:`norm_ppf`).  The ``c2`` word carries a
purpose code, so every kind of decision draws from its own streams; the
codes of both engines are listed here so that no two share one.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "mix64",
    "norm_ppf",
    "root_key",
    "slot_base",
    "slot_words",
    "splitmix64_counter",
    "to_unit",
]

_S11 = np.uint64(11)
_INV_2_53 = float(2.0 ** -53)

#: ``j·γ`` modulo 2^64 for ``j = 0..4``, where γ is SplitMix64's Weyl
#: increment; the next two constants are the multipliers of its output
#: finalizer.
_GAMMA = tuple(np.uint64((j * 0x9E3779B97F4A7C15) % 2**64) for j in range(5))
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)

#: Odd multipliers that spread the slot words ``(c1, c2, c3)`` over the
#: 64-bit state before it is mixed with the key: the first three outputs
#: of SplitMix64 from state 0, with the low bit set.
_C1 = np.uint64(0xE220A8397B1DCDAF)
_C2 = np.uint64(0x6E789E6AA1B965F5)
_C3 = np.uint64(0x06C45D188009454F)

# -- purpose codes (the ``c2`` slot word) -----------------------------------
# Generation (c1 = hour, key = the UE's own key).
P_KEY = np.uint64(0)         #: per-UE key derivation from the root key
P_PERSONA = np.uint64(1)     #: persona draw (once per UE)
P_CLUSTER = np.uint64(2)     #: cluster draw for personas without assignment
P_FIRST = np.uint64(3)       #: first-event (active / type / offset) draws
P_STEP = np.uint64(4)        #: chain stepping (edge + dwell per round)
P_OVERLAY_N = np.uint64(5)   #: overlay Poisson count
P_OVERLAY_T = np.uint64(6)   #: overlay event times
# Ground truth (c1 = UE, key = the root key; c3 as noted).
P_GT_INIT = np.uint64(16)     #: archetype and starting state (c3 = 0)
P_GT_GAMMA = np.uint64(17)    #: mobility Beta: gamma attempts (c3 = 0, 1), boosts (2, 3)
P_GT_PHASE = np.uint64(18)    #: one (uniform, normal) pair per phase (c3 = 0)
P_GT_HO = np.uint64(19)       #: moving-or-not, then HO gaps (c3 = round)
P_GT_HO_TAU = np.uint64(20)   #: TAU after the j-th HO: decision, delay (c3 = round)
P_GT_BURST = np.uint64(21)    #: connected TAU chains (c3 = round·2^33 + kind·2^32 + chain)
P_GT_IDLE_TAU = np.uint64(22)  #: idle mobility TAU offset and gaps (c3 = round)
P_GT_PAIR = np.uint64(23)     #: idle TAU -> S1 release pairs (c3 = round·2^33 + TAU rank)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output finalizer, a bijection of 64-bit words."""
    z = (z ^ (z >> _S30)) * _MIX_M1
    z = (z ^ (z >> _S27)) * _MIX_M2
    return z ^ (z >> _S31)


def root_key(seed) -> Tuple[np.uint64, np.uint64]:
    """The two 64-bit key words of ``seed`` (``SeedSequence`` state)."""
    root = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return root[0], root[1]


def slot_base(c1, c2, c3, k0, k1) -> np.ndarray:
    """``mix64(k0 ^ mix64(k1 + c1·C1 + c2·C2 + c3·C3))``, the stream
    position of slot ``(k0, k1, c1, c2, c3)`` before its word 0.  For a
    fixed key both mixes are bijections, so two slots share a stream
    only if their weighted sums collide modulo 2^64."""
    with np.errstate(over="ignore"):
        inner = (
            np.asarray(k1, dtype=np.uint64)
            + np.asarray(c1, dtype=np.uint64) * _C1
            + np.asarray(c2, dtype=np.uint64) * _C2
            + np.asarray(c3, dtype=np.uint64) * _C3
        )
        return mix64(np.asarray(k0, dtype=np.uint64) ^ mix64(inner))


def slot_words(base, w) -> np.ndarray:
    """Word ``w`` of the streams at ``base``: ``mix64(base + w·γ)``,
    the same word as ``splitmix64_counter(w >> 2, ...)[w & 3]``."""
    with np.errstate(over="ignore"):
        return mix64(
            np.asarray(base, dtype=np.uint64)
            + np.asarray(w, dtype=np.uint64) * _GAMMA[1]
        )


def splitmix64_counter(
    c0, c1, c2, c3, k0, k1
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Four 64-bit words per counter ``c0``, vectorized over all inputs.

    Word ``j`` of counter ``c0`` is word ``4·c0 + j`` of the slot's
    stream (:func:`slot_words`): output ``4·c0 + j`` of a SplitMix64
    generator whose state starts at ``slot_base(...) - γ``.
    """
    with np.errstate(over="ignore"):
        state = slot_base(c1, c2, c3, k0, k1) + np.asarray(
            c0, dtype=np.uint64
        ) * _GAMMA[4]
        return (
            mix64(state),
            mix64(state + _GAMMA[1]),
            mix64(state + _GAMMA[2]),
            mix64(state + _GAMMA[3]),
        )


def to_unit(x: np.ndarray) -> np.ndarray:
    """Map uint64 words to float64 uniforms in ``[0, 1)`` (53-bit)."""
    return (x >> _S11).astype(np.float64) * _INV_2_53


# Coefficients of Acklam's rational approximation to the inverse
# standard-normal CDF (|relative error| < 1.2e-9).
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02,
          -2.759285104469687e+02, 1.383577518672690e+02,
          -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02,
          -1.556989798598866e+02, 6.680131188771972e+01,
          -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01,
          -2.400758277161838e+00, -2.549732539343734e+00,
          4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01,
          2.445134137142996e+00, 3.754408661907416e+00)


def norm_ppf(u: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF (Acklam), vectorized.

    Each output depends only on its own input: NumPy's float64 ``log``
    gives the same bits for an element wherever it sits in an array, so
    a draw is the same in a batch of any size.
    """
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    # The central branch over every element (no gather or scatter for
    # the ~95% it serves), then the two tails overwrite their elements.
    q = u - 0.5
    r = q * q
    out = (
        ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    ) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )
    lo = u < 0.02425
    hi = u > 1.0 - 0.02425
    if lo.any():
        q = np.sqrt(-2.0 * np.log(u[lo]))
        out[lo] = (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if hi.any():
        q = np.sqrt(-2.0 * np.log(1.0 - u[hi]))
        out[hi] = -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    return out
