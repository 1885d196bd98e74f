"""The paper's evaluation pipeline as a reusable harness (§8)."""

from .evaluation import (
    DEFAULT_METHODS,
    MICRO_QUANTITIES,
    EvaluationReport,
    MethodResult,
    evaluate_methods,
)

__all__ = [
    "DEFAULT_METHODS",
    "EvaluationReport",
    "MICRO_QUANTITIES",
    "MethodResult",
    "evaluate_methods",
]
