"""Structured result of a single verification run."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of comparing a computed value against a reference.

    ``rel_error`` is |computed - reference| / |reference|, or the absolute
    error where the reference is 0; ``passed`` applies the check's own gate.
    ``extras`` holds values a caller reads (:func:`matball.hua.hua_residual`'s
    two block residuals), never a copy of the check's inputs.
    """

    computed: complex
    reference: complex
    rel_error: float
    passed: bool
    extras: dict = field(default_factory=dict)


def make_report(computed: complex, reference: complex, tol: float) -> CheckReport:
    scale = abs(reference)
    err = abs(computed - reference) / scale if scale > 0 else abs(computed - reference)
    return CheckReport(computed=computed, reference=reference, rel_error=err,
                       passed=err <= tol)
