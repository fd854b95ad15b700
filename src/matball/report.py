"""Structured result of a single verification run."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of comparing a computed value against a reference.

    ``rel_error`` is |computed - reference| / max(|reference|, tiny); when the
    reference is exactly zero the absolute error is reported instead.
    """

    label: str
    computed: complex
    reference: complex
    rel_error: float
    passed: bool
    extras: dict = field(default_factory=dict)


def make_report(label: str, computed: complex, reference: complex,
                tol: float, **extras) -> CheckReport:
    scale = abs(reference)
    err = abs(computed - reference) / scale if scale > 0 else abs(computed - reference)
    return CheckReport(label=label, computed=computed, reference=reference,
                       rel_error=err, passed=err <= tol, extras=extras)
