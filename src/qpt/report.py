"""What every output holds besides its records: the conventions recorded in
its header and the named check rows of its report.

This module imports no embedding module, so that a command which only
writes records or compares two outputs does not load the check battery of
:mod:`qpt.checks`, which re-exports :class:`CheckResult` and
:func:`conventions`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def to_json(self, cap: float | None = None) -> dict:
        """The report row, with the tolerance capped at ``cap`` if given."""
        tolerance = self.tolerance if cap is None else min(self.tolerance, cap)
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(tolerance),
            "pass": bool(self.residual <= tolerance),
        }


def conventions() -> dict:
    """Factor and ordering conventions recorded in every output header."""
    return {
        "wedge_product": "a ^ b = a(x)b - b(x)a (no 1/2)",
        "symmetric_product": "a (.) b = a(x)b + b(x)a (no 1/2)",
        "tensor_assembly": "T[j,k] theta_j (x) theta_k with no extra factor",
        "commutator": "[R_j, R_k] = 1j c[j,k,r] R_r + 1j omega[j,k] I",
        "generator_normalization": (
            "builtin su2 uses R = 2J (spin 1/2 gives the Pauli matrices); "
            "structure constants c = 2 eps are stored with the rep"
        ),
        "euler_product": "U(a,b,g) = exp(1j a R3/2) exp(1j b R2/2) exp(1j g R3/2)",
        "coframes": (
            "display coframe is right-invariant with dU U^-1 = 1j (R_j/2) theta_j; "
            "'generator' normalization rescales by 1/2; the left-invariant frame "
            "pairs constant fiducial coefficients with coordinate tensors"
        ),
        "su2_linear_metric_note": (
            "the spin-1/2 north-pole linear metric is the full contraction: unit "
            "coefficients on da^2, db^2 and dg^2 plus cos(b) on da(.)dg; shortened "
            "displays that drop the dg^2 term are not reproduced"
        ),
        "su2_projective_metric_note": (
            "the spin-1/2 projective metric is reported as db^2 + sin^2(b) dg^2 in "
            "display normalization; generator normalization is 1/4 of it "
            "(Fubini-Study scale)"
        ),
        "weyl_exchange": (
            "W(v1) W(v2) = exp(-1j omega(v1,v2)) W(v2) W(v1), pinned by [Q,P] = 1j"
        ),
        "complex_serialization": "[re, im] pairs",
        "float_format": "shortest round-trip decimal (<= 17 significant digits)",
    }
