"""Classical tensor fields from quantum state manifolds.

Pulls back the Hermitian tensor of a finite-dimensional complex Hilbert
space (metric real part, symplectic imaginary part) along three kinds of
embeddings: unitary group orbits of a fiducial state, truncated Weyl
systems on phase space, and parametrized Hamiltonian eigenstates.

``import qpt`` loads no submodule, and not numpy.  Each public name below
is taken from its submodule on first use (a module ``__getattr__``, PEP
562), and so is each submodule as an attribute (``qpt.liegroup``), so a
process compiles only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names it exports here.
_EXPORTS = {
    "report": ("CheckResult", "conventions"),
    "checks": (
        "bloch_closed_form_checks",
        "equivariance_residual",
        "group_checks",
        "landau_zener_checks",
        "qgt_checks",
        "two_form_closedness_residual",
        "weyl_checks",
    ),
    "errors": (
        "DegenerateLevelError",
        "NotLagrangianError",
        "NumericalRefusal",
        "SpecError",
        "ZeroFiducialError",
    ),
    "hilbert": ("hermitian_tensor", "inner", "norm"),
    "liegroup": (
        "LieAlgebraRep",
        "adjoint_matrix",
        "angular_momentum",
        "euler_coframes",
        "euler_elements",
        "exponential_elements",
        "heisenberg_rep",
        "maurer_cartan_residual",
        "rep_from_spec",
        "su2_spin_rep",
    ),
    "pullback": (
        "CoordinateTensor",
        "PullbackTensor",
        "covariance_matrix",
        "degeneracy_directions",
        "evaluate_at",
        "multiplier_consistency",
        "split",
    ),
    "qgt": (
        "HamiltonianFamily",
        "QGTResult",
        "bloch_family",
        "finite_difference_qgt",
        "ham_from_spec",
        "landau_zener_family",
        "orbit_consistency_check",
        "orbit_family",
        "qgt_tensor",
        "spectral_state_derivative",
    ),
    "weyl": (
        "WeylSystem",
        "build_weyl",
        "defect_convergence",
        "displacement",
        "gaussian_covariance",
        "gaussian_moment_oracle",
        "lagrangian_restriction",
        "weyl_defect",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "fock", "serialize"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
