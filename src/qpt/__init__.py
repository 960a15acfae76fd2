"""Classical tensor fields from quantum state manifolds.

Pulls back the Hermitian tensor of a finite-dimensional complex Hilbert
space (metric real part, symplectic imaginary part) along three kinds of
embeddings: unitary group orbits of a fiducial state, truncated Weyl
systems on phase space, and parametrized Hamiltonian eigenstates.
"""

from .checks import (
    CheckResult,
    bloch_closed_form_checks,
    conventions,
    equivariance_residual,
    group_checks,
    landau_zener_checks,
    qgt_checks,
    two_form_closedness_residual,
    weyl_checks,
)
from .errors import (
    DegenerateLevelError,
    NotLagrangianError,
    NumericalRefusal,
    SpecError,
    ZeroFiducialError,
)
from .hilbert import (
    hermitian_tensor,
    inner,
    is_hermitian,
    is_skew_hermitian,
    is_unitary,
    norm,
)
from .liegroup import (
    LieAlgebraRep,
    adjoint_matrix,
    angular_momentum,
    euler_coframes,
    euler_elements,
    exponential_elements,
    heisenberg_rep,
    maurer_cartan_residual,
    rep_from_spec,
    su2_spin_rep,
)
from .pullback import (
    CoordinateTensor,
    PullbackTensor,
    covariance_matrix,
    degeneracy_directions,
    evaluate_at,
    multiplier_consistency,
    split,
)
from .qgt import (
    HamiltonianFamily,
    QGTResult,
    bloch_family,
    finite_difference_qgt,
    ham_from_spec,
    landau_zener_family,
    orbit_consistency_check,
    orbit_family,
    qgt_tensor,
    spectral_state_derivative,
)
from .weyl import (
    WeylSystem,
    build_weyl,
    defect_convergence,
    displacement,
    gaussian_covariance,
    gaussian_moment_oracle,
    lagrangian_restriction,
    weyl_defect,
)

__version__ = "0.1.0"
