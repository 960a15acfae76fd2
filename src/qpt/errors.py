"""Exception types shared across the package.

``SpecError`` marks malformed input descriptions (bad JSON schema, bad grid,
unknown builtin); ``NumericalRefusal`` marks inputs that are structurally
valid but cannot be processed (zero fiducial vector, degenerate eigenvalue,
non-Lagrangian subspace).  The command-line front end maps the two families
to distinct exit codes.
"""


class SpecError(ValueError):
    """A run description or model specification is invalid."""


def require_integer(value, path: str) -> int:
    """``value`` if it is a JSON integer (not a float or a boolean), else a
    :class:`SpecError` naming the spec ``path``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"at {path}: expected an integer, got {value!r}")
    return value


class NumericalRefusal(RuntimeError):
    """A computation was refused because its preconditions fail numerically."""


class ZeroFiducialError(NumericalRefusal):
    """The fiducial vector has zero norm."""


class DegenerateLevelError(NumericalRefusal):
    """The requested eigenlevel is degenerate within tolerance."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class NotLagrangianError(NumericalRefusal):
    """A subspace fails the Lagrangian (isotropy) requirement."""

    def __init__(self, message, violating_pair=None):
        super().__init__(message)
        self.violating_pair = violating_pair
