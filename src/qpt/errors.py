"""Exception types shared across the package.

``SpecError`` marks malformed input descriptions (bad JSON schema, bad grid,
unknown builtin); ``NumericalRefusal`` marks inputs that are structurally
valid but cannot be processed (zero fiducial vector, degenerate eigenvalue,
non-Lagrangian subspace).  The command-line front end maps the two families
to distinct exit codes.
"""

import sys


class SpecError(ValueError):
    """A run description or model specification is invalid."""


# Largest magnitude of a spec number (the fiducial's entries aside, which
# are scaled before use).  A product of three such numbers and the largest
# dimensions stays finite: an orbit Hamiltonian, a direction times
# generators, and its commutators with the generators; so do the squares of
# gaps and of the Lagrangian directions.
MAX_SPEC_MAGNITUDE = 1e100


def require_integer(value, path: str) -> int:
    """``value`` if it is a JSON integer (not a float or a boolean), else a
    :class:`SpecError` naming the spec ``path``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"at {path}: expected an integer, got {value!r}")
    return value


def _is_finite_number(value, bound: float = sys.float_info.max) -> bool:
    # The comparison is exact for integers too, so an integer beyond the
    # float range is refused here instead of overflowing in float().
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= bound


def require_number(value, path: str, bound: float = MAX_SPEC_MAGNITUDE) -> float:
    """``value`` as a float if it is a finite JSON number (not a boolean) of
    magnitude at most ``bound``, else a :class:`SpecError` naming the spec
    ``path``."""
    if not _is_finite_number(value):
        raise SpecError(f"at {path}: expected a finite number, got {value!r}")
    if abs(value) > bound:
        raise SpecError(f"at {path}: expected a number of magnitude at most {bound:g}, got {value!r}")
    return float(value)


def require_bool(value, path: str) -> bool:
    """``value`` if it is a JSON boolean, else a :class:`SpecError` at ``path``."""
    if not isinstance(value, bool):
        raise SpecError(f"at {path}: expected true or false, got {value!r}")
    return value


def require_string(value, path: str) -> str:
    """``value`` if it is a JSON string, else a :class:`SpecError` at ``path``."""
    if not isinstance(value, str):
        raise SpecError(f"at {path}: expected a string, got {value!r}")
    return value


def require_choice(value, choices, path: str):
    """``value`` if it is one of ``choices``, else a :class:`SpecError` at ``path``."""
    if value not in choices:
        raise SpecError(f"at {path}: expected one of {list(choices)}, got {value!r}")
    return value


def require_object(value, path: str) -> dict:
    """``value`` if it is a JSON object; a missing key, read as ``None``,
    fails here too, so "required" and "wrong type" are one check."""
    if not isinstance(value, dict):
        raise SpecError(f"at {path}: expected an object, got {value!r}")
    return value


def require_array(value, path: str, ndim: int, pairs: bool = False, bound: float = MAX_SPEC_MAGNITUDE):
    """``value`` as a float array of ``ndim`` axes if it is a regular nesting
    of lists whose leaves are finite JSON numbers of magnitude at most
    ``bound``; with ``pairs`` every leaf is an ``[re, im]`` pair and the
    array is complex.  Otherwise a :class:`SpecError` naming the first
    offending entry, as ``path[i][j]``."""
    import numpy as np  # the one reader that builds an array

    def entry(flat, shape):  # path and the row-major index of entry ``flat``
        return path + "".join(f"[{i}]" for i in np.unravel_index(flat, shape))

    # Each check is one pass at C speed over an axis; an entry-by-entry scan
    # runs only to name the offending entry.
    shape, level = [], [value]  # level: the entries at the current depth, row-major
    for axis in range(ndim + pairs):
        if not set(map(type, level)) <= {list, tuple}:
            bad = next(i for i, x in enumerate(level) if type(x) not in (list, tuple))
            raise SpecError(f"at {entry(bad, shape)}: expected an array, got {level[bad]!r}")
        lengths = list(map(len, level))
        want = 2 if axis == ndim else lengths[0] if lengths else 0
        if set(lengths) - {want}:
            bad = next(i for i, n in enumerate(lengths) if n != want)
            expected = "an [re, im] pair" if axis == ndim else f"length {want} like the first entry"
            raise SpecError(f"at {entry(bad, shape)}: expected {expected}, got {level[bad]!r}")
        shape.append(want)
        level = [x for row in level for x in row]
    try:  # int and float leaves only: no bool, str, None or container
        array = np.array(level, dtype=float) if set(map(type, level)) <= {int, float} else None
    except OverflowError:  # an integer beyond the float range
        array = None
    if array is None or not (np.abs(array) <= bound).all():  # NaN too is not <=
        bad = next((i for i, x in enumerate(level) if not _is_finite_number(x, bound)), None)
        if bad is not None:
            require_number(level[bad], entry(bad, shape), bound)
        array = np.array(level, dtype=float)
    array = array.reshape(shape)
    return array[..., 0] + 1j * array[..., 1] if pairs else array


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
