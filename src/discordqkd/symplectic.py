"""Covariance-matrix algebra for two-mode Gaussian states.

All variances are expressed in shot-noise units, so a vacuum mode has unit
variance on both quadratures and physicality of a state is equivalent to its
smallest symplectic eigenvalue being at least 1.  Quadratures are ordered
(X1, Y1, X2, Y2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    DegenerateMatrix,
    DomainError,
    InvalidParameter,
    NonPhysicalState,
    UnsupportedState,
)

if TYPE_CHECKING:
    import numpy as np

# Symplectic eigenvalues in [1 - PHYSICAL_TOL, 1) are rounding noise of a
# pure mode; anything lower is rejected as non-physical.
PHYSICAL_TOL = 1e-6

_BLOCK_FORM_TOL = 1e-10
_LN2 = math.log(2.0)


def __getattr__(name: str):
    """I2 = diag(1, 1) and Z = diag(1, -1), read-only, built on first access.

    Python calls this only for names the module does not bind yet (PEP 562),
    so numpy is imported when the matrix API first needs it.  Both arrays
    become module globals; the first binding of each wins, so threads that
    race here still share one array per name.
    """
    if name not in ("I2", "Z"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    if name not in namespace:
        import numpy as np

        for key, value in (("I2", np.eye(2)), ("Z", np.diag([1.0, -1.0]))):
            value.setflags(write=False)
            namespace.setdefault(key, value)
    return namespace[name]


def _as_block(m, name: str) -> tuple[np.ndarray, list[float]]:
    """m as a new read-only 2x2 float array, and its entries in row order."""
    import numpy as np

    arr = np.array(m, dtype=float)
    if arr.shape != (2, 2):
        raise InvalidParameter(f"{name} block must be 2x2, got shape {arr.shape}")
    entries = x00, x01, x10, x11 = arr.ravel().tolist()
    if not (math.isfinite(x00) and math.isfinite(x01)
            and math.isfinite(x10) and math.isfinite(x11)):
        raise InvalidParameter(f"{name} block contains non-finite entries")
    arr.setflags(write=False)
    return arr, entries


@dataclass(frozen=True)
class TwoModeCovariance:
    """Two-mode covariance matrix [[A, C], [C^T, B]] held as its 2x2 blocks."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a, a_entries = _as_block(self.a, "A")
        b, b_entries = _as_block(self.b, "B")
        c, _ = _as_block(self.c, "C")
        for name, (x00, x01, x10, x11) in (("A", a_entries), ("B", b_entries)):
            scale = max(1.0, abs(x00), abs(x01), abs(x10), abs(x11))
            if abs(x01 - x10) > _BLOCK_FORM_TOL * scale:
                raise InvalidParameter(f"{name} block must be symmetric")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def matrix(self) -> np.ndarray:
        """The assembled symmetric 4x4 matrix."""
        import numpy as np

        return np.block([[self.a, self.c], [self.c.T, self.b]])

    @classmethod
    def from_matrix(cls, m) -> "TwoModeCovariance":
        import numpy as np

        arr = np.array(m, dtype=float)
        if arr.shape != (4, 4):
            raise InvalidParameter(f"covariance must be 4x4, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameter("covariance contains non-finite entries")
        scale = max(1.0, np.abs(arr).max())
        if np.abs(arr - arr.T).max() > _BLOCK_FORM_TOL * scale:
            raise InvalidParameter("covariance matrix must be symmetric")
        return cls(arr[:2, :2], arr[2:, 2:], arr[:2, 2:])

    def _entries(self) -> tuple[list[float], float]:
        """The entries of A, B and C in row order, and the structure tests' tolerance.

        The tolerance is relative to the largest entry.
        """
        entries = self.a.ravel().tolist() + self.b.ravel().tolist() + self.c.ravel().tolist()
        return entries, _BLOCK_FORM_TOL * max(1.0, *map(abs, entries))

    def block_form(self) -> tuple[float, float, float]:
        """Return (alpha, beta, gamma) for a state of the form (aI, bI, cZ).

        Raises UnsupportedState when the blocks do not have that structure.
        """
        entries, tol = self._entries()
        a00, a01, a10, a11, b00, b01, b10, b11, c00, c01, c10, c11 = entries
        ok = (
            abs(a00 - a11) <= tol
            and abs(b00 - b11) <= tol
            and abs(c00 + c11) <= tol
            and abs(a01) <= tol
            and abs(b01) <= tol
            and abs(c01) <= tol
            and abs(c10) <= tol
        )
        if not ok:
            raise UnsupportedState(
                "covariance is not of the (alpha*I, beta*I, gamma*Z) form"
            )
        return a00, b00, c00


def _block_covariance(alpha: float, beta: float, gamma: float) -> TwoModeCovariance:
    """The covariance (alpha*I, beta*I, gamma*Z)."""
    return TwoModeCovariance(
        [[alpha, 0.0], [0.0, alpha]], [[beta, 0.0], [0.0, beta]], [[gamma, 0.0], [0.0, -gamma]]
    )


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Ordered symplectic eigenvalue pair of a two-mode state."""

    nu_plus: float
    nu_minus: float

    def __post_init__(self):
        if not (math.isfinite(self.nu_plus) and math.isfinite(self.nu_minus)):
            raise InvalidParameter("symplectic eigenvalues must be finite")
        if self.nu_plus < self.nu_minus:
            raise InvalidParameter("nu_plus must not be smaller than nu_minus")

    def __iter__(self):
        return iter((self.nu_plus, self.nu_minus))


def _det(a: float, b: float, c: float) -> float:
    """ab - c^2 of [[a, c], [c, b]], exact in the large entries when a ~ b ~ |c|."""
    return (a - c) * (b + c) - c * (a - b)


def _spectrum_squares(
    ax: float, bx: float, cx: float, ay: float, by: float, cy: float
) -> tuple[float, float]:
    """(nu_plus^2, nu_minus^2) of a state without X-Y correlations.

    The state's X block is [[ax, cx], [cx, bx]] and its Y block
    [[ay, cy], [cy, by]]; the squared symplectic eigenvalues are the
    eigenvalues of their product.  Trace and discriminant are written so that
    the large entries of a strongly correlated state cancel exactly, and the
    smaller eigenvalue is det(X) det(Y) / nu_plus^2, so nothing is lost to
    rounding when the entries are large or the spectrum is degenerate.
    """
    det_x = _det(ax, bx, cx)
    det_y = _det(ay, by, cy)
    trace = det_x + det_y + (ax - by) * (ay - bx) + (cx + cy) ** 2
    disc = (ax * ay - bx * by) ** 2 + 4.0 * (ax * cy + cx * by) * (cx * ay + bx * cy)
    # disc >= 0 for any positive semidefinite pair; max() absorbs its last-bit rounding.
    hi = 0.5 * (trace + math.sqrt(max(disc, 0.0)))
    if min(ax, bx, ay, by, det_x, det_y) < 0.0 or hi <= 0.0:
        raise DegenerateMatrix("covariance is not positive definite")
    return hi, min(det_x * det_y / hi, hi)


def _quadrature_entries(sigma: TwoModeCovariance) -> tuple[float, ...]:
    """(ax, bx, cx, ay, by, cy): the X and Y blocks of sigma.

    Raises UnsupportedState when sigma correlates X with Y quadratures.
    """
    entries, tol = sigma._entries()
    ax, a01, _, ay, bx, b01, _, by, cx, c01, c10, cy = entries
    if max(abs(a01), abs(b01), abs(c01), abs(c10)) > tol:
        raise UnsupportedState("covariance correlates X and Y quadratures")
    return ax, bx, cx, ay, by, cy


def _spectrum(
    ax: float, bx: float, cx: float, ay: float, by: float, cy: float
) -> SymplecticSpectrum:
    """Symplectic spectrum of a state given by its X and Y blocks.

    Raises NonPhysicalState when nu_minus falls below the vacuum bound.
    """
    hi, lo = _spectrum_squares(ax, bx, cx, ay, by, cy)
    nu_minus = math.sqrt(lo)
    if nu_minus < 1.0 - PHYSICAL_TOL:
        raise NonPhysicalState(f"smallest symplectic eigenvalue {nu_minus!r} is below 1")
    return SymplecticSpectrum(nu_plus=math.sqrt(hi), nu_minus=nu_minus)


def _ppt_nu(ax: float, bx: float, cx: float, ay: float, by: float, cy: float) -> float:
    """Smallest symplectic eigenvalue of the partial transpose of a state.

    The partial transpose negates the Y-Y cross-correlation.  The caller
    checks that the state itself is physical.
    """
    return math.sqrt(_spectrum_squares(ax, bx, cx, ay, by, -cy)[1])


def symplectic_spectrum(sigma: TwoModeCovariance) -> SymplecticSpectrum:
    """Symplectic eigenvalues {nu_plus, nu_minus} of a physical covariance.

    Takes states without X-Y correlations (UnsupportedState otherwise), whose
    squared eigenvalues are those of the product of the X and Y blocks.
    Raises NonPhysicalState when the smaller eigenvalue falls below the
    vacuum bound.
    """
    return _spectrum(*_quadrature_entries(sigma))


def partial_transpose(sigma: TwoModeCovariance) -> TwoModeCovariance:
    """Sign-flip the Y quadrature of mode 2: B -> ZBZ, C -> CZ."""
    z = __getattr__("Z")
    return TwoModeCovariance(sigma.a, z @ sigma.b @ z, sigma.c @ z)


def ppt_min_eigenvalue(sigma: TwoModeCovariance) -> float:
    """Smallest symplectic eigenvalue of the partially transposed covariance.

    A two-mode Gaussian state is entangled exactly when this value drops
    below 1.  The input itself must be physical and free of X-Y correlations.
    """
    entries = _quadrature_entries(sigma)
    _spectrum(*entries)
    return _ppt_nu(*entries)


def entropy_g(nu: float) -> float:
    """Bosonic entropy of a thermal mode with symplectic eigenvalue nu, in bits.

    g(nu) = ((nu+1)/2) log2((nu+1)/2) - ((nu-1)/2) log2((nu-1)/2), evaluated
    as [log(1 + b) + b log(1 + 1/b)] / log(2) with b = (nu-1)/2, which keeps
    full relative precision near nu = 1 and for large nu; g(1) = 0.  Values
    marginally below 1 (floating-point noise near pure states) are clamped to
    1; values below 1 - 1e-6 are rejected.
    """
    nu = float(nu)
    if not math.isfinite(nu) or nu < 1.0 - PHYSICAL_TOL:
        raise DomainError(f"entropy argument {nu!r} is below the vacuum bound")
    if nu <= 1.0:
        return 0.0
    b = 0.5 * (nu - 1.0)
    return (math.log1p(b) + b * math.log1p(1.0 / b)) / _LN2


def von_neumann_entropy(spectrum: SymplecticSpectrum) -> float:
    """Entropy of a two-mode Gaussian state in bits: g(nu_plus) + g(nu_minus)."""
    return entropy_g(spectrum.nu_plus) + entropy_g(spectrum.nu_minus)
