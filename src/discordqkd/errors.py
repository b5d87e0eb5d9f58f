"""Exception types raised by the covariance-matrix and key-rate machinery."""


class GaussianStateError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(GaussianStateError):
    """A state or channel parameter is outside its allowed domain."""


class NonPhysicalState(GaussianStateError):
    """A covariance matrix violates the uncertainty bound (nu_minus < 1)."""


class DegenerateMatrix(GaussianStateError):
    """A covariance matrix has a negative or vanishing determinant structure."""


class DomainError(GaussianStateError):
    """An entropy argument lies below the physical threshold nu = 1."""


class UnsupportedState(GaussianStateError):
    """A covariance matrix is not in the (alpha*I, beta*I, gamma*Z) block form."""


class DegenerateInput(GaussianStateError):
    """Invariants for which the conditional-determinant branches are undefined."""


class NoSignChange(GaussianStateError):
    """A threshold search bracket does not contain a key-rate sign change."""

    def __init__(self, lo: float, hi: float, f_lo: float, f_hi: float):
        self.lo, self.hi, self.f_lo, self.f_hi = lo, hi, f_lo, f_hi
        super().__init__(f"no sign change: key_rate({lo!r}) = {f_lo!r}, key_rate({hi!r}) = {f_hi!r}")


class UnknownFigure(GaussianStateError):
    """An unrecognized figure preset identifier."""
