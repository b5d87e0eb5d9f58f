"""Source states for the protocol and Gaussian quantum discord.

Two families of two-mode resource states are provided, both in the block
form (alpha*I, beta*I, gamma*Z):

* a separable "discord state": two coherent states carrying correlated
  (X) and anticorrelated (Y) Gaussian displacement of variance V, giving
  alpha = beta = V + 1 and gamma = V;
* a two-mode squeezed vacuum with quadrature variance V_E = cosh(2r) and
  gamma = sqrt(V_E^2 - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import InvalidParameter
from .symplectic import (
    TwoModeCovariance,
    _block_covariance,
    _det,
    _ppt_nu,
    _spectrum,
    entropy_g,
)

#: Cross-correlation determinants smaller than this mean a product state.
PRODUCT_STATE_TOL = 1e-12


@dataclass(frozen=True)
class DiscordStateParams:
    """Displacement-noise variance V >= 0; the diagonal variance is V + 1."""

    v: float

    def __post_init__(self):
        object.__setattr__(self, "v", float(self.v))
        if not math.isfinite(self.v) or self.v < 0.0:
            raise InvalidParameter(f"displacement noise must satisfy V = V_D - 1 >= 0, got {self.v!r}")

    @property
    def v_d(self) -> float:
        return self.v + 1.0

    def block_form(self) -> tuple[float, float, float]:
        """(alpha, beta, gamma) = (V + 1, V + 1, V)."""
        return self.v + 1.0, self.v + 1.0, self.v

    def block_invariants(self) -> tuple[float, float, float]:
        """(alpha, beta, alpha*beta - gamma^2) = (V + 1, V + 1, 2V + 1), the last exact."""
        return self.v + 1.0, self.v + 1.0, 2.0 * self.v + 1.0


@dataclass(frozen=True)
class EprStateParams:
    """Two-mode squeezed vacuum variance V_E = cosh(2r) >= 1."""

    v_e: float

    def __post_init__(self):
        object.__setattr__(self, "v_e", float(self.v_e))
        if not math.isfinite(self.v_e) or self.v_e < 1.0:
            raise InvalidParameter(f"EPR variance must satisfy V_E >= 1, got {self.v_e!r}")
        if not math.isfinite(self.v_e * self.v_e):
            raise InvalidParameter(f"EPR variance must have a finite square, got {self.v_e!r}")

    @property
    def r(self) -> float:
        return 0.5 * math.acosh(self.v_e)

    def block_form(self) -> tuple[float, float, float]:
        """(alpha, beta, gamma) = (V_E, V_E, sqrt(V_E^2 - 1))."""
        v_e = self.v_e
        return v_e, v_e, math.sqrt(max(v_e * v_e - 1.0, 0.0))

    def block_invariants(self) -> tuple[float, float, float]:
        """(alpha, beta, alpha*beta - gamma^2) = (V_E, V_E, 1): the state is pure."""
        return self.v_e, self.v_e, 1.0


def make_source_state(params: Union[DiscordStateParams, EprStateParams]) -> TwoModeCovariance:
    """Covariance (alpha*I, beta*I, gamma*Z) of a source, from its parameters' block_form().

    ((V+1)I, (V+1)I, V*Z) for the discord state, (V_E*I, V_E*I, sqrt(V_E^2-1)*Z)
    for the EPR state.
    """
    return _block_covariance(*params.block_form())


make_discord_state = make_epr_state = make_source_state


def discord_and_ppt(alpha: float, beta: float, gamma: float) -> tuple[float, float]:
    """(discord in bits, PPT eigenvalue) of the state (alpha*I, beta*I, gamma*Z).

    D = f(beta) - f(nu_minus) - f(nu_plus) + f(sqrt(E_min)) with f the
    bosonic entropy function.  For this form heterodyne detection is the
    optimal Gaussian measurement, so sqrt(E_min) = (alpha*beta - gamma^2 +
    alpha) / (beta + 1).  The state's spectrum is computed once: it checks
    physicality and gives the discord.  Product states (gamma^2 < 1e-12)
    have discord exactly 0.
    """
    spectrum = _spectrum(alpha, beta, gamma, alpha, beta, -gamma)
    if gamma * gamma < PRODUCT_STATE_TOL:
        discord = 0.0
    else:
        discord = (
            entropy_g(beta)
            - entropy_g(spectrum.nu_minus)
            - entropy_g(spectrum.nu_plus)
            + entropy_g((_det(alpha, beta, gamma) + alpha) / (beta + 1.0))
        )
    return discord, _ppt_nu(alpha, beta, gamma, alpha, beta, -gamma)


def gaussian_discord(
    sigma: Union[TwoModeCovariance, DiscordStateParams, EprStateParams], *, log_base: float = 2.0
) -> float:
    """Gaussian quantum discord of a block-form two-mode state, measured on mode 2.

    The discord of discord_and_ppt for the (alpha, beta, gamma) of
    ``sigma.block_form()``, so a covariance and a source's parameters serve
    alike; a covariance not of that form raises UnsupportedState.  The
    default is base-2 logarithms (bits); pass log_base=math.e for the
    natural-log convention common in the discord literature, in which
    separable states satisfy D <= 1.  log_base must be finite and greater
    than 1.
    """
    if not (math.isfinite(log_base) and log_base > 1.0):
        raise InvalidParameter(f"log_base must be finite and > 1, got {log_base!r}")
    value = discord_and_ppt(*sigma.block_form())[0]
    if log_base != 2.0:
        value *= math.log(2.0) / math.log(log_base)
    return value
