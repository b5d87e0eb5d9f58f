"""Lossy channel with an entangling-cloner attacker.

The transmitted mode is mixed with one arm of the attacker's EPR pair
(variance W) on a beam splitter of transmission T.  The attacker keeps both
the reflected output E' and the retained arm E''.  This module produces the
legitimate parties' covariance, the attacker's covariance, and the
correlations between the attacker and either party.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .errors import InvalidParameter
from .states import DiscordStateParams, EprStateParams
from .symplectic import TwoModeCovariance, _block_covariance

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Beam-splitter transmission T in [0, 1] and cloner variance W >= 1."""

    t: float
    w: float

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "w", float(self.w))
        if not math.isfinite(self.t) or not 0.0 <= self.t <= 1.0:
            raise InvalidParameter(f"transmission must lie in [0, 1], got {self.t!r}")
        if not math.isfinite(self.w) or self.w < 1.0:
            raise InvalidParameter(f"cloner variance must satisfy W >= 1, got {self.w!r}")


@dataclass(frozen=True)
class ChannelOutput:
    """Everything the key-rate computation needs after the cloner acted.

    ``d_dr`` collects the correlations of the attacker's modes with the
    sender's retained mode, ``d_rr`` with the receiver's mode; both are 4x2
    stacks of a multiple of I over a multiple of Z.
    """

    sigma_ab: TwoModeCovariance
    sigma_e: TwoModeCovariance
    d_dr: np.ndarray
    d_rr: np.ndarray
    v_a: float
    v_b: float
    gamma_prime: float
    e_v: float
    phi: float
    zeta: float
    eta: float
    zeta_prime: float
    eta_prime: float


def correlation_matrix(zeta: float, eta: float) -> np.ndarray:
    """Stack (zeta*I over eta*Z) describing two-mode/one-mode correlations."""
    import numpy as np

    from .symplectic import I2, Z

    return np.concatenate((zeta * I2, eta * Z))


def apply_entangling_cloner(
    source: Union[TwoModeCovariance, DiscordStateParams, EprStateParams], params: ChannelParams
) -> ChannelOutput:
    """Send mode 2 of a block-form source through the entangling cloner.

    The source is a block-form covariance or the parameters of one; only its
    (alpha, beta, gamma) enter, so both give the same output.  The
    correlations inherited by the attacker's reflected mode scale with the
    source cross-correlation gamma: the sender's retained mode never touches
    the channel, so it couples to the attacker only through gamma.
    """
    alpha, beta, gamma = source.block_form()
    t, w = params.t, params.w
    rt = math.sqrt(t)
    rr = math.sqrt(1.0 - t)

    v_b = t * beta + (1.0 - t) * w
    gamma_prime = rt * gamma
    e_v = (1.0 - t) * beta + t * w
    phi = math.sqrt(t * (w * w - 1.0))
    zeta = rr * gamma
    eta = 0.0
    zeta_prime = math.sqrt(t * (1.0 - t)) * (w - beta)
    eta_prime = rr * math.sqrt(w * w - 1.0)

    return ChannelOutput(
        sigma_ab=_block_covariance(alpha, v_b, gamma_prime),
        sigma_e=_block_covariance(e_v, w, phi),
        d_dr=correlation_matrix(zeta, eta),
        d_rr=correlation_matrix(zeta_prime, eta_prime),
        v_a=alpha,
        v_b=v_b,
        gamma_prime=gamma_prime,
        e_v=e_v,
        phi=phi,
        zeta=zeta,
        eta=eta,
        zeta_prime=zeta_prime,
        eta_prime=eta_prime,
    )


def heterodyne_measured_variance(v: float) -> float:
    """Variance recorded by a heterodyne detector on a mode of variance v."""
    return 0.5 * (v + 1.0)
