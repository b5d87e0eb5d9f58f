"""Mutual information, attacker information, and secret key rates.

Four protocol variants are covered: homodyne or heterodyne detection,
combined with direct (sender's data is the reference) or reverse (receiver's
data is the reference) reconciliation.  The attacker's information is the
Holevo-type quantity S(E) - S(E|measurement), evaluated from symplectic
spectra, so the key rates hold against collective attacks.  All information
quantities are in bits per channel use and key rates are reported unclamped;
negative values mean no secret key is distillable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

from .channel import ChannelParams
from .errors import InvalidParameter
from .states import DiscordStateParams, EprStateParams, make_source_state  # noqa: F401
from .symplectic import entropy_g


class _Choice(str, enum.Enum):
    """A protocol choice: calling the class maps a member or its value to the member."""

    @classmethod
    def _missing_(cls, value):
        raise InvalidParameter(f"{cls.__name__.lower()} must be one of {', '.join(cls)}, got {value!r}")


class Detection(_Choice):
    HOMODYNE = "hom"
    HETERODYNE = "het"


class Reconciliation(_Choice):
    DIRECT = "dr"
    REVERSE = "rr"


SourceParams = Union[DiscordStateParams, EprStateParams]


@dataclass(frozen=True)
class ProtocolConfig:
    """One fully specified protocol variant: detection x reconciliation x source x channel."""

    detection: Detection
    reconciliation: Reconciliation
    source: SourceParams
    channel: ChannelParams

    def __post_init__(self):
        object.__setattr__(self, "detection", Detection(self.detection))
        object.__setattr__(self, "reconciliation", Reconciliation(self.reconciliation))


@dataclass(frozen=True)
class KeyRateReport:
    """Key rate and the intermediate quantities it was assembled from."""

    i_ab: float
    i_eve: float
    key_rate: float
    v_b_conditional: float
    s_e: float
    s_e_conditional: float


def _entropy(nu_plus: float, root_det: float) -> float:
    """Entropy in bits of a two-mode state from nu_plus and nu_plus * nu_minus."""
    return entropy_g(nu_plus) + entropy_g(root_det / nu_plus)


def _twin_nu_plus(diff: float, det: float) -> float:
    """nu_plus where nu_plus - nu_minus = |diff| and nu_plus * nu_minus = det."""
    return 0.5 * (abs(diff) + math.hypot(diff, 2.0 * math.sqrt(det)))


def key_rate(source: SourceParams, channel: ChannelParams, detection: Detection,
             reconciliation: Reconciliation) -> KeyRateReport:
    """The KeyRateReport of one protocol, given as Detection and Reconciliation members or values.

    Only the source's (alpha, beta, delta = alpha*beta - gamma^2) and the channel's (T, W)
    enter.  Each closed form is a sum of positive terms, or a square or product of differences
    that vanish with what they give, so nothing cancels (tests/test_identities.py derives them).
    """
    if type(detection) is not Detection or type(reconciliation) is not Reconciliation:
        detection, reconciliation = Detection(detection), Reconciliation(reconciliation)
    alpha, beta, delta = source.block_invariants()
    t, w = channel.t, channel.w
    u = 1.0 - t
    v_b = t * beta + u * w
    # The attacker's X block is [[e_v, phi], [phi, W]]; her Y block negates phi.
    det_e = u * w * beta + t
    s_e = _entropy(_twin_nu_plus(u * (beta - w), det_e), det_e)
    if detection is Detection.HOMODYNE:
        # I = (1/2) log2[V_B / V(B|A)].  Only the attacker's X block is conditioned.
        v_cond = u * w + t * delta / alpha
        i_ab = 0.5 * math.log2(v_b / v_cond)
        if reconciliation is Reconciliation.DIRECT:
            det_x = u * w * delta / alpha + t
            e_v = u * beta + t * w
            trace = u * e_v * (delta / alpha) + u * w * (u * w) + t * u * w * beta + 2.0 * t
            gap = (delta / alpha) * e_v + (u * t * w * (w - beta) * (w - beta)
                                          - 2.0 * t * (w - beta) - w * w * beta) / e_v
            root_disc = u * math.hypot(gap, 2.0 * math.sqrt(t * (w * w - 1.0) * det_e)
                                       * abs(w - beta) / e_v)
        else:
            det_x = beta / v_b
            trace = u * w * (beta * det_x + 1.0 / v_b) + 2.0 * t * det_x
            root_disc = u * w * (beta - 1.0) * ((beta + 1.0) / v_b)
        # nu_plus^2 +/- nu_minus^2 = trace, root_disc; nu_plus * nu_minus = sqrt(det_x det_e).
        nu_plus = math.sqrt(0.5 * (trace + root_disc))
        root_det = math.sqrt(det_x) * math.sqrt(det_e)
    else:
        # I = log2[V_B^M / V(B^M|A^M)], measured variances (v + 1)/2; both blocks conditioned.
        s = alpha + 1.0
        v_cond = u * w + t * (delta + beta) / s
        i_ab = math.log2((v_b + 1.0) / (v_cond + 1.0))
        if reconciliation is Reconciliation.DIRECT:
            root_det = u * w * (delta + beta) / s + t
            diff = u * (delta + beta - w * s) / s
        else:
            s = v_b + 1.0
            root_det = (u * w * beta + t + beta) / s
            diff = u * (beta - 1.0) * (w + 1.0) / s
        nu_plus = _twin_nu_plus(diff, root_det)
    # A reference uncorrelated with the attacker (zeta = 0 for DR, zeta' =
    # eta' = 0 for RR) tells her nothing: S(E|ref) = S(E) exactly.
    uncorrelated = u * (alpha * beta - delta if reconciliation is Reconciliation.DIRECT
                        else t * (w - beta) * (w - beta) + w * w - 1.0) == 0.0
    s_cond = s_e if uncorrelated else _entropy(nu_plus, root_det)
    i_eve = s_e - s_cond
    return KeyRateReport(i_ab, i_eve, i_ab - i_eve, v_cond, s_e, s_cond)


def secret_key_rate(config: ProtocolConfig) -> KeyRateReport:
    """Full key-rate evaluation for one protocol configuration.

    The report satisfies key_rate = i_ab - i_eve exactly; the value may be
    negative, meaning the attacker's information exceeds the parties'.
    """
    return key_rate(config.source, config.channel, config.detection, config.reconciliation)
