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

from .channel import (
    ChannelOutput,
    ChannelParams,
    apply_entangling_cloner,
    heterodyne_measured_variance,
)
from .states import (
    DiscordStateParams,
    EprStateParams,
    make_discord_state,
    make_epr_state,
)
from .symplectic import TwoModeCovariance, _spectrum_squares, entropy_g


class Detection(str, enum.Enum):
    HOMODYNE = "hom"
    HETERODYNE = "het"


class Reconciliation(str, enum.Enum):
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


@dataclass(frozen=True)
class KeyRateReport:
    """Key rate and the intermediate quantities it was assembled from."""

    i_ab: float
    i_eve: float
    key_rate: float
    v_b_conditional: float
    s_e: float
    s_e_conditional: float


def make_source_state(params: SourceParams) -> TwoModeCovariance:
    if isinstance(params, DiscordStateParams):
        return make_discord_state(params)
    if isinstance(params, EprStateParams):
        return make_epr_state(params)
    raise TypeError(f"unsupported source parameters: {params!r}")


def conditional_variance(v_x: float, cov_xy: float, v_y: float) -> float:
    """V(X|Y) = V(X) - |<XY>|^2 / V(Y).  Raises ZeroDivisionError for V(Y) = 0."""
    return float(v_x) - float(cov_xy) ** 2 / float(v_y)


def _mutual_info(detection: Detection, out: ChannelOutput) -> tuple[float, float]:
    """(I(A:B) in bits, V(B|A)) for the chosen detection on both sides."""
    if detection is Detection.HOMODYNE:
        v_cond = conditional_variance(out.v_b, out.gamma_prime, out.v_a)
        if v_cond <= 0.0:
            raise ZeroDivisionError("conditional variance vanished")
        return 0.5 * math.log2(out.v_b / v_cond), v_cond
    v_am = heterodyne_measured_variance(out.v_a)
    v_cond = conditional_variance(out.v_b, out.gamma_prime / math.sqrt(2.0), v_am)
    v_bm = heterodyne_measured_variance(out.v_b)
    v_cond_m = heterodyne_measured_variance(v_cond)
    if v_cond_m <= 0.0:
        raise ZeroDivisionError("conditional measured variance vanished")
    return math.log2(v_bm / v_cond_m), v_cond


def mutual_info_homodyne(out: ChannelOutput) -> float:
    """(1/2) log2[V_B / V(B|A)] for single-quadrature detection on both sides."""
    return _mutual_info(Detection.HOMODYNE, out)[0]


def mutual_info_heterodyne(out: ChannelOutput) -> float:
    """log2[V_B^M / V(B^M|A^M)] for dual-quadrature detection on both sides.

    Each heterodyne detector adds a vacuum unit and halves the variance, so
    the measured-variance map v -> (v+1)/2 enters on both sides.
    """
    return _mutual_info(Detection.HETERODYNE, out)[0]


def _entropy(ax: float, bx: float, cx: float, ay: float, by: float, cy: float) -> float:
    """Entropy in bits of a two-mode state given by its X and Y blocks."""
    hi, lo = _spectrum_squares(ax, bx, cx, ay, by, cy)
    return entropy_g(math.sqrt(hi)) + entropy_g(math.sqrt(lo))


def _eve_entropies(config: ProtocolConfig, out: ChannelOutput) -> tuple[float, float]:
    """(S(E), S(E | reference measurement)) in bits.

    The attacker's modes (E', E'') have X block [[e_v, phi], [phi, W]] and
    Y block [[e_v, -phi], [-phi, W]].  The reference party, of variance v,
    correlates with them as zeta and eta on X and as zeta and -eta on Y.
    Homodyning its X quadrature subtracts [[zeta^2, zeta*eta], [zeta*eta,
    eta^2]] / v from the X block; heterodyning subtracts that matrix over
    v + 1 from the X block and its sign-flipped off-diagonal twin from Y.
    """
    if config.reconciliation is Reconciliation.DIRECT:
        zeta, eta, v = out.zeta, out.eta, out.v_a
    else:
        zeta, eta, v = out.zeta_prime, out.eta_prime, out.v_b
    e_v, w, phi = out.e_v, config.channel.w, out.phi
    s = v if config.detection is Detection.HOMODYNE else v + 1.0
    xx = e_v - zeta * zeta / s
    xy = phi - zeta * eta / s
    ww = w - eta * eta / s
    s_e = _entropy(e_v, w, phi, e_v, w, -phi)
    if config.detection is Detection.HOMODYNE:
        return s_e, _entropy(xx, ww, xy, e_v, w, -phi)
    return s_e, _entropy(xx, ww, xy, xx, ww, -xy)


def eve_information(config: ProtocolConfig, out: ChannelOutput) -> float:
    """Holevo-type attacker information S(E) - S(E|.) for the chosen protocol."""
    s_e, s_cond = _eve_entropies(config, out)
    return s_e - s_cond


def secret_key_rate(config: ProtocolConfig) -> KeyRateReport:
    """Full key-rate evaluation for one protocol configuration.

    The report satisfies key_rate = i_ab - i_eve exactly; the value may be
    negative, meaning the attacker's information exceeds the parties'.
    """
    out = apply_entangling_cloner(config.source, config.channel)
    i_ab, v_cond = _mutual_info(config.detection, out)
    s_e, s_cond = _eve_entropies(config, out)
    i_eve = s_e - s_cond
    return KeyRateReport(
        i_ab=i_ab,
        i_eve=i_eve,
        key_rate=i_ab - i_eve,
        v_b_conditional=v_cond,
        s_e=s_e,
        s_e_conditional=s_cond,
    )
