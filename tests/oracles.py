"""Brute-force cross-check constructions and randomized case generation.

The beam-splitter oracle builds the full four-mode covariance (sender,
transmitted, attacker input, attacker idler), applies the splitter as an
explicit 8x8 symplectic map with the convention

    b_out = sqrt(T) b + sqrt(1-T) E,      E' = sqrt(1-T) b - sqrt(T) E,

and reads the reduced blocks back out.  Under this convention the reflected
mode carries the opposite sign on some cross correlations relative to the
package's stored scalars; flipping the sign of both E' rows and columns maps
one onto the other, and all conditioned spectra are invariant under it.

The general references the package's per-quadrature closed forms are checked
against live here too: the symplectic spectrum from the eigenvalues of
i*Omega*sigma, the two-branch minimum conditional determinant over Gaussian
measurements, and measurement conditioning as 4x4 matrix updates.
"""

import math
from dataclasses import dataclass

import numpy as np

from discordqkd import ChannelParams, DiscordStateParams, EprStateParams
from discordqkd.errors import (
    DegenerateInput,
    DegenerateMatrix,
    GaussianStateError,
    InvalidParameter,
)
from discordqkd.symplectic import (
    SymplecticSpectrum,
    TwoModeCovariance,
    symplectic_spectrum,
)

I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])

#: Sign flip of the reflected attacker mode, mapping the oracle's convention
#: onto the package's stored sigma_E / D matrices.
FLIP_E_PRIME = np.diag([-1.0, -1.0, 1.0, 1.0])


class ConvergenceFailure(GaussianStateError):
    """The eigenvalue-based symplectic spectrum could not be resolved."""


def beam_splitter_outputs(source4: np.ndarray, t: float, w: float):
    """(sigma_ab, sigma_e, d_dr, d_rr) from the explicit 8x8 construction."""
    sigma0 = np.zeros((8, 8))
    sigma0[:4, :4] = source4
    phi_in = np.sqrt(w * w - 1.0)
    sigma0[4:, 4:] = np.block([[w * I2, phi_in * Z2], [phi_in * Z2, w * I2]])

    s = np.eye(8)
    rt, rr = np.sqrt(t), np.sqrt(1.0 - t)
    for q in (0, 1):  # X then Y of modes b (index 1) and E (index 2)
        bi, ei = 2 + q, 4 + q
        s[bi, bi], s[bi, ei] = rt, rr
        s[ei, bi], s[ei, ei] = rr, -rt
    out = s @ sigma0 @ s.T

    sigma_ab = out[:4, :4]
    sigma_e = out[4:, 4:]
    d_dr = out[4:, :2]
    d_rr = out[4:, 2:4]
    return sigma_ab, sigma_e, d_dr, d_rr


def random_cases(seed: int, n: int):
    """Deterministic list of (source params, channel params) samples."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        if rng.random() < 0.5:
            source = DiscordStateParams(v=float(10.0 ** rng.uniform(-2.0, 3.0)))
        else:
            source = EprStateParams(v_e=float(1.0 + 10.0 ** rng.uniform(-2.0, 3.0)))
        t = float(rng.uniform(0.02, 0.98))
        w = 1.0 if rng.random() < 0.25 else float(1.0 + rng.uniform(0.0, 9.0))
        cases.append((source, ChannelParams(t=t, w=w)))
    return cases


# General references: the 4x4 and two-branch forms the package replaced.

X_PROJECT = np.diag([1.0, 0.0])
OMEGA1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.block([[OMEGA1, np.zeros((2, 2))], [np.zeros((2, 2)), OMEGA1]])

_BRANCH_BOUNDARY_RTOL = 1e-12
_BRANCH_AGREE_RTOL = 1e-6

_ISOTROPY_TOL = 1e-10


def _det2(m: np.ndarray) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


@dataclass(frozen=True)
class SymplecticInvariants:
    """Block determinants (I1, I2, I3, I4) and their sum Delta = I1 + I2 + 2*I3."""

    i1: float
    i2: float
    i3: float
    i4: float
    delta: float


def _char_poly_coeffs(m: np.ndarray) -> list[float]:
    """Characteristic polynomial of a 4x4 matrix by the trace recurrence."""
    coeffs = [1.0]
    mk = m.copy()
    for k in range(1, 5):
        ck = -np.trace(mk) / k
        coeffs.append(float(ck))
        if k < 4:
            mk = m @ (mk + ck * np.eye(4))
    return coeffs


def symplectic_spectrum_oracle(sigma: TwoModeCovariance) -> SymplecticSpectrum:
    """Symplectic spectrum from the standard eigenvalues of i*Omega*sigma.

    Independent verification path: sigma^(1/2) Omega sigma^(1/2) is similar
    to Omega*sigma and antisymmetric, so i times it is Hermitian and its
    (real, +-paired) eigenvalues are obtained by a stable Hermitian solve.
    The block-determinant shortcut is never used.  Residuals of the computed
    eigenvalues in the characteristic polynomial of Omega*sigma are checked;
    exact +- pairing is also required.
    """
    m = sigma.matrix
    w, q = np.linalg.eigh(m)
    if w[0] <= 0.0:
        raise DegenerateMatrix("covariance is not positive definite")
    root = (q * np.sqrt(w)) @ q.T
    k = root @ OMEGA @ root
    k = 0.5 * (k - k.T)
    lam = np.linalg.eigvalsh(1j * k)
    mods = np.sort(np.abs(lam))
    scale = max(1.0, mods[-1])
    if mods[1] - mods[0] > 1e-12 * scale or mods[3] - mods[2] > 1e-12 * scale:
        raise ConvergenceFailure(
            f"eigenvalue moduli do not form +- pairs: {mods.tolist()!r}"
        )
    coeffs = _char_poly_coeffs(OMEGA @ m)
    # The k-th coefficient is assembled from traces of M^k and so carries an
    # absolute rounding error of order eps * ||M||^k; the residual tolerance
    # must scale accordingly or well-resolved eigenvalues of large-variance
    # states would be rejected.
    base = max(1.0, float(np.abs(m).max()) * 4.0)
    for nu in (mods[0], mods[2]):
        val = complex(0.0)
        for c in coeffs:
            val = val * (1j * nu) + c
        if abs(val) > 1e-12 * (base + nu) ** 4:
            raise ConvergenceFailure(
                f"characteristic-polynomial residual {abs(val)!r} too large at nu={nu!r}"
            )
    return SymplecticSpectrum(
        nu_plus=float(0.5 * (mods[2] + mods[3])),
        nu_minus=float(0.5 * (mods[0] + mods[1])),
    )


def symplectic_invariants(sigma: TwoModeCovariance) -> SymplecticInvariants:
    """Block determinants I1..I4 of a covariance; I4 is the full 4x4 determinant."""
    i1 = _det2(sigma.a)
    i2 = _det2(sigma.b)
    i3 = _det2(sigma.c)
    i4 = float(np.linalg.det(sigma.matrix))
    return SymplecticInvariants(i1=i1, i2=i2, i3=i3, i4=i4, delta=i1 + i2 + 2.0 * i3)


def _branch_a(i1: float, i2: float, i3: float, i4: float) -> float:
    den = (i2 - 1.0) ** 2
    if den == 0.0:
        raise DegenerateInput(
            "conditional determinant undefined: I2 = 1 with the first branch selected"
        )
    inner = i3 * i3 + (i2 - 1.0) * (i4 - i1)
    if inner < 0.0:
        scale = max(1.0, i3 * i3, abs((i2 - 1.0) * (i4 - i1)))
        if inner < -1e-9 * scale:
            raise DegenerateInput(f"negative branch discriminant: {inner!r}")
        inner = 0.0
    return (2.0 * i3 * i3 + (i2 - 1.0) * (i4 - i1) + 2.0 * abs(i3) * math.sqrt(inner)) / den


def _branch_b(i1: float, i2: float, i3: float, i4: float) -> float:
    # The discriminant is written as a difference of two squares; expanding it
    # into I3^4 + (I4 - I1*I2)^2 - 2*I3^2*(I4 + I1*I2) cancels catastrophically
    # on the branch boundary, where pure states sit.
    base = i3 * i3 - i1 * i2 - i4
    inner = base * base - 4.0 * i1 * i2 * i4
    if inner < 0.0:
        scale = max(1.0, base * base, 4.0 * abs(i1 * i2 * i4))
        if inner < -1e-9 * scale:
            raise DegenerateInput(f"negative branch discriminant: {inner!r}")
        inner = 0.0
    return (i1 * i2 - i3 * i3 + i4 - math.sqrt(inner)) / (2.0 * i2)


def e_min(inv: SymplecticInvariants) -> float:
    """Smallest conditional determinant over Gaussian measurements on mode 2.

    Two closed-form branches apply depending on whether
    (I4 - I1*I2)^2 <= I3^2 (I2 + 1)(I1 + I4).  On the boundary (within
    relative 1e-12) both branches are evaluated, required to agree to
    relative 1e-6, and the first branch is returned.
    """
    i1, i2, i3, i4 = inv.i1, inv.i2, inv.i3, inv.i4
    lhs = (i4 - i1 * i2) ** 2
    rhs = i3 * i3 * (i2 + 1.0) * (i1 + i4)
    scale = max(1.0, abs(lhs), abs(rhs))
    if abs(lhs - rhs) <= _BRANCH_BOUNDARY_RTOL * scale:
        val_a = _branch_a(i1, i2, i3, i4)
        val_b = _branch_b(i1, i2, i3, i4)
        agree_scale = max(abs(val_a), abs(val_b), 1e-300)
        # On the boundary the second branch's discriminant cancels completely,
        # so it inherits the 4x4 determinant's rounding error; the agreement
        # tolerance must carry that allowance or large pure states would be
        # rejected spuriously.
        det_noise = math.sqrt(1e-9 * abs(i1 * i2 * i4)) / (2.0 * abs(i2))
        if abs(val_a - val_b) > _BRANCH_AGREE_RTOL * agree_scale + det_noise:
            raise DegenerateInput(
                f"branch values disagree on the boundary: {val_a!r} vs {val_b!r}"
            )
        return val_a
    if lhs <= rhs:
        return _branch_a(i1, i2, i3, i4)
    return _branch_b(i1, i2, i3, i4)


def _conditioned(sigma_e: TwoModeCovariance, update: np.ndarray) -> TwoModeCovariance:
    out = TwoModeCovariance.from_matrix(sigma_e.matrix - update)
    symplectic_spectrum(out)  # raises NonPhysicalState when conditioning is inconsistent
    return out


def condition_on_homodyne(
    sigma_e: TwoModeCovariance, d: np.ndarray, v_meas: float
) -> TwoModeCovariance:
    """Attacker covariance after one party homodynes its X quadrature.

    sigma_E - (1/v_meas) * D Pi D^T, where Pi projects onto the measured
    quadrature and v_meas is the measured party's variance.
    """
    if not math.isfinite(v_meas) or v_meas <= 0.0:
        raise InvalidParameter(f"measured variance must be positive, got {v_meas!r}")
    d = np.asarray(d, dtype=float)
    return _conditioned(sigma_e, (d @ X_PROJECT @ d.T) / v_meas)


def condition_on_heterodyne(
    sigma_e: TwoModeCovariance, d: np.ndarray, sigma_meas: np.ndarray
) -> TwoModeCovariance:
    """Attacker covariance after one party heterodynes both quadratures.

    sigma_E - (1/Lambda) * D (sigma_meas + I) D^T with
    Lambda = det(sigma_meas) + tr(sigma_meas) + 1.  The measured party's
    covariance must be isotropic (v * I).
    """
    sigma_meas = np.asarray(sigma_meas, dtype=float)
    if sigma_meas.shape != (2, 2):
        raise InvalidParameter("measured covariance must be 2x2")
    scale = max(1.0, float(np.abs(sigma_meas).max()))
    iso = abs(sigma_meas[0, 0] - sigma_meas[1, 1]) <= _ISOTROPY_TOL * scale
    off = max(abs(sigma_meas[0, 1]), abs(sigma_meas[1, 0])) <= _ISOTROPY_TOL * scale
    if not (iso and off):
        raise InvalidParameter("measured covariance must be isotropic (v * I)")
    lam = _det2(sigma_meas) + float(np.trace(sigma_meas)) + 1.0
    if lam <= 0.0:
        raise InvalidParameter(f"heterodyne normalization must be positive, got {lam!r}")
    d = np.asarray(d, dtype=float)
    return _conditioned(sigma_e, (d @ (sigma_meas + I2) @ d.T) / lam)
