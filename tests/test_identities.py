"""Symbolic proof of the closed forms in the key-rate kernel (keyrate.py).

Each quantity is derived here from the beam-splitter model of the entangling
cloner, quadrature by quadrature: the source (A, B_in) and the cloner's pair
(E_in, E'') meet on a beam splitter of transmission T, and a measurement of
the reference mode conditions the attacker's modes (E', E'') by a Schur
complement.  The test then asserts that the kernel's expression, written
below as it appears in keyrate.py, minus the derived value simplifies to 0.
"""

import pytest
import sympy as sp

T, u, W, alpha, beta, gamma = sp.symbols("T u W alpha beta gamma", positive=True)
DELTA = alpha * beta - gamma**2
C = sp.sqrt(W**2 - 1)


def _quadrature(sign):
    """Covariance of (A, B, E', E'') in the X (sign=1) or Y (sign=-1) quadrature."""
    before = sp.Matrix([
        [alpha, sign * gamma, 0, 0],
        [sign * gamma, beta, 0, 0],
        [0, 0, W, sign * C],
        [0, 0, sign * C, W],
    ])
    splitter = sp.Matrix([
        [1, 0, 0, 0],
        [0, sp.sqrt(T), sp.sqrt(u), 0],
        [0, -sp.sqrt(u), sp.sqrt(T), 0],
        [0, 0, 0, 1],
    ])
    return splitter * before * splitter.T


X, Y = _quadrature(1), _quadrature(-1)


def _attacker(sigma, reference=None, extra=0):
    """The attacker's 2x2 block, conditioned on the reference mode if given.

    extra is 0 for homodyne and 1 for heterodyne (the detector's vacuum unit).
    """
    block = sigma[2:, 2:]
    if reference is None:
        return block
    corr = sigma[reference, 2:]
    return block - corr.T * corr / (sigma[reference, reference] + extra)


def _zero(expr):
    """expr vanishes once u = 1 - T."""
    return sp.simplify(sp.expand(expr).subs(u, 1 - T)) == 0


def _invariants(x, y):
    """(tr(X Y), det X, det Y, tr^2 - 4 det(X Y)) of a pair of 2x2 blocks."""
    trace = (x * y).trace()
    return trace, x.det(), y.det(), trace**2 - 4 * x.det() * y.det()


V_B = T * beta + u * W
E_V = u * beta + T * W
DET_E = u * W * beta + T


def test_source_delta():
    v = sp.Symbol("v", positive=True)
    assert sp.expand((v + 1) ** 2 - v**2) == 2 * v + 1
    v_e = sp.Symbol("v_e", positive=True)
    assert sp.expand(v_e**2 - sp.sqrt(v_e**2 - 1) ** 2) == 1


def test_cloner_scalars():
    assert _zero(X[1, 1] - V_B)
    assert _zero(X[2, 2] - E_V)


def test_attacker_state():
    trace, det_x, det_y, _ = _invariants(_attacker(X), _attacker(Y))
    assert _zero(det_x - DET_E)
    assert _zero(det_y - DET_E)
    # nu_plus - nu_minus = |u (beta - W)|, nu_plus * nu_minus = det_e.
    assert _zero(trace - 2 * DET_E - (u * (beta - W)) ** 2)


@pytest.mark.parametrize("extra,v_cond", [
    (0, u * W + T * DELTA / alpha),
    (1, u * W + T * (DELTA + beta) / (alpha + 1)),
])
def test_receiver_given_sender(extra, v_cond):
    sigma_b = X[1, 1] - X[0, 1] ** 2 / (X[0, 0] + extra)
    assert _zero(sigma_b - v_cond)


def test_homodyne_direct():
    trace, det_x, det_y, disc = _invariants(_attacker(X, 0), _attacker(Y))
    assert _zero(det_y - DET_E)
    assert _zero(det_x - (u * W * DELTA / alpha + T))
    assert _zero(trace - (u * E_V * (DELTA / alpha) + u * W * (u * W) + T * u * W * beta + 2 * T))
    gap = (DELTA / alpha) * E_V + (u * T * W * (W - beta) ** 2 - 2 * T * (W - beta) - W**2 * beta) / E_V
    assert _zero(disc - u**2 * (gap**2 + (2 * sp.sqrt(T * (W**2 - 1) * DET_E) * (W - beta) / E_V) ** 2))


def test_homodyne_reverse():
    trace, det_x, det_y, disc = _invariants(_attacker(X, 1), _attacker(Y))
    assert _zero(det_y - DET_E)
    assert _zero(det_x - beta / V_B)
    assert _zero(trace - (u * W * (beta * (beta / V_B) + 1 / V_B) + 2 * T * (beta / V_B)))
    assert _zero(disc - (u * W * (beta - 1) * ((beta + 1) / V_B)) ** 2)


@pytest.mark.parametrize("reference,s,det,diff", [
    (0, alpha + 1, u * W * (DELTA + beta) / (alpha + 1) + T,
     u * (DELTA + beta - W * (alpha + 1)) / (alpha + 1)),
    (1, V_B + 1, (u * W * beta + T + beta) / (V_B + 1), u * (beta - 1) * (W + 1) / (V_B + 1)),
])
def test_heterodyne(reference, s, det, diff):
    assert _zero(X[reference, reference] + 1 - s)
    x, y = _attacker(X, reference, 1), _attacker(Y, reference, 1)
    trace, det_x, det_y, _ = _invariants(x, y)
    # The Y block is the X block with its off-diagonal entry negated.
    assert _zero(x[0, 0] - y[0, 0]) and _zero(x[1, 1] - y[1, 1]) and _zero(x[0, 1] + y[0, 1])
    assert _zero(det_x - det)
    # nu_plus - nu_minus = |diff|, nu_plus * nu_minus = det.
    assert _zero(trace - 2 * det - diff**2)
