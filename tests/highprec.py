"""High-precision reference implementations used to freeze golden values.

Everything here is written against :mod:`decimal` (50 digits) and stays
deliberately independent of the package under test: no numpy, no shared
helpers, straight transcriptions of the closed-form expressions.  Tests
compare package output (float64 + numpy) against these Decimal evaluations.
"""

from decimal import Decimal, getcontext

getcontext().prec = 50

ONE = Decimal(1)
TWO = Decimal(2)
LN2 = TWO.ln()


def d(x) -> Decimal:
    """Coerce ints/floats/strings to Decimal without binary-float noise for strings."""
    if isinstance(x, Decimal):
        return x
    if isinstance(x, float):
        return Decimal(repr(x))
    return Decimal(x)


def entropy_term(nu: Decimal, log_base: Decimal = TWO) -> Decimal:
    """Bosonic entropy function ((v+1)/2)log((v+1)/2) - ((v-1)/2)log((v-1)/2).

    Within 1e-20 of 1 the mode is pure and the entropy is 0: at 50 digits a
    pure state's eigenvalue can land about 1e-25 below 1.  Further below 1,
    the logarithm of a negative number raises decimal.InvalidOperation.
    """
    nu = d(nu)
    if abs(nu - 1) < Decimal("1e-20"):
        return Decimal(0)
    a = (nu + 1) / 2
    b = (nu - 1) / 2
    val = a * a.ln() - b * b.ln()
    return val / d(log_base).ln()


def spectrum_from_invariants(i1, i2, i3, i4):
    """Symplectic eigenvalue pair (nu_plus, nu_minus) from the four invariants."""
    i1, i2, i3, i4 = d(i1), d(i2), d(i3), d(i4)
    delta = i1 + i2 + 2 * i3
    disc = delta * delta - 4 * i4
    if disc < 0 and disc > Decimal("-1e-30"):
        disc = Decimal(0)
    root = disc.sqrt()
    nu_plus = ((delta + root) / 2).sqrt()
    nu_minus = ((delta - root) / 2).sqrt()
    return nu_plus, nu_minus


def ppt_nu_minus(i1, i2, i3, i4) -> Decimal:
    """Smallest symplectic eigenvalue after partial transposition."""
    i1, i2, i3, i4 = d(i1), d(i2), d(i3), d(i4)
    delta = i1 + i2 - 2 * i3
    root = (delta * delta - 4 * i4).sqrt()
    return ((delta - root) / 2).sqrt()


def discord_state_invariants(v):
    """(I1, I2, I3, I4) of the displaced-coherent-pair state with noise v."""
    v = d(v)
    a = (v + 1) ** 2
    return a, a, -(v * v), (2 * v + 1) ** 2


def epr_state_invariants(v_e):
    v_e = d(v_e)
    a = v_e * v_e
    return a, a, -(a - 1), Decimal(1)


def e_min(i1, i2, i3, i4) -> Decimal:
    """Minimum conditional determinant reachable by a Gaussian measurement on mode B."""
    i1, i2, i3, i4 = d(i1), d(i2), d(i3), d(i4)
    lhs = (i4 - i1 * i2) ** 2
    rhs = i3 * i3 * (i2 + 1) * (i1 + i4)
    if lhs <= rhs:
        inner = i3 * i3 + (i2 - 1) * (i4 - i1)
        num = 2 * i3 * i3 + (i2 - 1) * (i4 - i1) + 2 * abs(i3) * inner.sqrt()
        return num / ((i2 - 1) ** 2)
    inner = (i3 * i3 - i1 * i2 - i4) ** 2 - 4 * i1 * i2 * i4
    num = i1 * i2 - i3 * i3 + i4 - inner.sqrt()
    return num / (2 * i2)


def gaussian_discord(i1, i2, i3, i4, log_base=TWO) -> Decimal:
    """Gaussian discord from invariants (measurement on mode B)."""
    i1, i2, i3, i4 = d(i1), d(i2), d(i3), d(i4)
    if i3 == 0:
        return Decimal(0)
    nu_plus, nu_minus = spectrum_from_invariants(i1, i2, i3, i4)
    f = lambda x: entropy_term(x, log_base)
    return f(i2.sqrt()) - f(nu_minus) - f(nu_plus) + f(e_min(i1, i2, i3, i4).sqrt())


class ClonerScalars:
    """Channel scalars for a block-form source (alpha, beta, gamma) through the cloner."""

    def __init__(self, alpha, beta, gamma, t, w):
        alpha, beta, gamma = d(alpha), d(beta), d(gamma)
        t, w = d(t), d(w)
        self.v_a = alpha
        self.v_b = t * beta + (1 - t) * w
        self.gamma_prime = t.sqrt() * gamma
        self.e_v = (1 - t) * beta + t * w
        self.phi = (t * (w * w - 1)).sqrt()
        self.zeta = (1 - t).sqrt() * gamma
        self.eta = Decimal(0)
        self.zeta_prime = (t * (1 - t)).sqrt() * (w - beta)
        self.eta_prime = ((1 - t) * (w * w - 1)).sqrt()
        self.w = w


def eve_entropy(sc: ClonerScalars) -> Decimal:
    """Base-2 entropy of the attacker's two-mode state."""
    i1 = sc.e_v * sc.e_v
    i2 = sc.w * sc.w
    i3 = -(sc.phi * sc.phi)
    i4 = (sc.e_v * sc.w - sc.phi * sc.phi) ** 2
    nu_p, nu_m = spectrum_from_invariants(i1, i2, i3, i4)
    return entropy_term(nu_p) + entropy_term(nu_m)


def eve_conditional_entropy(sc: ClonerScalars, detection: str, reconciliation: str) -> Decimal:
    """Base-2 entropy of the attacker's state after the stated measurement."""
    if reconciliation == "dr":
        zeta, eta, v = sc.zeta, sc.eta, sc.v_a
    else:
        zeta, eta, v = sc.zeta_prime, sc.eta_prime, sc.v_b
    ev, w, phi = sc.e_v, sc.w, sc.phi
    if detection == "hom":
        # Rank-one update on the X quadratures only.
        xx = ev - zeta * zeta / v
        xy = phi - zeta * eta / v
        ww = w - eta * eta / v
        # X block [[xx, xy],[xy, ww]], Y block [[ev, -phi],[-phi, w]]
        i1 = xx * ev
        i2 = ww * w
        i3 = -xy * phi
        i4 = (xx * ww - xy * xy) * (ev * w - phi * phi)
    else:
        s = v + 1
        xx = ev - zeta * zeta / s
        xy = phi - zeta * eta / s
        ww = w - eta * eta / s
        i1 = xx * xx
        i2 = ww * ww
        i3 = -(xy * xy)
        i4 = (xx * ww - xy * xy) ** 2
    nu_p, nu_m = spectrum_from_invariants(i1, i2, i3, i4)
    return entropy_term(nu_p) + entropy_term(nu_m)


def log2(x) -> Decimal:
    return d(x).ln() / LN2


def mutual_info_hom(sc: ClonerScalars) -> Decimal:
    v_cond = sc.v_b - sc.gamma_prime ** 2 / sc.v_a
    return (sc.v_b / v_cond).ln() / LN2 / 2


def mutual_info_het(sc: ClonerScalars) -> Decimal:
    v_am = (sc.v_a + 1) / 2
    v_cond = sc.v_b - (sc.gamma_prime ** 2 / 2) / v_am
    return (((sc.v_b + 1) / 2) / ((v_cond + 1) / 2)).ln() / LN2


def key_rate(alpha, beta, gamma, t, w, detection, reconciliation) -> Decimal:
    sc = ClonerScalars(alpha, beta, gamma, t, w)
    i_ab = mutual_info_hom(sc) if detection == "hom" else mutual_info_het(sc)
    i_e = eve_entropy(sc) - eve_conditional_entropy(sc, detection, reconciliation)
    return i_ab - i_e


def discord_source(v_d):
    """(alpha, beta, gamma) for the discord state given its diagonal variance."""
    v = d(v_d) - 1
    return v + 1, v + 1, v


def epr_source(v_e):
    v_e = d(v_e)
    return v_e, v_e, (v_e * v_e - 1).sqrt()
