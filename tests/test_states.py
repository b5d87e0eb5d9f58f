"""Tests for source-state construction and Gaussian discord."""

import math

import numpy as np
import pytest

from discordqkd import (
    ChannelParams,
    Detection,
    DiscordStateParams,
    EprStateParams,
    InvalidParameter,
    Reconciliation,
    apply_entangling_cloner,
    entropy_g,
    evaluate_point,
    gaussian_discord,
    grid,
    make_discord_state,
    make_epr_state,
    symplectic_spectrum,
)
from discordqkd.errors import DegenerateInput

import highprec as hp
from oracles import (
    I2,
    SymplecticInvariants,
    Z2 as Z,
    e_min,
    symplectic_invariants,
    symplectic_spectrum_oracle,
)

# Frozen from tests/highprec.py (Decimal, 50 digits).
DISCORD_BITS_V1 = 0.1683057223577845258
DISCORD_NATS_V1 = 0.1166606369244032949
DISCORD_BITS_GRID = {
    0.5: 0.0859411713586524081,
    2.0: 0.2726995276665380514,
    10.0: 0.4680504402777791899,
    39.0: 0.5317523029741572103,
    100.0: 0.5470894016532910506,
    999.0: 0.5562674088975050459,
}
EPR_DISCORD_BITS_VE40 = 5.7644728268568730438
EPR_DISCORD_NATS_VE40 = 3.9956280873502593346


class TestConstruction:
    def test_discord_state_blocks(self):
        sigma = make_discord_state(DiscordStateParams(v=39.0))
        np.testing.assert_array_equal(sigma.a, 40.0 * I2)
        np.testing.assert_array_equal(sigma.b, 40.0 * I2)
        np.testing.assert_array_equal(sigma.c, 39.0 * Z)

    def test_discord_state_zero_noise_is_vacuum(self):
        sigma = make_discord_state(DiscordStateParams(v=0.0))
        np.testing.assert_array_equal(sigma.matrix, np.eye(4))

    def test_discord_params_domain(self):
        with pytest.raises(InvalidParameter):
            DiscordStateParams(v=-0.1)
        assert DiscordStateParams(v=39.0).v_d == 40.0

    def test_epr_state_blocks(self):
        sigma = make_epr_state(EprStateParams(v_e=40.0))
        np.testing.assert_array_equal(sigma.a, 40.0 * I2)
        assert sigma.c[0, 0] == pytest.approx(math.sqrt(1599.0), rel=1e-15)

    def test_epr_params_domain(self):
        with pytest.raises(InvalidParameter):
            EprStateParams(v_e=0.99)
        # sqrt(V_E^2 - 1) would overflow to inf.
        with pytest.raises(InvalidParameter, match="finite square"):
            EprStateParams(v_e=1e155)
        with pytest.raises(InvalidParameter, match="finite square"):
            evaluate_point("epr", 1e300, 0.5, 1.0, Detection.HOMODYNE, Reconciliation.DIRECT)
        assert EprStateParams(v_e=1.0).r == 0.0
        assert EprStateParams(v_e=math.cosh(2.0)).r == pytest.approx(1.0, rel=1e-12)

    def test_epr_state_unit_determinant(self):
        for v_e in [1.0, 3.0, 40.0, 500.0]:
            sigma = make_epr_state(EprStateParams(v_e=v_e))
            assert np.linalg.det(sigma.matrix) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0, 7.0, 64.0, 1000.0])
    def test_discord_state_physical(self, v):
        sigma = make_discord_state(DiscordStateParams(v=v))
        spec = symplectic_spectrum_oracle(sigma)
        assert spec.nu_minus >= 1.0 - 1e-9
        # The spectrum of this family is exactly degenerate at sqrt(2V + 1).
        assert spec.nu_plus == pytest.approx(math.sqrt(2.0 * v + 1.0), rel=1e-12)


class TestInvariants:
    def test_vacuum(self):
        inv = symplectic_invariants(make_discord_state(DiscordStateParams(v=0.0)))
        assert (inv.i1, inv.i2, inv.i3, inv.i4, inv.delta) == (1.0, 1.0, 0.0, 1.0, 2.0)

    def test_discord_v1(self):
        inv = symplectic_invariants(make_discord_state(DiscordStateParams(v=1.0)))
        assert inv.i1 == pytest.approx(4.0, rel=1e-14)
        assert inv.i2 == pytest.approx(4.0, rel=1e-14)
        assert inv.i3 == pytest.approx(-1.0, rel=1e-14)
        assert inv.i4 == pytest.approx(9.0, rel=1e-12)
        assert inv.delta == pytest.approx(6.0, rel=1e-12)

    def test_i4_matches_assembled_determinant(self):
        for v in [0.5, 3.0, 250.0]:
            sigma = make_discord_state(DiscordStateParams(v=v))
            inv = symplectic_invariants(sigma)
            assert inv.i4 == pytest.approx(float(np.linalg.det(sigma.matrix)), rel=1e-12)

    def test_epr_purity_invariant(self):
        for v_e in [1.0, 2.0, 40.0]:
            inv = symplectic_invariants(make_epr_state(EprStateParams(v_e=v_e)))
            assert inv.i4 == pytest.approx(1.0, abs=1e-6)


class TestConditionalDeterminant:
    def test_discord_v1_branch_a(self):
        inv = symplectic_invariants(make_discord_state(DiscordStateParams(v=1.0)))
        assert e_min(inv) == pytest.approx(25.0 / 9.0, rel=1e-12)

    @pytest.mark.parametrize("v", [0.25, 1.0, 5.0, 60.0, 999.0])
    def test_discord_family_closed_form(self, v):
        # Branch a dominates for this family and reduces to ((3V+2)/(V+2))^2.
        inv = symplectic_invariants(make_discord_state(DiscordStateParams(v=v)))
        expected = ((3.0 * v + 2.0) / (v + 2.0)) ** 2
        assert e_min(inv) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("v_e", [2.0, 40.0, 123.456, 500.0])
    def test_epr_sits_on_branch_boundary(self, v_e):
        # Pure two-mode squeezed states satisfy the branch condition with
        # equality and both branches give exactly 1.
        inv = symplectic_invariants(make_epr_state(EprStateParams(v_e=v_e)))
        assert e_min(inv) == pytest.approx(1.0, rel=1e-6)

    def test_product_state_both_branches_agree(self):
        thermal = SymplecticInvariants(i1=4.0, i2=9.0, i3=0.0, i4=36.0, delta=13.0)
        assert e_min(thermal) == pytest.approx(4.0, rel=1e-12)

    def test_vacuum_is_degenerate_input(self):
        inv = symplectic_invariants(make_discord_state(DiscordStateParams(v=0.0)))
        with pytest.raises(DegenerateInput):
            e_min(inv)

    def test_selector_follows_inequality(self):
        rng = np.random.default_rng(5)
        from oracles import _branch_a, _branch_b

        for _ in range(200):
            v = float(10.0 ** rng.uniform(-1.5, 3.0))
            inv = symplectic_invariants(make_discord_state(DiscordStateParams(v=v)))
            lhs = (inv.i4 - inv.i1 * inv.i2) ** 2
            rhs = inv.i3**2 * (inv.i2 + 1.0) * (inv.i1 + inv.i4)
            got = e_min(inv)
            if lhs <= rhs:
                assert got == pytest.approx(
                    _branch_a(inv.i1, inv.i2, inv.i3, inv.i4), rel=1e-12
                )
            else:
                assert got == pytest.approx(
                    _branch_b(inv.i1, inv.i2, inv.i3, inv.i4), rel=1e-12
                )

    def test_matches_decimal_reference(self):
        for v in [0.3, 1.0, 12.0, 345.0]:
            inv = symplectic_invariants(make_discord_state(DiscordStateParams(v=v)))
            expected = float(hp.e_min(*hp.discord_state_invariants(v)))
            assert e_min(inv) == pytest.approx(expected, rel=1e-10)


class TestGaussianDiscord:
    def test_zero_noise_is_zero(self):
        assert gaussian_discord(make_discord_state(DiscordStateParams(v=0.0))) == 0.0

    def test_product_state_short_circuit(self):
        thermal = make_discord_state(DiscordStateParams(v=0.0))
        assert gaussian_discord(thermal, log_base=math.e) == 0.0

    def test_uncorrelated_thermal_pair_has_no_discord(self):
        from discordqkd import TwoModeCovariance

        thermal = TwoModeCovariance(2.0 * I2, 3.0 * I2, np.zeros((2, 2)))
        assert gaussian_discord(thermal) == 0.0

    def test_epr_entangled_for_any_squeezing(self):
        from discordqkd import ppt_min_eigenvalue

        for v_e in [1.01, 2.0, 40.0]:
            sigma = make_epr_state(EprStateParams(v_e=v_e))
            assert ppt_min_eigenvalue(sigma) < 1.0

    def test_golden_v1_bits(self):
        sigma = make_discord_state(DiscordStateParams(v=1.0))
        assert gaussian_discord(sigma) == pytest.approx(DISCORD_BITS_V1, rel=1e-10)

    @pytest.mark.parametrize("log_base", [1.0, 0.5, -1.0, 0.0, math.inf, math.nan])
    def test_log_base_must_exceed_one(self, log_base):
        sigma = make_discord_state(DiscordStateParams(v=39.0))
        with pytest.raises(InvalidParameter, match="log_base"):
            gaussian_discord(sigma, log_base=log_base)

    def test_golden_v1_nats(self):
        sigma = make_discord_state(DiscordStateParams(v=1.0))
        got = gaussian_discord(sigma, log_base=math.e)
        assert got == pytest.approx(DISCORD_NATS_V1, rel=1e-10)

    @pytest.mark.parametrize("v,expected", sorted(DISCORD_BITS_GRID.items()))
    def test_golden_grid(self, v, expected):
        sigma = make_discord_state(DiscordStateParams(v=v))
        assert gaussian_discord(sigma) == pytest.approx(expected, rel=1e-9)

    def test_nats_is_bits_times_ln2(self):
        sigma = make_discord_state(DiscordStateParams(v=17.0))
        bits = gaussian_discord(sigma)
        nats = gaussian_discord(sigma, log_base=math.e)
        assert nats == pytest.approx(bits * math.log(2.0), rel=1e-12)

    def test_monotone_and_bounded(self):
        values = [
            gaussian_discord(make_discord_state(DiscordStateParams(v=float(v))))
            for v in range(0, 1001, 25)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values)

    def test_epr_discord_exceeds_one(self):
        sigma = make_epr_state(EprStateParams(v_e=40.0))
        bits = gaussian_discord(sigma)
        nats = gaussian_discord(sigma, log_base=math.e)
        assert bits == pytest.approx(EPR_DISCORD_BITS_VE40, abs=1e-8)
        assert nats == pytest.approx(EPR_DISCORD_NATS_VE40, abs=1e-8)
        assert nats > 1.0

    def test_matches_decimal_reference_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            v = float(10.0 ** rng.uniform(-1.0, 3.0))
            got = gaussian_discord(make_discord_state(DiscordStateParams(v=v)))
            expected = float(hp.gaussian_discord(*hp.discord_state_invariants(v)))
            assert got == pytest.approx(expected, rel=1e-8)

    def test_epr_discord_is_mode_entropy_on_dense_grid(self):
        # A pure state's discord is the entropy of one mode, g(V_E).  The
        # spectrum sits on nu = 1, where g has a vertical tangent, so this
        # is the hardest case for rounding.
        for v_e in grid(1.0, 1000.0, 2000):
            row = evaluate_point(
                "epr", v_e, 0.9, 1.0, Detection.HETERODYNE, Reconciliation.REVERSE
            )
            assert row.error == ""
            assert row.discord == pytest.approx(float(hp.entropy_term(v_e)), abs=1e-8)

    @pytest.mark.parametrize("v_d", [1e7, 1e8, 1e10, 1e15])
    def test_large_variance_discord_state_stays_separable(self, v_d):
        # Squared entries reach 1e30 here; the closed forms never form them
        # as differences, so PPT stays at 1 and discord at its reference.
        expected = float(hp.gaussian_discord(*hp.discord_state_invariants(hp.d(v_d) - 1)))
        for det in Detection:
            for rec in Reconciliation:
                row = evaluate_point("discord", v_d, 0.9, 1.0, det, rec)
                assert row.error == ""
                assert row.ppt_nu == pytest.approx(1.0, abs=1e-12)
                assert row.discord == pytest.approx(expected, abs=1e-12)


class TestHeterodyneOptimality:
    """The closed-form E_min against the two-branch minimisation of tests/oracles.py."""

    @staticmethod
    def _discord_via_two_branch(sigma):
        inv = symplectic_invariants(sigma)
        spec = symplectic_spectrum(sigma)
        return (
            entropy_g(math.sqrt(inv.i2))
            - entropy_g(spec.nu_minus)
            - entropy_g(spec.nu_plus)
            + entropy_g(math.sqrt(e_min(inv)))
        )

    def test_closed_form_matches_two_branch_e_min(self):
        # alpha = beta: the discord state itself; alpha != beta: the shared
        # state after the channel, from either source.  At V ~ 1e6 the
        # oracle's 4x4 determinant carries ~5e-11 relative noise into E_min.
        for v in np.logspace(-2.0, 6.0, 41):
            v = float(v)
            discord = make_discord_state(DiscordStateParams(v=v))
            states = [discord]
            for source in (discord, make_epr_state(EprStateParams(v_e=1.0 + v))):
                for t in (0.1, 0.5, 0.9):
                    for w in (1.0, 1.5, 3.0):
                        out = apply_entangling_cloner(source, ChannelParams(t=t, w=w))
                        states.append(out.sigma_ab)
            for sigma in states:
                expected = self._discord_via_two_branch(sigma)
                assert gaussian_discord(sigma) == pytest.approx(expected, rel=1e-10, abs=1e-10)
