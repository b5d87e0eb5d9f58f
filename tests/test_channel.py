"""Tests for the entangling-cloner channel model and measurement conditioning."""

import math

import numpy as np
import pytest

from discordqkd import (
    ChannelParams,
    DiscordStateParams,
    EprStateParams,
    InvalidParameter,
    NonPhysicalState,
    TwoModeCovariance,
    UnsupportedState,
    apply_entangling_cloner,
    correlation_matrix,
    excess_noise_delta,
    excess_noise_epsilon,
    heterodyne_measured_variance,
    make_discord_state,
    make_epr_state,
    symplectic_spectrum,
    von_neumann_entropy,
)
from discordqkd.symplectic import I2, Z

import highprec as hp
import oracles
from oracles import condition_on_heterodyne, condition_on_homodyne, symplectic_spectrum_oracle

# Frozen from tests/highprec.py (Decimal, 50 digits): discord source with
# V_D = 40 through T = 0.5, W = 1.
HOM_RR_COND_XX = 1.9512195121951219512
HET_RR_COND_XX = 2.8139534883720930233


def _source(params):
    if isinstance(params, DiscordStateParams):
        return make_discord_state(params)
    return make_epr_state(params)


class TestExcessNoise:
    def test_delta(self):
        assert excess_noise_delta(ChannelParams(t=0.5, w=1.0)) == 0.0
        assert excess_noise_delta(ChannelParams(t=0.5, w=1.5)) == 0.5
        assert excess_noise_delta(ChannelParams(t=0.5, w=2.0)) == 1.0

    def test_epsilon(self):
        assert excess_noise_epsilon(ChannelParams(t=0.7, w=1.0)) == 0.0
        assert excess_noise_epsilon(ChannelParams(t=0.5, w=2.0)) == pytest.approx(1.0)
        assert excess_noise_epsilon(ChannelParams(t=0.8, w=1.2)) == pytest.approx(0.05)

    def test_epsilon_diverges_at_zero_transmission(self):
        with pytest.raises(ZeroDivisionError):
            excess_noise_epsilon(ChannelParams(t=0.0, w=1.5))


class TestParams:
    def test_domain_checks(self):
        with pytest.raises(InvalidParameter):
            ChannelParams(t=-0.01, w=1.0)
        with pytest.raises(InvalidParameter):
            ChannelParams(t=1.01, w=1.0)
        with pytest.raises(InvalidParameter):
            ChannelParams(t=0.5, w=0.99)

    def test_endpoints_allowed(self):
        ChannelParams(t=0.0, w=1.0)
        ChannelParams(t=1.0, w=1.0)


class TestCloner:
    def test_transparent_channel(self):
        sigma = make_discord_state(DiscordStateParams(v=7.0))
        out = apply_entangling_cloner(sigma, ChannelParams(t=1.0, w=1.0))
        np.testing.assert_allclose(out.sigma_ab.matrix, sigma.matrix, atol=1e-14)
        assert out.zeta == 0.0
        assert out.zeta_prime == 0.0
        assert out.eta_prime == 0.0

    def test_fully_blocked_channel(self):
        out = apply_entangling_cloner(
            make_discord_state(DiscordStateParams(v=7.0)), ChannelParams(t=0.0, w=1.3)
        )
        assert out.v_b == pytest.approx(1.3, rel=1e-15)

    def test_worked_example_scalars(self):
        out = apply_entangling_cloner(
            make_discord_state(DiscordStateParams(v=39.0)), ChannelParams(t=0.5, w=1.0)
        )
        assert out.v_a == 40.0
        assert out.v_b == pytest.approx(20.5, rel=1e-15)
        assert out.gamma_prime == pytest.approx(math.sqrt(0.5) * 39.0, rel=1e-15)
        assert out.e_v == pytest.approx(20.5, rel=1e-15)
        assert out.phi == 0.0
        assert out.zeta == pytest.approx(math.sqrt(0.5) * 39.0, rel=1e-15)
        assert out.eta == 0.0
        assert out.zeta_prime == pytest.approx(math.sqrt(0.25) * (1.0 - 40.0), rel=1e-15)
        assert out.eta_prime == 0.0

    def test_scalars_match_decimal_reference(self):
        sc = hp.ClonerScalars(*hp.discord_source(40), t="0.77", w="1.9")
        out = apply_entangling_cloner(
            make_discord_state(DiscordStateParams(v=39.0)), ChannelParams(t=0.77, w=1.9)
        )
        for name in ("v_a", "v_b", "gamma_prime", "e_v", "phi", "zeta", "zeta_prime", "eta_prime"):
            assert getattr(out, name) == pytest.approx(float(getattr(sc, name)), rel=1e-12)

    def test_rejects_non_block_form(self):
        skewed = TwoModeCovariance(2.0 * I2, 2.0 * I2, 0.5 * I2)
        with pytest.raises(UnsupportedState):
            apply_entangling_cloner(skewed, ChannelParams(t=0.5, w=1.0))

    def test_no_excess_noise_means_diagonal_attacker_state(self):
        out = apply_entangling_cloner(
            make_epr_state(EprStateParams(v_e=12.0)), ChannelParams(t=0.37, w=1.0)
        )
        assert out.phi == 0.0
        assert out.eta_prime == 0.0
        off_diag = out.sigma_e.matrix - np.diag(np.diag(out.sigma_e.matrix))
        np.testing.assert_array_equal(off_diag, np.zeros((4, 4)))

    def test_outputs_physical_randomized(self):
        for source, params in oracles.random_cases(seed=23, n=200):
            out = apply_entangling_cloner(_source(source), params)
            for cov in (out.sigma_ab, out.sigma_e):
                assert symplectic_spectrum_oracle(cov).nu_minus >= 1.0 - 1e-9


class TestBruteForceOracle:
    def test_sigma_ab_matches_eight_mode_construction(self):
        for source, params in oracles.random_cases(seed=29, n=300):
            sigma = _source(source)
            out = apply_entangling_cloner(sigma, params)
            ab, _, _, _ = oracles.beam_splitter_outputs(sigma.matrix, params.t, params.w)
            np.testing.assert_allclose(
                out.sigma_ab.matrix, ab, rtol=1e-12, atol=1e-12
            )

    def test_sigma_e_matches_after_reflected_mode_flip(self):
        for source, params in oracles.random_cases(seed=31, n=100):
            sigma = _source(source)
            out = apply_entangling_cloner(sigma, params)
            _, e, _, _ = oracles.beam_splitter_outputs(sigma.matrix, params.t, params.w)
            flipped = oracles.FLIP_E_PRIME @ e @ oracles.FLIP_E_PRIME
            scale = max(1.0, np.abs(flipped).max())
            np.testing.assert_allclose(
                out.sigma_e.matrix, flipped, rtol=1e-12, atol=1e-12 * scale
            )

    def test_correlation_magnitudes_match(self):
        for source, params in oracles.random_cases(seed=37, n=100):
            sigma = _source(source)
            out = apply_entangling_cloner(sigma, params)
            _, _, d_dr, d_rr = oracles.beam_splitter_outputs(
                sigma.matrix, params.t, params.w
            )
            scale = max(1.0, np.abs(d_dr).max(), np.abs(d_rr).max())
            np.testing.assert_allclose(
                np.abs(out.d_dr), np.abs(d_dr), atol=1e-12 * scale
            )
            np.testing.assert_allclose(
                np.abs(out.d_rr), np.abs(d_rr), atol=1e-12 * scale
            )

    def test_conditioned_entropy_agrees_between_bundles(self):
        # The stored (sigma_E, D) bundle and the brute-force one differ by a
        # sign convention on the reflected mode; the conditioned entropy is
        # invariant under it.
        for source, params in oracles.random_cases(seed=41, n=60):
            sigma = _source(source)
            out = apply_entangling_cloner(sigma, params)
            _, e, d_dr, d_rr = oracles.beam_splitter_outputs(
                sigma.matrix, params.t, params.w
            )
            sigma_e_oracle = TwoModeCovariance.from_matrix(e)
            v_a = float(sigma.a[0, 0])
            v_b = out.v_b
            for d_lib, d_orc, v in ((out.d_dr, d_dr, v_a), (out.d_rr, d_rr, v_b)):
                lib = von_neumann_entropy(
                    symplectic_spectrum(condition_on_homodyne(out.sigma_e, d_lib, v))
                )
                orc = von_neumann_entropy(
                    symplectic_spectrum(condition_on_homodyne(sigma_e_oracle, d_orc, v))
                )
                assert lib == pytest.approx(orc, abs=1e-10, rel=1e-10)


class TestHomodyneConditioning:
    def test_zero_correlation_is_identity_update(self):
        out = apply_entangling_cloner(
            make_discord_state(DiscordStateParams(v=5.0)), ChannelParams(t=0.5, w=1.2)
        )
        cond = condition_on_homodyne(out.sigma_e, correlation_matrix(0.0, 0.0), 17.0)
        np.testing.assert_array_equal(cond.matrix, out.sigma_e.matrix)

    def test_direct_case_touches_only_xx_entry(self):
        out = apply_entangling_cloner(
            make_discord_state(DiscordStateParams(v=39.0)), ChannelParams(t=0.5, w=1.0)
        )
        cond = condition_on_homodyne(out.sigma_e, out.d_dr, out.v_a)
        diff = out.sigma_e.matrix - cond.matrix
        expected = np.zeros((4, 4))
        expected[0, 0] = out.zeta**2 / out.v_a
        np.testing.assert_allclose(diff, expected, atol=1e-12)

    def test_reverse_case_golden_matrix(self):
        out = apply_entangling_cloner(
            make_discord_state(DiscordStateParams(v=39.0)), ChannelParams(t=0.5, w=1.0)
        )
        cond = condition_on_homodyne(out.sigma_e, out.d_rr, out.v_b)
        expected = np.diag([HOM_RR_COND_XX, 20.5, 1.0, 1.0])
        np.testing.assert_allclose(cond.matrix, expected, rtol=1e-12, atol=1e-12)
        # Independent recomputation of the same update, straight from arrays.
        d = np.vstack((out.zeta_prime * I2, out.eta_prime * Z))
        update = d @ np.diag([1.0, 0.0]) @ d.T / out.v_b
        np.testing.assert_allclose(
            cond.matrix, out.sigma_e.matrix - update, atol=1e-13
        )

    def test_rejects_nonpositive_measurement_variance(self):
        out = apply_entangling_cloner(
            make_discord_state(DiscordStateParams(v=5.0)), ChannelParams(t=0.5, w=1.0)
        )
        with pytest.raises(InvalidParameter):
            condition_on_homodyne(out.sigma_e, out.d_dr, 0.0)

    def test_inconsistent_correlations_rejected(self):
        # A correlation far too strong for the attacker state is unphysical.
        vacuum_like = TwoModeCovariance(I2, I2, np.zeros((2, 2)))
        with pytest.raises(NonPhysicalState):
            condition_on_homodyne(vacuum_like, correlation_matrix(1.0, 0.0), 1.0)


class TestHeterodyneConditioning:
    def test_zero_correlation_is_identity_update(self):
        out = apply_entangling_cloner(
            make_discord_state(DiscordStateParams(v=5.0)), ChannelParams(t=0.4, w=1.5)
        )
        cond = condition_on_heterodyne(out.sigma_e, correlation_matrix(0.0, 0.0), 3.0 * I2)
        np.testing.assert_array_equal(cond.matrix, out.sigma_e.matrix)

    def test_vacuum_level_party_normalization(self):
        # det(I) + tr(I) + 1 = 4, so the update halves D D^T.
        sigma_e = TwoModeCovariance(3.0 * I2, 2.0 * I2, np.zeros((2, 2)))
        d = correlation_matrix(0.8, 0.3)
        cond = condition_on_heterodyne(sigma_e, d, I2)
        np.testing.assert_allclose(
            cond.matrix, sigma_e.matrix - (d @ d.T) / 2.0, atol=1e-14
        )

    def test_reverse_case_golden_matrix(self):
        out = apply_entangling_cloner(
            make_discord_state(DiscordStateParams(v=39.0)), ChannelParams(t=0.5, w=1.0)
        )
        cond = condition_on_heterodyne(out.sigma_e, out.d_rr, out.v_b * I2)
        expected = np.diag([HET_RR_COND_XX, HET_RR_COND_XX, 1.0, 1.0])
        np.testing.assert_allclose(cond.matrix, expected, rtol=1e-12, atol=1e-12)

    def test_rejects_anisotropic_measured_covariance(self):
        out = apply_entangling_cloner(
            make_discord_state(DiscordStateParams(v=5.0)), ChannelParams(t=0.4, w=1.5)
        )
        with pytest.raises(InvalidParameter):
            condition_on_heterodyne(out.sigma_e, out.d_rr, np.diag([2.0, 3.0]))

    def test_measured_variance_map(self):
        assert heterodyne_measured_variance(1.0) == 1.0
        assert heterodyne_measured_variance(40.0) == 20.5
        assert heterodyne_measured_variance(3.0) == 2.0


class TestConditioningEntropy:
    def test_never_increases_entropy_randomized(self):
        for source, params in oracles.random_cases(seed=43, n=120):
            out = apply_entangling_cloner(_source(source), params)
            s_e = von_neumann_entropy(symplectic_spectrum(out.sigma_e))
            for d, v in ((out.d_dr, out.v_a), (out.d_rr, out.v_b)):
                hom = condition_on_homodyne(out.sigma_e, d, v)
                het = condition_on_heterodyne(out.sigma_e, d, v * I2)
                for cond in (hom, het):
                    s_c = von_neumann_entropy(symplectic_spectrum(cond))
                    assert s_c <= s_e + 1e-9
