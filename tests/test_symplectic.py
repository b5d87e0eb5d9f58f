"""Tests for the covariance-matrix core: spectra, PPT, entropies."""

import math

import numpy as np
import pytest

from discordqkd import (
    DegenerateMatrix,
    DiscordStateParams,
    DomainError,
    EprStateParams,
    InvalidParameter,
    NonPhysicalState,
    SymplecticSpectrum,
    TwoModeCovariance,
    UnsupportedState,
    apply_entangling_cloner,
    entropy_g,
    make_discord_state,
    make_epr_state,
    ppt_min_eigenvalue,
    symplectic_spectrum,
    von_neumann_entropy,
)
from discordqkd import ChannelParams
from discordqkd.channel import correlation_matrix
from discordqkd.symplectic import partial_transpose

import highprec as hp
import oracles
from oracles import I2, Z2 as Z, condition_on_homodyne, symplectic_spectrum_oracle

VACUUM = TwoModeCovariance(I2, I2, np.zeros((2, 2)))

# Frozen from tests/highprec.py (Decimal, 50 digits).
G2_SQRT3 = 1.1454210973347301158
G2_20P5 = 4.7996744791406315100


class TestTwoModeCovariance:
    def test_matrix_assembly(self):
        sigma = TwoModeCovariance(2.0 * I2, 3.0 * I2, 0.5 * Z)
        expected = np.array(
            [
                [2.0, 0.0, 0.5, 0.0],
                [0.0, 2.0, 0.0, -0.5],
                [0.5, 0.0, 3.0, 0.0],
                [0.0, -0.5, 0.0, 3.0],
            ]
        )
        np.testing.assert_array_equal(sigma.matrix, expected)

    def test_from_matrix_round_trip(self):
        sigma = make_discord_state(DiscordStateParams(v=2.5))
        again = TwoModeCovariance.from_matrix(sigma.matrix)
        np.testing.assert_array_equal(again.matrix, sigma.matrix)

    def test_rejects_nonsymmetric_matrix(self):
        m = np.eye(4)
        m[0, 2] = 1.0
        with pytest.raises(InvalidParameter):
            TwoModeCovariance.from_matrix(m)

    def test_rejects_nonsymmetric_block(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidParameter):
            TwoModeCovariance(a, I2, np.zeros((2, 2)))

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(InvalidParameter):
            TwoModeCovariance(np.diag([np.inf, 1.0]), I2, np.zeros((2, 2)))

    def test_blocks_are_read_only(self):
        with pytest.raises(ValueError):
            VACUUM.a[0, 0] = 7.0

    @pytest.mark.parametrize("block,entry", [
        ("a", (1, 1)), ("b", (1, 1)), ("c", (1, 1)),
        ("a", (0, 1)), ("b", (0, 1)), ("c", (0, 1)), ("c", (1, 0)),
    ], ids=["a11", "b11", "c11", "a01", "b01", "c01", "c10"])
    def test_block_form_tolerance(self, block, entry):
        # Each structure condition of (alpha*I, beta*I, gamma*Z) holds to 1e-10
        # of the largest entry, here 40: a 2e-9 shift passes and 8e-9 does not.
        def shifted(delta):
            blocks = {"a": 40.0 * I2, "b": 40.0 * I2, "c": 39.0 * Z}
            blocks[block][entry] += delta
            if block != "c":
                blocks[block][entry[::-1]] = blocks[block][entry]
            return TwoModeCovariance(**blocks)

        assert shifted(2e-9).block_form() == (40.0, 40.0, 39.0)
        with pytest.raises(UnsupportedState):
            shifted(8e-9).block_form()


class TestSpectrum:
    def test_vacuum_is_unit(self):
        spec = symplectic_spectrum(VACUUM)
        assert spec.nu_plus == pytest.approx(1.0, abs=1e-12)
        assert spec.nu_minus == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("v_e", [1.0, 2.0, 40.0, 1000.0])
    def test_epr_state_is_pure(self, v_e):
        # Pure states sit on the degenerate ray nu_plus = nu_minus = 1; the
        # per-quadrature closed form keeps them there to the rounding of
        # V_E - sqrt(V_E^2 - 1), about eps * V_E^2.
        spec = symplectic_spectrum(make_epr_state(EprStateParams(v_e=v_e)))
        assert spec.nu_plus == pytest.approx(1.0, abs=1e-9)
        assert spec.nu_minus == pytest.approx(1.0, abs=1e-9)
        oracle = symplectic_spectrum_oracle(make_epr_state(EprStateParams(v_e=v_e)))
        assert oracle.nu_plus == pytest.approx(1.0, abs=1e-9)
        assert oracle.nu_minus == pytest.approx(1.0, abs=1e-9)

    def test_discord_state_v1_degenerate(self):
        # A = B = 2I, C = Z: Delta = 6, det = 9, both eigenvalues sqrt(3).
        sigma = make_discord_state(DiscordStateParams(v=1.0))
        assert np.linalg.det(sigma.matrix) == pytest.approx(9.0, rel=1e-12)
        spec = symplectic_spectrum(sigma)
        oracle = symplectic_spectrum_oracle(sigma)
        # The discriminant vanishes term by term on this degenerate pair.
        assert spec.nu_plus == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert spec.nu_minus == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert oracle.nu_plus == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert oracle.nu_minus == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_conditioned_attacker_state_golden(self):
        # Discord source V_D = 40 through a balanced lossy channel without
        # excess noise, conditioned on the sender's homodyne outcome: the
        # reflected block becomes diag(TW, e_v) with e_v = 20.5.
        out = apply_entangling_cloner(
            make_discord_state(DiscordStateParams(v=39.0)), ChannelParams(t=0.5, w=1.0)
        )
        cond = condition_on_homodyne(out.sigma_e, out.d_dr, out.v_a)
        spec = symplectic_spectrum(cond)
        oracle = symplectic_spectrum_oracle(cond)
        expected_hi = math.sqrt(30.49375)
        for got in (spec, oracle):
            assert got.nu_plus == pytest.approx(expected_hi, abs=1e-9)
            assert got.nu_minus == pytest.approx(1.0, abs=1e-9)

    def test_oracle_matches_closed_form_randomized(self):
        for source, params in oracles.random_cases(seed=7, n=300):
            if isinstance(source, DiscordStateParams):
                sigma = make_discord_state(source)
            else:
                sigma = make_epr_state(source)
            out = apply_entangling_cloner(sigma, params)
            for cov in (out.sigma_ab, out.sigma_e):
                spec = symplectic_spectrum(cov)
                oracle = symplectic_spectrum_oracle(cov)
                assert spec.nu_plus == pytest.approx(oracle.nu_plus, abs=1e-9, rel=1e-9)
                assert spec.nu_minus == pytest.approx(oracle.nu_minus, abs=1e-9, rel=1e-9)

    def test_invariant_identities_randomized(self):
        for source, params in oracles.random_cases(seed=11, n=200):
            if isinstance(source, DiscordStateParams):
                sigma = make_discord_state(source)
            else:
                sigma = make_epr_state(source)
            out = apply_entangling_cloner(sigma, params)
            cov = out.sigma_ab
            spec = symplectic_spectrum(cov)
            det4 = np.linalg.det(cov.matrix)
            delta = (
                np.linalg.det(cov.a) + np.linalg.det(cov.b) + 2.0 * np.linalg.det(cov.c)
            )
            assert spec.nu_plus**2 * spec.nu_minus**2 == pytest.approx(det4, rel=1e-9)
            assert spec.nu_plus**2 + spec.nu_minus**2 == pytest.approx(delta, rel=1e-9)

    def test_nonphysical_rejected(self):
        squeezed_too_far = TwoModeCovariance(0.5 * I2, 0.5 * I2, np.zeros((2, 2)))
        with pytest.raises(NonPhysicalState):
            symplectic_spectrum(squeezed_too_far)

    def test_negative_determinant_rejected(self):
        indefinite = TwoModeCovariance(I2, np.diag([1.0, -1.0]), np.zeros((2, 2)))
        with pytest.raises(DegenerateMatrix):
            symplectic_spectrum(indefinite)
        with pytest.raises(DegenerateMatrix):
            symplectic_spectrum_oracle(indefinite)

    def test_overflowing_spectrum_is_degenerate(self):
        # At V = 1e300 the squared eigenvalues overflow: the state cannot be
        # evaluated, which is not a parameter error.
        with pytest.raises(DegenerateMatrix, match="overflows"):
            symplectic_spectrum(make_discord_state(DiscordStateParams(v=1e300)))

    @pytest.mark.parametrize("function", [symplectic_spectrum, ppt_min_eigenvalue])
    def test_overflowing_square_is_degenerate(self, function):
        # Blocks 1e150 apart: float ** raises OverflowError where * would give inf.
        with pytest.raises(DegenerateMatrix, match="overflows the float range"):
            function(TwoModeCovariance(1e150 * I2, I2, 0.0 * I2))

    def test_spectrum_ordering_validated(self):
        with pytest.raises(InvalidParameter):
            SymplecticSpectrum(nu_plus=1.0, nu_minus=2.0)


class TestPartialTranspose:
    def test_vacuum_unchanged(self):
        np.testing.assert_array_equal(partial_transpose(VACUUM).matrix, VACUUM.matrix)

    def test_block_form_mapping(self):
        sigma = TwoModeCovariance(3.0 * I2, 4.0 * I2, 2.0 * Z)
        flipped = partial_transpose(sigma)
        np.testing.assert_array_equal(flipped.a, 3.0 * I2)
        np.testing.assert_array_equal(flipped.b, 4.0 * I2)
        np.testing.assert_array_equal(flipped.c, 2.0 * I2)

    def test_involution_exact(self):
        sigma = make_discord_state(DiscordStateParams(v=3.7))
        twice = partial_transpose(partial_transpose(sigma))
        np.testing.assert_array_equal(twice.matrix, sigma.matrix)


def test_partial_transpose_and_correlation_matrix_values():
    sigma = make_discord_state(DiscordStateParams(v=39.0))
    np.testing.assert_array_equal(partial_transpose(sigma).c, 39.0 * np.eye(2))
    np.testing.assert_array_equal(correlation_matrix(1.0, 2.0), [[1, 0], [0, 1], [2, 0], [0, -2]])


class TestPpt:
    def test_vacuum(self):
        assert ppt_min_eigenvalue(VACUUM) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("v", [0.0, 1.0, 4.0, 9.0, 39.0, 99.0, 499.0, 999.0])
    def test_discord_state_flatline(self, v):
        sigma = make_discord_state(DiscordStateParams(v=v))
        assert ppt_min_eigenvalue(sigma) == pytest.approx(1.0, abs=1e-9)

    def test_epr_state_entangled(self):
        sigma = make_epr_state(EprStateParams(v_e=40.0))
        expected = 40.0 - math.sqrt(1599.0)
        assert ppt_min_eigenvalue(sigma) == pytest.approx(expected, rel=1e-9)
        assert float(hp.ppt_nu_minus(*hp.epr_state_invariants(40))) == pytest.approx(
            expected, rel=1e-9
        )

    def test_matches_oracle_of_transposed_matrix(self):
        for source, params in oracles.random_cases(seed=13, n=150):
            if isinstance(source, DiscordStateParams):
                sigma = make_discord_state(source)
            else:
                sigma = make_epr_state(source)
            out = apply_entangling_cloner(sigma, params)
            for cov in (out.sigma_ab, out.sigma_e):
                direct = ppt_min_eigenvalue(cov)
                via_oracle = symplectic_spectrum_oracle(partial_transpose(cov)).nu_minus
                assert direct == pytest.approx(via_oracle, abs=1e-9, rel=1e-9)


class TestEntropy:
    def test_unit_eigenvalue_is_zero(self):
        assert entropy_g(1.0) == 0.0

    def test_exact_dyadic_point(self):
        # (3+1)/2 and (3-1)/2 are powers of two, so g(3) = 2 exactly.
        assert entropy_g(3.0) == pytest.approx(2.0, abs=1e-15)

    def test_golden_sqrt3(self):
        assert entropy_g(math.sqrt(3.0)) == pytest.approx(G2_SQRT3, rel=1e-12)

    def test_clamps_just_below_one(self):
        assert entropy_g(1.0 - 1e-10) == 0.0
        assert entropy_g(1.0 - 1e-7) == 0.0

    def test_rejects_below_threshold(self):
        with pytest.raises(DomainError):
            entropy_g(1.0 - 1e-5)
        with pytest.raises(DomainError):
            entropy_g(float("nan"))

    def test_monotone(self):
        grid = np.linspace(1.0, 200.0, 500)
        values = [entropy_g(nu) for nu in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_decimal_reference(self):
        for nu in [1.5, 2.0, 7.25, 20.5, 333.0]:
            assert entropy_g(nu) == pytest.approx(float(hp.entropy_term(nu)), rel=1e-12)

    def test_von_neumann_pure_and_thermal(self):
        assert von_neumann_entropy(SymplecticSpectrum(1.0, 1.0)) == 0.0
        assert von_neumann_entropy(SymplecticSpectrum(3.0, 1.0)) == pytest.approx(2.0, abs=1e-15)

    def test_von_neumann_attacker_state_golden(self):
        out = apply_entangling_cloner(
            make_discord_state(DiscordStateParams(v=39.0)), ChannelParams(t=0.5, w=1.0)
        )
        spec = symplectic_spectrum(out.sigma_e)
        assert von_neumann_entropy(spec) == pytest.approx(G2_20P5, rel=1e-12)


class TestOracleChecks:
    def test_pairing_failure_unreachable_for_symmetric_input(self):
        # Any symmetric positive-definite matrix yields exact +- pairs; run a
        # generic skew case to make sure the checks stay quiet.
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4))
        sigma = TwoModeCovariance.from_matrix(m @ m.T + 4.0 * np.eye(4))
        spec = symplectic_spectrum_oracle(sigma)
        assert spec.nu_plus >= spec.nu_minus > 0.0

    def test_closed_form_rejects_xy_correlated_state(self):
        # The same generic matrix correlates X with Y quadratures, which the
        # per-quadrature closed form does not cover.
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4))
        sigma = TwoModeCovariance.from_matrix(m @ m.T + 4.0 * np.eye(4))
        with pytest.raises(UnsupportedState):
            symplectic_spectrum(sigma)
        with pytest.raises(UnsupportedState):
            ppt_min_eigenvalue(sigma)
