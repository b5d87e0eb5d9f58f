"""Acceptance suite: one test per numbered criterion, each printing PASS/FAIL.

Criteria 3 and 4 check the paper's two claims where the documented model
makes them.  A3 (dominance): at equal variance the two-mode squeezed state
yields a strictly higher key rate than the correlated-displacement state,
except for heterodyne detection with direct reconciliation below the crossing
T* of criterion A8, where the order is reversed and A3 asserts the reverse
strictly.  A3 finds T* with the same bisection as A8, so the two criteria
cannot contradict each other.  A4 (monotonicity): more modulation noise, hence
more discord, never lowers the key rate on any cell where the lower-noise
state distils key (K > 0); a negative rate is not a key rate, so cells below
the distillability threshold are evaluated but not compared.  The
heterodyne-DR rates on the cells whose reading this depends on are frozen
from the 50-digit reference in test_keyrate.py.
"""

import math

import numpy as np
import pytest

from discordqkd import (
    ChannelParams,
    Detection,
    DiscordStateParams,
    EprStateParams,
    ProtocolConfig,
    Reconciliation,
    TwoModeCovariance,
    apply_entangling_cloner,
    evaluate_point,
    gaussian_discord,
    make_discord_state,
    make_epr_state,
    ppt_min_eigenvalue,
    rows_to_csv,
    run_sweep,
    secret_key_rate,
    symplectic_spectrum,
    threshold_on_discord,
    threshold_on_t,
    von_neumann_entropy,
)
from discordqkd.symplectic import I2
from discordqkd.sweeps import SweepSpec, bisect_sign_change

import oracles
from oracles import condition_on_heterodyne, condition_on_homodyne, symplectic_spectrum_oracle

ALL_PROTOCOLS = [(det, rec) for det in Detection for rec in Reconciliation]


def _report(criterion: str, label: str, failures) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion} ({label}): {status}")
    assert not failures, f"{criterion} violations: {failures}"


def _key(state: str, variance: float, t: float, w: float, det, rec) -> float:
    return evaluate_point(state, variance, t, w, det, rec).key_rate


def test_a1_ppt_flatline():
    failures = []
    for v_d in (1.0, 2.0, 5.0, 10.0, 40.0, 100.0, 500.0, 1000.0):
        nu = ppt_min_eigenvalue(make_discord_state(DiscordStateParams(v=v_d - 1.0)))
        if abs(nu - 1.0) > 1e-9:
            failures.append((v_d, nu))
    _report("A1", "PPT flatline", failures)


def test_a2_discord_curve():
    failures = []
    grid = [1.0 + (999.0 / 200.0) * i for i in range(201)]
    values = [
        gaussian_discord(make_discord_state(DiscordStateParams(v=v_d - 1.0)))
        for v_d in grid
    ]
    for (v_d, a), b in zip(zip(grid, values), values[1:]):
        if b < a - 1e-12:
            failures.append(("not monotone at", v_d))
    if any(v >= 1.0 for v in values):
        failures.append(("discord reached 1", max(values)))
    zero = gaussian_discord(make_discord_state(DiscordStateParams(v=0.0)))
    if zero != 0.0:
        failures.append(("nonzero at V=0", zero))
    # Resolved convention for the quoted smallest value: natural-log discord
    # at noise V = 1 (the bit value there is 0.168).  See README.
    quoted = gaussian_discord(
        make_discord_state(DiscordStateParams(v=1.0)), log_base=math.e
    )
    if abs(quoted - 0.12) > 0.01:
        failures.append(("natural-log discord at V=1", quoted))
    print(f"  resolved convention: nats at V=1 -> {quoted:.4f} (quoted 0.12)")
    _report("A2", "discord curve", failures)


def _het_dr_difference(t: float) -> float:
    """K_epr - K_disc at V = 40, W = 1, heterodyne detection, direct reconciliation."""
    k_epr = _key("epr", 40.0, t, 1.0, Detection.HETERODYNE, Reconciliation.DIRECT)
    k_disc = _key("discord", 40.0, t, 1.0, Detection.HETERODYNE, Reconciliation.DIRECT)
    return k_epr - k_disc


def _het_dr_crossing() -> float:
    return bisect_sign_change(_het_dr_difference, 0.5, 0.99, xtol=1e-4)


def test_a3_squeezed_coherent_dominance():
    # Below the heterodyne-DR crossing the discord state's trusted noise on
    # the reference side lowers the attacker's information more than the
    # receiver's (Garcia-Patron & Cerf, PRL 102, 130501 (2009)), so there the
    # discord state must win strictly; everywhere else the EPR state must.
    t_star = _het_dr_crossing()
    failures = []
    for det, rec in ALL_PROTOCOLS:
        for t in (0.6, 0.7, 0.8, 0.9, 0.99):
            k_epr = _key("epr", 40.0, t, 1.0, det, rec)
            k_disc = _key("discord", 40.0, t, 1.0, det, rec)
            reversed_order = (
                det is Detection.HETERODYNE
                and rec is Reconciliation.DIRECT
                and t < t_star
            )
            holds = k_disc > k_epr if reversed_order else k_epr > k_disc
            if not holds:
                expected = "disc > epr" if reversed_order else "epr > disc"
                failures.append(
                    (det.value, rec.value, t, expected, round(k_epr, 6), round(k_disc, 6))
                )
    print(f"  heterodyne DR order reversed below T* = {t_star:.4f}")
    _report("A3", "squeezed/coherent dominance", failures)


def test_a4_discord_noise_monotonicity():
    failures = []
    for det, rec in ALL_PROTOCOLS:
        distilling = 0
        for t in (0.6, 0.7, 0.8, 0.9):
            k_hi = _key("discord", 1000.0, t, 1.0, det, rec)
            k_lo = _key("discord", 40.0, t, 1.0, det, rec)
            if not k_lo > 0.0:
                continue
            distilling += 1
            if not k_hi >= k_lo:
                failures.append(
                    (det.value, rec.value, t, round(k_hi, 6), round(k_lo, 6))
                )
        if not distilling:
            failures.append((det.value, rec.value, "no distillable cell"))
    _report("A4", "discord-noise monotonicity", failures)


def test_a5_direct_reconciliation_loss_limit():
    failures = []
    t_grid = [round(0.01 * i, 2) for i in range(1, 50)]
    sources = [("discord", 40.0), ("discord", 1000.0), ("epr", 40.0)]
    for det in Detection:
        for state, variance in sources:
            for t in t_grid:
                k = _key(state, variance, t, 1.0, det, Reconciliation.DIRECT)
                if k > 1e-9:
                    failures.append((det.value, state, variance, t, k))
    _report("A5", "3 dB loss limit", failures)


def test_a6_reverse_homodyne_below_loss_limit():
    failures = []
    k = _key("discord", 1000.0, 0.3, 1.0, Detection.HOMODYNE, Reconciliation.REVERSE)
    if not k > 0.0:
        failures.append(("V_D=1000", k))
    _report("A6", "reverse homodyne at T=0.3", failures)


def test_a7_heterodyne_reverse_cutoff():
    t_star = threshold_on_t(
        "discord", 40.0, 1.0, Detection.HETERODYNE, Reconciliation.REVERSE
    )
    failures = [] if abs(t_star - 0.55) <= 0.02 else [("T*", t_star)]
    print(f"  heterodyne reverse cutoff T* = {t_star:.4f}")
    _report("A7", "heterodyne RR cutoff", failures)


def test_a8_heterodyne_direct_crossing():
    t_star = _het_dr_crossing()
    failures = [] if abs(t_star - 0.78) <= 0.02 else [("T*", t_star)]
    print(f"  heterodyne DR crossing T* = {t_star:.4f}")
    _report("A8", "heterodyne DR crossing", failures)


def test_a9_discord_threshold():
    d_star = threshold_on_discord(0.75, 1.0, Detection.HETERODYNE, Reconciliation.DIRECT)
    failures = [] if abs(d_star - 0.22) <= 0.02 else [("D*", d_star)]
    print(f"  discord at sign change = {d_star:.4f} (bits)")
    _report("A9", "discord threshold", failures)


def test_a10_oracle_equivalence():
    spectrum_failures = 0
    construction_failures = 0
    matrices = 0
    cases = oracles.random_cases(seed=101, n=1700)
    for source, params in cases:
        if isinstance(source, DiscordStateParams):
            sigma = make_discord_state(source)
        else:
            sigma = make_epr_state(source)
        out = apply_entangling_cloner(sigma, params)

        ab_brute, _, _, _ = oracles.beam_splitter_outputs(
            sigma.matrix, params.t, params.w
        )
        scale = max(1.0, float(np.abs(ab_brute).max()))
        if np.abs(out.sigma_ab.matrix - ab_brute).max() > 1e-12 * scale:
            construction_failures += 1

        conditioned = [
            condition_on_homodyne(out.sigma_e, out.d_dr, out.v_a),
            condition_on_homodyne(out.sigma_e, out.d_rr, out.v_b),
            condition_on_heterodyne(out.sigma_e, out.d_dr, out.v_a * I2),
            condition_on_heterodyne(out.sigma_e, out.d_rr, out.v_b * I2),
        ]
        for cov in [out.sigma_ab, out.sigma_e] + conditioned:
            matrices += 1
            closed = symplectic_spectrum(cov)
            oracle = symplectic_spectrum_oracle(cov)
            tol = 1e-9 * max(1.0, oracle.nu_plus)
            if (
                abs(closed.nu_plus - oracle.nu_plus) > tol
                or abs(closed.nu_minus - oracle.nu_minus) > tol
            ):
                spectrum_failures += 1
    failures = []
    if matrices < 10_000:
        failures.append(("insufficient sample", matrices))
    if spectrum_failures:
        failures.append(("spectrum mismatches", spectrum_failures))
    if construction_failures:
        failures.append(("beam-splitter mismatches", construction_failures))
    print(f"  {matrices} covariances checked")
    _report("A10", "oracle equivalence", failures)


def test_a11_information_sanity(tmp_path):
    failures = []
    # Attacker learns nothing through a transparent channel.
    for det, rec in ALL_PROTOCOLS:
        for source in (DiscordStateParams(v=39.0), EprStateParams(v_e=40.0)):
            report = secret_key_rate(
                ProtocolConfig(det, rec, source, ChannelParams(t=1.0, w=1.0))
            )
            if abs(report.i_eve) > 1e-9:
                failures.append(("i_eve at T=1", det.value, rec.value, report.i_eve))

    # Conditioning cannot raise the attacker's entropy: 1000-point random grid.
    for source, params in oracles.random_cases(seed=211, n=250):
        if isinstance(source, DiscordStateParams):
            sigma = make_discord_state(source)
        else:
            sigma = make_epr_state(source)
        out = apply_entangling_cloner(sigma, params)
        s_e = von_neumann_entropy(symplectic_spectrum(out.sigma_e))
        conditioned = [
            condition_on_homodyne(out.sigma_e, out.d_dr, out.v_a),
            condition_on_homodyne(out.sigma_e, out.d_rr, out.v_b),
            condition_on_heterodyne(out.sigma_e, out.d_dr, out.v_a * I2),
            condition_on_heterodyne(out.sigma_e, out.d_rr, out.v_b * I2),
        ]
        for cov in conditioned:
            s_c = von_neumann_entropy(symplectic_spectrum(cov))
            if s_c > s_e + 1e-9:
                failures.append(("entropy grew", params, s_c - s_e))

    # Every emitted row satisfies key_rate = i_ab - i_eve exactly after parsing.
    spec = SweepSpec(
        parameter="t", lo=0.02, hi=1.0, steps=50, state="discord",
        variance=40.0, t=None, w=1.0,
        detections=list(Detection), reconciliations=list(Reconciliation),
    )
    rows = run_sweep(spec)
    path = tmp_path / "rows.csv"
    path.write_text(rows_to_csv(rows))
    for line in path.read_text().strip().split("\n")[1:]:
        fields = line.split(",")
        i_ab, i_eve, key = float(fields[9]), float(fields[10]), float(fields[11])
        if key != i_ab - i_eve:
            failures.append(("row identity", line))
    _report("A11", "information sanity", failures)
