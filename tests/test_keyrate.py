"""Tests for mutual information, attacker information, and key rates."""

import dataclasses
import decimal
import itertools
import math

import pytest

from discordqkd import (
    ChannelParams,
    Detection,
    DiscordStateParams,
    EprStateParams,
    GaussianStateError,
    InvalidParameter,
    ProtocolConfig,
    Reconciliation,
    apply_entangling_cloner,
    evaluate_point,
    make_discord_state,
    make_epr_state,
    secret_key_rate,
)

from discordqkd.keyrate import key_rate

import highprec as hp
import oracles

# Frozen from tests/highprec.py (Decimal, 50 digits).
S_E_40_05_1 = 4.7996744791406315100
I_EVE_HOM_DR = 1.8997226073013345932
I_EVE_HOM_RR = 1.7020722490394594323
I_EVE_HET_DR = 3.4614732499221511706
I_EVE_HET_RR = 2.8959723072600509022
I_AB_HOM_T09 = 2.1325570121301307802
I_AB_HET_T09 = 3.3210747377353415414
I_EVE_HET_RR_T09 = 2.2243399929910377348
KEY_HET_RR_T09 = 1.0967347447443038066
# Heterodyne direct-reconciliation key rates at W = 1 on both sides of the
# EPR/discord crossing and of the discord state's distillability threshold.
KEY_HET_DR_EPR40_T06 = -0.82817625011051293484
KEY_HET_DR_DISC40_T06 = -0.30701064212675271396
KEY_HET_DR_DISC1000_T06 = -0.32659812239904355788
KEY_HET_DR_EPR40_T07 = -0.23512930429444366734
KEY_HET_DR_DISC40_T07 = 0.010401368199743368328
KEY_HET_DR_DISC1000_T07 = 0.026553240574785288875


def _config(det, rec, source, t, w):
    return ProtocolConfig(
        detection=det, reconciliation=rec, source=source, channel=ChannelParams(t=t, w=w)
    )


def _i_ab(det, source, t, w):
    """I(A:B) of the detection; it does not depend on the reconciliation."""
    return secret_key_rate(_config(det, Reconciliation.DIRECT, source, t, w)).i_ab


def _i_eve(det, rec, source, t, w):
    return secret_key_rate(_config(det, rec, source, t, w)).i_eve


def _output(source, t, w):
    if isinstance(source, DiscordStateParams):
        sigma = make_discord_state(source)
    else:
        sigma = make_epr_state(source)
    return apply_entangling_cloner(sigma, ChannelParams(t=t, w=w))


class TestConditionalVariance:
    def test_epr_transparent_channel(self):
        # V(B|A) = V_E - (V_E^2 - 1)/V_E = 1/V_E for the pure source.
        out = _output(EprStateParams(v_e=40.0), 1.0, 1.0)
        got = out.v_b - out.gamma_prime**2 / out.v_a
        assert got == pytest.approx(1.0 / 40.0, rel=1e-9)


class TestMutualInformation:
    def test_uncorrelated_source_gives_zero(self):
        source = DiscordStateParams(v=0.0)
        assert _i_ab(Detection.HOMODYNE, source, 0.7, 1.0) == 0.0
        assert _i_ab(Detection.HETERODYNE, source, 0.7, 1.0) == 0.0

    def test_epr_transparent_homodyne(self):
        got = _i_ab(Detection.HOMODYNE, EprStateParams(v_e=40.0), 1.0, 1.0)
        assert got == pytest.approx(math.log2(40.0), rel=1e-9)

    def test_homodyne_golden(self):
        got = _i_ab(Detection.HOMODYNE, DiscordStateParams(v=39.0), 0.9, 1.0)
        assert got == pytest.approx(I_AB_HOM_T09, rel=1e-12)

    def test_heterodyne_golden(self):
        got = _i_ab(Detection.HETERODYNE, DiscordStateParams(v=39.0), 0.9, 1.0)
        assert got == pytest.approx(I_AB_HET_T09, rel=1e-12)

    def test_epr_heterodyne_no_excess_noise(self):
        # Conditioned on the sender's dual-quadrature data, the receiver's
        # measured variance drops to the vacuum level, so I = log2((V_B+1)/2).
        source = EprStateParams(v_e=40.0)
        out = _output(source, 0.78, 1.0)
        expected = math.log2((out.v_b + 1.0) / 2.0)
        assert _i_ab(Detection.HETERODYNE, source, 0.78, 1.0) == pytest.approx(expected, rel=1e-9)


class TestEveInformation:
    @pytest.mark.parametrize("det", list(Detection))
    @pytest.mark.parametrize("rec", list(Reconciliation))
    def test_transparent_channel_leaks_nothing(self, det, rec):
        assert _i_eve(det, rec, DiscordStateParams(v=39.0), 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("det", list(Detection))
    @pytest.mark.parametrize("rec", list(Reconciliation))
    def test_decoupled_attacker_ancilla_leaks_nothing(self, det, rec):
        # At full transmission the attacker never mixes into the channel even
        # when her ancilla is noisy.
        assert _i_eve(det, rec, EprStateParams(v_e=25.0), 1.0, 2.5) == 0.0

    def test_direct_homodyne_entropy_identity(self):
        # Without excess noise, S(E) reduces to g((1-T)V_A + T) for this source.
        from discordqkd import entropy_g

        source = DiscordStateParams(v=39.0)
        out = _output(source, 0.5, 1.0)
        config = _config(Detection.HOMODYNE, Reconciliation.DIRECT, source, 0.5, 1.0)
        report = secret_key_rate(config)
        assert report.s_e == pytest.approx(entropy_g(0.5 * 40.0 + 0.5), rel=1e-12)
        assert report.s_e == pytest.approx(S_E_40_05_1, rel=1e-12)

    @pytest.mark.parametrize(
        "det,rec,expected",
        [
            (Detection.HOMODYNE, Reconciliation.DIRECT, I_EVE_HOM_DR),
            (Detection.HOMODYNE, Reconciliation.REVERSE, I_EVE_HOM_RR),
            (Detection.HETERODYNE, Reconciliation.DIRECT, I_EVE_HET_DR),
            (Detection.HETERODYNE, Reconciliation.REVERSE, I_EVE_HET_RR),
        ],
    )
    def test_golden_values_balanced_channel(self, det, rec, expected):
        got = _i_eve(det, rec, DiscordStateParams(v=39.0), 0.5, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_randomized(self):
        for source, params in oracles.random_cases(seed=47, n=80):
            for det in Detection:
                assert _i_ab(det, source, params.t, params.w) >= 0.0
                for rec in Reconciliation:
                    assert _i_eve(det, rec, source, params.t, params.w) >= -1e-9


class TestSecretKeyRate:
    def test_transparent_channel_keeps_everything(self):
        source = DiscordStateParams(v=39.0)
        report = secret_key_rate(
            _config(Detection.HOMODYNE, Reconciliation.DIRECT, source, 1.0, 1.0)
        )
        assert report.i_eve == 0.0
        assert report.key_rate == report.i_ab > 0.0

    def test_vacuum_source_yields_nothing(self):
        report = secret_key_rate(
            _config(Detection.HOMODYNE, Reconciliation.REVERSE, EprStateParams(v_e=1.0), 0.5, 1.0)
        )
        assert report.i_ab == 0.0
        assert report.key_rate <= 0.0

    def test_heterodyne_reverse_below_cutoff(self):
        report = secret_key_rate(
            _config(
                Detection.HETERODYNE, Reconciliation.REVERSE,
                DiscordStateParams(v=39.0), 0.5, 1.0,
            )
        )
        assert report.key_rate < 0.0

    def test_homodyne_reverse_beats_half_transmission(self):
        report = secret_key_rate(
            _config(
                Detection.HOMODYNE, Reconciliation.REVERSE,
                DiscordStateParams(v=39.0), 0.3, 1.0,
            )
        )
        assert report.key_rate > 0.0

    def test_strong_source_conditional_variance_is_exact(self):
        # A lossless channel keeps V(B|A) = 1/V_E of a strong EPR source; from
        # the source's exact alpha*beta - gamma^2 = 1 nothing cancels.
        report = secret_key_rate(_config(
            Detection.HOMODYNE, Reconciliation.DIRECT, EprStateParams(v_e=1e8), 1.0, 1.0
        ))
        assert report.v_b_conditional == pytest.approx(1e-8, rel=1e-15)
        assert report.i_ab == pytest.approx(math.log2(1e8), rel=1e-15)
        assert report.i_eve == 0.0

    def test_end_to_end_golden_row(self):
        report = secret_key_rate(
            _config(
                Detection.HETERODYNE, Reconciliation.REVERSE,
                DiscordStateParams(v=39.0), 0.9, 1.0,
            )
        )
        assert report.i_ab == pytest.approx(I_AB_HET_T09, rel=1e-12)
        assert report.i_eve == pytest.approx(I_EVE_HET_RR_T09, rel=1e-12)
        assert report.key_rate == pytest.approx(KEY_HET_RR_T09, rel=1e-12)

    def test_key_rate_is_exact_difference(self):
        for source, params in oracles.random_cases(seed=53, n=40):
            for det in Detection:
                for rec in Reconciliation:
                    report = secret_key_rate(_config(det, rec, source, params.t, params.w))
                    assert report.key_rate == report.i_ab - report.i_eve

    def test_matches_decimal_reference_randomized(self):
        for source, params in oracles.random_cases(seed=59, n=25):
            if isinstance(source, DiscordStateParams):
                src_hp = hp.discord_source(hp.d(repr(source.v)) + 1)
            else:
                src_hp = hp.epr_source(repr(source.v_e))
            for det in Detection:
                for rec in Reconciliation:
                    report = secret_key_rate(_config(det, rec, source, params.t, params.w))
                    expected = float(
                        hp.key_rate(*src_hp, repr(params.t), repr(params.w), det.value, rec.value)
                    )
                    assert report.key_rate == pytest.approx(expected, abs=1e-8, rel=1e-8)

    def test_distillable_rate_monotone_in_transmission(self):
        # The raw heterodyne reverse-reconciliation rate dips inside its
        # negative region before rising through threshold, so monotonicity
        # holds for the distillable rate max(0, K), not for the raw value.
        grid = [0.05 * i for i in range(1, 20)]
        for det in Detection:
            for rec in Reconciliation:
                rates = [
                    max(
                        secret_key_rate(
                            _config(det, rec, DiscordStateParams(v=39.0), t, 1.0)
                        ).key_rate,
                        0.0,
                    )
                    for t in grid
                ]
                assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_key_rate_pairs_monotonically_with_discord(self):
        # Over the noise grid at fixed transmission, larger discord never
        # lowers the distillable rate; the raw rate also satisfies this at
        # every transmission where the protocol actually distils.
        vds = [1.0 + 999.0 * i / 40.0 for i in range(41)]
        for det in Detection:
            for rec in Reconciliation:
                for t in (0.75, 0.8, 0.9):
                    rates = [
                        secret_key_rate(
                            _config(det, rec, DiscordStateParams(v=vd - 1.0), t, 1.0)
                        ).key_rate
                        for vd in vds
                    ]
                    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:])), (
                        det, rec, t,
                    )
                    clamped = [max(r, 0.0) for r in rates]
                    assert all(b >= a - 1e-9 for a, b in zip(clamped, clamped[1:]))

    def test_raw_rate_monotone_where_positive(self):
        grid = [0.05 * i for i in range(1, 20)]
        for det in Detection:
            for rec in Reconciliation:
                rates = [
                    secret_key_rate(
                        _config(det, rec, DiscordStateParams(v=39.0), t, 1.0)
                    ).key_rate
                    for t in grid
                ]
                positive_pairs = [(a, b) for a, b in zip(rates, rates[1:]) if a > 0.0]
                assert all(b >= a - 1e-9 for a, b in positive_pairs)

    @pytest.mark.parametrize(
        "state,variance,t,expected",
        [
            ("epr", 40.0, 0.6, KEY_HET_DR_EPR40_T06),
            ("discord", 40.0, 0.6, KEY_HET_DR_DISC40_T06),
            ("discord", 1000.0, 0.6, KEY_HET_DR_DISC1000_T06),
            ("epr", 40.0, 0.7, KEY_HET_DR_EPR40_T07),
            ("discord", 40.0, 0.7, KEY_HET_DR_DISC40_T07),
            ("discord", 1000.0, 0.7, KEY_HET_DR_DISC1000_T07),
        ],
    )
    def test_heterodyne_direct_golden_below_crossing(self, state, variance, t, expected):
        row = evaluate_point(
            state, variance, t, 1.0, Detection.HETERODYNE, Reconciliation.DIRECT
        )
        assert row.key_rate == pytest.approx(expected, abs=1e-8)


class TestProtocolValues:
    """Detection and reconciliation given by value select the same protocol."""

    SOURCE = DiscordStateParams(v=39.0)
    CHANNEL = ChannelParams(t=0.9, w=1.0)

    @pytest.mark.parametrize("det", list(Detection))
    @pytest.mark.parametrize("rec", list(Reconciliation))
    def test_values_select_the_protocol(self, det, rec):
        by_value = ProtocolConfig(det.value, rec.value, self.SOURCE, self.CHANNEL)
        assert by_value.detection is det and by_value.reconciliation is rec
        by_member = ProtocolConfig(det, rec, self.SOURCE, self.CHANNEL)
        assert secret_key_rate(by_value) == secret_key_rate(by_member)

    def test_homodyne_reverse_by_value(self):
        report = secret_key_rate(ProtocolConfig("hom", "rr", self.SOURCE, self.CHANNEL))
        reference = hp.key_rate(*hp.discord_source(40), 0.9, 1, "hom", "rr")
        assert report.key_rate == pytest.approx(float(reference), rel=1e-12)

    UNKNOWN = [("homodyne", "reverse"), ("hom", "direct"), ("HOM", "rr"), (None, "rr"), ("het", 1),
               ("xyz", "q")]

    @pytest.mark.parametrize("det,rec", UNKNOWN)
    def test_unknown_value_rejected(self, det, rec):
        with pytest.raises(InvalidParameter):
            ProtocolConfig(det, rec, self.SOURCE, self.CHANNEL)

    @pytest.mark.parametrize("det", list(Detection))
    @pytest.mark.parametrize("rec", list(Reconciliation))
    def test_kernel_takes_values(self, det, rec):
        channel = ChannelParams(t=0.9, w=1.3)
        by_value = key_rate(self.SOURCE, channel, det.value, rec.value)
        assert by_value == key_rate(self.SOURCE, channel, det, rec)
        reference = hp.key_rate(*hp.discord_source(40), 0.9, 1.3, det.value, rec.value)
        assert by_value.key_rate == pytest.approx(float(reference), rel=1e-12)

    @pytest.mark.parametrize("det,rec", UNKNOWN)
    def test_kernel_rejects_unknown_value(self, det, rec):
        with pytest.raises(InvalidParameter):
            key_rate(self.SOURCE, self.CHANNEL, det, rec)

    @pytest.mark.parametrize("kind,value", [(Detection, "xyz"), (Reconciliation, "hom"), (Detection, None)])
    def test_enum_rejects_unknown_value(self, kind, value):
        with pytest.raises(InvalidParameter, match=f"{kind.__name__.lower()} must be one of"):
            kind(value)

    def test_evaluate_point_takes_values(self):
        by_value = evaluate_point("discord", 40.0, 0.9, 1.0, "hom", "rr")
        by_member = evaluate_point(
            "discord", 40.0, 0.9, 1.0, Detection.HOMODYNE, Reconciliation.REVERSE
        )
        assert by_value == by_member
        assert (by_value.detection, by_value.reconciliation) == ("hom", "rr")


def _source(state, variance):
    if state == "discord":
        return DiscordStateParams(v=variance - 1.0)
    return EprStateParams(v_e=variance)


class TestDiscordStateDomain:
    """The discord state's V stops where the kernel's 3V + 2 = delta + beta overflows."""

    V_MAX = 5.992310449541052e307

    @pytest.mark.parametrize("det,rec,v,t", [
        ("hom", "rr", 9.110692143178145e307, 0.9999999999999999),
        ("het", "rr", 6.968046386148351e307, 0.0),
    ])
    def test_variance_past_the_domain_rejected(self, det, rec, v, t):
        with pytest.raises(InvalidParameter, match=r"3V \+ 2"):
            secret_key_rate(ProtocolConfig(det, rec, DiscordStateParams(v=v), ChannelParams(t, 1.0)))

    def test_largest_variance_gives_numbers_or_typed_errors(self):
        assert math.isfinite(3.0 * self.V_MAX + 2.0)
        with pytest.raises(InvalidParameter):
            DiscordStateParams(v=math.nextafter(self.V_MAX, math.inf))
        source = DiscordStateParams(v=self.V_MAX)
        for det, rec, t, w in itertools.product(
            Detection, Reconciliation, [0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53, 1.0],
            [1.0, 1.0 + 2.0 ** -52, 2.0, 1e154, 1e300, 1.7976931348623157e308],
        ):
            try:
                report = key_rate(source, ChannelParams(t, w), det, rec)
            except GaussianStateError:
                continue
            assert all(map(math.isfinite, (report.i_ab, report.i_eve, report.key_rate))), (det, rec, t, w)


class TestDecades:
    """Key rates from the (alpha, beta, alpha*beta - gamma^2) kernel across decades."""

    @pytest.mark.parametrize("state", ["discord", "epr"])
    def test_finite_report_or_typed_error(self, state):
        grid = itertools.product(
            (1.0, 1.5, 1e3, 1e8, 1e15, 1e100, 1e150), (0.0, 1e-12, 0.5, 1 - 1e-6, 1.0), (1.0, 1.3, 1e8),
            Detection, Reconciliation,
        )
        for variance, t, w, det, rec in grid:
            try:
                report = secret_key_rate(_config(det, rec, _source(state, variance), t, w))
            except GaussianStateError:
                continue
            assert all(map(math.isfinite, dataclasses.astuple(report))), (variance, t, w, det, rec)

    @pytest.mark.parametrize("state,variance", [
        *(("discord", v) for v in (1.5, 40.0, 1e3, 1e6, 1e10, 1e15)),
        *(("epr", v) for v in (1.5, 40.0, 1e3, 1e6, 1e8)),
    ])
    def test_matches_reference_within_1e_11_bits(self, state, variance):
        source = _source(state, variance)
        exact = decimal.Decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 100
            if state == "discord":
                reference_source = hp.discord_source(exact(source.v) + 1)
            else:
                reference_source = hp.epr_source(exact(source.v_e))
            grid = itertools.product((0.0, 0.1, 0.5, 0.9, 1.0), (1.0, 1.3, 2.0, 1e4, 1e8),
                                     Detection, Reconciliation)
            for t, w, det, rec in grid:
                report = secret_key_rate(_config(det, rec, source, t, w))
                want = hp.key_rate(*reference_source, exact(t), exact(w), det.value, rec.value)
                assert abs(report.key_rate - float(want)) <= 1e-11, (t, w, det, rec)

    @pytest.mark.parametrize("source,t,w,recs", [
        *((source, t, w, list(Reconciliation) if w == 1.0 else [Reconciliation.DIRECT])
          for source in (DiscordStateParams(v=0.0), EprStateParams(v_e=1.0))
          for t in (0.0, 1e-12, 0.5, 1.0) for w in (1.0, 1.3)),
        *((source, 0.0, 1.0, [Reconciliation.REVERSE])
          for source in (DiscordStateParams(v=39.0), EprStateParams(v_e=1e8))),
    ])
    def test_exact_zeros(self, source, t, w, recs):
        # A product source, or reverse reconciliation with the whole signal
        # lost to a vacuum cloner, leaves nothing to share and nothing to learn.
        for det, rec in itertools.product(Detection, recs):
            report = secret_key_rate(_config(det, rec, source, t, w))
            assert (report.i_ab, report.i_eve, report.key_rate) == (0.0, 0.0, 0.0)


class TestHighPrecisionReference:
    @pytest.mark.parametrize("w", [1.24, 1.3, 2.0])
    def test_attacker_entropy_vanishes_at_full_transmission(self, w):
        # At T = 1 the attacker keeps her own pure EPR pair; at 50 digits its
        # eigenvalue lands about 1e-25 below 1, inside the purity guard.
        assert hp.eve_entropy(hp.ClonerScalars(*hp.discord_source(40.0), 1.0, w)) == 0

    def test_entropy_below_vacuum_still_raises(self):
        with pytest.raises(decimal.InvalidOperation):
            hp.entropy_term(hp.d("0.999"))
