"""The two source routes agree exactly.

Key rates, discord and PPT are evaluated from a source's parameters, whose
block_form() gives (alpha, beta, gamma) directly; the matrix API takes the
assembled covariance from make_source_state.  Both routes must give the same
floats, not merely close ones.
"""

import dataclasses

import numpy as np
import pytest

from discordqkd import (
    ChannelOutput,
    ChannelParams,
    Detection,
    DiscordStateParams,
    EprStateParams,
    GaussianStateError,
    Reconciliation,
    TwoModeCovariance,
    apply_entangling_cloner,
    evaluate_point,
    gaussian_discord,
    make_source_state,
    ppt_min_eigenvalue,
)
from discordqkd.states import discord_and_ppt

VARIANCES = (1.0, 1.5, 40.0, 1e3, 1e8, 1e15)
SOURCES = [("discord", v, DiscordStateParams(v=v - 1.0)) for v in VARIANCES] + [
    ("epr", v, EprStateParams(v_e=v)) for v in VARIANCES
]
CHANNELS = [ChannelParams(t=t, w=w) for t in (0.0, 0.3, 0.9, 1.0) for w in (1.0, 1.3, 40.0)]


def _id(source):
    return f"{source[0]}-{source[1]:g}"


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except GaussianStateError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("source", SOURCES, ids=_id)
class TestScalarRouteMatchesMatrixRoute:
    def test_block_form(self, source):
        _, _, params = source
        assert params.block_form() == make_source_state(params).block_form()

    def test_cloner_output(self, source):
        _, _, params = source
        sigma = make_source_state(params)
        for channel in CHANNELS:
            from_params = apply_entangling_cloner(params, channel)
            from_matrix = apply_entangling_cloner(sigma, channel)
            for field in dataclasses.fields(ChannelOutput):
                got = getattr(from_params, field.name)
                want = getattr(from_matrix, field.name)
                if isinstance(want, TwoModeCovariance):
                    assert np.array_equal(got.matrix, want.matrix), (field.name, channel)
                elif isinstance(want, np.ndarray):
                    assert np.array_equal(got, want), (field.name, channel)
                else:
                    assert got == want, (field.name, channel)

    def test_discord_and_ppt(self, source):
        # At V_E >= 1e8 both routes raise the same error: the rounded
        # sqrt(V_E^2 - 1) makes the EPR covariance singular.
        _, _, params = source
        sigma = make_source_state(params)
        scalar = _outcome(discord_and_ppt, *params.block_form())
        matrix = _outcome(lambda: (gaussian_discord(sigma), ppt_min_eigenvalue(sigma)))
        assert scalar == matrix

    def test_row_discord_and_ppt(self, source):
        state, variance, params = source
        sigma = make_source_state(params)
        for t in (0.0, 0.9):
            for det in Detection:
                for rec in Reconciliation:
                    row = evaluate_point(state, variance, t, 1.0, det, rec)
                    # A row whose key rate fails carries no discord; at V_E >= 1e8
                    # every row does (the attacker's conditioned entries cancel).
                    if row.error:
                        continue
                    assert row.discord == gaussian_discord(sigma)
                    assert row.ppt_nu == ppt_min_eigenvalue(sigma)
