"""Gaussian-discord CV-QKD toolkit.

Covariance-matrix algebra for two-mode Gaussian states, Gaussian quantum
discord, PPT separability, and secret key rates of the four protocol
variants (homodyne/heterodyne x direct/reverse reconciliation) against a
collective entangling-cloner attack.  All variances are in shot-noise units.
"""

from .channel import ChannelOutput, ChannelParams, apply_entangling_cloner
from .errors import (
    DegenerateMatrix,
    DomainError,
    GaussianStateError,
    InvalidParameter,
    NonPhysicalState,
    NoSignChange,
    UnknownFigure,
    UnsupportedState,
)
from .keyrate import (
    Detection,
    KeyRateReport,
    ProtocolConfig,
    Reconciliation,
    make_source_state,
    secret_key_rate,
)
from .states import (
    DiscordStateParams,
    EprStateParams,
    gaussian_discord,
    make_discord_state,
    make_epr_state,
)
from .sweeps import (
    CSV_HEADER,
    FIGURE_IDS,
    ResultRow,
    SweepSpec,
    evaluate_point,
    figure_table,
    grid,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    threshold_on_discord,
    threshold_on_t,
)
from .symplectic import (
    SymplecticSpectrum,
    TwoModeCovariance,
    entropy_g,
    ppt_min_eigenvalue,
    symplectic_spectrum,
    von_neumann_entropy,
)

__version__ = "0.1.0"

# The user-facing API.  Helpers stay importable from their submodules: the
# matrix constants and partial_transpose (symplectic), correlation_matrix
# (channel), discord_and_ppt (states), and DegenerateInput, which only the
# reference implementations under tests/ raise (errors).
__all__ = [
    "ChannelOutput", "ChannelParams", "apply_entangling_cloner",
    "DegenerateMatrix", "DomainError", "GaussianStateError", "InvalidParameter",
    "NonPhysicalState", "NoSignChange", "UnknownFigure", "UnsupportedState",
    "Detection", "KeyRateReport", "ProtocolConfig", "Reconciliation",
    "make_source_state", "secret_key_rate",
    "DiscordStateParams", "EprStateParams", "gaussian_discord",
    "make_discord_state", "make_epr_state",
    "CSV_HEADER", "FIGURE_IDS", "ResultRow", "SweepSpec", "evaluate_point",
    "figure_table", "grid", "rows_to_csv", "rows_to_json", "run_sweep",
    "threshold_on_discord", "threshold_on_t",
    "SymplecticSpectrum", "TwoModeCovariance", "entropy_g",
    "ppt_min_eigenvalue", "symplectic_spectrum", "von_neumann_entropy",
    "__version__",
]
