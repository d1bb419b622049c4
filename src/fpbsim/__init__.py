"""Entangling-probe attack on BB84: simulation, statistics, and fitting."""

from .error_model import (
    ErrorModelParams,
    FitOptions,
    FitResult,
    fit_parameters,
    model_sift_summaries,
    output_state,
    predict_outcome_probs,
)
from .montecarlo import (
    CountsFileError,
    CountsRecord,
    estimate_probabilities,
    load_reference_counts,
    noise_free_counts,
    read_counts_file,
    reference_counts_path,
    sift_summaries,
    simulate_counts,
    write_counts_file,
)
from .probe import (
    OUTCOME_ORDER,
    Bb84State,
    ProbeConfig,
    SiftBasis,
    renyi_closed_form,
    renyi_information,
)

__all__ = [
    "Bb84State",
    "CountsFileError",
    "CountsRecord",
    "ErrorModelParams",
    "FitOptions",
    "FitResult",
    "OUTCOME_ORDER",
    "ProbeConfig",
    "SiftBasis",
    "estimate_probabilities",
    "fit_parameters",
    "load_reference_counts",
    "model_sift_summaries",
    "noise_free_counts",
    "output_state",
    "predict_outcome_probs",
    "read_counts_file",
    "reference_counts_path",
    "renyi_closed_form",
    "renyi_information",
    "sift_summaries",
    "simulate_counts",
    "write_counts_file",
]

__version__ = "0.1.0"
