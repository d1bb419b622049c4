"""Entangling-probe attack on BB84: simulation, statistics, and fitting."""

from .error_model import (
    ErrorModelParams,
    FitResult,
    fit_parameters,
    model_sift_summaries,
    predict_outcome_probs,
)
from .montecarlo import (
    CountsColumns,
    CountsFileError,
    read_counts_file,
    reference_counts_path,
)
from .probe import (
    OUTCOME_ORDER,
    Bb84State,
    SiftBasis,
    renyi_closed_form,
    renyi_information,
)

__all__ = [
    "Bb84State",
    "CountsColumns",
    "CountsFileError",
    "ErrorModelParams",
    "FitResult",
    "OUTCOME_ORDER",
    "SiftBasis",
    "fit_parameters",
    "model_sift_summaries",
    "predict_outcome_probs",
    "read_counts_file",
    "reference_counts_path",
    "renyi_closed_form",
    "renyi_information",
]

__version__ = "0.1.0"
