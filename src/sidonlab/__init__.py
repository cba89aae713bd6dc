"""sidonlab: exact arithmetic for Sidon sets, solution counting of
translation-invariant linear equations, spectra, and Bohr-set dense models."""

__version__ = "0.1.0"

from .counting import (
    EquationCoeffs,
    ScaledFunction,
    SolutionCount,
    brute_force_count,
    count_distinct_solutions,
    count_solutions,
    degenerate_bound_check,
)
from .errors import BudgetExceededError, ValidationError
from .sets import (
    IntegerSet,
    RepresentationProfile,
    erdos_turan,
    is_sidon,
    mian_chowla,
    perturb_almost_sidon,
    read_set_file,
    representation_profile,
    write_set_file,
)
from .spectral import (
    Spectrum,
    dft_magnitudes,
    dft_values,
    energy_via_fourier,
    large_sieve_diagnostic,
    large_spectrum,
    sup_norm_estimate,
)
from .transference import (
    BohrSet,
    DenseModel,
    TransferenceReport,
    bohr_set,
    dense_model,
    transference_report,
    verify_counting_bound,
    verify_l2_reduction,
    verify_model_l2,
    verify_repeated_difference_bound,
    verify_size_bound,
)

__all__ = [
    "BohrSet",
    "BudgetExceededError",
    "DenseModel",
    "EquationCoeffs",
    "IntegerSet",
    "RepresentationProfile",
    "ScaledFunction",
    "SolutionCount",
    "Spectrum",
    "TransferenceReport",
    "ValidationError",
    "bohr_set",
    "brute_force_count",
    "count_distinct_solutions",
    "count_solutions",
    "degenerate_bound_check",
    "dense_model",
    "dft_magnitudes",
    "dft_values",
    "energy_via_fourier",
    "erdos_turan",
    "is_sidon",
    "large_sieve_diagnostic",
    "large_spectrum",
    "mian_chowla",
    "perturb_almost_sidon",
    "read_set_file",
    "representation_profile",
    "sup_norm_estimate",
    "transference_report",
    "verify_counting_bound",
    "verify_l2_reduction",
    "verify_model_l2",
    "verify_repeated_difference_bound",
    "verify_size_bound",
    "write_set_file",
]
