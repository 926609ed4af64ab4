"""Error exponents and finite-blocklength ensemble checks for classical-quantum channels.

A classical-quantum channel maps each input symbol to a density operator.
This package computes the reliability functions attached to i.i.d. random
code ensembles over such channels (random-coding and expurgated exponents,
the typical-ensemble lower bound and its crossover rate), the Holevo
capacity of a fixed input distribution, and runs exact or Monte-Carlo
finite-blocklength experiments that check the ensemble bounds under
square-root-measurement decoding.  All logarithms are base 2; every rate
and exponent is in bits per channel use.
"""

from .qlinalg import (
    DensityOperator,
    Spectrum,
    hermitian_eig,
    hermitianize,
    kron,
    matrix_power,
    overlap,
    require_hermitian,
    von_neumann_entropy,
)
from .channels import (
    CQChannel,
    ChannelValidationError,
    InputDistribution,
    PauliChannelParams,
    average_state,
    binary_pauli,
    channel_from_config,
    channel_to_config,
    from_classical_dmc,
    holevo_information,
    optimize_input,
)
from .exponents import (
    ChannelThresholds,
    ExponentCurve,
    ExponentValue,
    RatePoint,
    channel_thresholds,
    crossover_rate,
    e0,
    ex_function,
    expurgated_divergence_rate,
    expurgated_exponent,
    optimal_tilt_estimate,
    overlap_exponent_half_var,
    overlap_exponent_mean,
    random_coding_exponent,
    sweep,
    trc_lower_bound,
)
from .ensemble import (
    BoundCheck,
    Codebook,
    DecodingResult,
    EnsembleReport,
    enumerate_codebooks,
    error_probability,
    helstrom_error,
    pgm_povm,
    product_state,
    run_ensemble,
    sample_codebook,
    verify_markov_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "ChannelThresholds",
    "ChannelValidationError",
    "CQChannel",
    "Codebook",
    "DecodingResult",
    "DensityOperator",
    "EnsembleReport",
    "ExponentCurve",
    "ExponentValue",
    "InputDistribution",
    "PauliChannelParams",
    "RatePoint",
    "Spectrum",
    "average_state",
    "binary_pauli",
    "channel_from_config",
    "channel_thresholds",
    "channel_to_config",
    "crossover_rate",
    "e0",
    "enumerate_codebooks",
    "error_probability",
    "ex_function",
    "expurgated_divergence_rate",
    "expurgated_exponent",
    "from_classical_dmc",
    "helstrom_error",
    "hermitian_eig",
    "hermitianize",
    "holevo_information",
    "kron",
    "matrix_power",
    "optimal_tilt_estimate",
    "optimize_input",
    "overlap",
    "overlap_exponent_half_var",
    "overlap_exponent_mean",
    "pgm_povm",
    "product_state",
    "random_coding_exponent",
    "require_hermitian",
    "run_ensemble",
    "sample_codebook",
    "sweep",
    "trc_lower_bound",
    "verify_markov_bound",
    "von_neumann_entropy",
]
