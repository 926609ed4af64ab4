"""Error exponents and finite-blocklength ensemble checks for classical-quantum channels.

A classical-quantum channel maps each input symbol to a density operator.
This package computes the reliability functions attached to i.i.d. random
code ensembles over such channels (random-coding and expurgated exponents,
the typical-ensemble lower bound and its crossover rate), the Holevo
capacity of a fixed input distribution, and runs exact or Monte-Carlo
finite-blocklength experiments that check the ensemble bounds under
square-root-measurement decoding.  All logarithms are base 2; every rate
and exponent is in bits per channel use.

Each public name is looked up in its home submodule, which is imported on
first access, so ``import cqexp`` loads no submodule and a subcommand loads
only what it runs.  The name is not copied here: ``cqexp.name`` is always the
home module's current binding, a patched or traced function included.
"""

import importlib

__version__ = "0.1.0"

# Public name -> home submodule.
_HOMES = {
    name: module
    for module, names in {
        "qlinalg": ("DensityOperator Spectrum hermitian_eig hermitianize kron matrix_power "
                    "overlap require_hermitian von_neumann_entropy"),
        "channels": ("CQChannel ChannelValidationError InputDistribution PauliChannelParams "
                     "average_state binary_pauli channel_from_config channel_to_config "
                     "from_classical_dmc holevo_information optimize_input"),
        "exponents": ("ChannelThresholds ExponentCurve ExponentValue RatePoint "
                      "channel_thresholds crossover_rate e0 ex_function "
                      "expurgated_divergence_rate expurgated_exponent optimal_tilt_estimate "
                      "overlap_exponent_half_var overlap_exponent_mean random_coding_exponent "
                      "sweep trc_lower_bound"),
        "ensemble": ("BoundCheck Codebook DecodingResult EnsembleReport enumerate_codebooks "
                     "error_probability helstrom_error pgm_povm product_state run_ensemble "
                     "sample_codebook verify_markov_bound"),
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
