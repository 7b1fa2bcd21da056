"""Desk-scale laboratory for operator-algebraic measurement models at
finite truncation: states and GNS data, commutant engines, tensor-ladder
endomorphisms, CP instruments, probe-space realizations, and deterministic
outcome sampling.

The package loads lazily (PEP 562): an exported name, or a submodule such
as `measurelab.dilation`, imports its module on first access, so a CLI call
loads only the modules its subcommand runs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "_linalg": "basis_vector cyclic_shift dagger matrix_unit tensor",
    "algebra": "SubAlgebra commutant commutant_dimension_bruteforce center "
               "minimal_central_projections",
    "dilation": "instrument_of kraus_rank realize_instrument",
    "gns": "GnsIntertwiner GnsRep gns gns_intertwiner",
    "instruments": "CentralDecomposition Instrument MeasuringProcess "
                   "central_decomposition conditional_expectation "
                   "default_probe_vectors "
                   "exact_observation_residual instrument instrument_distance "
                   "instrument_from_process random_measuring_process "
                   "verify_axioms",
    "report": "CheckResult Report",
    "sampling": "Histogram chi_square_pvalue sample_counts sample_histogram",
    "scenarios": "build_projective_scenario chi_ladder_report "
                 "run_projective_check tensor_power_report",
    "states": "State diagonal_state fidelity vector_state",
    "uhf": "AdjointAction EndomorphismStep UnitaryPath digit_sums gamma_step "
           "innerness_residual surrogate_commutant "
           "symmetry_unitary unitary_path",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
    else:
        try:
            value = importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute "
                                 f"{name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The import system binds each submodule it loads on the package. The
    gns submodule shares its name with its exported gns function, so a
    loaded submodule is bound as the export of its name instead, as an
    eager `from .gns import gns` leaves it."""

    def __setattr__(self, name, value):
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
