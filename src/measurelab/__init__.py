"""Desk-scale laboratory for operator-algebraic measurement models at
finite truncation: states and GNS data, commutant engines, tensor-ladder
endomorphisms, CP instruments, probe-space realizations, and deterministic
outcome sampling."""

from ._linalg import basis_vector, cyclic_shift, dagger, matrix_unit, tensor
from .algebra import (SubAlgebra, commutant, commutant_dimension_bruteforce,
                      center, full_matrix_algebra, minimal_central_projections)
from .dilation import instrument_of, kraus_rank, realize_instrument, round_trip_distance
from .gns import GnsIntertwiner, GnsRep, gns, gns_intertwiner, ladder_intertwiner
from .instruments import (CentralDecomposition, Instrument, MeasuringProcess,
                          central_decomposition, conditional_expectation,
                          default_probe_states, default_probe_vectors,
                          exact_observation_residual, instrument,
                          instrument_distance, instrument_from_process,
                          random_measuring_process, verify_axioms,
                          vn_instrument)
from .report import CheckResult, Report
from .sampling import Histogram, chi_square_pvalue, sample_counts, sample_histogram
from .scenarios import (build_projective_scenario, chi_ladder_report,
                        run_projective_check, tensor_power_report)
from .states import State, diagonal_state, fidelity, vector_state
from .uhf import (AdjointAction, EndomorphismStep, UnitaryPath, digit_sums,
                  fixed_point_blocks, gamma_step, innerness_residual,
                  phase_unitary, surrogate_commutant, symmetry_unitary,
                  unitary_path)

__version__ = "0.1.0"
