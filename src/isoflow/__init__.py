"""Isospectral flows on tridiagonal operators built from low-rank Lie
algebra representations, the orthogonal-function families that diagonalize
them, chain (multi-site) generalizations, and multivariate eigenvector
tables — together with numerical checks for every identity the package
claims.
"""

__version__ = "0.1.0"

from .algebra import AlgebraSpec, e2, oscillator, su2, su11
from .chain import (ChainState, ChainTrajectory, TraceInvariants, build_chain_L,
                    chain_dense_L, chain_isospectrality_drift,
                    chain_path_eigenvalues, chain_rhs, chain_spectrum,
                    christoffel_weights, eigen_polys,
                    integrate_chain, pn_time_derivative_check, spectrum_sum,
                    trace_flow_drift, trace_invariants)
from .families import (FAMILIES, BesselParams, CharlierParams, FamilyEntry,
                       FamilyTag, HermiteParams, KrawtchoukParams,
                       LaguerreParams, MeixnerFunctionParams, MeixnerParams,
                       MeixnerPollaczekParams, SpectralMap, check_modification,
                       eval_hyper, eval_rec, meixner_function,
                       meixner_function_recurrence_residual, parameter_map,
                       weight)
from .flows import (DegenerateRatioError, FlowState, GammaTable,
                    IntegrationBlowupError, ModificationReport,
                    SignConditionReport, Trajectory, check_sign_conditions,
                    flow_rhs, g_at, integrate, invariant, modification_report,
                    write_trajectory_csv)
from .mvk import (TABLE_CHECKS, MVKTable, base_entry_error,
                  krawtchouk_reduction_check, multi_indices,
                  multinom, mvk_orthogonality_check, mvk_recurrence_check,
                  mvk_table, mvk_time_derivative_check, symmetric_chain_state,
                  unit_index, write_mvk_csv)
from .operators import TridiagonalOperator
from .report import (CheckResult, all_passed, check_result, guarded,
                     relative_error, spectrum_drift, write_report_csv,
                     write_spectrum_csv)
from .representations import (ConfigurationError, DiscreteSeriesPlus, E2,
                              Generators, Oscillator, ParameterError,
                              PrincipalSeries, RepresentationSpec, SU2,
                              build_generators, build_L, check_compatible,
                              lax_residual, lax_rows)
from .specfun import PrecisionError, bessel_j, regularized_2f1
from .spectral import (SpectralDecomposition, compared_eigenvalues,
                       degenerate_e2_check, eigenfunction, eigs_sym_tridiag,
                       isospectrality_drift, path_eigenvalues,
                       recurrence_residual, scaled_tolerance)
from .verify import GROUPS, run_verify

__all__ = [name for name in dir() if not name.startswith("_")]
