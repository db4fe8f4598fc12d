"""cstarkit: desk-scale C*-algebra toolkit.

Rounding of near-structures to exact ones, nonlocal-game values for
almost-commuting strategies, a semidecision search harness, and certified
norm lower bounds for finitely presented algebras.
"""

__version__ = "0.1.0"

from .errors import (HypothesisError, ParseError, PreconditionError,
                     UnsupportedPresentationError)
from .operators import (DEFAULT_TOL, Tolerance, commutator, dagger, herm_part,
                        hermitian_eig, op_norm, op_norms, polar_unitary,
                        spectral_apply)
from .rounding import (ROUNDING_KINDS, RoundingReport, isometry_defect,
                       povm_defect, povm_residual, projection_defect,
                       pvm_defect, round_to_partial_isometry, round_to_povm,
                       round_to_projection, round_to_pvm, round_to_unitary,
                       stability_modulus)
from .sampling import (perturbation_suite, random_density, random_hermitian,
                       random_povm, random_projection, random_pvm,
                       random_unitary, rng_from_seed)
from .games import (BestValue, CommutationCheck, Measurement, NonlocalGame,
                    State, Strategy, best_value, check_shapes, chsh,
                    commutator_defects, correlation, game_element,
                    game_value, is_delta_op_commuting, sym_product)
from .polynomials import (CompiledPolynomials, GaussianRational, NCPolynomial,
                          compile_polynomials, generator, lipschitz_bound,
                          triangle_norm_bound)
from .presentations import (Presentation, Representation,
                            RepresentationCatalog, StabilityModulusTable,
                            combine_moduli, cuntz, eval_poly, free_unitaries,
                            matrix_units, norm_lower_enumerate,
                            projections_presentation, registered_presentation,
                            relation_defect, stability_witness, toeplitz,
                            trivial_presentation)
from .search import (CERTIFIED_EIG_ERROR, CandidateStream, GameFamily,
                     SearchVerdict, SeesawRun, Witness, WitnessAudit,
                     classical_optimum, classical_value, constant_family,
                     deterministic_measurement, enumerate_candidates,
                     evaluate_stream, seesaw_optimize, semidecide_membership,
                     verify_witness)
from .formats import (parse_game, parse_polynomial, parse_presentation,
                      report_lines, sha256_file, write_report)
from .cli import RunConfig, console_main, run

__all__ = [name for name in dir() if not name.startswith("_")]
