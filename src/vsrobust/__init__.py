"""Compromise solutions for robust combinatorial optimization with
variable-sized uncertainty: exact evaluation and row-generation solvers for
min-max and min-max-regret objectives averaged over all uncertainty sizes.
"""

from .exceptions import (BackendError, CapacityError, DomainError,
                         InfeasibleError, ParseError, StallError, UsageError,
                         VsrError)
from .model import (EPS_LAMBDA, AffinePiece, LambdaInterval, RegretProfile,
                    WeightFunction, as_costs, as_solution, effective_cost,
                    solution_key, upper_envelope, weight_moments)
from .problems import (GraphInstance, SHORTEST_PATH, SPANNING_TREE,
                       SelectionInstance, enumerate_solutions, is_feasible,
                       solve_nominal)
from .regret import (EvaluationResult, bicriteria_extreme_count, compute_val,
                     integrate_profile, mst_changepoint_candidates, regret_at,
                     regret_piece, selection_changepoint_candidates)
from .minmax import (EllipsoidReduction, compromise_ellipsoid_minmax,
                     compromise_interval_minmax, ellipsoid_worst_case)
from .master import (BackendResult, EnumerationBackend, ExternalBackend,
                     HighsBackend, MasterState, MilpModel, SolverBackend,
                     algorithm1, backend_emit_and_invoke,
                     build_formulation_dual_sp, build_formulation_general,
                     make_backend, parse_solution_file,
                     solve_minmax_regret_fixed, write_lp)
from .instances import (GeneratorConfig, SplitMix64, gen_layered, gen_twopath,
                        link_arc_indices, load, same_instance, save,
                        transform_bicriteria)

__version__ = "0.1.0"
