"""Every numerical tolerance and work budget in retrolind, by name; no module
writes its own.

Each name is also importable from the module that uses it.  "Relative" means
relative to the largest entry modulus of the operand (``operators.scale_of``).
"""

# Scenario invariants (model)
HERMITICITY_TOL = 1e-10  # Hermiticity of scenario operators, relative
TRACE_TOL = 1e-10  # |trace - 1| of a density operator
EIGENVALUE_TOL = 1e-9  # absolute negativity allowance on eigenvalues
POM_SUM_TOL = 1e-9  # entrywise deviation of the outcome-operator sum from identity
PRIOR_SUM_TOL = 1e-10  # |sum of priors - 1|

# Eigensolver (operators)
EIGENSOLVER_HERMITICITY_TOL = 1e-8  # Hermiticity demanded by hermitian_eigenvalues, relative

# Evolution guards (dynamics)
TRACE_DRIFT_TOL = 1e-8  # |trace - 1| allowed on recorded evolved states
POSITIVITY_DRIFT_TOL = 1e-7  # eigenvalue negativity allowed on recorded evolved states
RETRODICTIVE_RHS_TRACE_TOL = 1e-8  # |trace - 1| of a state passed to retrodictive_rhs

# Inference
NEGATIVE_PROB_TOL = 1e-9  # raw values this far below zero are round-off, clamped
RAW_SUM_TOL = 1e-7  # allowed deviation of raw predictive probabilities from total 1
PROBABILITY_SUM_TOL = 1e-9  # |sum - 1| of a ProbabilityTable
PREPARATION_TRACE_TOL = 1e-8  # |total trace - 1| of the preparation operators
NORMALIZE_TRACE_FLOOR = 1e-12  # smallest outcome-operator trace normalize_to_retrodictive divides by
RETRODICTIVE_EIG_TOL = 1e-6  # eigenvalue negativity a normalized backward-evolved element may carry

# Command line
PIPELINE_TOL = 1e-6  # allowed disagreement between the two inference routes

# Work budget, checked at validation (model) and before every run (dynamics._integrate)
MAX_RK4_STEPS = 1e7  # RK4 steps of one integration over the window, or of one run
MAX_RECORDED_BYTES = 2.0**30  # bytes of the recorded states of one integrated operator
MAX_GENERATOR_BYTES = 2.0**28  # d^4 x 16 bytes, twice the real d^2 x d^2 generator: its build peak (validation); dim <= 64

# Memory held by a model (dynamics)
MAX_HELD_PLANS = 64.0  # RK4 step plans one model holds, the least recently used dropped first
