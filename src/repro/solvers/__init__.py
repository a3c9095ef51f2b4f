"""Linear and mixed-integer programming substrate.

PALMED's reference implementation relies on PuLP/Gurobi.  This package
provides an equivalent, self-contained modeling layer backed by
:func:`scipy.optimize.milp` (the HiGHS solver), which handles both pure
LPs and MILPs.  Two construction front-ends share one solve gateway:

``Model``
    Expression-based modeling (variables, ``LinearExpression`` arithmetic,
    named constraints) — convenient for one-off models such as LP1.
``ModelBuilder`` / ``ModelTemplate``
    Sparse incremental construction: COO triplets compiled once into a
    reusable template whose data (coefficients, bounds, objective) can be
    rebound between solves.  This is the hot path of LP2/LPAUX, where
    thousands of identically-shaped problems rebind data instead of
    rebuilding structure.

scipy is imported on the first solve, not with this package: serving
processes import ``repro.solvers`` through the machine and mapping modules
but never solve, so they never load the backend.

Public API
----------
``Model``, ``Variable``, ``LinearExpression``, ``Constraint``
    The expression-based front-end.
``ModelBuilder``, ``ModelTemplate``, ``TemplateSolution``
    The sparse/template front-end.
``Solution``, ``SolveStatus``
    Results of solves.
``SolveStats``, ``solver_stats``, ``reset_solver_stats``, ``use_stats``,
``record_stats``
    Per-solve statistics (solve count, build-vs-solve time split).
``SolverError``, ``InfeasibleError``, ``UnboundedError``
    Exceptions raised on modeling or solving failures.
"""

from repro.solvers.builder import (
    ModelBuilder,
    ModelTemplate,
    TemplateSolution,
    solve_milp_arrays,
)
from repro.solvers.lp import (
    Constraint,
    LinearExpression,
    Model,
    Solution,
    Variable,
    lin_sum,
)
from repro.solvers.stats import (
    SolveStats,
    record_stats,
    reset_solver_stats,
    solver_stats,
    use_stats,
)
from repro.solvers.status import (
    InfeasibleError,
    SolverError,
    SolveStatus,
    UnboundedError,
)

__all__ = [
    "Constraint",
    "InfeasibleError",
    "LinearExpression",
    "Model",
    "ModelBuilder",
    "ModelTemplate",
    "Solution",
    "SolverError",
    "SolveStats",
    "SolveStatus",
    "TemplateSolution",
    "UnboundedError",
    "Variable",
    "lin_sum",
    "record_stats",
    "reset_solver_stats",
    "solve_milp_arrays",
    "solver_stats",
    "use_stats",
]
