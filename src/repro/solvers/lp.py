"""A small LP/MILP modeling layer on top of ``scipy.optimize.milp``.

The layer purposely mirrors the subset of the PuLP API that the original
PALMED implementation uses: named variables with bounds (continuous or
binary/integer), linear constraints, a linear objective, and a solve call
returning variable values.  It adds a couple of conveniences used by the
PALMED linear programs:

* :meth:`Model.add_indicator_leq` — big-M encoding of
  ``b = 1  =>  expr <= rhs`` for a binary variable ``b``;
* :meth:`Model.add_exists` — encoding of "at least one of these binary
  selectors is active";
* :func:`lin_sum` — sum of expressions/variables without quadratic-time
  repeated allocation.

Example
-------
>>> m = Model("example")
>>> x = m.add_variable("x", lb=0.0)
>>> y = m.add_variable("y", lb=0.0)
>>> m.add_constraint(x + 2 * y <= 4, name="cap")
>>> m.add_constraint(x + y >= 1)
>>> m.maximize(3 * x + y)
>>> sol = m.solve()
>>> round(sol[x], 6)
4.0
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.solvers import stats as solver_stats
from repro.solvers.builder import solve_milp_arrays
from repro.telemetry import TRACER
from repro.solvers.status import (
    InfeasibleError,
    SolverError,
    SolveStatus,
    UnboundedError,
    map_status,
)

Number = Union[int, float]


@dataclass(frozen=True)
class Variable:
    """A decision variable.

    Variables are created through :meth:`Model.add_variable`; they are
    hashable, compare by identity of ``(model_id, index)`` and support the
    arithmetic operators needed to build :class:`LinearExpression` objects.
    """

    name: str
    index: int
    lb: float
    ub: float
    integer: bool
    model_id: int

    def __hash__(self) -> int:
        return hash((self.model_id, self.index))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.model_id == other.model_id and self.index == other.index

    # -- arithmetic -------------------------------------------------------
    def _expr(self) -> "LinearExpression":
        return LinearExpression({self: 1.0}, 0.0)

    def __add__(self, other: Union["Variable", "LinearExpression", Number]):
        return self._expr() + other

    def __radd__(self, other: Union[Number]):
        return self._expr() + other

    def __sub__(self, other: Union["Variable", "LinearExpression", Number]):
        return self._expr() - other

    def __rsub__(self, other: Number):
        return (-1.0 * self._expr()) + other

    def __mul__(self, coeff: Number) -> "LinearExpression":
        return self._expr() * coeff

    def __rmul__(self, coeff: Number) -> "LinearExpression":
        return self._expr() * coeff

    def __neg__(self) -> "LinearExpression":
        return self._expr() * -1.0

    def __le__(self, other) -> "Constraint":
        return self._expr() <= other

    def __ge__(self, other) -> "Constraint":
        return self._expr() >= other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "int" if self.integer else "cont"
        return f"Variable({self.name!r}, {kind}, [{self.lb}, {self.ub}])"


class LinearExpression:
    """An affine expression ``sum(coeff_i * var_i) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(
        self,
        terms: Optional[Mapping[Variable, float]] = None,
        constant: float = 0.0,
    ) -> None:
        self.terms: Dict[Variable, float] = dict(terms) if terms else {}
        self.constant = float(constant)

    # -- construction helpers --------------------------------------------
    def copy(self) -> "LinearExpression":
        return LinearExpression(self.terms, self.constant)

    def add_term(self, var: Variable, coeff: Number) -> None:
        """Accumulate ``coeff * var`` in place."""
        if coeff == 0:
            return
        self.terms[var] = self.terms.get(var, 0.0) + float(coeff)

    # -- arithmetic -------------------------------------------------------
    @staticmethod
    def _coerce(value) -> "LinearExpression":
        if isinstance(value, LinearExpression):
            return value
        if isinstance(value, Variable):
            return LinearExpression({value: 1.0}, 0.0)
        if isinstance(value, (int, float)):
            return LinearExpression({}, float(value))
        raise TypeError(f"cannot interpret {value!r} as a linear expression")

    def __add__(self, other) -> "LinearExpression":
        other = self._coerce(other)
        result = self.copy()
        for var, coeff in other.terms.items():
            result.add_term(var, coeff)
        result.constant += other.constant
        return result

    __radd__ = __add__

    def __sub__(self, other) -> "LinearExpression":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other) -> "LinearExpression":
        return self._coerce(other) + (self * -1.0)

    def __mul__(self, coeff: Number) -> "LinearExpression":
        if not isinstance(coeff, (int, float)):
            raise TypeError("linear expressions can only be scaled by numbers")
        scaled = {var: c * float(coeff) for var, c in self.terms.items()}
        return LinearExpression(scaled, self.constant * float(coeff))

    __rmul__ = __mul__

    def __neg__(self) -> "LinearExpression":
        return self * -1.0

    # -- comparisons build constraints -------------------------------------
    def __le__(self, other) -> "Constraint":
        diff = self - other
        return Constraint(diff, "<=")

    def __ge__(self, other) -> "Constraint":
        diff = self - other
        return Constraint(diff, ">=")

    def equals(self, other) -> "Constraint":
        """Return the equality constraint ``self == other``.

        ``==`` is kept as the standard identity/equality test so that
        expressions remain usable in dictionaries; equality constraints are
        spelled explicitly.
        """
        diff = self - other
        return Constraint(diff, "==")

    def value(self, assignment: Mapping[Variable, float]) -> float:
        """Evaluate the expression under a variable assignment."""
        total = self.constant
        for var, coeff in self.terms.items():
            total += coeff * assignment[var]
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{c:+g}*{v.name}" for v, c in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


@dataclass
class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` after normalization."""

    expr: LinearExpression
    sense: str
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"invalid constraint sense {self.sense!r}")

    def bounds(self) -> tuple[float, float]:
        """Return ``(lower, upper)`` bounds on the variable part of expr."""
        rhs = -self.expr.constant
        if self.sense == "<=":
            return (-math.inf, rhs)
        if self.sense == ">=":
            return (rhs, math.inf)
        return (rhs, rhs)


def lin_sum(items: Iterable[Union[Variable, LinearExpression, Number]]) -> LinearExpression:
    """Sum variables/expressions/constants into one expression in linear time."""
    result = LinearExpression()
    for item in items:
        if isinstance(item, Variable):
            result.add_term(item, 1.0)
        elif isinstance(item, LinearExpression):
            for var, coeff in item.terms.items():
                result.add_term(var, coeff)
            result.constant += item.constant
        elif isinstance(item, (int, float)):
            result.constant += float(item)
        else:
            raise TypeError(f"cannot sum {item!r}")
    return result


@dataclass
class Solution:
    """Result of a :meth:`Model.solve` call."""

    status: SolveStatus
    objective: float
    values: Dict[Variable, float]
    mip_gap: Optional[float] = None

    def __getitem__(self, var: Variable) -> float:
        return self.values[var]

    def value(self, item: Union[Variable, LinearExpression]) -> float:
        """Evaluate a variable or expression under this solution."""
        if isinstance(item, Variable):
            return self.values[item]
        return item.value(self.values)

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


_MODEL_COUNTER = [0]


@dataclass
class _ObjectiveSpec:
    expr: LinearExpression = field(default_factory=LinearExpression)
    maximize: bool = False


class Model:
    """A linear or mixed-integer linear program.

    Parameters
    ----------
    name:
        Human-readable name, used in error messages only.
    """

    #: Default big-M value used by :meth:`add_indicator_leq` when the caller
    #: does not provide a tighter bound.
    DEFAULT_BIG_M = 1.0e4

    def __init__(self, name: str = "model") -> None:
        self.name = name
        _MODEL_COUNTER[0] += 1
        self._id = _MODEL_COUNTER[0]
        self._variables: list[Variable] = []
        self._constraints: list[Constraint] = []
        self._objective = _ObjectiveSpec()
        self._names: set[str] = set()

    # -- variables ---------------------------------------------------------
    def add_variable(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        integer: bool = False,
    ) -> Variable:
        """Create and register a new decision variable."""
        if name in self._names:
            raise SolverError(f"duplicate variable name {name!r} in model {self.name!r}")
        if lb > ub:
            raise SolverError(f"variable {name!r} has lb {lb} > ub {ub}")
        var = Variable(
            name=name,
            index=len(self._variables),
            lb=float(lb),
            ub=float(ub),
            integer=integer,
            model_id=self._id,
        )
        self._variables.append(var)
        self._names.add(name)
        return var

    def add_binary(self, name: str) -> Variable:
        """Create a binary (0/1) variable."""
        return self.add_variable(name, lb=0.0, ub=1.0, integer=True)

    @property
    def variables(self) -> Sequence[Variable]:
        return tuple(self._variables)

    @property
    def constraints(self) -> Sequence[Constraint]:
        return tuple(self._constraints)

    # -- constraints --------------------------------------------------------
    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built with ``<=``, ``>=`` or ``.equals``."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constraint expects a Constraint; build one with "
                "'expr <= rhs', 'expr >= rhs' or 'expr.equals(rhs)'"
            )
        for var in constraint.expr.terms:
            if var.model_id != self._id:
                raise SolverError(
                    f"constraint {name or constraint!r} uses variable {var.name!r} "
                    f"from another model"
                )
        if name:
            constraint.name = name
        self._constraints.append(constraint)
        return constraint

    def add_equality(self, lhs, rhs, name: str = "") -> Constraint:
        """Convenience wrapper for ``lhs == rhs`` equality constraints."""
        expr = LinearExpression._coerce(lhs) - LinearExpression._coerce(rhs)
        return self.add_constraint(Constraint(expr, "=="), name=name)

    def add_indicator_leq(
        self,
        binary: Variable,
        expr: Union[Variable, LinearExpression],
        rhs: Number,
        big_m: Optional[float] = None,
        name: str = "",
    ) -> Constraint:
        """Add the big-M encoding of ``binary == 1  =>  expr <= rhs``.

        The constraint added is ``expr <= rhs + M * (1 - binary)``.  ``big_m``
        must upper-bound ``expr - rhs`` over the feasible region; callers with
        normalized [0, 1] quantities should pass a tight value (e.g. the
        number of summed terms).
        """
        if not binary.integer or binary.lb != 0.0 or binary.ub != 1.0:
            raise SolverError("add_indicator_leq requires a binary indicator variable")
        big_m = self.DEFAULT_BIG_M if big_m is None else float(big_m)
        expr = LinearExpression._coerce(expr)
        constraint = expr + big_m * LinearExpression({binary: 1.0}) <= float(rhs) + big_m
        return self.add_constraint(constraint, name=name)

    def add_indicator_geq(
        self,
        binary: Variable,
        expr: Union[Variable, LinearExpression],
        rhs: Number,
        big_m: Optional[float] = None,
        name: str = "",
    ) -> Constraint:
        """Add the big-M encoding of ``binary == 1  =>  expr >= rhs``."""
        if not binary.integer or binary.lb != 0.0 or binary.ub != 1.0:
            raise SolverError("add_indicator_geq requires a binary indicator variable")
        big_m = self.DEFAULT_BIG_M if big_m is None else float(big_m)
        expr = LinearExpression._coerce(expr)
        constraint = expr - big_m * LinearExpression({binary: 1.0}) >= float(rhs) - big_m
        return self.add_constraint(constraint, name=name)

    def add_exists(self, selectors: Sequence[Variable], name: str = "") -> Constraint:
        """Require at least one of the binary ``selectors`` to be 1."""
        if not selectors:
            raise SolverError("add_exists needs at least one selector variable")
        return self.add_constraint(lin_sum(selectors) >= 1.0, name=name)

    # -- objective ----------------------------------------------------------
    def minimize(self, expr: Union[Variable, LinearExpression, Number]) -> None:
        self._objective = _ObjectiveSpec(LinearExpression._coerce(expr), maximize=False)

    def maximize(self, expr: Union[Variable, LinearExpression, Number]) -> None:
        self._objective = _ObjectiveSpec(LinearExpression._coerce(expr), maximize=True)

    # -- solving ------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def num_integer_variables(self) -> int:
        return sum(1 for v in self._variables if v.integer)

    def solve(
        self,
        time_limit: Optional[float] = None,
        mip_rel_gap: Optional[float] = None,
    ) -> Solution:
        """Solve the model and return a :class:`Solution`.

        Raises
        ------
        InfeasibleError
            If the model is proven infeasible.
        UnboundedError
            If the model is unbounded in the optimization direction.
        SolverError
            For any other solver failure.
        """
        n = len(self._variables)
        if n == 0:
            return Solution(SolveStatus.OPTIMAL, self._objective.expr.constant, {})

        if not TRACER.enabled:
            return self._solve_traced(time_limit, mip_rel_gap, n)
        with TRACER.span(
            "solver.model_solve",
            model=self.name,
            variables=n,
            constraints=len(self._constraints),
        ):
            return self._solve_traced(time_limit, mip_rel_gap, n)

    def _solve_traced(
        self,
        time_limit: Optional[float],
        mip_rel_gap: Optional[float],
        n: int,
    ) -> Solution:
        # The expression-based front-end re-assembles its matrices on every
        # solve: account that as one model build (hot paths that want
        # builds < solves use ModelBuilder/ModelTemplate instead).  scipy
        # is imported before the build timer starts, so a process's first
        # solve does not charge the import to the build.
        from scipy import sparse

        build_start = time.monotonic()
        sign = -1.0 if self._objective.maximize else 1.0
        c = np.zeros(n)
        for var, coeff in self._objective.expr.terms.items():
            c[var.index] += sign * coeff

        integrality = np.array(
            [1 if var.integer else 0 for var in self._variables], dtype=np.int8
        )
        lower = np.array([var.lb for var in self._variables])
        upper = np.array([var.ub for var in self._variables])

        matrix = None
        lo = hi = None
        if self._constraints:
            rows, cols, data = [], [], []
            lo = np.empty(len(self._constraints))
            hi = np.empty(len(self._constraints))
            for ci, constraint in enumerate(self._constraints):
                c_lo, c_hi = constraint.bounds()
                lo[ci], hi[ci] = c_lo, c_hi
                for var, coeff in constraint.expr.terms.items():
                    rows.append(ci)
                    cols.append(var.index)
                    data.append(coeff)
            matrix = sparse.csr_matrix(
                (data, (rows, cols)), shape=(len(self._constraints), n)
            )
        solver_stats.record_build(time.monotonic() - build_start)

        status, x, gap = solve_milp_arrays(
            self.name,
            c,
            integrality,
            lower,
            upper,
            matrix,
            lo,
            hi,
            time_limit=time_limit,
            mip_rel_gap=mip_rel_gap,
        )

        values = {var: float(x[var.index]) for var in self._variables}
        for var in self._variables:
            if var.integer:
                values[var] = float(round(values[var]))
        objective = self._objective.expr.value(values)
        return Solution(status=status, objective=objective, values=values, mip_gap=gap)

    @staticmethod
    def _map_status(code: int) -> SolveStatus:
        # Kept as an alias of repro.solvers.status.map_status for callers
        # (and tests) that used the historical staticmethod.
        return map_status(code)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Model({self.name!r}, vars={self.num_variables}, "
            f"int={self.num_integer_variables}, cons={self.num_constraints})"
        )
