"""Small dense linear programs: solve, Chebyshev center, ray maximization.

Everything operates on dense numpy arrays and is intended for tiny
instances (dimension <= ~10, at most a few hundred rows).  A two-phase
primal simplex with Bland's rule keeps the solver cycle-free without any
tuning; asymptotics are irrelevant at these sizes, robustness is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 20_000
_PIVOT_TOL = 1e-10

LE = "<="
EQ = "=="


class NumericFailure(RuntimeError):
    """Pivot budget exhausted or the solution failed its own residual check."""


class InradiusZero(ValueError):
    """Polytope has empty interior (Chebyshev radius indistinguishable from 0)."""


class LinearProgram:
    """maximize objective @ x subject to rows (coeffs, relation, bound).

    Relations are "<=" or "==".  ``var_bounds`` is an optional sequence of
    (lo, hi) pairs per variable; None means unbounded on that side.
    """

    def __init__(self, objective, constraints, var_bounds=None):
        self.objective = np.asarray(objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size < 1:
            raise ValueError("objective must be a nonempty vector")
        n = self.objective.size
        coeffs, relations, bounds = [], [], []
        for row, rel, rhs in constraints:
            row = np.asarray(row, dtype=float)
            if row.shape != (n,):
                raise ValueError(f"constraint dimension {row.shape} != ({n},)")
            if rel not in (LE, EQ):
                raise ValueError(f"relation must be '<=' or '==', got {rel!r}")
            coeffs.append(row)
            relations.append(rel)
            bounds.append(float(rhs))
        self.coeffs = np.array(coeffs, dtype=float) if coeffs else np.zeros((0, n))
        self.relations = tuple(relations)
        self.bounds = np.asarray(bounds, dtype=float)
        if not (np.all(np.isfinite(self.objective)) and np.all(np.isfinite(self.coeffs))
                and np.all(np.isfinite(self.bounds))):
            raise ValueError("LP data must be finite")
        if var_bounds is None:
            var_bounds = [(None, None)] * n
        if len(var_bounds) != n:
            raise ValueError("var_bounds length must match dimension")
        self.var_bounds = tuple((lo, hi) for lo, hi in var_bounds)

    @property
    def dim(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpOutcome:
    status: str
    solution: Optional[np.ndarray] = None
    objective_value: Optional[float] = None


def _pivot(T: np.ndarray, basis: list, row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and abs(T[r, col]) > 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _simplex_phase(T: np.ndarray, basis: list, allowed: np.ndarray, budget: list) -> str:
    """Run Bland-rule pivots on tableau T (last row = reduced costs for a
    minimization, last column = rhs).  Returns "optimal" or "unbounded"."""
    m = T.shape[0] - 1
    while True:
        red = T[-1, :-1]
        candidates = np.where(allowed & (red < -_PIVOT_TOL))[0]
        if candidates.size == 0:
            return OPTIMAL
        col = int(candidates[0])  # Bland: smallest index enters
        ratios = np.full(m, np.inf)
        positive = T[:m, col] > _PIVOT_TOL
        ratios[positive] = T[:m, -1][positive] / T[:m, col][positive]
        best = ratios.min()
        if not np.isfinite(best):
            return UNBOUNDED
        ties = np.where(ratios <= best + _PIVOT_TOL)[0]
        row = int(min(ties, key=lambda r: basis[r]))  # Bland: smallest basic index leaves
        _pivot(T, basis, row, col)
        budget[0] -= 1
        if budget[0] <= 0:
            raise NumericFailure("simplex pivot budget exhausted")


def _solve_standard(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """maximize c @ x subject to A @ x == b, x >= 0.  Returns (status, x)."""
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: artificial variable per row, minimize their sum
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, n:n + m] = 1.0
    for r in range(m):
        T[-1] -= T[r]
    basis = list(range(n, n + m))
    allowed = np.ones(n + m, dtype=bool)
    budget = [_MAX_PIVOTS]
    _simplex_phase(T, basis, allowed, budget)  # bounded below by 0, never unbounded
    if T[-1, -1] < -FEASIBILITY_TOL * max(1.0, np.abs(b).max(initial=1.0)):
        return INFEASIBLE, None

    # drive any leftover artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n:
            cols = np.where(np.abs(T[r, :n]) > 1e-7)[0]
            if cols.size:
                _pivot(T, basis, r, int(cols[0]))

    # phase 2 on the original objective (minimize -c)
    allowed[n:] = False
    T[-1, :] = 0.0
    T[-1, :n] = -c
    for r in range(m):
        if basis[r] < n:
            T[-1] -= T[-1, basis[r]] * T[r]
    status = _simplex_phase(T, basis, allowed, budget)
    if status == UNBOUNDED:
        return UNBOUNDED, None
    x = np.zeros(n + m)
    for r in range(m):
        x[basis[r]] = T[r, -1]
    return OPTIMAL, x[:n]


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve a small dense LP.  Never silently wrong: an Optimal outcome is
    re-checked for primal feasibility and raises NumericFailure otherwise."""
    n = lp.dim

    # fold finite upper bounds into extra <= rows, shift finite lows to 0
    rows = [lp.coeffs]
    rels = list(lp.relations)
    rhs = [lp.bounds]
    for k, (lo, hi) in enumerate(lp.var_bounds):
        if hi is not None:
            e = np.zeros(n)
            e[k] = 1.0
            rows.append(e[None, :])
            rels.append(LE)
            rhs.append(np.array([float(hi)]))
    A = np.vstack(rows)
    b = np.concatenate(rhs)

    shift = np.array([lo if lo is not None else 0.0 for lo, _ in lp.var_bounds])
    b = b - A @ shift

    # columns: one per lower-bounded variable, a +/- pair per free variable
    cols = []
    col_map = []  # (var index, sign)
    for k, (lo, _) in enumerate(lp.var_bounds):
        e = np.zeros(n)
        e[k] = 1.0
        cols.append(e)
        col_map.append((k, 1.0))
        if lo is None:
            cols.append(-e)
            col_map.append((k, -1.0))
    P = np.array(cols).T  # (n, n_cols)
    A_z = A @ P
    c_z = lp.objective @ P

    # slacks for inequality rows
    m = A_z.shape[0]
    slack_rows = [i for i in range(m) if (rels[i] if i < len(rels) else LE) == LE]
    S = np.zeros((m, len(slack_rows)))
    for j, i in enumerate(slack_rows):
        S[i, j] = 1.0
    A_std = np.hstack([A_z, S])
    c_std = np.concatenate([c_z, np.zeros(len(slack_rows))])

    status, z = _solve_standard(A_std, b, c_std)
    if status != OPTIMAL:
        return LpOutcome(status=status)

    x = shift.copy()
    for j, (k, sgn) in enumerate(col_map):
        x[k] += sgn * z[j]

    scale = max(1.0, np.abs(lp.bounds).max(initial=1.0))
    resid = _feasibility_residual(lp, x)
    if resid > FEASIBILITY_TOL * scale * 10:
        raise NumericFailure(f"solution failed feasibility re-check (residual {resid:.3e})")
    return LpOutcome(status=OPTIMAL, solution=x, objective_value=float(lp.objective @ x))


def _feasibility_residual(lp: LinearProgram, x: np.ndarray) -> float:
    resid = 0.0
    if lp.coeffs.shape[0]:
        vals = lp.coeffs @ x
        for i, rel in enumerate(lp.relations):
            if rel == LE:
                resid = max(resid, vals[i] - lp.bounds[i])
            else:
                resid = max(resid, abs(vals[i] - lp.bounds[i]))
    for k, (lo, hi) in enumerate(lp.var_bounds):
        if lo is not None:
            resid = max(resid, lo - x[k])
        if hi is not None:
            resid = max(resid, x[k] - hi)
    return float(resid)


def chebyshev_center(A, b):
    """Center and radius of the largest inscribed Euclidean ball of {A x <= b}.

    Raises InradiusZero when the polytope has (numerically) empty interior and
    ValueError when it is unbounded.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    norms = np.linalg.norm(A, axis=1)
    rows = []
    for i in range(m):
        rows.append((np.append(A[i], norms[i]), LE, b[i]))
    lp = LinearProgram(
        np.append(np.zeros(n), 1.0),
        rows,
        var_bounds=[(None, None)] * n + [(0.0, None)],
    )
    out = solve(lp)
    if out.status == INFEASIBLE:
        raise InradiusZero("polytope is empty")
    if out.status == UNBOUNDED:
        raise ValueError("polytope is unbounded; Chebyshev center undefined")
    center, radius = out.solution[:n], float(out.solution[n])
    if radius <= FEASIBILITY_TOL * 10:
        raise InradiusZero(f"polytope interior is empty (radius {radius:.3e})")
    return center, radius


def ray_max(A, b, origin, direction) -> float:
    """max{t >= 0 : origin + t * direction in {A x <= b}}.

    The origin must be strictly inside the body; direction must be nonzero.
    This one-dimensional LP has the closed-form solution
    min over rows with positive directional coefficient of slack / coefficient.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if origin.shape[0] != A.shape[1] or direction.shape[0] != A.shape[1]:
        raise ValueError("origin/direction dimension mismatch")
    if np.linalg.norm(direction) == 0.0:
        raise ValueError("direction must be nonzero")
    slack = b - A @ origin
    if slack.min() < FEASIBILITY_TOL:
        raise ValueError("origin is not strictly inside the body")
    coef = A @ direction
    hit = coef > _PIVOT_TOL
    if not np.any(hit):
        raise ValueError("ray never exits; body appears unbounded in this direction")
    return float(np.min(slack[hit] / coef[hit]))
