"""Small dense linear programs: a standard-form simplex and the Chebyshev ball.

Everything operates on dense numpy arrays and is intended for tiny
instances (dimension <= ~10, at most a few hundred rows).  A two-phase
primal simplex with Bland's rule keeps the solver cycle-free without any
tuning; asymptotics are irrelevant at these sizes, robustness is not.
"""

from __future__ import annotations

import numpy as np

FEASIBILITY_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 20_000
# The Chebyshev primal's budget, per constraint row.  On 6,000 random vertex
# bodies (n = 2..5, seeds s = 0..1499, k = n + 1 + s % 13 vertices, up to
# 158 facets) every converging primal took at most 3.3 pivots per row (308 at
# most in all); the one that stalled (n = 5, s = 556, 120 facets) ran out of
# 20,000 pivots after 5.7 s on a 2-CPU x86 VM.  Three times the worst case
# is spent before the dual takes over: 1,200 pivots, 0.5 s, on that body.
_CHEBYSHEV_PIVOTS_PER_ROW = 10
_PIVOT_TOL = 1e-10


class NumericFailure(RuntimeError):
    """Pivot budget exhausted or the solution failed its own residual check."""


class InradiusZero(ValueError):
    """Polytope has empty interior (Chebyshev radius indistinguishable from 0)."""


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


def _simplex(A: np.ndarray, b: np.ndarray, c: np.ndarray, max_pivots: int = _MAX_PIVOTS):
    """maximize c @ x subject to A @ x == b, x >= 0.  Returns (status, x);
    raises NumericFailure after ``max_pivots`` pivots."""
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
    budget = [max_pivots]
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


def _residual_bound(b: np.ndarray) -> float:
    return FEASIBILITY_TOL * max(1.0, np.abs(b).max(initial=1.0)) * 10


def solve(A, b, c):
    """maximize c @ x subject to A @ x == b, x >= 0, for a dense A.

    Returns (status, x), with x None unless the status is OPTIMAL.  Never
    silently wrong: an optimal x is re-checked, and raises NumericFailure
    when max(|A x - b|, -x) exceeds 1e-8 * max(1, max |b|).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    status, x = _simplex(A, b, np.asarray(c, dtype=float))
    if status == OPTIMAL:
        resid = max(float(np.abs(A @ x - b).max(initial=0.0)), float(-x.min(initial=0.0)))
        if resid > _residual_bound(b):
            raise NumericFailure(f"solution failed feasibility re-check (residual {resid:.3e})")
    return status, x


def _dual_ball(A: np.ndarray, b: np.ndarray, norms: np.ndarray, why: str):
    """The Chebyshev ball from the dual LP, min b @ y subject to A^T y == 0,
    |a|^T y >= 1, y >= 0.  It has n + 1 rows, so its few pivots stay
    accurate; its support is the set of facets that the optimal ball
    touches.  The center solves those facets' equations, and the radius is
    its distance to the nearest facet, so the ball fits."""
    m, n = A.shape
    dual = np.zeros((n + 1, m + 1))
    dual[:n, :m] = A.T
    dual[n, :m] = norms
    dual[n, m] = -1.0
    status, y = _simplex(dual, np.eye(n + 1)[n], -np.append(b, 0.0))
    if status != OPTIMAL:
        raise NumericFailure(f"Chebyshev dual is {status} ({why})")
    touching = y[:m] > 0.0
    G = np.column_stack([A, norms])
    center = np.linalg.lstsq(G[touching], b[touching], rcond=None)[0][:n]
    radius = float(np.min((b - A @ center) / norms))
    if not radius > 0.0:
        raise NumericFailure(f"Chebyshev center is not interior (radius {radius:.3e})")
    return center, radius


def chebyshev_center(A, b):
    """Center and radius of the largest inscribed Euclidean ball of {A x <= b}
    (Boyd and Vandenberghe, Convex Optimization, section 8.5.1).

    The LP maximizes r subject to A x + r |a_i| <= b, in standard form over
    the columns x_1+, x_1-, ..., x_n+, x_n-, r and one slack per row.  Its
    ball is re-checked against those rows.  Where it overshoots a facet by
    more than the residual bound, or where the primal runs out of its pivot
    budget (``_CHEBYSHEV_PIVOTS_PER_ROW`` per row), the ball comes from the
    dual LP instead (``_dual_ball``).  Raises InradiusZero when the polytope
    has (numerically) empty interior, ValueError when it is unbounded, and
    NumericFailure when no interior center is found.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    norms = np.linalg.norm(A, axis=1)
    A_std = np.zeros((m, 2 * n + 1 + m))
    A_std[:, 0:2 * n:2] = A
    A_std[:, 1:2 * n:2] = -A
    A_std[:, 2 * n] = norms
    A_std[:, 2 * n + 1:] = np.eye(m)
    cost = np.zeros(2 * n + 1 + m)
    cost[2 * n] = 1.0
    try:
        status, z = _simplex(A_std, b, cost, max_pivots=_CHEBYSHEV_PIVOTS_PER_ROW * m)
    except NumericFailure as exc:
        center, radius = _dual_ball(A, b, norms, f"primal: {exc}")
    else:
        if status == INFEASIBLE:
            raise InradiusZero("polytope is empty")
        if status == UNBOUNDED:
            raise ValueError("polytope is unbounded; Chebyshev center undefined")
        center, radius = z[0:2 * n:2] - z[1:2 * n:2], float(z[2 * n])
        G = np.column_stack([A, norms])
        overshoot = max(float((G @ np.append(center, radius) - b).max(initial=0.0)), -radius)
        if overshoot > _residual_bound(b):
            center, radius = _dual_ball(A, b, norms, f"primal residual {overshoot:.3e}")
    if radius <= FEASIBILITY_TOL * 10:
        raise InradiusZero(f"polytope interior is empty (radius {radius:.3e})")
    return center, radius
