import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from homcover import lpcore
from homcover.bodies import ConvexBody, random_vrep_body
from homcover.randvol import RngSpec


def solve_inequalities(c, A, b):
    """maximize c @ x over {A x <= b} with x free, through the standard form
    [A, -A, I] [x+; x-; s] == b: returns (status, x, objective value)."""
    c = np.asarray(c, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    status, z = lpcore.solve(np.hstack([A, -A, np.eye(m)]), np.asarray(b, dtype=float),
                             np.concatenate([c, -c, np.zeros(m)]))
    if status != lpcore.OPTIMAL:
        return status, None, None
    x = z[:n] - z[n:2 * n]
    return status, x, float(c @ x)


def test_single_variable_box():
    # max x subject to x + s == 1 with x, s >= 0
    status, x = lpcore.solve(np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 0.0]))
    assert status == lpcore.OPTIMAL
    assert x[0] == pytest.approx(1.0, abs=1e-9)


def test_contradictory_constraints_infeasible():
    # x == 2 and x <= 1 with x = x+ - x- free
    A = np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 1.0]])
    status, x = lpcore.solve(A, np.array([2.0, 1.0]), np.zeros(3))
    assert status == lpcore.INFEASIBLE and x is None


def test_triangle_objective_matches_vertex_enumeration():
    A = [[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    status, _, value = solve_inequalities([1.0, 1.0], A, [1.0, 0.0, 0.0])
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert status == lpcore.OPTIMAL
    assert value == pytest.approx(max(vertices.sum(axis=1)), abs=1e-9)


def test_unbounded_detected():
    status, x, _ = solve_inequalities([1.0, 0.0], [[-1.0, 0.0]], [0.0])
    assert status == lpcore.UNBOUNDED and x is None


def test_chebyshev_square():
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    center, radius = lpcore.chebyshev_center(A, b)
    assert radius == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(center, 0.0, atol=1e-9)


def test_chebyshev_thin_box():
    # [0,2] x [0,1]
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([2.0, 0.0, 1.0, 0.0])
    center, radius = lpcore.chebyshev_center(A, b)
    assert radius == pytest.approx(0.5, abs=1e-9)
    assert np.all(A @ center + radius * 1.0 <= b + 1e-9)


def test_chebyshev_right_triangle():
    T = ConvexBody.from_vertices([[0, 0], [1, 0], [0, 1]])
    A, b = T.halfspaces
    _, radius = lpcore.chebyshev_center(A, b)
    assert radius == pytest.approx(1.0 / (2.0 + math.sqrt(2.0)), abs=1e-9)


def test_chebyshev_empty_interior():
    A = np.array([[1.0], [-1.0]])
    b = np.array([0.0, 0.0])  # the single point {0}
    with pytest.raises(lpcore.InradiusZero):
        lpcore.chebyshev_center(A, b)


def pinned_bodies():
    """vrep3's body, three squares, and 99 random vertex bodies in R^2..R^4."""
    yield random_vrep_body(3, 12, np.random.default_rng(3))
    yield ConvexBody.cube(2)
    yield ConvexBody.cube(2, 4.0)
    yield ConvexBody.cube(2).scaled(2 ** -1.5)
    for seed in range(99):
        dim = 2 + seed % 3
        yield random_vrep_body(dim, dim + 1 + seed % 9, np.random.default_rng(seed))


def chebyshev_digest(bodies) -> str:
    h = hashlib.sha256()
    for body in bodies:
        center, radius = body.chebyshev
        h.update(np.asarray(center, dtype=np.float64).tobytes())
        h.update(np.float64(radius).tobytes())
    return h.hexdigest()


def test_chebyshev_bytes_are_pinned():
    # every grid spacing and net anchor derives from these bytes
    assert chebyshev_digest(pinned_bodies()) == \
        "e731a3e4c0d06e54d72afda42d99a576ddd1c13592360929a3105ae78b275d23"


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
@example(5, 6, 92)  # the simplex's ball overshoots a facet of this body
@example(5, 7, 223)  # shrunk at the simplex's own centre, this ball is 5.6% short
@example(5, 10, 556)  # the primal stalls: 20,000 pivots did not converge
def test_chebyshev_ball_fits_and_is_near_optimal(dim, extra, seed):
    body = random_vrep_body(dim, dim + 1 + extra, np.random.default_rng(seed))
    A, b = body.halfspaces
    center, radius = lpcore.chebyshev_center(A, b)
    norms = np.linalg.norm(A, axis=1)
    # an LP ball is accepted up to the simplex's residual bound
    tol = 10 * lpcore.FEASIBILITY_TOL * max(1.0, float(np.abs(b).max()))
    assert np.all(A @ center + radius * norms <= b + tol)
    highs = linprog(np.append(np.zeros(dim), -1.0), A_ub=np.column_stack([A, norms]), b_ub=b,
                    bounds=[(None, None)] * dim + [(0.0, None)], method="highs")
    assert highs.status == 0
    assert radius >= 0.99 * highs.x[-1]


def test_feasible_instances_never_reported_infeasible(np_rng):
    # 1000 random small LPs with a feasible point built in
    for _ in range(1000):
        n = int(np_rng.integers(1, 5))
        m = int(np_rng.integers(1, 8))
        A = np_rng.normal(size=(m, n))
        x0 = np_rng.normal(size=n)
        slack = np_rng.uniform(0.0, 1.0, size=m)
        status, _, _ = solve_inequalities(np_rng.normal(size=n), A, A @ x0 + slack)
        assert status != lpcore.INFEASIBLE


def test_vertex_oracle_equivalence(np_rng):
    # random 2-D polytopes with <= 8 vertices: LP optimum == vertex max
    for trial in range(60):
        body = random_vrep_body(2, int(np_rng.integers(3, 9)),
                                RngSpec(900 + trial).generator())
        A, b = body.halfspaces
        c = np_rng.normal(size=2)
        status, _, value = solve_inequalities(c, A, b)
        assert status == lpcore.OPTIMAL
        assert value == pytest.approx(float(np.max(body.vertices @ c)), abs=1e-9)
