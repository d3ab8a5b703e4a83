"""Property tests on random vertex bodies in R^2..R^4: the H-representation
fast paths against LP oracles, and sampler batch-size invariance."""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from homcover.bodies import MinkowskiCombo, bounding_box, combo_contains, \
    combo_contains_lp, random_vrep_body
from homcover.randvol import RngSpec, sample_uniform

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def vrep_bodies(draw):
    dim = draw(st.integers(2, 4))
    k = draw(st.integers(dim + 1, 10))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return random_vrep_body(dim, k, np.random.default_rng(seed)), seed


coefficients = st.floats(0.05, 2.0)


def dilation_lp(body, x, delta) -> bool:
    """x = V^T w + u with w a probability vector and |u|_inf <= delta."""
    V = body.vertices
    k, n = V.shape
    A_eq = np.vstack([np.hstack([V.T, np.eye(n)]),
                      np.concatenate([np.ones(k), np.zeros(n)])])
    res = linprog(np.zeros(k + n), A_eq=A_eq, b_eq=np.append(x, 1.0),
                  bounds=[(0, None)] * k + [(-delta, delta)] * n, method="highs")
    return res.status == 0


@PROPERTY_SETTINGS
@given(vrep_bodies(), coefficients, coefficients)
def test_combo_hrep_matches_lp_oracle(body_seed, a, c):
    body, seed = body_seed
    combo = MinkowskiCombo(body, a, c)
    lo, hi = bounding_box(combo)
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(40, body.dim))
    oracle = [combo_contains_lp(combo, p) for p in pts]
    assert combo_contains(combo, pts).tolist() == oracle


@PROPERTY_SETTINGS
@given(vrep_bodies(), st.floats(0.0, 1.0))
def test_dilated_contains_matches_lp_oracle(body_seed, delta):
    body, seed = body_seed
    lo, hi = body.vertex_bbox
    pts = np.random.default_rng(seed).uniform(lo - delta - 0.3, hi + delta + 0.3,
                                              size=(40, body.dim))
    oracle = [dilation_lp(body, p, delta) for p in pts]
    assert body.dilated_contains(pts, delta).tolist() == oracle


@PROPERTY_SETTINGS
@given(vrep_bodies(), coefficients, coefficients, st.integers(1, 50),
       st.integers(0, 2 ** 32 - 1))
def test_sample_uniform_is_batch_invariant(body_seed, a, c, count, seed):
    combo = MinkowskiCombo(body_seed[0], a, c)
    runs = [sample_uniform(combo, RngSpec(seed), count, batch=b)
            for b in (1, 3, 16, 8192)]
    for pts in runs[1:]:
        assert pts.tobytes() == runs[0].tobytes()
