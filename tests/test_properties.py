"""Property tests on random vertex bodies in R^2..R^4 and the special kinds:
the H-representation fast paths against LP oracles, the coverage kernel
against a dense membership matrix, thread-count and sampler batch-size
invariance, and the patch pass against a quadratic greedy."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from homcover import bodies, runtime
from homcover.bodies import MEMBERSHIP_TOL, ConvexBody, HomothetPlacement, MinkowskiCombo, \
    bounding_box, combo_contains, combo_contains_lp, covered_by_union, first_cover, \
    random_vrep_body
from homcover.covercert import certify_cover
from homcover.fnsched import _separated_subset
from homcover.nets import NetTooLarge, build_net
from homcover.randvol import RngSpec, sample_uniform

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def vrep_bodies(draw):
    dim = draw(st.integers(2, 4))
    k = draw(st.integers(dim + 1, 10))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return random_vrep_body(dim, k, np.random.default_rng(seed)), seed


@st.composite
def any_bodies(draw):
    """A random vertex body or a special kind, in R^2..R^4."""
    kind = draw(st.sampled_from(["vrep", "cube", "simplex", "crosspolytope"]))
    if kind == "vrep":
        return draw(vrep_bodies())[0]
    dim = draw(st.integers(2, 4))
    return ConvexBody.from_spec({"kind": kind, "dim": dim, "scale": draw(st.floats(0.5, 2.0))})


coefficients = st.floats(0.05, 2.0)
seeds = st.integers(0, 2 ** 32 - 1)


def random_placements(body, rng, count):
    lo, hi = body.vertex_bbox
    return [HomothetPlacement(c, r) for c, r in
            zip(rng.uniform(lo, hi, size=(count, body.dim)), rng.uniform(0.0, 1.0, count))]


def dense_first_cover(body, placements, pts, shrink):
    """Index of the first True column of the points x placements membership
    matrix, -1 for an all-False row."""
    A, b = body.halfspaces
    member = np.column_stack([
        np.all((pts - pl.center) @ A.T <= (pl.ratio - shrink) * b + MEMBERSHIP_TOL, axis=1)
        & (pl.ratio - shrink > 0.0) for pl in placements])
    return np.where(member.any(axis=1), member.argmax(axis=1), -1)


def greedy_separated(points, zone):
    """Quadratic reference for the patch pass: one scalar test per pair."""
    kept = []
    for g in points:
        if not any(combo_contains(zone, g - p) for p in kept):
            kept.append(g)
    return np.array(kept).reshape(-1, points.shape[1])


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


@PROPERTY_SETTINGS
@given(any_bodies(), seeds, st.integers(1, 12), st.integers(0, 12), st.integers(1, 400),
       st.floats(0.0, 0.4))
def test_first_cover_matches_dense_oracle(body, seed, count, tiny, probes, shrink):
    rng = np.random.default_rng(seed)
    # copies with ratios down to 1e-3 sit inside one cell of a grid sized to the largest
    placements = random_placements(body, rng, count)
    placements += [HomothetPlacement(pl.center, pl.ratio * 10.0 ** rng.uniform(-3.0, -1.0))
                   for pl in random_placements(body, rng, tiny)]
    placements = [placements[i] for i in rng.permutation(len(placements))]
    lo, hi = body.vertex_bbox
    pad = 0.2 * (hi - lo)
    point_sets = [rng.uniform(lo - pad, hi + pad, size=(probes, body.dim))]
    try:
        point_sets.append(build_net(body, 0.35 if body.dim < 4 else 0.6, max_points=50_000).points)
    except NetTooLarge:
        pass  # a sliver body: its net would need millions of points
    for pts in point_sets:
        want = dense_first_cover(body, placements, pts, shrink)
        # the default block size, and blocks of a few pairs each
        for block in (bodies._PAIR_BLOCK, 256):
            with mock.patch.object(bodies, "_PAIR_BLOCK", block):
                assert np.array_equal(first_cover(body, placements, pts, shrink), want)
                assert np.array_equal(covered_by_union(body, placements, pts, shrink), want >= 0)


@settings(max_examples=5, deadline=None)
@given(seeds)
def test_coverage_is_thread_count_invariant(seed):
    rng = np.random.default_rng(seed)
    square = ConvexBody.cube(2)
    # a jittered 5 x 5 lattice of copies covers the square with margin to spare,
    # and random extra copies in random order vary which copy is first
    lattice = [HomothetPlacement(np.array([x, y]) + rng.uniform(-0.05, 0.05, 2), 0.3)
               for x in np.linspace(-0.8, 0.8, 5) for y in np.linspace(-0.8, 0.8, 5)]
    placements = lattice + random_placements(square, rng, 30)
    placements = [placements[i] for i in rng.permutation(len(placements))]
    net = build_net(square, 0.004)
    probes = rng.uniform(-1.0, 1.0, size=(runtime._PARALLEL_MIN_POINTS + 1000, 2))
    assert net.size > runtime._PARALLEL_MIN_POINTS
    runs = []
    try:
        for threads in (1, 2):
            runtime.set_threads(threads)
            verdict = certify_cover(square, placements, 0.004, net=net)
            runs.append((covered_by_union(square, placements, probes, 0.1), verdict))
    finally:
        runtime.set_threads(None)
    (mask1, v1), (mask2, v2) = runs
    assert np.array_equal(mask1, mask2)
    assert np.array_equal(mask1, dense_first_cover(square, placements, probes, 0.1) >= 0)
    assert v1.status == v2.status == "certified"
    assert np.array_equal(v1.assignment, v2.assignment)
    assert np.array_equal(v1.assignment,
                          dense_first_cover(square, placements, net.points, v1.shrink))


@PROPERTY_SETTINGS
@given(any_bodies(), seeds, st.floats(0.05, 0.4), st.floats(0.2, 0.9))
def test_patch_pass_matches_quadratic_greedy(body, seed, scale, density):
    # the marked points of a small cube: a random subset of its grid, in grid order
    n = body.dim
    side = {2: 13, 3: 6, 4: 4}[n]
    axis = np.linspace(-1.0, 1.0, side)
    grid = np.stack(np.meshgrid(*(axis,) * n, indexing="ij"), axis=-1).reshape(-1, n)
    marked = grid[np.random.default_rng(seed).random(grid.shape[0]) < density]
    zone = MinkowskiCombo(body, scale, scale)
    kept = _separated_subset(marked, zone)
    assert np.array_equal(kept, greedy_separated(marked, zone))
    for i in range(len(kept)):
        assert not combo_contains(zone, kept[i + 1:] - kept[i]).any()
