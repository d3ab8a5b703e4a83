import tracemalloc

import numpy as np
import pytest

from homcover.bodies import (
    ConvexBody,
    HomothetPlacement,
    Homothets,
    MinkowskiCombo,
    bounding_box,
    combo_contains,
    combo_contains_lp,
    covered_by_union,
    cover_factor,
    cube_inclusion_factor,
    first_cover,
    random_vrep_body,
)
from homcover.nets import build_net
from homcover.randvol import RngSpec
from test_properties import dense_first_cover


TRIANGLE = ConvexBody.from_vertices([[0, 0], [1, 0], [0, 1]])
# a point set this large sends first_cover down its grid path
LARGE_POINT_SET = 50_000


def test_contains_examples():
    assert ConvexBody.cube(3).contains([0, 0, 0], "closed")
    assert not ConvexBody.cube(2).contains([1.0, 0.0], "strictInterior")
    assert TRIANGLE.contains([0.5, 0.49], "closed")
    assert not TRIANGLE.contains([0.5, 0.51], "closed")


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        ConvexBody.cube(2).contains([0.0, 0.0, 0.0])


def test_strict_interior_implies_closed(np_rng):
    body = ConvexBody.simplex(3)
    pts = np_rng.uniform(-0.6, 0.6, size=(2000, 3))
    strict = body.contains(pts, "strictInterior")
    closed = body.contains(pts, "closed")
    assert np.all(closed[strict])


def test_degenerate_vertices_rejected():
    with pytest.raises(ValueError):
        ConvexBody.from_vertices([[0, 0], [1, 0], [2, 0]])


def test_combo_cube_is_scaled_cube():
    cube = ConvexBody.cube(3)
    combo = MinkowskiCombo(cube, 1.0, 1.0)
    assert combo_contains(combo, [2.0, 2.0, 2.0])
    assert not combo_contains(combo, [2.0 + 1e-6, 2.0, 2.0])


def test_combo_triangle_difference_hexagon():
    combo = MinkowskiCombo(TRIANGLE, 1.0, 1.0)
    assert combo_contains(combo, [1.0, -1.0])  # a hexagon vertex
    assert combo_contains_lp(combo, [1.0, -1.0])
    assert not combo_contains(combo, [1.0, 1.0])
    assert not combo_contains_lp(combo, [1.0, 1.0])


def test_combo_identity_reduces_to_contains(np_rng):
    body = ConvexBody.simplex(2)
    combo = MinkowskiCombo(body, 1.0, 0.0)
    pts = np_rng.uniform(-0.8, 0.8, size=(500, 2))
    assert np.array_equal(combo_contains(combo, pts), body.contains(pts))


def test_combo_validation():
    with pytest.raises(ValueError):
        MinkowskiCombo(TRIANGLE, 0.0, 0.0)
    with pytest.raises(ValueError):
        MinkowskiCombo(TRIANGLE, -1.0, 1.0)
    with pytest.raises(ValueError):
        combo_contains(MinkowskiCombo(TRIANGLE, 1.0, 1.0), [1.0, 2.0, 3.0])


def test_difference_body_symmetry(np_rng):
    for body in (TRIANGLE, ConvexBody.simplex(3), random_vrep_body(2, 6, RngSpec(5).generator())):
        combo = MinkowskiCombo(body, 1.0, 1.0)
        lo, hi = bounding_box(combo)
        pts = np_rng.uniform(lo, hi, size=(10_000, body.dim))
        assert np.array_equal(combo_contains(combo, pts), combo_contains(combo, -pts))


def test_combo_monotone_in_minus_coefficient(np_rng):
    body = ConvexBody.simplex(2)  # interior origin
    small = MinkowskiCombo(body, 1.0, 0.25)
    large = MinkowskiCombo(body, 1.0, 0.75)
    lo, hi = bounding_box(large)
    pts = np_rng.uniform(lo, hi, size=(5000, 2))
    inside_small = combo_contains(small, pts)
    inside_large = combo_contains(large, pts)
    assert np.all(inside_large[inside_small])


def test_combo_closed_form_matches_lp(np_rng):
    bodies = [ConvexBody.cube(2), ConvexBody.simplex(2),
              ConvexBody.cross_polytope(2), TRIANGLE]
    for body in bodies:
        combo = MinkowskiCombo(body, 1.0, 0.5)
        lo, hi = bounding_box(combo)
        pts = np_rng.uniform(lo * 1.2, hi * 1.2, size=(40, body.dim))
        fast = combo_contains(combo, pts)
        slow = np.array([combo_contains_lp(combo, p) for p in pts])
        assert np.array_equal(fast, slow)


def test_combo_hrep_is_cached_per_ratio():
    body = random_vrep_body(2, 7, RngSpec(4).generator())
    A1, b1 = MinkowskiCombo(body, 1.0, 1.0).halfspaces
    for s in (0.01, 0.3, 2.0):  # patch zones sK - sK share the K - K entry
        A, b = MinkowskiCombo(body, s, s).halfspaces
        assert A is A1 and np.allclose(b, s * b1)
    MinkowskiCombo(body, 1.0, 0.5).halfspaces
    MinkowskiCombo(body, 2.0, 1.0).halfspaces
    assert len(body._hreps) == 2


def test_bounding_box_examples():
    cube = ConvexBody.cube(2)
    lo, hi = bounding_box(MinkowskiCombo(cube, 1.0, 0.5))
    assert np.allclose(lo, -1.5) and np.allclose(hi, 1.5)
    lo, hi = bounding_box(MinkowskiCombo(TRIANGLE, 1.0, 1.0))
    assert np.allclose(lo, -1.0) and np.allclose(hi, 1.0)
    body = random_vrep_body(3, 6, RngSpec(2).generator())
    lo, hi = bounding_box(MinkowskiCombo(body, 1.0, 1.0))
    assert np.allclose(lo, -hi)  # difference body is origin-symmetric


def test_dilated_contains_matches_direct_dilation(np_rng):
    # x in K + delta*Binf iff some |u|inf <= delta has x - u in K
    for body in (ConvexBody.cube(2), ConvexBody.simplex(2),
                 ConvexBody.cross_polytope(3), ConvexBody.simplex(3), TRIANGLE):
        delta = 0.2
        inside = body.vertices[np_rng.integers(0, body.vertices.shape[0], 200)]
        mix = np_rng.uniform(0, 1, size=(200, 1))
        pts_in = inside * mix + np_rng.uniform(-delta, delta, size=(200, body.dim))
        assert np.all(body.dilated_contains(pts_in, delta))
        far = inside + np.sign(inside + 1e-12) * (delta + 0.3) + 0.3
        outside_mask = ~body.dilated_contains(far, delta)
        # far points should mostly be outside; verify against the closed test
        assert outside_mask.mean() > 0.5


def test_homothet_union_cover(np_rng):
    cube = ConvexBody.cube(2)
    placements = [HomothetPlacement(np.array([sx * 0.5, sy * 0.5]), 0.5)
                  for sx in (-1, 1) for sy in (-1, 1)]
    pts = np_rng.uniform(-1, 1, size=(5000, 2))
    assert covered_by_union(cube, placements, pts).all()
    assert not covered_by_union(cube, placements[:2], pts).all()


def test_cover_and_reflection_factors():
    cube = ConvexBody.cube(2)
    big = ConvexBody.cube(2, scale=3.0)
    assert cover_factor(big, cube) == pytest.approx(3.0)
    assert cube_inclusion_factor(cube) == pytest.approx(1.0)


def test_spec_roundtrip():
    for body in (ConvexBody.cube(3), ConvexBody.simplex(2),
                 ConvexBody.cross_polytope(4), TRIANGLE, ConvexBody.cube(2, 2.5)):
        again = ConvexBody.from_spec(body.to_spec())
        assert again.kind == body.kind and again.dim == body.dim
        assert np.allclose(again.vertices, body.vertices)


def test_union_cover_of_a_large_point_set_matches_dense_oracle(np_rng):
    cube = ConvexBody.cube(2)
    placements = [HomothetPlacement(np_rng.uniform(-1, 1, 2), 0.4) for _ in range(30)]
    pts = np_rng.uniform(-1, 1, size=(60_000, 2))
    assert pts.shape[0] >= LARGE_POINT_SET
    mask = covered_by_union(cube, placements, pts)
    assert np.array_equal(mask, dense_first_cover(cube, placements, pts, 0.0) >= 0)


def test_random_vrep_body_properties():
    body = random_vrep_body(3, 8, RngSpec(1).generator())
    assert body.contains_origin_interior
    assert np.allclose(body.vertices.mean(axis=0), 0.0, atol=1e-12)
    assert np.all(np.linalg.norm(body.vertices - body.vertices.mean(axis=0), axis=1) <= 2.0)


@pytest.mark.parametrize("ratio", [-0.1, 1.5, float("nan")])
def test_homothets_reject_a_ratio_outside_the_unit_interval(ratio):
    with pytest.raises(ValueError):
        Homothets(np.zeros((2, 2)), [0.5, ratio])


def test_homothets_need_one_ratio_per_center():
    with pytest.raises(ValueError):
        Homothets(np.zeros((3, 2)), [0.5, 0.5])
    with pytest.raises(ValueError):
        Homothets(np.zeros(2), [0.5, 0.5])


def test_homothets_columns_are_read_only_views():
    centers, ratios = np.zeros((3, 2)), np.full(3, 0.5)
    family = Homothets(centers, ratios)
    for column in (family.centers, family.ratios):
        with pytest.raises(ValueError):
            column[0] = 1.0
    centers[0, 0] = ratios[0] = 0.25  # the caller's arrays stay writable
    assert family.centers[0, 0] == family.ratios[0] == 0.25
    assert Homothets.of(family) is family
    net = build_net(ConvexBody.cube(2), 0.5)
    net.covering_indices(np.zeros((1, 2)))
    assert net.points.flags.writeable


def test_placement_freezes_a_view_of_the_callers_center():
    c = np.zeros(2)
    pl = HomothetPlacement(c, 0.5)
    c[0] = 1.0  # the caller's array stays writable
    assert pl.center[0] == 1.0
    with pytest.raises(ValueError):
        pl.center[0] = 2.0


# tracemalloc's peak, in bytes, of the call below under the pair-major kernel
# that the point-major walk replaced (14,722,434 to 14,722,552 over three runs)
PAIR_MAJOR_PEAK = 14_722_434


def test_first_cover_peak_memory_stays_bounded():
    """One large call, the square's 0.003-net (227,529 points) against 3,000
    copies of ratio 0.03, stays within the pair-major kernel's peak: the
    walk's working set is bounded by ``_PAIR_BLOCK``."""
    square = ConvexBody.cube(2)
    net = build_net(square, 0.003)
    rng = np.random.default_rng(20261020)
    family = Homothets(rng.uniform(-1.0, 1.0, size=(3000, 2)), np.full(3000, 0.03))
    square.halfspaces, square.vertex_bbox  # the body's caches are not the kernel's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        first = first_cover(square, family, net.points)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert net.size == 227_529 and np.count_nonzero(first >= 0) == 211_139
    assert peak <= PAIR_MAJOR_PEAK


def test_homothets_of_stacks_placements():
    placements = [HomothetPlacement(np.array([0.1 * i, -0.2 * i]), 0.1 * i) for i in range(4)]
    family = Homothets.of(placements)
    assert family.centers.tobytes() == np.array([pl.center for pl in placements]).tobytes()
    assert family.ratios.tolist() == [pl.ratio for pl in placements]
    empty = Homothets.of([])
    assert empty.centers.shape[0] == empty.ratios.size == 0
