import math

import numpy as np
import pytest
from scipy import stats

from homcover import randvol
from homcover.bodies import ConvexBody, MinkowskiCombo, combo_contains
from homcover.randvol import (
    RejectionTooSlow,
    RngSpec,
    difference_volume_ratio,
    exact_volume,
    mc_volume,
    sample_uniform,
    wilson_interval,
)

TRIANGLE = ConvexBody.from_vertices([[0, 0], [1, 0], [0, 1]])


def test_bit_identical_reproduction():
    combo = MinkowskiCombo(ConvexBody.simplex(2), 1.0, 1.0)
    a = sample_uniform(combo, RngSpec(123, 5), 2000)
    b = sample_uniform(combo, RngSpec(123, 5), 2000)
    assert a.tobytes() == b.tobytes()
    ea = mc_volume(combo, RngSpec(9, 1), 10_000)
    eb = mc_volume(combo, RngSpec(9, 1), 10_000)
    assert ea == eb


def test_neighboring_streams_uncorrelated():
    x = RngSpec(2024, 10).generator().random(10_000)
    y = RngSpec(2024, 11).generator().random(10_000)
    rho = stats.spearmanr(x, y).statistic
    assert abs(rho) < 0.05


def test_child_streams_are_distinct():
    base = RngSpec(7, 0)
    seen = {base.child(t, i).stream for t in range(50) for i in range(50)}
    assert len(seen) == 2500


def test_sample_uniform_symmetry_and_membership():
    cube = ConvexBody.cube(2)
    pts = sample_uniform(MinkowskiCombo(cube, 1.0, 0.0), RngSpec(3), 10_000)
    sigma = 2.0 / math.sqrt(12.0) / math.sqrt(10_000)
    assert np.all(np.abs(pts.mean(axis=0)) < 4 * sigma)
    hexa = MinkowskiCombo(TRIANGLE, 1.0, 1.0)
    pts = sample_uniform(hexa, RngSpec(4), 5000)
    assert combo_contains(hexa, pts).all()


def test_cube_acceptance_rate_is_one():
    # the cube equals its own bounding box, so no proposal is rejected
    cube = ConvexBody.cube(3)
    combo = MinkowskiCombo(cube, 1.0, 0.0)
    est = mc_volume(combo, RngSpec(1), 5000)
    assert est.hits == est.samples
    assert est.mean == pytest.approx(8.0)


def test_mc_volume_triangle_difference_ratio():
    est = mc_volume(MinkowskiCombo(TRIANGLE, 1.0, 1.0), RngSpec(21), 100_000)
    ratio_lo = est.ci95_low / 0.5
    ratio_hi = est.ci95_high / 0.5
    assert ratio_lo <= 6.0 <= ratio_hi  # central binomial C(4,2)


def test_mc_volume_input_validation():
    with pytest.raises(ValueError):
        mc_volume(MinkowskiCombo(TRIANGLE, 1.0, 0.0), RngSpec(0), 999)


def test_exact_volume_formulas():
    assert exact_volume(ConvexBody.cube(3)) == pytest.approx(8.0)
    assert exact_volume(ConvexBody.simplex(2)) == pytest.approx(0.5)
    assert exact_volume(ConvexBody.cross_polytope(3)) == pytest.approx(4.0 / 3.0)
    assert exact_volume(ConvexBody.cube(2, scale=2.0)) == pytest.approx(16.0)
    assert exact_volume(TRIANGLE) == pytest.approx(0.5, rel=1e-12)
    est = mc_volume(MinkowskiCombo(TRIANGLE, 1.0, 0.0), RngSpec(8), 100_000)
    assert est.ci95_low <= exact_volume(TRIANGLE) <= est.ci95_high


def test_cross_polytope_volume_against_mc():
    body = ConvexBody.cross_polytope(3)
    est = mc_volume(MinkowskiCombo(body, 1.0, 0.0), RngSpec(8), 100_000)
    assert est.ci95_low <= exact_volume(body) <= est.ci95_high


def test_difference_volume_ratio_symmetric_and_simplex():
    assert difference_volume_ratio(ConvexBody.cube(4))[0] == 16.0
    assert difference_volume_ratio(ConvexBody.cross_polytope(3))[0] == 8.0
    assert difference_volume_ratio(ConvexBody.simplex(3))[0] == 20.0  # C(6,3)
    # a regular pentagon's difference body is a regular decagon: ratio 2 sqrt 5
    pentagon = random_body_pentagon()
    ratio, extra = difference_volume_ratio(pentagon, RngSpec(30), samples=50_000)
    assert extra is None and ratio == difference_volume_ratio(pentagon)[0]
    assert ratio == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-12)
    diff = mc_volume(MinkowskiCombo(pentagon, 1.0, 1.0), RngSpec(30, 1), 50_000)
    vol = mc_volume(MinkowskiCombo(pentagon, 1.0, 0.0), RngSpec(30, 2), 50_000)
    assert diff.ci95_low / vol.ci95_high <= ratio <= diff.ci95_high / vol.ci95_low


def random_body_pentagon():
    angles = np.linspace(0, 2 * np.pi, 6)[:-1]
    return ConvexBody.from_vertices(np.column_stack([np.cos(angles), np.sin(angles)]))


def test_rejection_too_slow_guard(monkeypatch):
    monkeypatch.setattr(randvol, "_PROBE_PROPOSALS", 5000)
    monkeypatch.setattr(randvol, "_SAMPLE_BATCH", 4096)
    body = ConvexBody.cross_polytope(10)  # volume fraction 1/10! of the box
    with pytest.raises(RejectionTooSlow):
        sample_uniform(MinkowskiCombo(body, 1.0, 0.0), RngSpec(2), 10)


def test_rejection_floor_applies_after_an_early_hit(monkeypatch):
    # the first proposal is a hit, then one in 500: below a 1% floor, so the
    # sampler must stop after 1000 proposals, not go on collecting 20 points
    monkeypatch.setattr(randvol, "_PROBE_PROPOSALS", 1000)
    monkeypatch.setattr(randvol, "_REJECTION_FLOOR", 0.01)
    seen = [0]

    def one_in_500(combo, pts):
        index = seen[0] + np.arange(len(pts))
        seen[0] += len(pts)
        return index % 500 == 0

    monkeypatch.setattr(randvol, "combo_contains", one_in_500)
    with pytest.raises(RejectionTooSlow):
        sample_uniform(MinkowskiCombo(ConvexBody.cube(2), 1.0, 0.0), RngSpec(1), 20)
    assert seen[0] < 2000


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi > 0.0
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo < 1.0


def test_difference_inequality_quick():
    # Vol(K - t K) <= (1+t)^n 2^-n Vol(K - K), equality for the symmetric cube
    body = ConvexBody.simplex(2)
    kk = mc_volume(MinkowskiCombo(body, 1.0, 1.0), RngSpec(40), 30_000)
    for t in (0.25, 0.75):
        kt = mc_volume(MinkowskiCombo(body, 1.0, t), RngSpec(41), 30_000)
        bound = (1 + t) ** 2 / 4.0 * kk.mean
        slack = (kt.ci95_high - kt.ci95_low) + (1 + t) ** 2 / 4.0 * (kk.ci95_high - kk.ci95_low)
        assert kt.mean <= bound + 3 * slack
