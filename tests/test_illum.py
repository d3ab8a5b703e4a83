import itertools

import numpy as np
import pytest

from homcover.bodies import ConvexBody, HomothetPlacement, MinkowskiCombo
from homcover.covercert import certify_cover
from homcover.illum import (
    FALSIFIED,
    UNKNOWN,
    VERIFIED_BY_COVERING,
    ConversionRequiresCertificate,
    LightSource,
    _line_interior_window,
    covering_to_illumination,
    illuminated_mask,
    illuminates,
    illumination_to_dict,
    recheck_illumination_certificate,
    run_illumination_pipeline,
    validate_sources,
    verify_illumination,
)
from homcover.randcover import CoverExperimentConfig, run_random_cover
from homcover.randvol import RngSpec

SQUARE = ConvexBody.cube(2)


def corner_sources(dim, r=2.0):
    return [LightSource(np.array(s, dtype=float) * r)
            for s in itertools.product((-1, 1), repeat=dim)]


def test_illuminates_examples():
    assert illuminates(SQUARE, LightSource(np.array([2.0, 2.0])), [1.0, 1.0])
    assert not illuminates(SQUARE, LightSource(np.array([2.0, 0.0])), [1.0, 1.0])
    assert illuminates(SQUARE, LightSource(np.array([2.0, 0.0])), [1.0, 0.0])


def test_illuminates_validates_inputs():
    with pytest.raises(ValueError):
        illuminates(SQUARE, LightSource(np.array([2.0, 0.0])), [0.5, 0.5])  # interior
    with pytest.raises(ValueError):
        illuminates(SQUARE, LightSource(np.array([0.5, 0.0])), [1.0, 0.0])  # source inside
    with pytest.raises(ValueError):
        validate_sources(SQUARE, [LightSource(np.array([0.0, 0.0]))])


def test_illumination_scale_and_permutation_invariance():
    p = np.array([2.0, 0.7])
    x = np.array([1.0, 0.3])
    base = illuminates(SQUARE, LightSource(p), x)
    for s in (0.5, 3.0):
        scaled = ConvexBody.cube(2, scale=s)
        assert illuminates(scaled, LightSource(s * p), s * x) == base
    assert illuminates(SQUARE, LightSource(p[::-1].copy()), x[::-1].copy()) == base


def test_antipodal_source_does_not_light_a_vertex():
    # interior points of that line are all between source and vertex
    assert not illuminates(SQUARE, LightSource(np.array([-2.0, -2.0])), [1.0, 1.0])


def test_square_four_sources_accepted():
    verdict = verify_illumination(SQUARE, corner_sources(2), RngSpec(5), 10_000)
    assert verdict.status == UNKNOWN and verdict.witness is None


def test_square_every_three_subset_falsified():
    sources = corner_sources(2)
    for drop in range(4):
        sub = [s for i, s in enumerate(sources) if i != drop]
        verdict = verify_illumination(SQUARE, sub, RngSpec(6), 100_000)
        assert verdict.status == FALSIFIED
        w = verdict.witness
        assert not any(illuminates(SQUARE, s, w) for s in sub)
        A, b = SQUARE.halfspaces
        assert abs(float(np.max(A @ w - b))) < 1e-6


def test_empty_source_list_falsified_immediately():
    verdict = verify_illumination(SQUARE, [], RngSpec(1), 10)
    assert verdict.status == FALSIFIED and verdict.probes_used == 1


def test_conversion_requires_certificate_and_guards():
    placements = [HomothetPlacement(np.array([sx * 0.45, sy * 0.45]), 0.6)
                  for sx in (-1, 1) for sy in (-1, 1)]
    with pytest.raises(ValueError):
        covering_to_illumination(SQUARE, placements, 0.0)
    with pytest.raises(ValueError):
        covering_to_illumination(SQUARE, placements, 0.3)  # ratios aren't 1 - 0.3
    with pytest.raises(ConversionRequiresCertificate):
        covering_to_illumination(SQUARE, placements, 0.4, net_epsilon=0.3)


def test_certified_covering_converts_and_verifies():
    eps_cover = 0.4
    placements = [HomothetPlacement(np.array([sx * 0.45, sy * 0.45]), 0.6)
                  for sx in (-1, 1) for sy in (-1, 1)]
    verdict = certify_cover(SQUARE, placements, 0.05)
    conv = covering_to_illumination(SQUARE, placements, eps_cover, verdict=verdict)
    assert conv.r_used == pytest.approx(1.0 / eps_cover + 0.5)
    validate_sources(SQUARE, conv.sources)
    check = verify_illumination(SQUARE, conv.sources, RngSpec(8), 20_000,
                                certificate=verdict, r_used=conv.r_used)
    assert check.status == VERIFIED_BY_COVERING


def test_illumination_pipeline_matches_cover_engine_on_shared_seed():
    rng = RngSpec(31)
    report = run_illumination_pipeline(SQUARE, trials=6, rng=rng, probes=2000)
    lam = 1.0 - report.epsilon_cover
    config = CoverExperimentConfig(
        body=SQUARE, ratios=[lam] * report.m, trials=6, rng=rng,
        sample_combo=MinkowskiCombo(SQUARE, 1.0, 1.0))
    prop = run_random_cover(config)
    assert report.covering_certified == prop.certified
    assert report.falsified == 0
    assert report.m == 43


def test_illumination_certificate_roundtrip():
    sources = corner_sources(2)
    verdict = verify_illumination(SQUARE, sources[:3], RngSpec(2), 50_000)
    cert = illumination_to_dict(SQUARE, sources[:3], verdict)
    assert recheck_illumination_certificate(cert)
    bad = dict(cert, witness=[0.0, 1.0])  # boundary point lit by remaining sources
    assert not recheck_illumination_certificate(bad)


def midpoint_illuminates(body, source, x):
    """Scalar oracle: a parameter from the admissible side of the interior
    window along the line through the source and x, re-checked to be
    strictly interior."""
    p = source.position
    s_lo, s_hi, ok = _line_interior_window(body, p, x[None, :])
    s_lo, s_hi = float(s_lo[0]), float(s_hi[0])
    if not ok[0]:
        return False
    if s_hi > 1.0 + 1e-9 and body.contains(p + (max(1.0, s_lo) + s_hi) / 2.0 * (x - p),
                                            "strictInterior"):
        return True
    return s_lo < -1e-9 and body.contains(p + (s_lo + min(0.0, s_hi)) / 2.0 * (x - p),
                                          "strictInterior")


def test_illuminated_mask_matches_scalar(np_rng):
    src = LightSource(np.array([2.0, 0.7]))
    dirs = np_rng.normal(size=(200, 2))
    pts = dirs / np.abs(dirs).max(axis=1)[:, None]  # the square's boundary
    mask = illuminated_mask(SQUARE, src, pts)
    oracle = np.array([midpoint_illuminates(SQUARE, src, p) for p in pts])
    assert np.array_equal(mask, oracle)
