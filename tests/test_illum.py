import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from homcover import illum, randcover
from homcover.bodies import INTERIOR_MARGIN, ConvexBody, HomothetPlacement, MinkowskiCombo
from homcover.covercert import UNKNOWN as COVER_UNKNOWN, CoverageVerdict, certify_cover
from homcover.illum import (
    BOUNDARY_TOL,
    FALSIFIED,
    UNKNOWN,
    VERIFIED_BY_COVERING,
    ConversionRequiresCertificate,
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
from test_properties import PROPERTY_SETTINGS, any_bodies

SQUARE = ConvexBody.cube(2)


def corner_sources(dim, r=2.0):
    return [np.array(s, dtype=float) * r for s in itertools.product((-1, 1), repeat=dim)]


def test_illuminates_examples():
    assert illuminates(SQUARE, np.array([2.0, 2.0]), [1.0, 1.0])
    assert not illuminates(SQUARE, np.array([2.0, 0.0]), [1.0, 1.0])
    assert illuminates(SQUARE, np.array([2.0, 0.0]), [1.0, 0.0])


def test_illuminates_validates_inputs():
    with pytest.raises(ValueError):
        illuminates(SQUARE, np.array([2.0, 0.0]), [0.5, 0.5])  # interior
    with pytest.raises(ValueError):
        illuminates(SQUARE, np.array([0.5, 0.0]), [1.0, 0.0])  # source inside
    with pytest.raises(ValueError):
        validate_sources(SQUARE, [np.array([0.0, 0.0])])
    for position in ([np.nan, np.nan], [np.inf, 0.0]):  # either would clear every facet
        with pytest.raises(ValueError):
            illuminates(SQUARE, position, [1.0, 1.0])
    with pytest.raises(ValueError):
        validate_sources(SQUARE, [3.0, 0.0])  # a flat list is not one source per row
    assert validate_sources(SQUARE, []).shape == (0, 2)


def test_illumination_scale_and_permutation_invariance():
    p = np.array([2.0, 0.7])
    x = np.array([1.0, 0.3])
    base = illuminates(SQUARE, p, x)
    for s in (0.5, 3.0):
        scaled = ConvexBody.cube(2, scale=s)
        assert illuminates(scaled, s * p, s * x) == base
    assert illuminates(SQUARE, p[::-1].copy(), x[::-1].copy()) == base


def test_antipodal_source_does_not_light_a_vertex():
    # interior points of that line are all between source and vertex
    assert not illuminates(SQUARE, np.array([-2.0, -2.0]), [1.0, 1.0])


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
    unknown = CoverageVerdict(COVER_UNKNOWN, 0.3)
    with pytest.raises(ValueError):
        covering_to_illumination(SQUARE, placements, 0.0, unknown)
    with pytest.raises(ValueError):
        covering_to_illumination(SQUARE, placements, 0.3, unknown)  # ratios aren't 1 - 0.3
    with pytest.raises(ConversionRequiresCertificate):
        covering_to_illumination(SQUARE, placements, 0.4, unknown)


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


def test_illumination_pipeline_estimates_the_volume_ratio_once(monkeypatch):
    calls, estimate = [], illum.difference_volume_ratio

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    for module in (illum, randcover):
        monkeypatch.setattr(module, "difference_volume_ratio", counted)
    run_illumination_pipeline(SQUARE, trials=1, rng=RngSpec(31), probes=200)
    assert len(calls) == 1


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
    cert = illumination_to_dict(SQUARE, np.array(sources[:3]), verdict)
    assert recheck_illumination_certificate(cert)
    bad = dict(cert, witness=[0.0, 1.0])  # boundary point lit by remaining sources
    assert not recheck_illumination_certificate(bad)


def test_illumination_certificate_bytes_are_pinned(monkeypatch):
    """The certificate of the one certified trial of illuminate-square's
    round 0 at seed 101: its sources and verdict, byte for byte."""
    certs, falsifier = [], illum.verify_illumination

    def recording(body, sources, *args, **kwargs):
        verdict = falsifier(body, sources, *args, **kwargs)
        certs.append(illumination_to_dict(body, sources, verdict))
        return verdict

    monkeypatch.setattr(illum, "verify_illumination", recording)
    run_illumination_pipeline(SQUARE, trials=1, rng=RngSpec(101, 0))
    assert [hashlib.sha256(json.dumps(cert, sort_keys=True).encode()).hexdigest()
            for cert in certs] == \
        ["233b3ab18328e3d933772d9678a0586f40379f5d87fa36a455207350e9ffdc09"]


@pytest.mark.parametrize("run", [
    lambda: run_random_cover(CoverExperimentConfig(
        body=SQUARE, ratios=[0.9] * 16, trials=4, rng=RngSpec(13), epsilon=0.05,
        probes=2000)).certified,
    lambda: run_illumination_pipeline(SQUARE, trials=3, rng=RngSpec(31),
                                      probes=2000).covering_certified,
], ids=["random-cover", "illumination-pipeline"])
def test_trials_build_no_per_copy_objects(monkeypatch, run):
    """Trials hand their copies on as one Homothets, from the sampler to
    the light sources: no HomothetPlacement is constructed."""
    built = []
    check = HomothetPlacement.__post_init__
    monkeypatch.setattr(HomothetPlacement, "__post_init__",
                        lambda self: (built.append(self), check(self)))
    assert run() > 0  # certified trials reach the conversion
    assert built == []


def line_interior_window(body, p, pts, margin=INTERIOR_MARGIN):
    """Per point x, the open parameter window where p + s (x - p) is
    interior with the given margin, as arrays (s_lo, s_hi, ok)."""
    A, b = body.halfspaces
    coef = (pts - p) @ A.T  # (N, f)
    bound = (b - margin - A @ p)[None, :]
    pos = coef > 1e-12
    neg = coef < -1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = bound / coef
    s_hi = np.min(np.where(pos, ratio, np.inf), axis=1)
    s_lo = np.max(np.where(neg, ratio, -np.inf), axis=1)
    flat_ok = np.all(np.where(~pos & ~neg, bound >= 0.0, True), axis=1)
    return s_lo, s_hi, flat_ok & (s_lo < s_hi - 1e-12)


def window_lit(body, source, pts, margin=INTERIOR_MARGIN):
    """Oracle: the line through the source and x is interior (with the
    margin) at some parameter s > 1 or s < 0, never between the source and x."""
    s_lo, s_hi, ok = line_interior_window(body, source, pts, margin)
    return ok & ((s_hi > 1.0 + 1e-9) | (s_lo < -1e-9))


def midpoint_illuminates(body, p, x):
    """Scalar oracle: a parameter from the admissible side of the interior
    window along the line through the source and x, re-checked to be
    strictly interior."""
    s_lo, s_hi, ok = line_interior_window(body, p, x[None, :])
    s_lo, s_hi = float(s_lo[0]), float(s_hi[0])
    if not ok[0]:
        return False
    if s_hi > 1.0 + 1e-9 and body.contains(p + (max(1.0, s_lo) + s_hi) / 2.0 * (x - p),
                                            "strictInterior"):
        return True
    return s_lo < -1e-9 and body.contains(p + (s_lo + min(0.0, s_hi)) / 2.0 * (x - p),
                                          "strictInterior")


def reference_probes(body, gen, count):
    """The falsifier's probes in row form: the vertices, then unit normal
    directions shot from the Chebyshev center to the first facet crossed."""
    A, b = body.halfspaces
    anchor, _ = body.chebyshev
    dirs = gen.normal(size=(max(count - body.vertices.shape[0], 0), body.dim))
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 1e-12] / norms[norms > 1e-12][:, None]
    coef = dirs @ A.T
    with np.errstate(divide="ignore"):
        t = np.min(np.where(coef > 1e-12, (b - A @ anchor) / coef, np.inf), axis=1)
    return np.vstack([body.vertices, anchor + t[:, None] * dirs])


@PROPERTY_SETTINGS
@given(any_bodies(), st.integers(0, 2 ** 32 - 1), st.integers(1, 500))
def test_boundary_probes_keep_their_bits(body, seed, extra):
    """The column-pass probe builder returns the row form's array bit for
    bit, from the same generator state; below the vertex count it returns
    the vertices alone."""
    nv = body.vertices.shape[0]
    for count in (1, nv - 1, nv, nv + extra):
        probes = illum._boundary_probes(body, np.random.default_rng(seed), count)
        reference = reference_probes(body, np.random.default_rng(seed), count)
        assert probes.shape == (max(count, nv), body.dim)
        assert np.array_equal(probes, reference)
        assert probes.tobytes() == reference.tobytes()
    assert np.array_equal(illum._boundary_probes(body, np.random.default_rng(seed), 1),
                          body.vertices)


@pytest.mark.parametrize("body", [ConvexBody.cross_polytope(7), ConvexBody.cross_polytope(8),
                                  ConvexBody.cross_polytope(9)])
def test_boundary_probes_keep_their_bits_in_high_dimension(body):
    """From eight coordinates on, numpy sums a row eight-way, not in order;
    the builder follows it there."""
    probes = illum._boundary_probes(body, np.random.default_rng(5), 5_000)
    assert probes.tobytes() == reference_probes(body, np.random.default_rng(5), 5_000).tobytes()


def face_points(body):
    """Vertices, then the centroid of the vertices shared by each pair of
    facets (ridges and lower faces), then each facet's centroid (its
    relative interior, where one facet is active)."""
    A, b = body.halfspaces
    on = body.vertices @ A.T >= b - BOUNDARY_TOL  # (vertices, facets)
    shared = [on[:, i] & on[:, j] for i, j in itertools.combinations(range(b.size), 2)]
    faces = [body.vertices[m].mean(axis=0) for m in shared if m.any()]
    facets = [body.vertices[on[:, i]].mean(axis=0) for i in range(b.size)]
    return np.vstack([body.vertices] + faces + facets)


@PROPERTY_SETTINGS
@given(any_bodies(), st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_illuminated_mask_against_dense_facet_oracle(body, seed, n_sources):
    """Several sources against the facet rule written out per (point,
    source, facet): a point is lit when, for some source, every facet
    active at it has a_i . p > b_i + INTERIOR_MARGIN."""
    rng = np.random.default_rng(seed)
    A, b = body.halfspaces
    anchor, _ = body.chebyshev
    pts = face_points(body)
    outer = np.linalg.norm(body.vertices - anchor, axis=1).max()
    dirs = rng.normal(size=(n_sources, body.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    positions = anchor + outer * rng.uniform(1.1, 4.0, size=(n_sources, 1)) * dirs
    active = pts @ A.T >= b - BOUNDARY_TOL  # (points, facets)
    beyond = positions @ A.T > b + INTERIOR_MARGIN  # (sources, facets)
    per_source = np.all(~active[:, None, :] | beyond[None, :, :], axis=2)
    n_active = active.sum(axis=1)
    assert (n_active == 1).any() and (n_active > 1).any()  # both branches of the mask
    assert np.array_equal(illuminated_mask(body, positions, pts), per_source.any(axis=1))


def test_illuminated_mask_matches_scalar(np_rng):
    src = np.array([2.0, 0.7])
    dirs = np_rng.normal(size=(200, 2))
    pts = dirs / np.abs(dirs).max(axis=1)[:, None]  # the square's boundary
    mask = illuminated_mask(SQUARE, [src], pts)
    oracle = np.array([midpoint_illuminates(SQUARE, src, p) for p in pts])
    assert np.array_equal(mask, oracle)


def test_facet_rule_examples():
    vertex = np.array([[1.0, 1.0]])
    one_facet = np.array([2.0, 0.5])  # beyond x <= 1 only
    assert not illuminated_mask(SQUARE, [one_facet], vertex)[0]
    assert not window_lit(SQUARE, one_facet, vertex)[0]
    on_top = np.array([2.0, 1.0])  # on the hyperplane y = 1
    pts = np.array([[0.5, 1.0], [1.0, 0.5], [1.0, 1.0]])
    assert illuminated_mask(SQUARE, [on_top], pts).tolist() == [False, True, False]
    assert window_lit(SQUARE, on_top, pts).tolist() == [False, True, False]
    assert illuminated_mask(SQUARE, [one_facet, on_top], pts).tolist() == [False, True, False]
    assert illuminated_mask(SQUARE, np.empty((0, 2)), pts).tolist() == [False, False, False]


@PROPERTY_SETTINGS
@given(any_bodies(), st.integers(0, 2 ** 32 - 1))
def test_facet_rule_against_window_rule(body, seed):
    """Against the window rule without a margin (the definition itself):
    facet-lit implies window-lit, and the rules agree wherever one facet
    alone lies within BOUNDARY_TOL of the point and the source lies farther
    than BOUNDARY_TOL from every facet's hyperplane.  With INTERIOR_MARGIN
    the window rule leaves unlit some points near a ridge that a grazing
    source lights, so it is no oracle there."""
    rng = np.random.default_rng(seed)
    A, b = body.halfspaces
    anchor, _ = body.chebyshev
    pts = reference_probes(body, rng, body.vertices.shape[0] + 200)
    outer = np.linalg.norm(body.vertices - anchor, axis=1).max()
    src_dirs = rng.normal(size=(4, body.dim))
    src_dirs /= np.linalg.norm(src_dirs, axis=1)[:, None]
    positions = anchor + outer * rng.uniform(1.1, 4.0, size=(4, 1)) * src_dirs
    clear = np.sort(b - pts @ A.T, axis=1)[:, 1] > BOUNDARY_TOL
    for pos in positions:
        facet = illuminated_mask(body, [pos], pts)
        window = window_lit(body, pos, pts, margin=0.0)
        assert not np.any(facet & ~window)
        if np.min(np.abs(A @ pos - b)) > BOUNDARY_TOL:
            assert np.array_equal(facet[clear], window[clear])


def test_verify_illumination_verdicts_are_pinned():
    """(status, probes_used, witness bytes) of the criterion-7 source sets and
    the three-corner subsets of the square, as the ray-window predicate
    decided them."""
    cases = [(n, RngSpec(710 + n, drop), drop) for n in (2, 3) for drop in range(2 ** n)]
    cases += [(2, RngSpec(6), drop) for drop in range(4)]
    for n, rng, drop in cases:
        sources = corner_sources(n)
        verdict = verify_illumination(ConvexBody.cube(n), sources[:drop] + sources[drop + 1:],
                                      rng, 100_000)
        corner = np.array(list(itertools.product((-1.0, 1.0), repeat=n))[drop])
        assert (verdict.status, verdict.probes_used, verdict.witness.tobytes()) == \
            (FALSIFIED, drop + 1, corner.tobytes())
    for n in (2, 3):
        verdict = verify_illumination(ConvexBody.cube(n), corner_sources(n),
                                      RngSpec(700 + n), 100_000)
        assert (verdict.status, verdict.probes_used, verdict.witness) == \
            (UNKNOWN, 100_000, None)
