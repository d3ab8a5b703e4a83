import math

import numpy as np
import pytest

from homcover.bodies import ConvexBody, HomothetPlacement, MinkowskiCombo, combo_contains
from homcover.covercert import CERTIFIED, recheck_certificate
from homcover.fnsched import (
    PHASE_CODES,
    CubeAssignmentDeficit,
    PatchDeficit,
    RatioSequence,
    _class_of,
    cover_cube_two_phase,
    dyadic_plan,
    rogers_factor,
    schedule_covering,
)
from homcover.randvol import RngSpec

SQUARE = ConvexBody.cube(2)


def test_ratio_sequence_validation():
    seq = RatioSequence((0.5, 0.25, 0.0), 2)
    assert seq.sum_pow == pytest.approx(0.3125)
    with pytest.raises(ValueError):
        RatioSequence((1.0,), 2)
    with pytest.raises(ValueError):
        RatioSequence((-0.1,), 2)


def test_rogers_factor_modes():
    assert rogers_factor(3, 5, "paper") == pytest.approx(
        3 * math.log(3) + 3 * math.log(math.log(3)) + 15)
    assert rogers_factor(2, 4, "desk", 3.0) == pytest.approx(2.4)
    assert rogers_factor(2, 6, "desk", 3.0) == pytest.approx(3.6)
    with pytest.raises(ValueError):
        rogers_factor(2, 5, "fast")
    for multiplier in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            rogers_factor(2, 4, "desk", multiplier)


def test_dyadic_class_arithmetic():
    # n = 2, lambda = 0.02: lambda * n^5 = 0.64 in (1/2, 1] -> class 1
    assert _class_of(0.02, 2) == 1
    assert _class_of(0.01, 2) == 2  # 0.32 in (1/4, 1/2]
    assert _class_of(0.0009, 2) == 6  # 0.0288 in (2^-6, 2^-5]


def small_plan(count=16000, lam=0.02, mult=4.0):
    seq = RatioSequence((lam,) * count, 2)
    centers = [np.array([x, y]) for x in (-0.70710678, 0.0, 0.70710678)
               for y in (-0.70710678, 0.0, 0.70710678)]
    return seq, dyadic_plan(seq, 2, body_volume=4.0, tiling_centers=centers,
                            tile_scale=2 ** -1.5, mode="desk", multiplier=mult)


def test_dyadic_plan_structure():
    seq, plan = small_plan()
    assert set(plan.classes) == {1}
    assert plan.budgets[1] >= 9
    assert len(plan.cube_assignments) == 9
    # index conservation: each index in exactly one of the three routes
    seen = set(plan.large_indices) | set(plan.remainder)
    for idx in plan.partitions.values():
        for i in idx:
            assert i not in seen
            seen.add(i)
    assert seen == set(range(len(seq.ratios)))


def test_partition_volume_condition():
    seq, plan = small_plan()
    vol = 4.0
    for (k, _), idx in plan.partitions.items():
        got = sum(seq.ratios[i] ** 2 for i in idx) * vol
        assert got >= plan.kell_thresholds[k] - 1e-12


def test_first_fit_bins_are_balanced():
    # leftover pieces are spread round-robin, so no bin exceeds the
    # threshold by more than its share of the leftovers plus one piece
    seq, plan = small_plan()
    vol = 4.0
    fills = [sum(seq.ratios[i] ** 2 for i in idx) * vol
             for idx in plan.partitions.values()]
    piece = 0.02 ** 2 * vol
    total = sum(fills)
    share = total / len(fills)
    assert max(fills) <= share + 2 * piece + 1e-9


def test_mixed_classes_and_remainder_pool():
    ratios = (0.02,) * 8000 + (0.0101,) * 4000 + (0.0001,) * 50 + (0.9,) * 3
    seq = RatioSequence(ratios, 2)
    centers = [np.zeros(2)]
    plan = dyadic_plan(seq, 2, body_volume=4.0, tiling_centers=centers,
                       tile_scale=2 ** -1.5, mode="desk", multiplier=3.0)
    assert set(plan.large_indices) == {12050, 12051, 12052}
    assert 1 in plan.classes and 2 in plan.classes and 9 in plan.classes
    assert plan.budgets[9] == 0  # 50 dust pieces cannot fill a partition
    assert set(plan.remainder) == set(range(12000, 12050))


def test_cube_assignment_subdivides_when_needed():
    # class-2 cubes are half-scale, so one cell consumes four of them
    ratios = (0.0101,) * 9000
    seq = RatioSequence(ratios, 2)
    plan = dyadic_plan(seq, 2, body_volume=4.0, tiling_centers=[np.zeros(2)],
                       tile_scale=2 ** -1.5, mode="desk", multiplier=3.0)
    assert set(plan.classes) == {2}
    assert len(plan.cube_assignments) == 4
    scales = sorted({s for _, s, _ in plan.cube_assignments})
    assert len(scales) == 1 and scales[0] == pytest.approx(2 ** -1.5 / 2)


def test_cube_assignment_deficit():
    ratios = (0.02,) * 1000  # one partition at most, nine cells to tile
    seq = RatioSequence(ratios, 2)
    centers = [np.array([x, y]) for x in (-0.7, 0.0, 0.7) for y in (-0.7, 0.0, 0.7)]
    with pytest.raises(CubeAssignmentDeficit):
        dyadic_plan(seq, 2, body_volume=4.0, tiling_centers=centers,
                    tile_scale=2 ** -1.5, mode="desk", multiplier=3.0)


def test_cover_cube_two_phase_certifies_and_is_deterministic():
    cons = cover_cube_two_phase(4.0, SQUARE, [0.5] * 400, RngSpec(42))
    assert cons.verdict.status == CERTIFIED
    assert cons.info["mPrime"] == 154  # least prefix past 2.4 * 64 at piece volume 1
    again = cover_cube_two_phase(4.0, SQUARE, [0.5] * 400, RngSpec(42))
    assert np.array_equal(cons.placements.centers, again.placements.centers)
    phases = {PHASE_CODES[c] for c in cons.phase}
    assert phases == {"random", "patch"}
    assert recheck_certificate(cons.certificate)


def test_cover_cube_two_phase_volume_precondition():
    with pytest.raises(ValueError):
        cover_cube_two_phase(4.0, SQUARE, [0.5] * 100, RngSpec(1))
    with pytest.raises(ValueError):
        cover_cube_two_phase(2.0, SQUARE, [0.5] * 400, RngSpec(1))  # side below n^2


def test_patch_separation_invariant():
    cons = cover_cube_two_phase(4.0, SQUARE, [0.5] * 400, RngSpec(42))
    pts = cons.placements.centers[cons.phase == PHASE_CODES.index("patch")]
    pts = np.unique(pts, axis=0)
    sigma = cons.info["sigmaSeparation"]
    zone = MinkowskiCombo(SQUARE, 2 * sigma * (1 - 1e-9), 2 * sigma * (1 - 1e-9))
    for i in range(len(pts)):
        diffs = pts[i + 1:] - pts[i]
        if diffs.size:
            assert not combo_contains(zone, diffs).any()


def test_patch_deficit_reported():
    with pytest.raises(PatchDeficit):
        cover_cube_two_phase(4.0, SQUARE, [0.5] * 195, RngSpec(3))


def test_one_dimensional_bodies_are_rejected():
    with pytest.raises(ValueError, match="n must be >= 2"):
        cover_cube_two_phase(1.0, ConvexBody.cube(1), [0.5] * 100, RngSpec(1))
    with pytest.raises(ValueError, match="n must be >= 2"):
        schedule_covering(ConvexBody.cube(1), RatioSequence((0.5,) * 100, 1), RngSpec(1))


def test_schedule_covering_branch_a():
    seq = RatioSequence((0.9,) * 300, 2)
    cons = schedule_covering(SQUARE, seq, RngSpec(9), mode="desk")
    assert cons.info["branch"] == "A"
    assert cons.verdict.status == CERTIFIED
    assert all(PHASE_CODES[c] == "prop1" for c in cons.phase)
    assert recheck_certificate(cons.certificate)
    # determinism
    again = schedule_covering(SQUARE, seq, RngSpec(9), mode="desk")
    assert np.array_equal(cons.placements.centers, again.placements.centers)


SCHEDULE_BRANCHES = pytest.mark.parametrize("ratios,options", [
    ((0.9,) * 300, {}),
    ((0.03,) * 13000, {"multiplier": 8.0, "eps_final": 0.003}),
], ids=["branch-A", "branch-B"])


@SCHEDULE_BRANCHES
def test_schedule_covering_builds_no_per_copy_objects(monkeypatch, ratios, options):
    """Both branches hold their copies as columns from the sampler to the
    certificate: no HomothetPlacement is constructed."""
    built = []
    check = HomothetPlacement.__post_init__
    monkeypatch.setattr(HomothetPlacement, "__post_init__",
                        lambda self: (built.append(self), check(self)))
    cons = schedule_covering(SQUARE, RatioSequence(ratios, 2), RngSpec(7), **options)
    assert cons.verdict.status == CERTIFIED
    assert built == []
    assert cons.placements.ratios.size == cons.index.size == cons.phase.size == len(ratios)


@SCHEDULE_BRANCHES
def test_index_column_names_each_pieces_ratio(ratios, options):
    """Row i of the placements is a copy of ratio ``index[i]``, and every
    ratio is placed exactly once."""
    seq = RatioSequence(ratios, 2)
    cons = schedule_covering(SQUARE, seq, RngSpec(7), **options)
    assert np.asarray(seq.ratios)[cons.index].tobytes() == cons.placements.ratios.tobytes()
    assert sorted(cons.index.tolist()) == list(range(len(ratios)))


def test_certified_construction_survives_probe_refutation():
    from homcover.covercert import refute_cover

    seq = RatioSequence((0.9,) * 300, 2)
    cons = schedule_covering(SQUARE, seq, RngSpec(9), mode="desk")
    assert cons.verdict.status == CERTIFIED
    assert refute_cover(SQUARE, cons.placements, RngSpec(99), 50_000).status == "unknown"


def test_schedule_covering_paper_mode_branch_choice():
    seq = RatioSequence((0.9,) * 300, 2)
    cons = schedule_covering(SQUARE, seq, RngSpec(9), mode="paper")
    assert cons.info["branch"] == "A"  # 300 * 0.81 * 4 = 972 >= 34.61 * 16 / 4
    assert cons.verdict.status == CERTIFIED


def test_branch_b_requires_small_ratios():
    seq = RatioSequence((0.2,) * 4, 2)  # too little mass for branch A at paper scale
    with pytest.raises(ValueError):
        schedule_covering(SQUARE, seq, RngSpec(1), mode="paper")
