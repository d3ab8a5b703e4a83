import math

import pytest

from homcover.bodies import ConvexBody, covered_by_union
from homcover.randcover import (
    CoverExperimentConfig,
    reference_bounds,
    run_random_cover,
    threshold_sum,
)
from homcover.randvol import RngSpec

SQUARE = ConvexBody.cube(2)


def test_threshold_sum_values():
    assert threshold_sum(3, 8.0, 5) == pytest.approx(148.6238, abs=1e-3)
    assert math.ceil(threshold_sum(3, 8.0, 5)) == 149
    assert threshold_sum(2, 4.0, 4) == pytest.approx(34.6131, abs=1e-3)
    with pytest.raises(ValueError):
        threshold_sum(1, 4.0, 4)
    with pytest.raises(ValueError):
        threshold_sum(3, 4.0, 3)


def test_reference_bounds_table():
    table = reference_bounds(2, 4.0, symmetric=True)
    assert table["cubeSchedulerExact"] == 3
    assert table["generalSchedulerClassic"] == 8
    assert table["symmetricMassBound"] == 9
    assert table["massBoundApplied"] == 9
    assert reference_bounds(3, 8.0, True)["scheduleBound"] == 149
    assert reference_bounds(3, 8.0, False)["massBoundApplied"] == 216
    assert reference_bounds(3, 8.0, True)["centralBinomial"] == 20


def test_single_small_homothet_never_certifies():
    config = CoverExperimentConfig(body=SQUARE, ratios=[0.5], trials=30,
                                   rng=RngSpec(1), epsilon=0.05, probes=2000)
    report = run_random_cover(config)
    assert report.certified == 0
    assert report.tally_ok()


def test_report_determinism():
    def run():
        config = CoverExperimentConfig(body=SQUARE, ratios=[0.9] * 20, trials=25,
                                       rng=RngSpec(7), epsilon=0.05, probes=2000)
        return run_random_cover(config)
    a, b = run(), run()
    assert a.rows == b.rows
    assert (a.certified, a.refuted, a.unknown) == (b.certified, b.refuted, b.unknown)


def test_threshold_flag_and_bound_fields():
    config = CoverExperimentConfig(body=SQUARE, ratios=[0.9] * 43, trials=2,
                                   rng=RngSpec(3), epsilon=0.05, probes=1000)
    report = run_random_cover(config)
    assert report.threshold_satisfied  # 43 * 0.81 = 34.83 >= 34.61
    assert report.asymptotic_bound == pytest.approx(1 - math.exp(-0.6))
    assert report.volume_ratio == 4.0
    short = CoverExperimentConfig(body=SQUARE, ratios=[0.9] * 40, trials=1,
                                  rng=RngSpec(3), epsilon=0.05, probes=1000)
    assert not run_random_cover(short).threshold_satisfied  # 32.4 < 34.61


def test_config_validation_and_range_warning():
    with pytest.raises(ValueError):
        CoverExperimentConfig(body=SQUARE, ratios=[1.0], trials=1, rng=RngSpec(0))
    with pytest.raises(ValueError):
        CoverExperimentConfig(body=SQUARE, ratios=[], trials=1, rng=RngSpec(0))
    with pytest.warns(UserWarning) as record:
        CoverExperimentConfig(body=SQUARE, ratios=[0.9, math.exp(-2) / 2],
                              trials=1, rng=RngSpec(0), epsilon=0.05)
    assert [w.filename for w in record] == [__file__]  # the caller, not the generated __init__


def test_no_trial_yields_certificate_and_witness():
    config = CoverExperimentConfig(body=SQUARE, ratios=[0.9] * 12, trials=40,
                                   rng=RngSpec(11), epsilon=0.05, probes=4000)
    report = run_random_cover(config)
    for _, status, witness in report.rows:
        assert (status == "refuted") == (witness is not None)
    assert report.tally_ok()


def test_refuted_rows_reverify():
    from homcover.randcover import iter_trials

    config = CoverExperimentConfig(body=SQUARE, ratios=[0.9] * 8, trials=25,
                                   rng=RngSpec(13), epsilon=0.05, probes=4000)
    seen_refuted = 0
    for _, placements, verdict in iter_trials(config):
        if verdict.status == "refuted":
            seen_refuted += 1
            w = verdict.witness
            assert SQUARE.contains(w, "closed")
            assert not covered_by_union(SQUARE, placements, w[None, :])[0]
    assert seen_refuted > 0


def test_default_epsilon_policy_tracks_ratios():
    config = CoverExperimentConfig(body=SQUARE, ratios=[0.9] * 5, trials=1,
                                   rng=RngSpec(0))
    assert config.epsilon == pytest.approx(0.09)
    config2 = CoverExperimentConfig(body=SQUARE, ratios=[0.004] * 5, trials=1,
                                    rng=RngSpec(0))
    assert config2.epsilon == pytest.approx(1e-3)  # floored by the asymptotic default
