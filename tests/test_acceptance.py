"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test records a PASS/FAIL line for the terminal summary (see
conftest).  Seeds are pinned, so the whole suite is deterministic.
"""

import itertools
import json
import math
import time

import numpy as np

from conftest import check_criterion

from homcover.bodies import ConvexBody, MinkowskiCombo, covered_by_union
from homcover.cli import EXIT_OK, dispatch
from homcover.covercert import CERTIFIED, REFUTED, recheck_certificate
from homcover.fnsched import RatioSequence, schedule_covering
from homcover.illum import FALSIFIED, UNKNOWN, run_illumination_pipeline, verify_illumination
from homcover.nets import build_net
from homcover.randcover import CoverExperimentConfig, iter_trials, run_random_cover, threshold_sum
from homcover.randvol import RngSpec, exact_volume, mc_volume, sample_uniform_body

SAMPLES = 100_000
PROBES = 100_000


def special(kind, n):
    return ConvexBody.from_spec({"kind": kind, "dim": n})


def test_criterion_1_volume_oracles():
    worst = []
    for kind, n in itertools.product(("cube", "simplex", "crosspolytope"), (2, 3)):
        body = special(kind, n)
        combo = MinkowskiCombo(body, 1.0, 0.0)
        exact = exact_volume(body)
        t0 = time.time()
        inside = 0
        for rep in range(100):
            est = mc_volume(combo, RngSpec(7, rep), SAMPLES)
            if est.ci95_low <= exact <= est.ci95_high:
                inside += 1
        elapsed = time.time() - t0
        worst.append((kind, n, inside, elapsed))
        assert elapsed < 10.0, f"{kind} n={n} took {elapsed:.1f}s"
    ok = all(inside >= 93 for _, _, inside, _ in worst)
    check_criterion("1 volume oracles (93/100 CIs, <10s/body)", ok,
                    "; ".join(f"{k}{n}:{i}/100" for k, n, i, _ in worst))


def test_criterion_2_rogers_shephard_instances():
    t0 = time.time()
    results = []
    for n in (2, 3):
        cube = special("cube", n)
        est = mc_volume(MinkowskiCombo(cube, 1.0, 1.0), RngSpec(202, n), SAMPLES)
        vol = exact_volume(cube)
        results.append(("cube", n, est.ci95_low / vol, 2 ** n, est.ci95_high / vol))
    tri = ConvexBody.from_vertices([[0, 0], [1, 0], [0, 1]])
    est = mc_volume(MinkowskiCombo(tri, 1.0, 1.0), RngSpec(203), SAMPLES)
    results.append(("triangle", 2, est.ci95_low / 0.5, 6, est.ci95_high / 0.5))
    elapsed = time.time() - t0
    ok = all(lo <= target <= hi for _, _, lo, target, hi in results) and elapsed < 30
    check_criterion("2 difference-body ratios (2^n cube, 6 triangle, <30s)", ok,
                    "; ".join(f"{b}{n}:[{lo:.3f},{hi:.3f}] ni {t}" for b, n, lo, t, hi in results))


def test_criterion_3_difference_inequality():
    t0 = time.time()
    failures = []
    for kind, n in itertools.product(("cube", "simplex"), (2, 3)):
        body = special(kind, n)
        kk = mc_volume(MinkowskiCombo(body, 1.0, 1.0), RngSpec(301, n), SAMPLES)
        w_kk = kk.ci95_high - kk.ci95_low
        for i, lam in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            kt = mc_volume(MinkowskiCombo(body, 1.0, lam), RngSpec(302, 10 * n + i), SAMPLES)
            w_kt = kt.ci95_high - kt.ci95_low
            factor = (1 + lam) ** n / 2 ** n
            bound = factor * kk.mean
            slack = 3 * (w_kt + factor * w_kk)
            if kt.mean > bound + slack:
                failures.append((kind, n, lam, "inequality"))
            if (lam == 1.0 or kind == "cube") and abs(kt.mean - bound) > slack:
                failures.append((kind, n, lam, "equality"))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120
    check_criterion("3 difference-volume inequality (+equality cases, <2min)", ok,
                    f"failures={failures} {elapsed:.0f}s")


def _soundness_run(body, m, lam, trials, eps, seed, probe_seed):
    config = CoverExperimentConfig(body=body, ratios=[lam] * m, trials=trials,
                                   rng=RngSpec(seed), epsilon=eps, probes=5000)
    certified = refuted = unknown = 0
    bad_certificates = 0
    bad_witnesses = 0
    for t, placements, verdict in iter_trials(config):
        if verdict.status == CERTIFIED:
            certified += 1
            probes = sample_uniform_body(body, RngSpec(probe_seed, t), PROBES)
            if not covered_by_union(body, placements, probes).all():
                bad_certificates += 1
        elif verdict.status == REFUTED:
            refuted += 1
            w = verdict.witness
            if not body.contains(w, "closed") or \
                    covered_by_union(body, placements, w[None, :])[0]:
                bad_witnesses += 1
        else:
            unknown += 1
    return certified, refuted, unknown, bad_certificates, bad_witnesses


def test_criterion_4_certificate_soundness():
    t0 = time.time()
    square, cube3 = special("cube", 2), special("cube", 3)
    runs = [
        _soundness_run(square, 43, 0.9, 150, 0.05, 401, 4001),
        _soundness_run(square, 10, 0.9, 100, 0.05, 402, 4002),
        _soundness_run(cube3, 149, 0.9, 150, 0.15, 403, 4003),
        _soundness_run(cube3, 20, 0.9, 100, 0.15, 404, 4004),
    ]
    elapsed = time.time() - t0
    totals = [sum(col) for col in zip(*runs)]
    certified, refuted, unknown, bad_certs, bad_wits = totals
    ok = bad_certs == 0 and bad_wits == 0 and certified + refuted + unknown == 500 \
        and certified > 0 and refuted > 0 and elapsed < 600
    check_criterion("4 certificate soundness (500 trials, zero tolerance, <10min)", ok,
                    f"certified={certified} refuted={refuted} unknown={unknown} "
                    f"badCerts={bad_certs} badWitnesses={bad_wits} {elapsed:.0f}s")


def test_criterion_5_coverage_monotonicity():
    square = special("cube", 2)
    m_star = math.ceil(threshold_sum(2, 4.0, 4))
    assert m_star == 35
    fractions = []
    for m in (math.ceil(m_star / 4), math.ceil(m_star / 2), m_star):
        config = CoverExperimentConfig(body=square, ratios=[0.9] * m, trials=200,
                                       rng=RngSpec(500 + m), epsilon=0.05, probes=2000)
        report = run_random_cover(config)
        fractions.append(report.empirical_lower_bound)
    ok = True
    for f_lo, f_hi in zip(fractions, fractions[1:]):
        se = math.sqrt(f_lo * (1 - f_lo) / 200 + f_hi * (1 - f_hi) / 200)
        if f_hi < f_lo - 2 * se:
            ok = False
    check_criterion("5 coverage monotone in m (within 2 SE)", ok,
                    "fractions " + ", ".join(f"{f:.3f}" for f in fractions))


def test_criterion_6_net_certification():
    t0 = time.time()
    details = []
    ok = True
    for body, name in ((special("cube", 2), "cube"), (special("simplex", 2), "triangle")):
        for eps in (0.5, 0.25, 0.1):
            net = build_net(body, eps)
            probes = sample_uniform_body(body, RngSpec(601, int(eps * 100)), PROBES)
            _, covered = net.covering_indices(probes)
            if not covered.all():
                ok = False
            details.append(f"{name} eps={eps}: {net.size} pts "
                           f"(ref {net.cardinality_bound:.0f})")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    check_criterion("6 net certification (10^5 probes, zero misses, <1min)", ok,
                    "; ".join(details) + f" {elapsed:.0f}s")


def test_criterion_7_illumination_ground_truth():
    t0 = time.time()
    ok = True
    notes = []
    for n in (2, 3):
        body = special("cube", n)
        sources = [np.array(s, dtype=float) * 2.0 for s in itertools.product((-1, 1), repeat=n)]
        full = verify_illumination(body, sources, RngSpec(700 + n), PROBES)
        if full.status != UNKNOWN or full.witness is not None:
            ok = False
        falsified = 0
        for drop in range(len(sources)):
            sub = [s for i, s in enumerate(sources) if i != drop]
            verdict = verify_illumination(body, sub, RngSpec(710 + n, drop), PROBES)
            if verdict.status == FALSIFIED:
                falsified += 1
        if falsified != len(sources):
            ok = False
        notes.append(f"n={n}: accepted {2**n}, falsified {falsified}/{2**n} subsets")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    check_criterion("7 parallelotope illumination ground truth (<5min)", ok,
                    "; ".join(notes) + f" {elapsed:.0f}s")


def test_criterion_8_illumination_pipeline():
    t0 = time.time()
    square = special("cube", 2)
    report = run_illumination_pipeline(square, trials=50, rng=RngSpec(801), probes=PROBES)
    elapsed = time.time() - t0
    ok = report.m == math.ceil(threshold_sum(2, 4.0, 5)) and \
        report.covering_certified > 0 and report.falsified == 0 and elapsed < 600
    check_criterion("8 covering-to-illumination pipeline (0 refutations, <10min)", ok,
                    f"m={report.m} certified={report.covering_certified}/50 "
                    f"falsified={report.falsified} R={report.r_used:.2f} {elapsed:.0f}s")


def test_criterion_9_schedule_end_to_end():
    t0 = time.time()
    square = special("cube", 2)
    a = schedule_covering(square, RatioSequence((0.9,) * 300, 2), RngSpec(901), mode="desk")
    ok_a = a.verdict.status == CERTIFIED and a.info["branch"] == "A" \
        and recheck_certificate(a.certificate)
    b = schedule_covering(square, RatioSequence((0.02,) * 16000, 2), RngSpec(902),
                       mode="desk", multiplier=4.0, eps_final=0.001)
    ok_b = b.verdict.status == CERTIFIED and b.info["branch"] == "B"
    certs_ok = recheck_certificate(b.certificate) and \
        all(recheck_certificate(c) for c in b.cube_certificates)
    elapsed = time.time() - t0
    ok = ok_a and ok_b and certs_ok and elapsed < 900
    check_criterion("9 schedule end-to-end (branches A+B certified, certs verify, <15min)",
                    ok, f"A={a.verdict.status} B={b.verdict.status} "
                    f"cubes={[c['status'] for c in b.per_cube].count('certified')}/9 "
                    f"certsOk={certs_ok} {elapsed:.0f}s")


def test_criterion_10_determinism(tmp_path):
    import hashlib

    commands = [
        ["volume", "--body", "simplex", "--dim", "2", "--plus", "1", "--minus", "1",
         "--samples", "20000", "--seed", "11"],
        ["cover", "--body", "cube", "--dim", "2", "--lambda", "0.9", "--count", "20",
         "--trials", "10", "--seed", "11", "--epsilon", "0.05", "--probes", "2000"],
        ["net", "--body", "cube", "--dim", "2", "--epsilon", "0.25", "--seed", "11"],
        ["bounds", "--body", "cube", "--dim", "3", "--seed", "11"],
        ["fn-schedule", "--body", "cube", "--dim", "2", "--lambda", "0.9",
         "--count", "300", "--seed", "11"],
    ]
    ok = True
    notes = []
    for i, cmd in enumerate(commands):
        digests = []
        for run in ("x", "y"):
            out = tmp_path / f"{i}{run}.json"
            assert dispatch(cmd + ["--out", str(out)]) == EXIT_OK
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        if digests[0] != digests[1]:
            ok = False
            notes.append(cmd[0])
    check_criterion("10 determinism (byte-identical reruns)", ok,
                    "mismatch: " + ", ".join(notes) if notes else "all digests equal")
