"""The benchmark's workloads: inputs made from the seed, the once-per-command
set-up, one round of timed work, correctness checks outside the timed
region, and replay of the certificates a round emitted.

A round is a fixed amount of work whose inputs depend only on (seed, round
index); the untraced run repeats rounds until its window is used up.  At
its default seed, round 0 of illuminate-square runs the first trials of
acceptance criterion 8.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from homcover import bodies, cli, covercert, illum, nets, randcover, randvol
from homcover.covercert import CERTIFIED, REFUTED
from homcover.randvol import RngSpec

FAILURES = cli._NUMERIC_ERRORS
_CHECK_TAG = 0xC4EC


@dataclass
class Round:
    index: int
    wall_s: float = 0.0
    trial_s: list = field(default_factory=list)   # latency of each trial or command
    decided: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    records: list = field(default_factory=list)   # (trial, centres, ratios, verdict)
    report: object = None
    outputs: dict = field(default_factory=dict)
    folder: str = ""                               # where the round's files go


def _compact_trial(item):
    """(t, placements, verdict) with the centres and witness copied out: each
    is a row view of a whole sample batch and would keep that batch alive."""
    t, placements, verdict = item
    if verdict.witness is not None:
        verdict.witness = verdict.witness.copy()
    centers = np.array([pl.center for pl in placements])
    return t, centers, [pl.ratio for pl in placements], verdict


def _placements(centers, ratios):
    return [bodies.HomothetPlacement(c, lam) for c, lam in zip(centers, ratios)]


@contextlib.contextmanager
def timed_trials(owner, sink: list):
    """Replace ``owner.iter_trials`` by a version that appends ``(seconds,
    compacted trial)`` to ``sink`` per trial it yields.  A trial's time runs
    from the generator's resumption until the consumer asks for the next
    trial, so it includes the consumer's work on that trial."""
    fn = owner.iter_trials

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            start = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            yield item
            sink.append((time.perf_counter() - start, _compact_trial(item)))

    owner.iter_trials = wrapper
    try:
        yield sink
    finally:
        owner.iter_trials = fn


class Workload:
    """One workload: set-up, rounds, checks and the certificates to replay.

    Sizes are class attributes; ``smoke_sizes`` replaces some of them for
    the tiny runs of the benchmark's own tests.
    """

    name = ""
    single_thread_baseline = False   # the traced run repeats round 0 on one thread
    decided_rounds = 1               # always run; decided_frac counts these only
    smoke_sizes = {}

    def __init__(self, seed: int, size: str = "full", workdir: str = "."):
        self.seed = seed
        self.workdir = workdir
        self.threads = len(os.sched_getaffinity(0))
        if size == "smoke":
            self.decided_rounds = 1
            for attr, value in self.smoke_sizes.items():
                setattr(self, attr, value)

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int, label: str = "") -> Round:
        """Run round ``r``; ``label`` names a repeat of a round, so that
        files a repeat writes do not replace the first run's."""
        raise NotImplementedError

    def check(self, rnd: Round) -> list:
        """Descriptions of the round's failed correctness checks."""
        raise NotImplementedError

    def certificates(self, rnd: Round) -> list:
        """Paths of the certificate files the round emitted, for ``homcover verify``."""
        raise NotImplementedError

    def digest(self, rnd: Round) -> str:
        raise NotImplementedError

    def output_bytes(self, rnd: Round) -> int:
        """Bytes of the files the program wrote in this round."""
        return 0


def replay(paths) -> list:
    """``homcover verify`` on each certificate file; True where it holds."""
    with contextlib.redirect_stdout(io.StringIO()):   # it prints its verdict
        return [cli.dispatch(["verify", "--certificate", p]) == cli.EXIT_OK for p in paths]


class _TrialWorkload(Workload):
    """Rounds of random-cover trials over one body."""

    trials_site = randcover    # the module whose iter_trials the round consumes
    check_probes = 20_000

    def _round_report(self, r: int):
        raise NotImplementedError

    def run_round(self, r: int, label: str = "") -> Round:
        rnd = Round(r, folder=os.path.join(self.workdir, label or f"round-{r}"))
        sink = []
        with timed_trials(self.trials_site, sink):
            start = time.perf_counter()
            try:
                rnd.report = self._round_report(r)
            except FAILURES as exc:
                rnd.failures.append(f"round {r}: {type(exc).__name__}: {exc}")
            rnd.wall_s = time.perf_counter() - start
        rnd.trial_s = [dt for dt, _ in sink]
        rnd.records = [item for _, item in sink]
        rnd.attempted = max(len(sink), 1)
        rnd.decided = sum(v.status in (CERTIFIED, REFUTED) for *_, v in rnd.records)
        return rnd

    def check(self, rnd: Round) -> list:
        """Certified trials leave no uncovered point among independent
        uniform probes; refuted witnesses lie in K outside the union."""
        failures = []
        for t, centers, ratios, verdict in rnd.records:
            placements = _placements(centers, ratios)
            if verdict.status == CERTIFIED:
                pts = randvol.sample_uniform_body(
                    self.body, RngSpec(self.seed, rnd.index).child(_CHECK_TAG, t),
                    self.check_probes)
                if not bodies.covered_by_union(self.body, placements, pts).all():
                    failures.append(f"round {rnd.index} trial {t}: certified but a probe is uncovered")
            elif verdict.status == REFUTED:
                w = verdict.witness
                if not self.body.contains(w, "closed") or \
                        bodies.covered_by_union(self.body, placements, w[None, :])[0]:
                    failures.append(f"round {rnd.index} trial {t}: witness does not refute")
        return failures

    def _certificate_dicts(self, rnd: Round) -> list:
        return [covercert.verdict_to_dict(v, self.body, _placements(c, lams))
                for _, c, lams, v in rnd.records if v.status in (CERTIFIED, REFUTED)]

    def certificates(self, rnd: Round) -> list:
        os.makedirs(rnd.folder, exist_ok=True)
        paths = []
        for i, cert in enumerate(self._certificate_dicts(rnd)):
            paths.append(os.path.join(rnd.folder, f"cert-{i}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(cert, fh)
        return paths

    def digest(self, rnd: Round) -> str:
        h = hashlib.sha256(json.dumps(rnd.report.rows if rnd.report is not None else None,
                                      sort_keys=True).encode())
        for _, centers, _, _ in rnd.records:
            h.update(np.ascontiguousarray(centers).tobytes())
        return h.hexdigest()


class Vrep3(_TrialWorkload):
    """A random vertex body in R^3: the only workload where lpcore and the
    per-point LP fallbacks in bodies do the work, with bulk mc_volume draws
    in set-up beside the one-point draws of illuminate-square."""

    name = "vrep3"
    # One copy per trial and 2000 ratio samples, not three copies and 10000
    # samples, so that several rounds and three timed set-ups fit in one
    # run: each copy costs one LP for each of the sampler's 8192 proposals.
    dim, vertices, copies, lam, epsilon, probes = 3, 12, 1, 0.9, 0.35, 10_000
    trials_per_round = 1
    ratio_samples = 2_000
    lp_check_points = 40
    smoke_sizes = {"check_probes": 2_000, "ratio_samples": 1_000}
    # The body is the default seed's for every seed: the LP pivots per point,
    # and so the run time, differ by up to a third between random bodies,
    # which would hide changes of the program.  The seed drives the rest.
    body_seed = 3

    def make_body(self):
        return bodies.random_vrep_body(self.dim, self.vertices,
                                       np.random.default_rng(self.body_seed))

    def setup(self) -> None:
        self.body = self.make_body()
        self.ratio = randvol.difference_volume_ratio(self.body, RngSpec(self.seed),
                                                     samples=self.ratio_samples)[0]
        self.net = nets.build_net(self.body, self.epsilon)

    def _round_report(self, r: int):
        config = randcover.CoverExperimentConfig(
            body=self.body, ratios=[self.lam] * self.copies, trials=self.trials_per_round,
            rng=RngSpec(self.seed, r), epsilon=self.epsilon, volume_ratio=self.ratio,
            probes=self.probes)
        return randcover.run_random_cover(config, net=self.net)

    def check(self, rnd: Round) -> list:
        """The trial checks, tallies that add up, and (round 0) combo_contains
        against combo_contains_lp on points of the bounding box."""
        failures = super().check(rnd)
        rep = rnd.report
        if rep is not None:
            statuses = [v.status for *_, v in rnd.records]
            if not rep.tally_ok() or rep.trials != len(statuses) or \
                    rep.certified != statuses.count(CERTIFIED) or \
                    rep.refuted != statuses.count(REFUTED):
                failures.append(f"round {rnd.index}: verdict tallies do not add up")
        if rnd.index == 0:
            combo = bodies.MinkowskiCombo(self.body, 1.0, self.lam)
            lo, hi = bodies.bounding_box(combo)
            gen = RngSpec(self.seed).child(_CHECK_TAG, 0xB0D).generator()
            pts = gen.uniform(lo, hi, size=(self.lp_check_points, self.dim))
            fast = bodies.combo_contains(combo, pts)
            oracle = np.array([bodies.combo_contains_lp(combo, p) for p in pts])
            if not np.array_equal(fast, oracle):
                failures.append("combo_contains disagrees with combo_contains_lp")
        return failures


class IlluminateSquare(_TrialWorkload):
    """Criterion 8: the only workload where illum and the runtime thread
    fan-out do most of the work."""

    name = "illuminate-square"
    trials_site = illum
    trials_per_round = 2
    decided_rounds = 24
    illumination_probes = 100_000
    single_thread_baseline = True
    smoke_sizes = {"check_probes": 2_000, "illumination_probes": 5_000}

    def setup(self) -> None:
        self.body = bodies.ConvexBody.cube(2)
        ratio = randvol.difference_volume_ratio(self.body)[0]
        m = math.ceil(randcover.threshold_sum(2, ratio, 5))
        lam = (randcover.threshold_sum(2, ratio, 4) / m) ** 0.5
        nets.build_net(self.body, randcover.experiment_epsilon(2, [lam]))

    def _round_report(self, r: int):
        return illum.run_illumination_pipeline(
            self.body, trials=self.trials_per_round, rng=RngSpec(self.seed, r),
            probes=self.illumination_probes)

    def check(self, rnd: Round) -> list:
        failures = super().check(rnd)
        rep = rnd.report
        if rep is not None:
            certified = sum(v.status == CERTIFIED for *_, v in rnd.records)
            if rep.falsified != 0:
                failures.append(f"round {rnd.index}: {rep.falsified} illumination(s) falsified")
            if rep.covering_certified != certified or len(rep.rows) != rep.trials or \
                    rep.illumination_verified + rep.falsified != rep.covering_certified:
                failures.append(f"round {rnd.index}: verdict tallies do not add up")
        return failures

    def _certificate_dicts(self, rnd: Round) -> list:
        certs = super()._certificate_dicts(rnd)
        rep = rnd.report
        if rep is None:
            return certs
        lit = {t: status for t, _, status in rep.rows}
        for t, centers, ratios, verdict in rnd.records:
            if verdict.status != CERTIFIED:
                continue
            conv = illum.covering_to_illumination(self.body, _placements(centers, ratios),
                                                  rep.epsilon_cover, verdict=verdict)
            check = illum.IlluminationVerdict(lit[t], r_used=conv.r_used)
            certs.append(illum.illumination_to_dict(self.body, conv.sources, check))
        return certs


class ScheduleSquare(Workload):
    """Criterion 9 through the CLI: branch B's two-phase cube covers (the
    patch-separation loop), a large certify_cover and the digest-only
    recheck in verify; the only workload that uses the cli layer."""

    name = "schedule-square"
    # Branch B at a size one run can afford (criterion 9 uses --lambda 0.02
    # --count 16000 --scale 4 --epsilon 0.001, about 100 s with its verify):
    # nine two-phase cube covers and a 227,529-point final net, above the
    # 200,000-point limit where the certificate embeds only a digest.
    branch_a = ["--lambda", "0.9", "--count", "300"]
    branch_b = ["--lambda", "0.03", "--count", "13000", "--scale", "8", "--epsilon", "0.003"]
    # Branch B keeps criterion 9's seed in every round and for every run
    # seed: the patch work of its nine cubes, and so its run time, differ by
    # a fifth between seeds, which would hide changes of the program, and a
    # run's round count must not change what its median is taken over.  The
    # run's seed and the round index drive branch A.
    branch_b_seed = 902
    smoke_sizes = {"branch_b": None}

    def commands(self, r: int) -> list:
        base = ["fn-schedule", "--body", "cube", "--dim", "2", "--mode", "desk",
                "--threads", str(self.threads)]
        cmds = [("A", base + self.branch_a + ["--seed", str(self.seed + r)])]
        if self.branch_b is not None:
            cmds.append(("B", base + self.branch_b + ["--seed", str(self.branch_b_seed)]))
        return cmds

    def setup(self) -> None:
        body = bodies.ConvexBody.cube(2)
        randvol.difference_volume_ratio(body)
        nets.build_net(body, 0.09)

    def run_round(self, r: int, label: str = "") -> Round:
        rnd = Round(r, folder=os.path.join(self.workdir, label or f"round-{r}"))
        os.makedirs(rnd.folder, exist_ok=True)
        for branch, argv in self.commands(r):
            out = os.path.join(rnd.folder, f"{branch}.json")
            cert = os.path.join(rnd.folder, f"{branch}.cert.json")
            start = time.perf_counter()
            code = cli.dispatch(argv + ["--out", out, "--certificate", cert])
            rnd.trial_s.append(time.perf_counter() - start)
            rnd.attempted += 1
            rnd.outputs[branch] = (code, out, cert)
            if code != cli.EXIT_OK:
                rnd.failures.append(f"round {r} branch {branch}: exit code {code}")
                continue
            with open(out) as fh:
                status = json.load(fh)["status"]
            rnd.decided += status in (CERTIFIED, REFUTED)
        rnd.wall_s = sum(rnd.trial_s)
        return rnd

    def check(self, rnd: Round) -> list:
        failures = []
        for branch, (code, out, _) in rnd.outputs.items():
            if code != cli.EXIT_OK:
                continue
            with open(out) as fh:
                payload = json.load(fh)
            if payload["status"] != CERTIFIED or payload["info"]["branch"] != branch:
                failures.append(f"round {rnd.index} branch {branch}: status "
                                f"{payload['status']}, branch {payload['info']['branch']}")
        return failures

    def certificates(self, rnd: Round) -> list:
        return [cert for code, _, cert in rnd.outputs.values() if code == cli.EXIT_OK]

    def _files(self, rnd: Round):
        for branch in sorted(rnd.outputs):
            _, out, cert = rnd.outputs[branch]
            yield from (p for p in (out, out + ".manifest.json", cert) if os.path.exists(p))

    def output_bytes(self, rnd: Round) -> int:
        return sum(os.path.getsize(p) for p in self._files(rnd))

    def digest(self, rnd: Round) -> str:
        h = hashlib.sha256()
        for path in self._files(rnd):
            if not path.endswith(".manifest.json"):   # it records the duration
                with open(path, "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()


WORKLOADS = {cls.name: cls for cls in (IlluminateSquare, ScheduleSquare, Vrep3)}
