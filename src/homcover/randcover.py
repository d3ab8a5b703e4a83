"""Randomized covering experiments and the reference-bound calculators.

A trial draws one random center per ratio, uniformly inside K - lambda_i*K
(independent streams keyed by (trial, i), all drawn in one multi-stream
pass per distinct ratio), then asks the coverage decider
for a verdict.  Unknown counts as failure-to-certify, so the reported
frequency is a conservative lower bound on the true coverage probability.
All logarithms are natural.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import covercert, nets
from .bodies import ConvexBody, Homothets, MinkowskiCombo
from .covercert import CERTIFIED, REFUTED, UNKNOWN
from .fnsched import MODE_PAPER, rogers_factor
from .nets import EpsNet
from .randvol import RngSpec, difference_volume_ratio, sample_first

_PROBE_STREAM_TAG = 0x5EED


def threshold_sum(n: int, volume_ratio: float, constant: int) -> float:
    """(n ln n + n ln ln n + c n) * volume_ratio with c in {4, 5}."""
    if n < 2:
        raise ValueError("n must be >= 2 (ln ln n undefined below)")
    if constant not in (4, 5):
        raise ValueError("constant must be 4 or 5")
    return rogers_factor(n, constant, MODE_PAPER) * volume_ratio


def experiment_epsilon(n: int, ratios: Sequence[float]) -> float:
    """Desk-scale default: a tenth of the smallest ratio keeps shrunken
    copies fat; floored by the asymptotic default, capped at 0.25."""
    lam_min = min(ratios)
    return float(min(max(lam_min / 10.0, nets.default_epsilon(n)), 0.25))


@dataclass(eq=False)
class CoverExperimentConfig:
    body: ConvexBody
    ratios: Sequence[float]
    trials: int
    rng: RngSpec
    epsilon: Optional[float] = None
    volume_ratio: Optional[float] = None
    probes: int = 10_000
    sample_combo: Optional[MinkowskiCombo] = None  # override: draw all centers here

    def __post_init__(self):
        n = self.body.dim
        if not self.ratios:
            raise ValueError("ratios must be nonempty")
        if any(not 0.0 < r < 1.0 for r in self.ratios):
            raise ValueError("ratios must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.probes < 1:
            raise ValueError("probes must be positive")
        if not self.body.contains_origin_interior:
            raise ValueError("experiment body must contain the origin in its interior")
        floor = math.exp(-n)
        if any(r <= floor for r in self.ratios):
            warnings.warn(  # stacklevel 3: the caller of the generated __init__
                f"some ratios fall at or below e^-n = {floor:.3g}; the coverage "
                "guarantee is stated for ratios above that floor", stacklevel=3)
        if self.epsilon is None:
            self.epsilon = experiment_epsilon(n, self.ratios)
        if self.volume_ratio is None:
            self.volume_ratio = difference_volume_ratio(self.body, self.rng.child(0xA))[0]

    def sum_pow(self) -> float:
        n = self.body.dim
        return float(sum(r ** n for r in self.ratios))


@dataclass
class CoverExperimentReport:
    trials: int
    certified: int
    refuted: int
    unknown: int
    empirical_lower_bound: float
    asymptotic_bound: float  # the 1 - e^(-0.3 n) reference line
    threshold_satisfied: bool
    sum_pow: float
    threshold_value: float
    epsilon: float
    volume_ratio: float
    rows: list = field(default_factory=list)  # (trial, status, witness-or-None)

    def tally_ok(self) -> bool:
        return self.certified + self.refuted + self.unknown == self.trials


def iter_trials(config: CoverExperimentConfig,
                net: Optional[EpsNet] = None) -> Iterator[tuple]:
    """Yield (trial index, the Homothets decided, verdict) for each trial.

    Deterministic for a fixed RngSpec: centers come from streams keyed by
    (trial, i), refutation probes from a separate per-trial stream.
    """
    body = config.body
    if net is None:
        net = nets.build_net(body, config.epsilon)
    if config.sample_combo is not None:
        combos = [config.sample_combo] * len(config.ratios)
    else:
        by_ratio = {lam: MinkowskiCombo(body, 1.0, lam) for lam in config.ratios}
        combos = [by_ratio[lam] for lam in config.ratios]
    copies = np.arange(len(config.ratios))
    for t in range(config.trials):
        family = Homothets(sample_first(combos, config.rng.children(t, copies)), config.ratios)
        verdict = covercert.decide_cover(
            body, family, config.epsilon,
            config.rng.child(t, _PROBE_STREAM_TAG), config.probes, net=net)
        yield t, family, verdict


def run_random_cover(config: CoverExperimentConfig,
                     net: Optional[EpsNet] = None) -> CoverExperimentReport:
    """Run the random-cover experiment and tally verdicts."""
    n = config.body.dim
    counts = {CERTIFIED: 0, REFUTED: 0, UNKNOWN: 0}
    rows = []
    for t, _, verdict in iter_trials(config, net=net):
        counts[verdict.status] += 1
        witness = verdict.witness.tolist() if verdict.witness is not None else None
        rows.append((t, verdict.status, witness))
    sum_pow = config.sum_pow()
    threshold = threshold_sum(n, config.volume_ratio, 4)
    return CoverExperimentReport(
        trials=config.trials,
        certified=counts[CERTIFIED],
        refuted=counts[REFUTED],
        unknown=counts[UNKNOWN],
        empirical_lower_bound=counts[CERTIFIED] / config.trials,
        asymptotic_bound=1.0 - math.exp(-0.3 * n),
        threshold_satisfied=bool(sum_pow >= threshold),
        sum_pow=sum_pow,
        threshold_value=threshold,
        epsilon=config.epsilon,
        volume_ratio=config.volume_ratio,
        rows=rows,
    )


def reference_bounds(n: int, volume_ratio: float, symmetric: bool) -> dict:
    """Comparison table of the named reference constants; informational only."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rogers = threshold_sum(n, volume_ratio, 5)
    central_binomial = math.comb(2 * n, n)
    return {
        "dim": n,
        "volumeRatio": volume_ratio,
        "rogersBound": rogers,
        "scheduleBound": math.ceil(rogers),
        "centralBinomial": central_binomial,
        "rogersShephardScale": central_binomial * n * math.log(n),
        "cubeSchedulerExact": 2 ** n - 1,
        "generalSchedulerClassic": (n + 1) ** n - 1,
        "symmetricMassBound": 3 ** n,
        "generalMassBound": 6 ** n,
        "massBoundApplied": 3 ** n if symmetric else 6 ** n,
    }
