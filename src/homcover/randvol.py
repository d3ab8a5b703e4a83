"""Deterministic randomness, uniform sampling in body combinations, and
hit-or-miss Monte Carlo volume with Wilson confidence intervals.

Streams are counter-based (Philox keyed by (seed, stream)), so any worker
can be handed an independent stream without shared state and two runs with
the same spec reproduce bit-identical samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, MinkowskiCombo, bounding_box, combo_contains

_MASK64 = (1 << 64) - 1
_REJECTION_FLOOR = 1e-6
_PROBE_PROPOSALS = 2_000_000


class RejectionTooSlow(RuntimeError):
    """Acceptance rate fell below the rejection-sampling floor; the target
    set is too thin inside its bounding box (dimension too high)."""


class UnsupportedBody(ValueError):
    """No closed-form volume for this body kind."""


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngSpec:
    """Seed plus stream id; equal specs yield identical sample sequences."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *indices: int) -> "RngSpec":
        """Derive an independent substream keyed by an index path."""
        s = self.stream & _MASK64
        for v in indices:
            s = _splitmix64(s ^ _splitmix64((int(v) + 0x632BE59BD9B4E019) & _MASK64))
        return RngSpec(self.seed, s)


@dataclass(frozen=True)
class VolumeEstimate:
    mean: float
    ci95_low: float
    ci95_high: float
    samples: int
    hits: int
    box_volume: float


def wilson_interval(hits: int, trials: int, z: float = 1.959963984540054):
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # at the degenerate proportions the score bound equals the endpoint exactly;
    # keep it there so the interval always contains the point estimate
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


def sample_uniform(combo: MinkowskiCombo, rng: RngSpec, count: int,
                   batch: int = 8192) -> np.ndarray:
    """i.i.d. uniform points in plus*K - minus*K by rejection from its
    bounding box.  Every returned point satisfies combo_contains.

    Proposals come in batches that start at max(16, count) and double up to
    ``batch``.  The Philox stream does not depend on how it is cut into
    batches, so the points returned do not depend on ``batch`` either."""
    if count < 1:
        raise ValueError("count must be positive")
    lo, hi = bounding_box(combo)
    gen = rng.generator()
    out = []
    got = 0
    proposals = 0
    accepts = 0
    size = min(batch, max(16, count))
    while got < count:
        pts = gen.uniform(lo, hi, size=(size, combo.dim))
        keep = combo_contains(combo, pts)
        proposals += size
        size = min(2 * size, batch)
        accepts += int(keep.sum())
        if accepts == 0 and proposals >= _PROBE_PROPOSALS:
            raise RejectionTooSlow(
                f"acceptance below {_REJECTION_FLOOR:g} after {proposals} proposals"
            )
        kept = pts[keep]
        out.append(kept)
        got += kept.shape[0]
    return np.concatenate(out)[:count]


def sample_uniform_body(body: ConvexBody, rng: RngSpec, count: int) -> np.ndarray:
    return sample_uniform(MinkowskiCombo(body, 1.0, 0.0), rng, count)


def mc_volume(combo: MinkowskiCombo, rng: RngSpec, samples: int) -> VolumeEstimate:
    """Hit-or-miss estimate box_volume * hit_fraction with a Wilson 95% CI.
    Deterministic for a fixed RngSpec."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful interval")
    lo, hi = bounding_box(combo)
    box_vol = float(np.prod(hi - lo))
    gen = rng.generator()
    hits = 0
    remaining = samples
    chunk = 65536
    while remaining > 0:
        take = min(chunk, remaining)
        pts = gen.uniform(lo, hi, size=(take, combo.dim))
        hits += int(combo_contains(combo, pts).sum())
        remaining -= take
    p_lo, p_hi = wilson_interval(hits, samples)
    return VolumeEstimate(
        mean=box_vol * hits / samples,
        ci95_low=box_vol * p_lo,
        ci95_high=box_vol * p_hi,
        samples=samples,
        hits=hits,
        box_volume=box_vol,
    )


def exact_volume(body: ConvexBody) -> float:
    """Closed-form volume for the special kinds: cube (2s)^n, simplex
    s^n / n!, cross-polytope (2s)^n / n!."""
    n, s = body.dim, body.scale
    if body.kind == "cube":
        return (2.0 * s) ** n
    if body.kind == "simplex":
        return s ** n / math.factorial(n)
    if body.kind == "crosspolytope":
        return (2.0 * s) ** n / math.factorial(n)
    raise UnsupportedBody(f"no closed-form volume for kind {body.kind!r}")


def difference_volume_ratio(body: ConvexBody, rng: RngSpec | None = None,
                            samples: int = 200_000):
    """Vol(K - K) / Vol(K): exact 2^n for the symmetric kinds, the exact
    central binomial for simplices, Monte Carlo otherwise.

    Returns (ratio, estimate) where estimate is None when exact.
    """
    n = body.dim
    if body.kind in ("cube", "crosspolytope"):
        return float(2 ** n), None
    if body.kind == "simplex" or body.vertices.shape[0] == n + 1:
        return float(math.comb(2 * n, n)), None
    if rng is None:
        raise ValueError("vertex bodies need an RngSpec for the Monte Carlo ratio")
    est_diff = mc_volume(MinkowskiCombo(body, 1.0, 1.0), rng.child(1), samples)
    est_body = mc_volume(MinkowskiCombo(body, 1.0, 0.0), rng.child(2), samples)
    return est_diff.mean / est_body.mean, (est_diff, est_body)


def body_volume(body: ConvexBody, rng: RngSpec | None = None,
                samples: int = 200_000) -> float:
    try:
        return exact_volume(body)
    except UnsupportedBody:
        if rng is None:
            raise
        return mc_volume(MinkowskiCombo(body, 1.0, 0.0), rng, samples).mean
