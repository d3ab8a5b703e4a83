"""Illumination of convex bodies by point light sources.

A boundary point x is illuminated by an external point p when the line
through p and x meets the interior of the body at a point not between p
and x.  With the line parametrized as q(s) = p + s (x - p), that means
some s > 1 or s < 0 with q(s) interior.  Interior is always tested with
the strict margin from `bodies`, so grazing lines resolve to "not
illuminated" (conservative).

Conversion from coverings: if homothets x_i + (1 - e) K cover K, the
points R x_i illuminate K for any R > 1/e.  Centers whose scaled position
stays inside K are dropped; their homothets touch no boundary point (a
boundary point x in x_i + (1 - e) K forces gauge(x_i) >= e, hence
gauge(R x_i) > 1), so dropping them never loses illumination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import covercert, randcover
from .bodies import INTERIOR_MARGIN, ConvexBody, HomothetPlacement, MinkowskiCombo
from .covercert import CERTIFIED, CoverageVerdict
from .randcover import CoverExperimentConfig, iter_trials, threshold_sum
from .randvol import RngSpec, difference_volume_ratio

BOUNDARY_TOL = 1e-6
R_MARGIN = 0.5

VERIFIED_BY_COVERING = "verified_by_covering"
FALSIFIED = "falsified"
UNKNOWN = "unknown"

_FALSIFY_STREAM_TAG = 0x11F


class ConversionRequiresCertificate(RuntimeError):
    """covering_to_illumination refuses placements without a Certified verdict."""


@dataclass(frozen=True)
class LightSource:
    position: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)


def validate_sources(body: ConvexBody, sources: Sequence[LightSource]) -> None:
    for src in sources:
        if body.contains(src.position, "closed"):
            raise ValueError(f"light source {src.position} lies inside the body")


@dataclass(eq=False)
class IlluminationVerdict:
    status: str
    witness: Optional[np.ndarray] = None
    r_used: Optional[float] = None
    probes_used: int = 0


def _line_interior_window(body: ConvexBody, source: np.ndarray, pts: np.ndarray):
    """Per point x, the open parameter window where p + s (x - p) is
    strictly interior, as arrays (s_lo, s_hi, window_ok)."""
    A, b = body.halfspaces
    base = A @ source
    coef = (pts - source) @ A.T  # (N, f)
    bound = (b - INTERIOR_MARGIN - base)[None, :]
    pos = coef > 1e-12
    neg = coef < -1e-12
    flat = ~pos & ~neg
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = bound / coef
    s_hi = np.min(np.where(pos, ratio, np.inf), axis=1)
    s_lo = np.max(np.where(neg, ratio, -np.inf), axis=1)
    flat_ok = np.all(np.where(flat, bound >= 0.0, True), axis=1)
    return s_lo, s_hi, flat_ok & (s_lo < s_hi - 1e-12)


def illuminated_mask(body: ConvexBody, source: LightSource, pts) -> np.ndarray:
    """Vectorized illumination test of boundary points against one source."""
    from . import runtime

    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    body.halfspaces

    def mask(chunk):
        s_lo, s_hi, ok = _line_interior_window(body, source.position, chunk)
        return ok & ((s_hi > 1.0 + 1e-9) | (s_lo < -1e-9))

    return runtime.chunked_mask(mask, pts)


def illuminates(body: ConvexBody, source: LightSource, point) -> bool:
    """Single-point illumination predicate with input validation; it
    decides with `illuminated_mask`, the predicate the falsifier uses."""
    x = np.asarray(point, dtype=float)
    A, b = body.halfspaces
    facet_gap = float(np.max(A @ x - b))
    if abs(facet_gap) > BOUNDARY_TOL:
        raise ValueError("point is not on the boundary within tolerance")
    if body.contains(source.position, "closed"):
        raise ValueError("source must lie outside the body")
    return bool(illuminated_mask(body, source, x[None, :])[0])


@dataclass(eq=False)
class ConversionResult:
    sources: list
    r_used: float
    verdict: CoverageVerdict
    dropped_interior: int


def covering_to_illumination(body: ConvexBody,
                             placements: Sequence[HomothetPlacement],
                             epsilon_cover: float,
                             verdict: Optional[CoverageVerdict] = None,
                             net_epsilon: Optional[float] = None,
                             r_margin: float = R_MARGIN) -> ConversionResult:
    """Turn a certified covering by copies of ratio 1 - epsilon_cover into
    light sources R * x_i with R = 1/epsilon_cover + r_margin."""
    if not 0.0 < epsilon_cover < 1.0:
        raise ValueError("epsilon_cover must be in (0, 1); R would be infinite at 0")
    lam = 1.0 - epsilon_cover
    if any(abs(pl.ratio - lam) > 1e-9 for pl in placements):
        raise ValueError("every ratio must equal 1 - epsilon_cover")
    if verdict is None:
        eps_net = net_epsilon if net_epsilon is not None else \
            randcover.experiment_epsilon(body.dim, [lam])
        verdict = covercert.certify_cover(body, placements, eps_net)
    if verdict.status != CERTIFIED:
        raise ConversionRequiresCertificate(
            f"covering verdict is {verdict.status!r}, not certified")
    r_used = 1.0 / epsilon_cover + r_margin
    sources = []
    dropped = 0
    for pl in placements:
        pos = r_used * pl.center
        if body.contains(pos, "closed"):
            dropped += 1
            continue
        sources.append(LightSource(pos))
    return ConversionResult(sources=sources, r_used=r_used, verdict=verdict,
                            dropped_interior=dropped)


def verify_illumination(body: ConvexBody, sources: Sequence[LightSource],
                        rng: RngSpec, probes: int,
                        certificate: Optional[CoverageVerdict] = None,
                        r_used: Optional[float] = None) -> IlluminationVerdict:
    """Falsification pass over boundary probes; verification by certificate.

    Probes are the body's vertices (the extreme points are where missing
    sources show first) followed by random sphere directions mapped to the
    boundary by ray shooting from the Chebyshev center.  Any unlit probe
    yields FalsifiedWitness; otherwise the verdict is VerifiedByCovering
    when a covering certificate backs the sources, else Unknown.
    """
    if probes < 1:
        raise ValueError("probes must be positive")
    validate_sources(body, sources)
    anchor, _ = body.chebyshev
    A, b = body.halfspaces
    gen = rng.generator()

    n_random = max(probes - body.vertices.shape[0], 0)
    dirs = gen.normal(size=(n_random, body.dim))
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 1e-12] / norms[norms > 1e-12][:, None]
    slack = b - A @ anchor
    coef = dirs @ A.T
    with np.errstate(divide="ignore"):
        t = np.min(np.where(coef > 1e-12, slack[None, :] / coef, np.inf), axis=1)
    random_pts = anchor + t[:, None] * dirs
    pts = np.vstack([body.vertices, random_pts])[:probes] if probes >= body.vertices.shape[0] \
        else np.vstack([body.vertices, random_pts])

    lit = np.zeros(pts.shape[0], dtype=bool)
    for src in sources:
        idx = np.where(~lit)[0]
        if idx.size == 0:
            break
        lit[idx] |= illuminated_mask(body, src, pts[idx])
    if not lit.all():
        first = int(np.argmax(~lit))
        return IlluminationVerdict(FALSIFIED, witness=pts[first], r_used=r_used,
                                   probes_used=first + 1)
    status = VERIFIED_BY_COVERING if certificate is not None and \
        certificate.status == CERTIFIED else UNKNOWN
    return IlluminationVerdict(status, r_used=r_used, probes_used=pts.shape[0])


def illumination_to_dict(body: ConvexBody, sources: Sequence[LightSource],
                         verdict: IlluminationVerdict) -> dict:
    out = {
        "schemaVersion": 1,
        "type": "illumination",
        "status": verdict.status,
        "body": body.to_spec(),
        "sources": [src.position.tolist() for src in sources],
    }
    if verdict.witness is not None:
        out["witness"] = np.asarray(verdict.witness).tolist()
    if verdict.r_used is not None:
        out["rUsed"] = verdict.r_used
    return out


def recheck_illumination_certificate(cert: dict) -> bool:
    """Replay the claims of a serialized illumination verdict: sources are
    external, and a falsifying witness is a boundary point no source lights."""
    if cert.get("type") != "illumination":
        return False
    body = ConvexBody.from_spec(cert["body"])
    sources = [LightSource(np.array(p)) for p in cert["sources"]]
    try:
        validate_sources(body, sources)
    except ValueError:
        return False
    if cert["status"] == FALSIFIED:
        witness = np.array(cert["witness"])
        A, b = body.halfspaces
        if abs(float(np.max(A @ witness - b))) > BOUNDARY_TOL:
            return False
        return not any(illuminates(body, src, witness) for src in sources)
    return True


@dataclass
class IlluminationExperimentReport:
    trials: int
    m: int
    epsilon_cover: float
    r_used: float
    covering_certified: int
    illumination_verified: int
    falsified: int
    rows: list = field(default_factory=list)


def run_illumination_pipeline(body: ConvexBody, trials: int, rng: RngSpec,
                   probes: int = 10_000, net_epsilon: Optional[float] = None
                   ) -> IlluminationExperimentReport:
    """End-to-end pipeline: draw centers in K - K, certify the covering by
    copies of ratio 1 - e, convert certified trials to sources R X_i, and
    run the falsifier on each source set."""
    n = body.dim
    ratio = difference_volume_ratio(body, rng.child(0xA))[0]
    m = math.ceil(threshold_sum(n, ratio, 5))
    t4 = threshold_sum(n, ratio, 4)
    epsilon_cover = 1.0 - (t4 / m) ** (1.0 / n)
    lam = 1.0 - epsilon_cover
    config = CoverExperimentConfig(
        body=body,
        ratios=[lam] * m,
        trials=trials,
        rng=rng,
        epsilon=net_epsilon,
        sample_combo=MinkowskiCombo(body, 1.0, 1.0),
    )
    certified = verified = falsified = 0
    rows = []
    r_used = 1.0 / epsilon_cover + R_MARGIN
    for t, placements, verdict in iter_trials(config):
        if verdict.status != CERTIFIED:
            rows.append((t, verdict.status, None))
            continue
        certified += 1
        conv = covering_to_illumination(body, placements, epsilon_cover, verdict=verdict)
        check = verify_illumination(body, conv.sources,
                                    rng.child(t, _FALSIFY_STREAM_TAG), probes,
                                    certificate=verdict, r_used=conv.r_used)
        rows.append((t, verdict.status, check.status))
        if check.status == FALSIFIED:
            falsified += 1
        else:
            verified += 1
    return IlluminationExperimentReport(
        trials=trials, m=m, epsilon_cover=epsilon_cover, r_used=r_used,
        covering_certified=certified, illumination_verified=verified,
        falsified=falsified, rows=rows)
