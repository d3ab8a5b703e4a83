"""Illumination of convex bodies by point light sources.

A point p outside K illuminates a boundary point x of K when the ray from p
through x enters the interior of K right after x: x + t (x - p) is interior
for every small enough t > 0.

Facet rule.  For K = {A x <= b} (unit facet normals a_i), p illuminates x
exactly when a_i . p > b_i for every facet i active at x (a_i . x = b_i).
Proof: an inactive facet keeps its slack for a small step, and an active
facet's value moves by t a_i . (x - p) = t (b_i - a_i . p), which must be
negative.  A source set, a (count, n) array of positions outside K, lights
x when one of its sources does.

Both tolerances err toward "not lit".  A facet counts as active when it lies
within BOUNDARY_TOL of x, which only adds conditions; a source counts as
beyond a facet only by more than INTERIOR_MARGIN, which only removes
sources.  Both exceed the rounding of the products, so every point called
lit is lit.  A non-finite source would clear every facet and is rejected.

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

from .bodies import INTERIOR_MARGIN, ConvexBody, HomothetPlacement, Homothets, MinkowskiCombo
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


def validate_sources(body: ConvexBody, sources) -> np.ndarray:
    """The sources as a (count, n) float array of finite positions outside
    the body, an empty list being no source; any other shape raises ValueError."""
    positions = np.asarray(sources, dtype=float)
    if positions.shape == (0,):
        positions = positions.reshape(0, body.dim)
    if positions.shape[1:] != (body.dim,) or not np.isfinite(positions).all():
        raise ValueError(f"light sources must be a finite (count, {body.dim}) array")
    inside = body.contains(positions, "closed")
    if inside.any():
        raise ValueError(f"light source {positions[np.argmax(inside)]} lies inside the body")
    return positions


def _on_boundary(body: ConvexBody, x: np.ndarray) -> bool:
    A, b = body.halfspaces
    return abs(float(np.max(A @ x - b))) <= BOUNDARY_TOL


@dataclass(eq=False)
class IlluminationVerdict:
    status: str
    witness: Optional[np.ndarray] = None
    r_used: Optional[float] = None
    probes_used: int = 0


def illuminated_mask(body: ConvexBody, sources: np.ndarray, points) -> np.ndarray:
    """For each boundary point, whether some source lights it (the facet rule)."""
    A, b = body.halfspaces
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    active = (pts @ A.T >= b - BOUNDARY_TOL).astype(float)  # (points, facets)
    short = (sources @ A.T <= b + INTERIOR_MARGIN).astype(float)
    # active @ short.T counts, per point and source, the active facets the
    # source is not beyond (sums of 0/1 are exact).  A point with one active
    # facet needs only the facet's minimum over the sources.
    lit = active @ short.min(axis=0, initial=1.0) == 0.0
    rest = np.flatnonzero(lit & (active @ np.ones(b.size) != 1.0))
    lit[rest] = np.any(active[rest] @ short.T == 0.0, axis=1)
    return lit


def illuminates(body: ConvexBody, source, point) -> bool:
    """Single-point illumination predicate for one source position, with
    input validation; it decides with `illuminated_mask`, as the falsifier does."""
    x = np.asarray(point, dtype=float)
    if not _on_boundary(body, x):
        raise ValueError("point is not on the boundary within tolerance")
    return bool(illuminated_mask(body, validate_sources(body, [source]), x[None, :])[0])


@dataclass(eq=False)
class ConversionResult:
    sources: np.ndarray  # (count, n) positions
    r_used: float


def covering_to_illumination(body: ConvexBody,
                             placements: Homothets | Sequence[HomothetPlacement],
                             epsilon_cover: float,
                             verdict: CoverageVerdict) -> ConversionResult:
    """Turn a covering by copies of ratio 1 - epsilon_cover, which
    ``verdict`` certifies, into light sources R * x_i with
    R = 1/epsilon_cover + R_MARGIN, the rows of ``sources``."""
    if not 0.0 < epsilon_cover < 1.0:
        raise ValueError("epsilon_cover must be in (0, 1); R would be infinite at 0")
    family = Homothets.of(placements)
    if np.any(np.abs(family.ratios - (1.0 - epsilon_cover)) > 1e-9):
        raise ValueError("every ratio must equal 1 - epsilon_cover")
    if verdict.status != CERTIFIED:
        raise ConversionRequiresCertificate(
            f"covering verdict is {verdict.status!r}, not certified")
    r_used = 1.0 / epsilon_cover + R_MARGIN
    positions = r_used * family.centers.reshape(family.ratios.size, body.dim)
    inside = body.contains(positions, "closed")
    return ConversionResult(sources=positions[~inside], r_used=r_used)


def _boundary_probes(body: ConvexBody, gen: np.random.Generator, count: int) -> np.ndarray:
    """The body's vertices, then ``count`` minus their number of random
    boundary points (none when ``count`` is below the vertex count): unit
    normal directions shot from the Chebyshev center to the first facet
    they cross.

    The passes run over the few columns (coordinates, then facets), not
    along the short rows, where numpy's reductions are slow.  Each element
    sees the same IEEE operations as in the row form ``dirs /
    norm(dirs, axis=1)`` and ``min(where(coef > 1e-12, slack / coef, inf),
    axis=1)``, so the probes are bit-identical to it.
    """
    anchor, _ = body.chebyshev
    A, b = body.halfspaces
    nv = body.vertices.shape[0]
    dirs = gen.normal(size=(max(count - nv, 0), body.dim))
    if body.dim < 8:  # numpy sums rows this short in order, longer ones eight-way
        norms = dirs[:, 0] * dirs[:, 0]
        for j in range(1, body.dim):
            norms += dirs[:, j] * dirs[:, j]
        np.sqrt(norms, out=norms)
    else:
        norms = np.linalg.norm(dirs, axis=1)
    keep = norms > 1e-12
    if not keep.all():
        dirs, norms = dirs[keep], norms[keep]
    dirs /= norms[:, None]
    # The anchor is interior, so every slack is positive and a facet the
    # ray does not cross (coef <= 1e-12) gets slack / +0.0 = inf: its
    # column entry is zeroed and then lifted to +0.0 (-0.0 + 0.0 is +0.0).
    slack = b - A @ anchor
    coef = dirs @ A.T
    t = np.full(dirs.shape[0], np.inf)
    den = np.empty_like(t)
    crosses = np.empty(t.size, dtype=bool)
    with np.errstate(divide="ignore"):
        for i in range(b.size):
            col = coef[:, i]
            np.greater(col, 1e-12, out=crosses)
            np.multiply(col, crosses, out=den)
            den += 0.0
            np.divide(slack[i], den, out=den)
            np.minimum(t, den, out=t)
    pts = np.empty((nv + dirs.shape[0], body.dim))
    pts[:nv] = body.vertices
    np.multiply(t[:, None], dirs, out=pts[nv:])
    pts[nv:] += anchor
    return pts


def verify_illumination(body: ConvexBody, sources,
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
    sources = validate_sources(body, sources)
    pts = _boundary_probes(body, rng.generator(), probes)
    lit = illuminated_mask(body, sources, pts)
    if not lit.all():
        first = int(np.argmax(~lit))
        return IlluminationVerdict(FALSIFIED, witness=pts[first], r_used=r_used,
                                   probes_used=first + 1)
    status = VERIFIED_BY_COVERING if certificate is not None and \
        certificate.status == CERTIFIED else UNKNOWN
    return IlluminationVerdict(status, r_used=r_used, probes_used=pts.shape[0])


def illumination_to_dict(body: ConvexBody, sources: np.ndarray,
                         verdict: IlluminationVerdict) -> dict:
    out = {
        "schemaVersion": 1,
        "type": "illumination",
        "status": verdict.status,
        "body": body.to_spec(),
        "sources": sources.tolist(),
    }
    if verdict.witness is not None:
        out["witness"] = np.asarray(verdict.witness).tolist()
    if verdict.r_used is not None:
        out["rUsed"] = verdict.r_used
    return out


def recheck_illumination_certificate(cert: dict) -> bool:
    """Replay the claims of a serialized illumination verdict: sources are
    finite and external, and a falsifying witness is a boundary point no
    source lights.  Sources that are not numbers in a list raise TypeError."""
    if cert.get("type") != "illumination":
        return False
    body = ConvexBody.from_spec(cert["body"])
    try:
        positions = np.array(cert["sources"])  # ragged rows raise ValueError
        if positions.ndim == 0 or positions.dtype.kind not in "biuf":
            raise TypeError("sources must be a list of positions")
        sources = validate_sources(body, positions)
    except ValueError:
        return False
    if cert["status"] == FALSIFIED:
        witness = np.array(cert["witness"])
        return _on_boundary(body, witness) and \
            not illuminated_mask(body, sources, witness[None, :])[0]
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
    if probes < 1:  # checked before any trial: uncertified trials never reach the falsifier
        raise ValueError("probes must be positive")
    n = body.dim
    ratio = difference_volume_ratio(body, rng.child(0xA))[0]
    m = math.ceil(threshold_sum(n, ratio, 5))
    t4 = threshold_sum(n, ratio, 4)
    epsilon_cover = 1.0 - (t4 / m) ** (1.0 / n)
    # the ratio is passed on: the config would estimate it again from the same stream
    config = CoverExperimentConfig(
        body=body, ratios=[1.0 - epsilon_cover] * m, trials=trials, rng=rng, epsilon=net_epsilon,
        volume_ratio=ratio, sample_combo=MinkowskiCombo(body, 1.0, 1.0))
    certified = verified = falsified = 0
    rows = []
    r_used = 1.0 / epsilon_cover + R_MARGIN
    for t, family, verdict in iter_trials(config):
        if verdict.status != CERTIFIED:
            rows.append((t, verdict.status, None))
            continue
        certified += 1
        conv = covering_to_illumination(body, family, epsilon_cover, verdict=verdict)
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
