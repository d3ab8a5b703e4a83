"""Coverage decisions for families of homothets: a sound certificate via
net shrinkage, a falsifier via witness search, and re-checkable
serialization of both.

The certificate logic: build an epsilon-net on the target; if every net
point lies in some placed copy shrunken by the net gauge, the unshrunken
copies cover the target.  The condition is sufficient, never necessary,
so the result is a tri-state verdict.  Placements may reference a piece
body different from the target; the shrink is then scaled by the factor
needed to swallow one target gauge step inside the piece body.

Certification and refutation share one coverage kernel, ``bodies.first_cover``
(the assignment is each net point's first covering copy).  A certified
certificate always embeds that assignment, and verification only replays
it in one vectorised check; it never re-runs the search.

Bulk payloads are columns: the base64 of a little-endian array
(``encode_column`` / ``decode_column``).  A covering certificate (schema 3)
holds ``centers`` (count x n float64, row-major), ``ratios`` (count
float64) and, when certified, ``assignment`` (int32; ``a[j]`` is the copy
covering net point ``j``).  Certificates of schema 1 and 2 fail replay.
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import runtime
from .bodies import (
    MEMBERSHIP_TOL,
    ConvexBody,
    HomothetPlacement,
    Homothets,
    cover_factor,
    covered_by_union,
    first_cover,
)
from .nets import EpsNet, build_net
from .randvol import RngSpec, sample_uniform_body

CERTIFIED = "certified"
REFUTED = "refuted"
UNKNOWN = "unknown"

SCHEMA_VERSION = 3


@dataclass(eq=False)
class CoverageVerdict:
    status: str
    epsilon: float
    shrink: float = 0.0
    witness: Optional[np.ndarray] = None
    assignment: Optional[np.ndarray] = None  # net point index -> placement index
    net: Optional[EpsNet] = None
    probes_used: int = 0


def certify_cover(body: ConvexBody, placements: Homothets | Sequence[HomothetPlacement],
                  epsilon: float, net: Optional[EpsNet] = None,
                  pieces_body: Optional[ConvexBody] = None) -> CoverageVerdict:
    """Certified/Unknown verdict via net shrinkage (never Refuted).

    A prebuilt net for the same body and epsilon may be passed to amortize
    construction across many placement draws.
    """
    family = Homothets.of(placements)  # once, not per worker chunk
    if not family.ratios.size:
        raise ValueError("placements must be nonempty")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0, 1]")
    if net is None:
        net = build_net(body, epsilon)
    elif net.body is not body or abs(net.epsilon - epsilon) > 1e-12:
        raise ValueError("prebuilt net does not match body/epsilon")
    pieces = pieces_body if pieces_body is not None else body
    shrink = epsilon * cover_factor(body, pieces)

    pieces.halfspaces  # populate the cache before any thread fan-out
    assignment = runtime.chunked_mask(
        lambda chunk: first_cover(pieces, family, chunk, shrink), net.points)
    if assignment.min() >= 0:
        return CoverageVerdict(CERTIFIED, epsilon, shrink=shrink,
                               assignment=assignment, net=net)
    return CoverageVerdict(UNKNOWN, epsilon, shrink=shrink, net=net)


def refute_cover(body: ConvexBody, placements: Homothets | Sequence[HomothetPlacement],
                 rng: RngSpec, probes: int) -> CoverageVerdict:
    """Sample uniform points of the target; the first one outside every
    (closed, unshrunken) homothet refutes coverage."""
    if probes < 1:
        raise ValueError("probes must be positive")
    pts = sample_uniform_body(body, rng, probes)
    covered = covered_by_union(body, placements, pts)
    if not covered.all():
        first = int(np.argmax(~covered))
        # a copy: a row view would keep the whole probe array alive with the verdict
        return CoverageVerdict(REFUTED, epsilon=0.0, witness=pts[first].copy(),
                               probes_used=first + 1)
    return CoverageVerdict(UNKNOWN, epsilon=0.0, probes_used=probes)


def decide_cover(body: ConvexBody, placements: Homothets | Sequence[HomothetPlacement],
                 epsilon: float, rng: RngSpec, probes: int,
                 net: Optional[EpsNet] = None) -> CoverageVerdict:
    """Certify first; on Unknown try to refute; otherwise stay Unknown.
    By construction the two decisive statuses are mutually exclusive."""
    family = Homothets.of(placements)
    verdict = certify_cover(body, family, epsilon, net=net)
    if verdict.status == CERTIFIED:
        return verdict
    refutation = refute_cover(body, family, rng, probes)
    if refutation.status == REFUTED:
        refutation.epsilon = epsilon
        return refutation
    verdict.probes_used = refutation.probes_used
    return verdict


# --- serialization ---------------------------------------------------------


def _digest(arr: np.ndarray) -> str:
    data = np.ascontiguousarray(arr, dtype=np.float64)
    return hashlib.sha256(data.tobytes()).hexdigest()


def encode_column(array, dtype) -> str:
    """The base64 (ASCII) of ``array`` as a little-endian ``dtype`` array,
    flattened in row-major order."""
    dt = np.dtype(dtype).newbyteorder("<")
    return base64.b64encode(np.ascontiguousarray(array, dtype=dt).tobytes()).decode("ascii")


def decode_column(text, dtype, count: Optional[int] = None) -> Optional[np.ndarray]:
    """The flat array that ``encode_column(array, dtype)`` wrote, or None
    unless ``text`` is a string of valid base64 holding exactly ``count``
    values (any whole number of values when ``count`` is None)."""
    if not isinstance(text, str):
        return None
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or non-ASCII text
        return None
    dt = np.dtype(dtype).newbyteorder("<")
    if len(raw) % dt.itemsize or (count is not None and len(raw) != count * dt.itemsize):
        return None
    return np.frombuffer(raw, dtype=dt)


def verdict_to_dict(verdict: CoverageVerdict, body: ConvexBody,
                    placements: Homothets | Sequence[HomothetPlacement],
                    pieces_body: Optional[ConvexBody] = None) -> dict:
    """The verdict as a dict of plain JSON types (schema 3)."""
    family = Homothets.of(placements)
    out = {
        "schemaVersion": SCHEMA_VERSION,
        "type": "covering",
        "status": verdict.status,
        "epsilon": verdict.epsilon,
        "shrink": verdict.shrink,
        "body": body.to_spec(),
        "centers": encode_column(family.centers, "<f8"),
        "ratios": encode_column(family.ratios, "<f8"),
    }
    if pieces_body is not None and pieces_body is not body:
        out["piecesBody"] = pieces_body.to_spec()
    if verdict.witness is not None:
        out["witness"] = np.asarray(verdict.witness).tolist()
    if verdict.net is not None:
        out["net"] = {
            "size": verdict.net.size,
            "spacing": verdict.net.grid_spacing,
            "inradius": verdict.net.certified_inradius,
            "anchor": verdict.net.anchor.tolist(),
            "pointsDigest": _digest(verdict.net.points),
        }
    if verdict.assignment is not None:
        out["membershipTolerance"] = MEMBERSHIP_TOL
        out["assignment"] = encode_column(verdict.assignment, "<i4")
    return out


def _inside(body: ConvexBody, points: np.ndarray, centers: np.ndarray,
            radii: np.ndarray) -> np.ndarray:
    """Row by row (broadcast): does a point lie in center + radius * body,
    closed, up to MEMBERSHIP_TOL per facet?"""
    A, b = body.halfspaces
    return np.all((points - centers) @ A.T <= radii[:, None] * b + MEMBERSHIP_TOL, axis=1)


def recheck_certificate(cert: dict) -> bool:
    """Replay every membership claim of a serialized covering verdict.

    Decode the ``centers`` and ``ratios`` columns: ``centers`` must hold
    exactly ``len(ratios) * dim`` finite values and every ratio must lie in
    [0, 1].  Certified: rebuild the net deterministically and compare its
    digest and the shrink, require the recorded membership tolerance to be
    ``MEMBERSHIP_TOL``, decode the embedded assignment (one copy index per
    net point) and check that each net point lies in its assigned shrunken
    homothet, all in one vectorised test.  The search is never re-run.
    Refuted: the witness must lie in the body and outside every unshrunken
    homothet.  Any schema other than ``SCHEMA_VERSION`` fails.
    """
    if cert.get("type") != "covering" or cert.get("schemaVersion") != SCHEMA_VERSION:
        return False
    body = ConvexBody.from_spec(cert["body"])
    pieces = ConvexBody.from_spec(cert["piecesBody"]) if "piecesBody" in cert else body
    ratios = decode_column(cert.get("ratios"), "<f8")
    centers = None if ratios is None else \
        decode_column(cert.get("centers"), "<f8", ratios.size * body.dim)
    if centers is None or not np.isfinite(centers).all() or \
            not np.all((ratios >= 0.0) & (ratios <= 1.0)):  # NaN fails too
        return False
    centers = centers.reshape(ratios.size, body.dim)
    status = cert["status"]

    if status == REFUTED:
        witness = np.array(cert["witness"])
        if not body.contains(witness, "closed"):
            return False
        live = ratios > 0.0  # a copy of ratio 0 covers nothing
        return not _inside(pieces, witness, centers[live], ratios[live]).any()

    if status == CERTIFIED:
        epsilon = float(cert["epsilon"])
        net = build_net(body, epsilon)
        meta = cert["net"]
        if net.size != meta["size"] or abs(net.grid_spacing - meta["spacing"]) > 1e-12:
            return False
        if _digest(net.points) != meta["pointsDigest"]:
            return False
        shrink = epsilon * cover_factor(body, pieces)
        if abs(shrink - float(cert["shrink"])) > 1e-9:
            return False
        if cert.get("membershipTolerance") != MEMBERSHIP_TOL:
            return False
        a = decode_column(cert.get("assignment"), "<i4", net.size)  # a copy per net point
        if a is None or a.min() < 0 or a.max() >= ratios.size:
            return False
        radii = ratios[a] - shrink
        if np.any(radii <= 0.0):
            return False
        return bool(_inside(pieces, net.points, centers[a], radii).all())

    return status == UNKNOWN
