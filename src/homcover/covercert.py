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
certificate always embeds that assignment, as the base64 of the
little-endian int32 array ``a`` (``a[j]`` is the copy covering net point
``j``), and verification only replays it in one vectorised check; it never
re-runs the search.
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
    cover_factor,
    covered_by_union,
    first_cover,
)
from .nets import EpsNet, build_net
from .randvol import RngSpec, sample_uniform_body

CERTIFIED = "certified"
REFUTED = "refuted"
UNKNOWN = "unknown"

SCHEMA_VERSION = 2


@dataclass(eq=False)
class CoverageVerdict:
    status: str
    epsilon: float
    shrink: float = 0.0
    witness: Optional[np.ndarray] = None
    assignment: Optional[np.ndarray] = None  # net point index -> placement index
    net: Optional[EpsNet] = None
    probes_used: int = 0


def certify_cover(body: ConvexBody, placements: Sequence[HomothetPlacement],
                  epsilon: float, net: Optional[EpsNet] = None,
                  pieces_body: Optional[ConvexBody] = None) -> CoverageVerdict:
    """Certified/Unknown verdict via net shrinkage (never Refuted).

    A prebuilt net for the same body and epsilon may be passed to amortize
    construction across many placement draws.
    """
    if not placements:
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
        lambda chunk: first_cover(pieces, placements, chunk, shrink), net.points)
    if assignment.min() >= 0:
        return CoverageVerdict(CERTIFIED, epsilon, shrink=shrink,
                               assignment=assignment, net=net)
    return CoverageVerdict(UNKNOWN, epsilon, shrink=shrink, net=net)


def refute_cover(body: ConvexBody, placements: Sequence[HomothetPlacement],
                 rng: RngSpec, probes: int,
                 pieces_body: Optional[ConvexBody] = None) -> CoverageVerdict:
    """Sample uniform points of the target; the first one outside every
    (closed, unshrunken) homothet refutes coverage."""
    if probes < 1:
        raise ValueError("probes must be positive")
    pieces = pieces_body if pieces_body is not None else body
    pts = sample_uniform_body(body, rng, probes)
    covered = covered_by_union(pieces, placements, pts)
    if not covered.all():
        first = int(np.argmax(~covered))
        # a copy: a row view would keep the whole probe array alive with the verdict
        return CoverageVerdict(REFUTED, epsilon=0.0, witness=pts[first].copy(),
                               probes_used=first + 1)
    return CoverageVerdict(UNKNOWN, epsilon=0.0, probes_used=probes)


def decide_cover(body: ConvexBody, placements: Sequence[HomothetPlacement],
                 epsilon: float, rng: RngSpec, probes: int,
                 net: Optional[EpsNet] = None,
                 pieces_body: Optional[ConvexBody] = None) -> CoverageVerdict:
    """Certify first; on Unknown try to refute; otherwise stay Unknown.
    By construction the two decisive statuses are mutually exclusive."""
    verdict = certify_cover(body, placements, epsilon, net=net, pieces_body=pieces_body)
    if verdict.status == CERTIFIED:
        return verdict
    refutation = refute_cover(body, placements, rng, probes, pieces_body=pieces_body)
    if refutation.status == REFUTED:
        refutation.epsilon = epsilon
        return refutation
    verdict.probes_used = refutation.probes_used
    return verdict


# --- serialization ---------------------------------------------------------


def _digest(arr: np.ndarray) -> str:
    data = np.ascontiguousarray(arr, dtype=np.float64)
    return hashlib.sha256(data.tobytes()).hexdigest()


def verdict_to_dict(verdict: CoverageVerdict, body: ConvexBody,
                    placements: Sequence[HomothetPlacement],
                    pieces_body: Optional[ConvexBody] = None) -> dict:
    centers = np.array([pl.center for pl in placements]).tolist()
    out = {
        "schemaVersion": SCHEMA_VERSION,
        "type": "covering",
        "status": verdict.status,
        "epsilon": verdict.epsilon,
        "shrink": verdict.shrink,
        "body": body.to_spec(),
        "placements": [
            {"center": c, "ratio": pl.ratio} for c, pl in zip(centers, placements)
        ],
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
        out["assignment"] = base64.b64encode(
            np.ascontiguousarray(verdict.assignment, dtype="<i4").tobytes()).decode("ascii")
    return out


def _decode_assignment(text, size: int, copies: int) -> Optional[np.ndarray]:
    """The embedded assignment as an int array, or None unless it is base64
    text of exactly ``size`` little-endian int32 copy indices in [0, copies)."""
    if not isinstance(text, str):
        return None
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or non-ASCII text
        return None
    if len(raw) != 4 * size:
        return None
    a = np.frombuffer(raw, dtype="<i4")
    if a.min() < 0 or a.max() >= copies:
        return None
    return a


def recheck_certificate(cert: dict) -> bool:
    """Replay every membership claim of a serialized covering verdict.

    Certified: rebuild the net deterministically and compare its digest and
    the shrink, require the recorded membership tolerance to be
    ``MEMBERSHIP_TOL``, decode the embedded assignment (one copy index per
    net point) and check that each net point lies in its assigned shrunken
    homothet, all in one vectorised test.  The search is never re-run.
    Refuted: the witness must lie in the body and outside every unshrunken
    homothet.
    """
    if cert.get("type") != "covering":
        return False
    body = ConvexBody.from_spec(cert["body"])
    pieces = ConvexBody.from_spec(cert["piecesBody"]) if "piecesBody" in cert else body
    placements = [
        HomothetPlacement(np.array(p["center"]), p["ratio"]) for p in cert["placements"]
    ]
    status = cert["status"]

    if status == REFUTED:
        witness = np.array(cert["witness"])
        if not body.contains(witness, "closed"):
            return False
        return not covered_by_union(pieces, placements, witness[None, :])[0]

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
        a = _decode_assignment(cert.get("assignment"), net.size, len(placements))
        if a is None:
            return False
        radii = np.array([pl.ratio for pl in placements])[a] - shrink
        if np.any(radii <= 0.0):
            return False
        centers = np.array([pl.center for pl in placements])[a]
        A, b = pieces.halfspaces
        return bool(np.all((net.points - centers) @ A.T
                           <= radii[:, None] * b + MEMBERSHIP_TOL))

    return status == UNKNOWN
