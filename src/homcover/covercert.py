"""Coverage decisions for families of homothets: a sound certificate via
net shrinkage, a falsifier via witness search, and re-checkable
serialization of both.

The certificate logic: build an epsilon-net on the target; if every net
point lies in some placed copy shrunken by the net gauge, the unshrunken
copies cover the target.  The condition is sufficient, never necessary,
so the result is a tri-state verdict.  Placements may reference a piece
body different from the target; the shrink is then scaled by the factor
needed to swallow one target gauge step inside the piece body.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import nets
from .bodies import (
    ConvexBody,
    HomothetPlacement,
    cover_factor,
    covered_by_union,
)
from .nets import EpsNet, build_net
from .randvol import RngSpec, sample_uniform_body

CERTIFIED = "certified"
REFUTED = "refuted"
UNKNOWN = "unknown"

SCHEMA_VERSION = 1
ASSIGNMENT_EMBED_LIMIT = 200_000


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

    pts = net.points
    A, b = pieces.halfspaces
    lo, hi = pieces.vertex_bbox
    order = np.argsort(pts[:, 0], kind="stable")
    x_sorted = pts[order, 0]
    assignment = np.full(net.size, -1, dtype=np.int64)
    remaining = net.size
    for i, pl in enumerate(placements):
        r = pl.ratio - shrink
        if r <= 0.0:
            continue  # empty shrunken copy: contributes nothing
        c = pl.center
        left = np.searchsorted(x_sorted, c[0] + r * lo[0] - 1e-9, side="left")
        right = np.searchsorted(x_sorted, c[0] + r * hi[0] + 1e-9, side="right")
        if left >= right:
            continue
        cand = order[left:right]
        cand = cand[assignment[cand] < 0]
        if cand.size == 0:
            continue
        inside = np.all((pts[cand] - c) @ A.T <= r * b + 1e-9, axis=1)
        hit = cand[inside]
        assignment[hit] = i
        remaining -= hit.size
        if remaining == 0:
            break
    if remaining == 0:
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
    covered = covered_by_union(pieces, placements, pts) if placements else \
        np.zeros(probes, dtype=bool)
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
    out = {
        "schemaVersion": SCHEMA_VERSION,
        "type": "covering",
        "status": verdict.status,
        "epsilon": verdict.epsilon,
        "shrink": verdict.shrink,
        "body": body.to_spec(),
        "placements": [
            {"center": pl.center.tolist(), "ratio": pl.ratio} for pl in placements
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
        if verdict.assignment.size <= ASSIGNMENT_EMBED_LIMIT:
            out["assignment"] = [[int(j), int(i)] for j, i in enumerate(verdict.assignment)]
        else:
            out["assignmentDigest"] = hashlib.sha256(
                np.ascontiguousarray(verdict.assignment, dtype=np.int64).tobytes()
            ).hexdigest()
    return out


def recheck_certificate(cert: dict) -> bool:
    """Replay every membership claim of a serialized covering verdict.

    Certified: rebuild the net deterministically, compare its digest, then
    re-verify each net point against its assigned shrunken homothet (or
    re-run the full assignment when only a digest was embedded).  Refuted:
    the witness must lie in the body and outside every unshrunken homothet.
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
        A, b = pieces.halfspaces
        if "assignment" in cert:
            pairs = cert["assignment"]
            if len(pairs) != net.size:
                return False
            seen = np.zeros(net.size, dtype=bool)
            for net_idx, hom_idx in pairs:
                if not 0 <= net_idx < net.size or not 0 <= hom_idx < len(placements):
                    return False
                pl = placements[hom_idx]
                r = pl.ratio - shrink
                if r <= 0.0:
                    return False
                y = net.points[net_idx]
                if not np.all((y - pl.center) @ A.T <= r * b + 1e-9):
                    return False
                seen[net_idx] = True
            return bool(seen.all())
        redo = certify_cover(body, placements, epsilon, net=net, pieces_body=pieces)
        if redo.status != CERTIFIED:
            return False
        digest = hashlib.sha256(
            np.ascontiguousarray(redo.assignment, dtype=np.int64).tobytes()
        ).hexdigest()
        return digest == cert.get("assignmentDigest")

    return status == UNKNOWN
