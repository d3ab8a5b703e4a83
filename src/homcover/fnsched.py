"""Scheduling of homothety budgets for translative coverings.

Large ratios (lambda >= n^-5) are placed directly by the random-cover
engine.  Small ratios are grouped into dyadic classes by the size of
lambda * n^5, each class is cut into volume-certified partitions, and each
partition covers one dyadic cube of a tiling of the body.  A single cube
is covered in two phases: a random prefix placed uniformly in the slightly
inflated cube, then a deterministic patch pass that lays the remaining
pieces on a separated subset of the grid points the prefix missed.  The
random centres are drawn in one multi-stream pass (``randvol.first_points``):
every piece keeps its own random stream, and the first proposals of all
streams are tested together.  The patch pass walks the missed points in grid
order; each chosen point blocks the later points in its separation zone with
one vectorised test.

Every phase carries an explicit shrink margin, so the final verdict always
comes from an independent coverage certificate, never from the scheduling
arithmetic itself.  In paper mode the Rogers factor (n ln n + n ln ln n +
c n) is used verbatim; desk mode replaces it by multiplier * c / 5, which
preserves the slack ratios between the 4n / 5n / 6n variants while keeping
the construction computable at n = 2 or 3.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import covercert, nets, randvol
from .bodies import (
    ConvexBody,
    Homothets,
    MinkowskiCombo,
    bounding_box,
    combo_contains,
    cover_factor,
    covered_by_union,
    cube_inclusion_factor,
)
from .covercert import CoverageVerdict
from .randvol import RngSpec

PHASE_RANDOM = "random"
PHASE_PATCH = "patch"
PHASE_PROP1 = "prop1"
PHASE_CODES = (PHASE_PROP1, PHASE_RANDOM, PHASE_PATCH)  # phase column codes

MODE_DESK = "desk"
MODE_PAPER = "paper"
DESK_MULTIPLIER = 3.0

_PIECE_TAG = 0x91
_CUBE_TAG = 0xC0
_VOL_TAG = 0xF0


class PatchDeficit(RuntimeError):
    """Fewer pieces left than patch locations that need one."""


class CubeAssignmentDeficit(RuntimeError):
    """The dyadic budgets cannot tile the requested cells."""


def rogers_factor(n: int, constant: int, mode: str, multiplier: float = DESK_MULTIPLIER) -> float:
    """The covering-density factor for one of the 4n / 5n / 6n variants."""
    if mode == MODE_PAPER:
        return n * math.log(n) + n * math.log(math.log(n)) + constant * n
    if mode == MODE_DESK:
        if not (math.isfinite(multiplier) and multiplier > 0.0):
            raise ValueError(f"desk-mode multiplier must be finite and positive, got {multiplier}")
        return multiplier * constant / 5.0
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(eq=False)
class RatioSequence:
    """A finite list of homothety ratios; indices are identities."""

    ratios: tuple
    dim: int
    sum_pow: float = field(init=False)

    def __post_init__(self):
        ratios = tuple(float(r) for r in self.ratios)
        if any(not 0.0 <= r < 1.0 for r in ratios):
            raise ValueError("ratios must lie in [0, 1)")
        object.__setattr__(self, "ratios", ratios)
        self.sum_pow = float(sum(r ** self.dim for r in ratios))


@dataclass(eq=False)
class DyadicPlan:
    classes: dict            # k -> list of ratio indices
    budgets: dict            # k -> F(k)
    partitions: dict         # (k, l) -> list of ratio indices
    cube_assignments: list   # (center ndarray, cube scale, (k, l))
    remainder: list          # indices parked because their class had F(k) = 0
    large_indices: list      # indices routed to the direct random phase
    kell_thresholds: dict    # k -> per-partition volume requirement


@dataclass(eq=False)
class CoveringConstruction:
    placements: Homothets             # one row per placed piece
    index: np.ndarray                 # the ratio index of each piece
    phase: np.ndarray                 # uint8 codes into PHASE_CODES
    verdict: Optional[CoverageVerdict]
    plan: Optional[DyadicPlan] = None
    per_cube: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    certificate: Optional[dict] = None     # re-checkable serialized verdict
    cube_certificates: list = field(default_factory=list)


def _class_of(lam: float, n: int) -> int:
    """k with lambda * n^5 in (2^-k, 2^-(k-1)]."""
    t = lam * n ** 5
    return int(math.floor(-math.log2(t))) + 1


def dyadic_plan(seq: RatioSequence, n: int, *, body_volume: float,
                tiling_centers: Sequence, tile_scale: float,
                mode: str = MODE_DESK, multiplier: float = DESK_MULTIPLIER) -> DyadicPlan:
    """Group small ratios into dyadic classes, cut classes into partitions
    meeting the per-cube volume threshold, and assign partitions to a
    dyadic subdivision of the tiling cells.  A class's partition budget
    uses the 6n variant of the Rogers factor, the per-cube threshold the
    5n variant.

    Ratios >= n^-5 are routed to the direct random phase; classes too thin
    to fill a single partition are parked in a remainder pool.
    """
    floor = n ** -5
    large, classes = [], {}
    for i, lam in enumerate(seq.ratios):
        if lam >= floor:
            large.append(i)
        elif lam > 0.0:
            classes.setdefault(_class_of(lam, n), []).append(i)
    remainder = [i for i, lam in enumerate(seq.ratios) if lam == 0.0]

    budgets, partitions, kell = {}, {}, {}
    for k in sorted(classes):
        idx = classes[k]
        cube_vol = (2.0 * 2.0 ** (-k + 1) * tile_scale) ** n
        if cube_vol == 0.0:  # ratios below about 1e-163 in R^2
            raise CubeAssignmentDeficit(f"class {k}: dyadic cube volume underflows to 0")
        class_vol = sum(seq.ratios[i] ** n for i in idx) * body_volume
        f_k = int(math.floor(class_vol / (rogers_factor(n, 6, mode, multiplier) * cube_vol)))
        budgets[k] = f_k
        if f_k == 0:
            remainder.extend(idx)
            continue
        threshold = rogers_factor(n, 5, mode, multiplier) * cube_vol
        kell[k] = threshold
        by_size = sorted(idx, key=lambda i: (-seq.ratios[i], i))
        bins = [[] for _ in range(f_k)]
        fills = [0.0] * f_k
        cursor = 0
        pos = 0
        while pos < len(by_size) and cursor < f_k:
            i = by_size[pos]
            bins[cursor].append(i)
            fills[cursor] += seq.ratios[i] ** n * body_volume
            pos += 1
            if fills[cursor] >= threshold:
                cursor += 1
        if cursor < f_k:
            raise CubeAssignmentDeficit(
                f"class {k}: budget {f_k} not fillable to the partition threshold")
        for j, i in enumerate(by_size[pos:]):  # leftovers round-robin
            bins[j % f_k].append(i)
        for ell, b in enumerate(bins, start=1):
            partitions[(k, ell)] = b

    # dyadic assignment of partition cubes onto the tiling cells
    queues = {k: list(range(1, budgets[k] + 1)) for k in budgets if budgets[k] > 0}
    max_depth = max(queues) if queues else 0
    assignments = []

    def assign(center: np.ndarray, depth: int):
        k = depth + 1
        if k in queues and queues[k]:
            ell = queues[k].pop(0)
            s_k = 2.0 ** (-k + 1) * tile_scale
            assignments.append((center.copy(), s_k, (k, ell)))
            return
        if k >= max_depth:
            raise CubeAssignmentDeficit(
                f"no partition cube available for a cell at depth {depth}")
        half = 2.0 ** (-k) * tile_scale  # child scale
        for offsets in np.ndindex(*(2,) * n):
            child = center + (2 * np.array(offsets) - 1) * half
            assign(child, depth + 1)

    if classes and not queues and tiling_centers:
        raise CubeAssignmentDeficit("every dyadic class fell below one partition")
    for c in tiling_centers:
        assign(np.asarray(c, dtype=float), 0)

    return DyadicPlan(
        classes=classes,
        budgets=budgets,
        partitions=partitions,
        cube_assignments=assignments,
        remainder=remainder,
        large_indices=large,
        kell_thresholds=kell,
    )


# --- covering one cube -----------------------------------------------------


def _random_phase_points(side: float, body: ConvexBody, specs: randvol.RngStreams) -> np.ndarray:
    """The first point of each stream in side*B_inf - 2K, by rejection from
    its bounding box: x lies in that set exactly when -x/2 lies in
    K + (side/2)*B_inf."""
    V = body.vertices
    return randvol.first_points(lambda pts: body.dilated_contains(-pts / 2.0, side / 2.0),
                                -side - 2.0 * V.max(axis=0), side - 2.0 * V.min(axis=0), specs)


def _phases(*runs) -> np.ndarray:
    """The uint8 phase column of consecutive (phase, count) runs."""
    return np.repeat(np.uint8([PHASE_CODES.index(p) for p, _ in runs]), [c for _, c in runs])


def _reuse(shared: dict, key, build):
    """``shared[key]``, built by ``build()`` on first use."""
    if key not in shared:
        shared[key] = build()
    return shared[key]


def separation_radius(pieces_body: ConvexBody, lam_min: float, shrink: float, n: int) -> float:
    """Patch separation: capped by 1/(2 n ln n), and small enough that the
    exclusion zone of one patch point stays inside its (shrunken) piece."""
    A, b = pieces_body.halfspaces
    V = pieces_body.vertices
    h_plus = np.max(V @ A.T, axis=0)
    h_minus = np.max((-V) @ A.T, axis=0)
    gamma = float(np.max((h_plus + h_minus) / b))  # K - K inside gamma * K
    usable = lam_min - shrink
    if usable <= 0:
        raise ValueError("shrink margins consumed the smallest piece")
    return min(1.0 / (2.0 * n * math.log(n)), usable / (2.0 * gamma))


def _separated_subset(points: np.ndarray, zone: MinkowskiCombo) -> np.ndarray:
    """Rows of ``points`` (sorted on the first axis) kept by a greedy pass: g is
    kept unless g - p is in ``zone`` for an earlier kept p.  Each kept p blocks
    its (symmetric) zone, at most its width ahead, with one vectorised test."""
    zone_lo, zone_hi = bounding_box(zone)
    ends = np.searchsorted(points[:, 0], points[:, 0] + (zone_hi[0] - zone_lo[0]),
                           side="right")
    blocked = np.zeros(points.shape[0], dtype=bool)
    kept = []
    i = 0
    while i < points.shape[0]:
        kept.append(i)
        window = slice(i + 1, ends[i])
        blocked[window] |= combo_contains(zone, points[window] - points[i])
        free = np.flatnonzero(~blocked[i + 1:])
        i = i + 1 + free[0] if free.size else points.shape[0]
    return points[kept]


def cover_cube_two_phase(side: float, pieces_body: ConvexBody, lambdas: Sequence[float],
                      rng: RngSpec, *, mode: str = MODE_DESK,
                      multiplier: float = DESK_MULTIPLIER,
                      cert_margin: float = 0.0,
                      shared: Optional[dict] = None) -> CoveringConstruction:
    """Two-phase translative covering of side*B_inf by {lambda_i * K}.

    Phase 1 places the shortest prefix whose volume meets the 4n-variant
    factor at independent uniform positions in side*B_inf - 2K.  A
    certified grid (gauge sigma_g * K) is then probed against the prefix
    shrunken by sigma_g + cert-margin; a separated subset of the missed
    grid points receives the remaining pieces.  The returned verdict comes
    from an independent cross-body coverage certificate on the cube.  Row i
    of the placements is piece i, so ``index`` is ``arange(len(lambdas))``;
    n must be >= 2.

    Calls that pass the same ``shared`` dict build each distinct target cube,
    marking grid and certificate net once.
    """
    shared = {} if shared is None else shared
    body = pieces_body
    n = body.dim
    if n < 2:
        raise ValueError("n must be >= 2 (1/(2 n ln n) is undefined below)")
    lambdas = np.asarray(lambdas, dtype=float)
    M = lambdas.size
    if M == 0:
        raise ValueError("need at least one piece")
    if side < n ** 2 - 1e-9:
        raise ValueError(f"cube side parameter {side} below n^2 = {n ** 2}")
    if lambdas.min() < 0.5 - 1e-9 or lambdas.max() > 1.0 + 1e-9:
        warnings.warn("piece ratios outside [1/2, 1]; the construction still "
                      "runs but the density premises are off", stacklevel=2)

    vol_piece = randvol.body_volume(body, rng.child(_VOL_TAG))
    cube_vol = (2.0 * side) ** n
    total = float(np.sum(lambdas ** n)) * vol_piece
    need = rogers_factor(n, 5, mode, multiplier) * cube_vol
    if total < need:
        raise ValueError(f"piece volume {total:.3g} below the required {need:.3g}")

    info = {
        "insideUnitBox": bool(np.max(np.abs(body.vertices)) <= 1.0 + 1e-9),
        "reflectionInside": bool(np.all(body.contains(-body.vertices / n))),
    }
    if not (info["insideUnitBox"] and info["reflectionInside"]):
        warnings.warn("pieces body violates the normalization premises "
                      "(K inside the unit box and -K/n inside K)", stacklevel=2)

    # phase 1: least prefix reaching the 4n-variant volume
    csum = np.cumsum(lambdas ** n) * vol_piece
    target = rogers_factor(n, 4, mode, multiplier) * cube_vol
    m_prime = int(np.searchsorted(csum, target) + 1)
    m_prime = min(m_prime, M)
    phase1_pts = _random_phase_points(side, body, rng.children(_PIECE_TAG, np.arange(m_prime)))

    # margins: sigma_g for the marking grid, cert margin for the final net
    lam_min = float(lambdas.min())
    lam_min_patch = float(lambdas[m_prime:].min()) if m_prime < M else lam_min
    sigma_g = lam_min / 24.0
    delta_cert = max(cert_margin, lam_min / 24.0)
    shrink = sigma_g + delta_cert

    target_body = _reuse(shared, ("target", n, side), lambda: ConvexBody.cube(n, scale=side))
    tau = cover_factor(target_body, body)
    eps_cert = (delta_cert / 1.05) / tau
    c_k, r_k = body.chebyshev
    h_cert = nets.grid_step(n, eps_cert * side)
    side_marked = side * (1.0 + eps_cert) + h_cert / 2.0 + 1e-9

    anchor = sigma_g * c_k
    box_lo = np.full(n, -side_marked)
    box_hi = np.full(n, side_marked)

    def keep(pts, half):
        return np.all(np.abs(pts + anchor) <= side_marked + half, axis=1)

    grid_pts = _reuse(shared, ("grid", body, side, sigma_g, eps_cert), lambda: nets.gauge_grid(
        n, keep, sigma_g * r_k, anchor, box_lo, box_hi)[0])
    covered = covered_by_union(body, Homothets(phase1_pts, lambdas[:m_prime]), grid_pts,
                               shrink=shrink)
    marked = grid_pts[~covered]

    # phase 2: separated patch points, in grid order
    sigma_d = separation_radius(body, lam_min_patch, shrink, n)
    chosen = _separated_subset(marked, MinkowskiCombo(body, 2.0 * sigma_d, 2.0 * sigma_d))

    available = M - m_prime
    if len(chosen) > available:
        raise PatchDeficit(
            f"patch needs {len(chosen)} pieces but only {available} remain "
            f"(shortfall {len(chosen) - available})")
    # the remaining pieces cycle over the patch points
    patch = chosen[np.arange(available) % len(chosen)] if len(chosen) else np.zeros((available, n))
    placements = Homothets(np.vstack([phase1_pts, patch]), lambdas)
    net = _reuse(shared, ("net", n, side, eps_cert),
                 lambda: nets.build_net(target_body, eps_cert))
    verdict = covercert.certify_cover(target_body, placements, eps_cert, net=net,
                                      pieces_body=body)
    info.update({
        "mPrime": m_prime,
        "gridPoints": int(grid_pts.shape[0]),
        "marked": int(marked.shape[0]),
        "patchPoints": len(chosen),
        "sigmaGrid": sigma_g,
        "sigmaSeparation": sigma_d,
        "certMargin": delta_cert,
        "epsilonCert": eps_cert,
    })
    certificate = covercert.verdict_to_dict(verdict, target_body, placements,
                                            pieces_body=body)
    return CoveringConstruction(
        placements=placements, index=np.arange(M),
        phase=_phases((PHASE_RANDOM, m_prime), (PHASE_PATCH, available)), verdict=verdict,
        info=info, certificate=certificate)


# --- the end-to-end pipeline ----------------------------------------------


def _normalize_body(body: ConvexBody, n: int):
    """Heuristic stand-in for John positioning: translate the vertex
    centroid to the origin and scale the bounding box into n^1.5 * B_inf.
    Returns (normalized body, translation, scale, flags)."""
    V = body.vertices
    t = V.mean(axis=0)
    extent = float(np.max(np.abs(V - t)))
    s = n ** 1.5 / extent
    if np.allclose(t, 0.0) and extent <= n ** 1.5 + 1e-9:
        lower_ok = body.contains_origin_interior and cube_inclusion_factor(body) >= 1.0 - 1e-9
        return body, np.zeros(n), 1.0, {"applied": False, "unitBoxInside": lower_ok}
    normalized = ConvexBody.from_vertices((V - t) * s)
    lower_ok = normalized.contains_origin_interior and \
        cube_inclusion_factor(normalized) >= 1.0 - 1e-9
    if not lower_ok:
        warnings.warn("heuristic normalization could not fit the unit box "
                      "inside the body; proceeding, coverage is still certified",
                      stacklevel=2)
    return normalized, t, s, {"applied": True, "unitBoxInside": lower_ok}


def _default_epsilon(ratios) -> float:
    """The final net's epsilon when none is given: a tenth of the smallest
    ratio, kept within [1e-4, 0.25]."""
    return min(max(min(ratios) / 10.0, 1e-4), 0.25)


def schedule_covering(body: ConvexBody, seq: RatioSequence, rng: RngSpec, *,
                   mode: str = MODE_DESK, multiplier: float = DESK_MULTIPLIER,
                   eps_final: Optional[float] = None) -> CoveringConstruction:
    """Schedule the whole ratio sequence into a certified covering of K.

    Branch A: when the large ratios alone carry the 4n-variant volume, they
    are placed by the direct random phase.  Branch B: the body is
    normalized toward the cube sandwich, tiled by cubes of scale n^-1.5,
    and each dyadic partition covers its assigned cube via the two-phase
    construction, rescaled so the pieces land in [1/2, 1].
    """
    n = body.dim
    if n < 2:
        raise ValueError("n must be >= 2 (1/(2 n ln n) is undefined below)")
    if seq.dim != n:
        raise ValueError("sequence dimension does not match the body")
    vol_k = randvol.body_volume(body, rng.child(_VOL_TAG, 1))
    ratio_kk = randvol.difference_volume_ratio(body, rng.child(_VOL_TAG, 2))[0]
    vol_kk = ratio_kk * vol_k

    floor = n ** -5
    large = [i for i, lam in enumerate(seq.ratios) if lam >= floor]
    large_mass = sum(seq.ratios[i] ** n for i in large) * vol_k
    branch_a = large_mass >= rogers_factor(n, 4, mode, multiplier) * vol_kk

    if branch_a:
        lams = [seq.ratios[i] for i in large]
        eps = eps_final if eps_final is not None else _default_epsilon(lams)
        combos = {lam: MinkowskiCombo(body, 1.0, lam) for lam in lams}
        centers = randvol.sample_first([combos[lam] for lam in lams],
                                       rng.children(_PIECE_TAG, np.array(large)))
        placements = Homothets(centers, lams)
        verdict = covercert.certify_cover(body, placements, eps)
        return CoveringConstruction(
            placements=placements, index=np.array(large), phase=_phases((PHASE_PROP1, len(large))),
            verdict=verdict,
            certificate=covercert.verdict_to_dict(verdict, body, placements),
            info={"branch": "A", "largeMass": large_mass, "epsilonFinal": eps,
                  "volumeRatio": ratio_kk, "mode": mode, "multiplier": multiplier})

    # --- branch B ---
    normalized, t_shift, s_scale, norm_flags = _normalize_body(body, n)
    vol_norm = vol_k * s_scale ** n
    small_pos = [r for r in seq.ratios if 0.0 < r < floor]
    if not small_pos:
        raise ValueError("branch B needs small ratios but none are present")
    eps_f = eps_final if eps_final is not None else _default_epsilon(small_pos)

    tile_scale = n ** -1.5
    c_f, r_f = normalized.chebyshev
    h_f = nets.grid_step(n, eps_f * r_f)
    margin = h_f / 2.0 + eps_f * float(np.max(np.abs(normalized.vertices))) + 1e-9
    lo, hi = normalized.vertex_bbox
    step = 2.0 * tile_scale
    j_lo = np.floor((lo - margin) / step - 0.5).astype(int)
    j_hi = np.ceil((hi + margin) / step + 0.5).astype(int)
    # a cell meets the body exactly when its centre lies in K + half-width * B_inf
    cells = (np.array(list(np.ndindex(*(j_hi - j_lo + 1)))) + j_lo) * step
    tiling = list(cells[normalized.dilated_contains(cells, tile_scale + margin)])

    plan = dyadic_plan(seq, n, body_volume=vol_norm, tiling_centers=tiling,
                       tile_scale=tile_scale, mode=mode, multiplier=multiplier)

    pieces_small = normalized.scaled(tile_scale)
    ratios = np.array(seq.ratios)
    centers, index, phase = [], [], []
    per_cube = []
    cube_certificates = []
    shared = {}  # grids and nets equal across cubes, for this call only
    for cube_no, (center, s_k, key) in enumerate(plan.cube_assignments):
        k, _ = key
        idx = plan.partitions[key]
        rescale = n ** 5 * 2.0 ** (k - 1)
        lams = [seq.ratios[i] * rescale for i in idx]
        sub = cover_cube_two_phase(
            float(n ** 2), pieces_small, lams, rng.child(_CUBE_TAG, cube_no),
            mode=mode, multiplier=multiplier,
            cert_margin=eps_f * rescale * 1.05, shared=shared)
        centers.append(center + sub.placements.centers * (s_k / n ** 2))
        index.append(np.asarray(idx))
        phase.append(sub.phase)
        per_cube.append({"cube": cube_no, "class": key, "center": center.tolist(),
                         "scale": s_k, "status": sub.verdict.status,
                         "info": sub.info})
        cube_certificates.append(sub.certificate)

    index = np.concatenate(index)
    placements = Homothets(np.concatenate(centers), ratios[index])
    verdict = covercert.certify_cover(normalized, placements, eps_f)
    certificate = covercert.verdict_to_dict(verdict, normalized, placements)

    if norm_flags["applied"]:
        placements = Homothets(placements.centers / s_scale
                               + (1.0 - placements.ratios)[:, None] * t_shift, placements.ratios)
    return CoveringConstruction(
        placements=placements, index=index, phase=np.concatenate(phase), verdict=verdict,
        plan=plan, per_cube=per_cube,
        certificate=certificate, cube_certificates=cube_certificates,
        info={"branch": "B", "largeMass": large_mass, "epsilonFinal": eps_f,
              "volumeRatio": ratio_kk, "normalization": norm_flags,
              "tilingCells": len(tiling), "mode": mode, "multiplier": multiplier})
