"""Certified epsilon-nets: point sets {y_j} with {y_j + eps*K} covering K.

The construction is a plain axis grid whose spacing is tied to the
Euclidean inradius of eps*K about its Chebyshev center c:

    spacing * sqrt(n) / 2  <=  (1 - slack) * inradius(eps*K)

A grid point g is kept iff its cell can be the rounding target of some
x - c with x in K, i.e. g + c lies in K dilated by half a cell per axis.
Then for any x in K the point g = round((x - c)/h) * h is kept and
|x - g - c| <= h*sqrt(n)/2 < inradius, hence x in g + eps*K.  Kept points
also satisfy g in K - eps*K, because the inradius ball around c sits
inside eps*K.  Certification is therefore unconditional, with no
probabilistic step anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import ConvexBody, Homothets, first_cover

GRID_SLACK = 0.01
MAX_NET_POINTS = 10_000_000
EPSILON_FLOOR = 1e-3
GRID_BLOCK_POINTS = 1 << 16  # candidate points per keep_fn call in gauge_grid


class NetTooLarge(RuntimeError):
    """The requested grid would exceed the net-size budget."""


def default_epsilon(n: int) -> float:
    """Experiment default: (1 - 4 ln n / n) / (n ln n), floored at 1e-3.
    The unfloored expression only becomes positive around n = 9; at desk
    scale the floor governs."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    a_n = 1.0 - 4.0 * math.log(n) / n
    return max(a_n / (n * math.log(n)), EPSILON_FLOOR)


def grid_step(dim: int, inradius: float) -> float:
    """The grid spacing h with h sqrt(dim) / 2 = (1 - GRID_SLACK) * inradius."""
    return 2.0 * inradius / math.sqrt(dim) * (1.0 - GRID_SLACK)


def gauge_grid(dim: int, keep_fn: Callable, inradius: float, anchor: np.ndarray,
               bbox_lo: np.ndarray, bbox_hi: np.ndarray):
    """Shared grid builder.

    keep_fn(points, half_spacing) must return the mask of grid points whose
    cell reaches the covering target.  Returns (points, spacing).  A grid of
    more than MAX_NET_POINTS candidates raises NetTooLarge.
    """
    if inradius <= 0:
        raise ValueError("gauge inradius must be positive")
    h = grid_step(dim, inradius)
    lo = bbox_lo - anchor - h / 2
    hi = bbox_hi - anchor + h / 2
    j_lo = np.ceil(lo / h - 1e-12).astype(int)
    j_hi = np.floor(hi / h + 1e-12).astype(int)
    counts = np.maximum(j_hi - j_lo + 1, 0)
    total = int(np.prod(counts.astype(float)))
    if total <= 0:
        raise ValueError("empty grid range")
    if total > MAX_NET_POINTS:
        raise NetTooLarge(f"grid would have {total} candidate points (> {MAX_NET_POINTS})")

    axes = [np.arange(j_lo[d], j_hi[d] + 1) for d in range(dim)]
    kept_pts = []
    # whole slabs along the first axis, as many per keep_fn call as fit in
    # GRID_BLOCK_POINTS (at least one), keep peak memory bounded by one block
    tail = np.stack([g.ravel() for g in np.meshgrid(*axes[1:], indexing="ij")], axis=-1) \
        if dim > 1 else np.zeros((1, 0), dtype=int)
    slab_rows = tail.shape[0]
    slabs = max(1, GRID_BLOCK_POINTS // slab_rows)
    for start in range(0, axes[0].size, slabs):
        first = axes[0][start:start + slabs]
        idx = np.column_stack([np.repeat(first, slab_rows), np.tile(tail, (first.size, 1))])
        pts = idx * h
        mask = keep_fn(pts, h / 2)
        if np.any(mask):
            kept_pts.append(pts[mask])
    if not kept_pts:
        raise ValueError("grid kept no points; target appears empty")
    return np.concatenate(kept_pts), h


@dataclass(eq=False)
class EpsNet:
    """A certified net plus the construction metadata behind the guarantee."""

    epsilon: float
    points: np.ndarray
    grid_spacing: float
    certified_inradius: float
    anchor: np.ndarray
    body: ConvexBody
    cardinality_bound: float  # the (5/epsilon)^n reference, informational

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def covering_indices(self, points):
        """For each point x, the index of the first net point y with x in
        y + eps*K, or -1; and the mask of points that have one."""
        copies = Homothets(self.points, np.full(self.size, self.epsilon))
        idx = first_cover(self.body, copies, points)
        return idx, idx >= 0


def build_net(body: ConvexBody, epsilon: float) -> EpsNet:
    """Construct a certified epsilon-net on the body (see module docstring);
    NetTooLarge when its grid exceeds the MAX_NET_POINTS budget."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0, 1]")
    center, inradius = body.chebyshev
    anchor = epsilon * center
    r = epsilon * inradius
    lo, hi = body.vertex_bbox

    def keep(pts, half):
        return body.dilated_contains(pts + anchor, half)

    points, h = gauge_grid(body.dim, keep, r, anchor, lo, hi)
    return EpsNet(
        epsilon=epsilon,
        points=points,
        grid_spacing=h,
        certified_inradius=r,
        anchor=anchor,
        body=body,
        cardinality_bound=(5.0 / epsilon) ** body.dim,
    )
