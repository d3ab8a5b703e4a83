"""Convex bodies in vertex representation, with derived facet data.

Every membership predicate is one test, ``A x <= rhs`` in every row
(``_inside``); the sets differ only in where (A, b) comes from:

- K: ``ConvexBody.halfspaces``, closed-form facets for the special kinds
  (cube = [-s,s]^n, simplex = conv{0, s*e_1, ..., s*e_n} recentered at its
  centroid, cross-polytope = conv{+-s*e_j}), qhull facets for vertex bodies;
- aK - cK: ``MinkowskiCombo.halfspaces``, (A, a b) when c = 0, (-A, c b) when
  a = 0, (A, (a + c) b) for the origin-symmetric cube and cross-polytope, and
  otherwise the qhull hull of the vertex differences V_i - (c/a) V_j, cached
  on the body per ratio c/a, with b scaled by a;
- K + delta B_inf: (A, b + delta) for the cube, and otherwise the qhull hull
  of the vertices moved to the corners of delta [-1,1]^n, cached per delta.

The cube never needs qhull, so cube runs do not import scipy.  ``first_cover``
is the one coverage kernel behind ``covered_by_union``, certification,
refutation and net covering.  It lists the copies per grid cell in index
order and walks each point through its cell's list up to its first hit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import lpcore

INTERIOR_MARGIN = 1e-7
MEMBERSHIP_TOL = 1e-9
# first_cover: box padding, so points the MEMBERSHIP_TOL slack admits near a
# sharp vertex stay in a copy's cells; entries per block of tests or cell lists
_BOX_PAD = 1e-6
_PAIR_BLOCK = 1 << 18

CUBE = "cube"
SIMPLEX = "simplex"
CROSSPOLYTOPE = "crosspolytope"
VREP = "vrep"

_SYMMETRIC_KINDS = (CUBE, CROSSPOLYTOPE)


def _hull_hrep(points: np.ndarray):
    """(A, b) with unit rows so that conv(points) equals {x : A x <= b}.
    qhull splits a facet with more than n vertices into coplanar pieces
    that repeat one hyperplane; the repeats are dropped."""
    from scipy.spatial import ConvexHull

    eq = ConvexHull(points).equations  # rows [a, c] meaning a @ x + c <= 0
    eq = eq / np.linalg.norm(eq[:, :-1], axis=1)[:, None]
    _, first = np.unique(np.round(eq, 10), axis=0, return_index=True)
    eq = eq[np.sort(first)]
    A, b = eq[:, :-1], -eq[:, -1]
    A.setflags(write=False)
    b.setflags(write=False)
    return A, b


def _inside(points, dim: int, A: np.ndarray, rhs):
    """Whether ``A x <= rhs`` holds in every row: a bool for one point, a
    mask for an (m, dim) array of points."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[1] != dim:
        raise ValueError(f"point dimension {pts.shape[1]} != body dimension {dim}")
    ok = np.all(pts @ A.T <= rhs, axis=1)
    return bool(ok[0]) if single else ok


class ConvexBody:
    """Immutable full-dimensional polytope.

    Use the classmethod constructors; the raw constructor checks
    full-dimensionality and rejects degenerate vertex sets.
    """

    def __init__(self, kind: str, dim: int, vertices: np.ndarray, scale: float = 1.0):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != dim:
            raise ValueError("vertices must be a (k, dim) array")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertices must be finite")
        centered = vertices - vertices.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-10) < dim:
            raise ValueError("vertex set is degenerate (not full-dimensional)")
        self.kind = kind
        self.dim = dim
        self.scale = float(scale)
        vertices.setflags(write=False)
        self.vertices = vertices
        self._hreps = {}  # vertex-sum H-reps: delta -> K + delta B_inf, (1, c/a) -> K - (c/a)K

    # --- constructors -------------------------------------------------

    @classmethod
    def cube(cls, dim: int, scale: float = 1.0) -> "ConvexBody":
        verts = np.array(list(itertools.product((-scale, scale), repeat=dim)))
        return cls(CUBE, dim, verts, scale)

    @classmethod
    def simplex(cls, dim: int, scale: float = 1.0) -> "ConvexBody":
        base = np.vstack([np.zeros(dim), scale * np.eye(dim)])
        return cls(SIMPLEX, dim, base - base.mean(axis=0), scale)

    @classmethod
    def cross_polytope(cls, dim: int, scale: float = 1.0) -> "ConvexBody":
        verts = np.vstack([scale * np.eye(dim), -scale * np.eye(dim)])
        return cls(CROSSPOLYTOPE, dim, verts, scale)

    @classmethod
    def from_vertices(cls, vertices) -> "ConvexBody":
        vertices = np.asarray(vertices, dtype=float)
        return cls(VREP, vertices.shape[1], vertices)

    @classmethod
    def from_spec(cls, spec: dict) -> "ConvexBody":
        kind = spec["kind"].lower()
        dim = int(spec["dim"])
        scale = float(spec.get("scale", 1.0))
        if kind == CUBE:
            return cls.cube(dim, scale)
        if kind == SIMPLEX:
            return cls.simplex(dim, scale)
        if kind == CROSSPOLYTOPE:
            return cls.cross_polytope(dim, scale)
        if kind == VREP:
            return cls.from_vertices(spec["vertices"])
        raise ValueError(f"unknown body kind {kind!r}")

    def to_spec(self) -> dict:
        spec = {"kind": self.kind, "dim": self.dim}
        if self.kind == VREP:
            spec["vertices"] = self.vertices.tolist()
        elif self.scale != 1.0:
            spec["scale"] = self.scale
        return spec

    def scaled(self, factor: float) -> "ConvexBody":
        """Homothety about the origin by a positive factor."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        if self.kind == VREP:
            return ConvexBody(VREP, self.dim, self.vertices * factor)
        return ConvexBody(self.kind, self.dim, self.vertices * factor, self.scale * factor)

    # --- derived geometry ---------------------------------------------

    @cached_property
    def halfspaces(self):
        """(A, b) with unit rows so that the body equals {x : A x <= b}."""
        n, s = self.dim, self.scale
        if self.kind == CUBE:
            A = np.vstack([np.eye(n), -np.eye(n)])
            b = np.full(2 * n, s)
        elif self.kind == SIMPLEX:
            A = np.vstack([-np.eye(n), np.ones((1, n))])
            b = np.concatenate([np.full(n, s / (n + 1)), [s / (n + 1)]])
        elif self.kind == CROSSPOLYTOPE:
            A = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
            b = np.full(2 ** n, s)
        else:
            return _hull_hrep(self.vertices)
        norms = np.linalg.norm(A, axis=1)
        A = A / norms[:, None]
        b = b / norms
        A.setflags(write=False)
        b.setflags(write=False)
        return A, b

    @cached_property
    def chebyshev(self):
        """(center, inradius) of the largest inscribed Euclidean ball."""
        A, b = self.halfspaces
        return lpcore.chebyshev_center(A, b)

    @cached_property
    def contains_origin_interior(self) -> bool:
        A, b = self.halfspaces
        return bool(np.all(b > INTERIOR_MARGIN))

    @cached_property
    def vertex_bbox(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    # --- predicates -----------------------------------------------------

    def contains(self, points, mode: str = "closed"):
        """Membership of one point or an array of points.

        closed: point in conv(vertices) up to tolerance.  strictInterior:
        a Euclidean ball of radius INTERIOR_MARGIN around the point fits.
        """
        A, b = self.halfspaces
        if mode == "closed":
            rhs = b + MEMBERSHIP_TOL
        elif mode == "strictInterior":
            rhs = b - INTERIOR_MARGIN
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return _inside(points, self.dim, A, rhs)

    def dilated_contains(self, points, delta: float):
        """Membership in body + delta * [-1,1]^n (sup-norm dilation), as
        ``A x <= b + MEMBERSHIP_TOL`` on the dilation's own facets.

        The cube's dilation is the cube with every b raised by delta.  Any
        other body's is the hull of its vertices moved to every corner of
        delta * [-1,1]^n; its H-representation is built once per delta and
        cached on the body.
        """
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.kind == CUBE:  # no qhull, so cube runs do not import scipy
            A, b = self.halfspaces
            b = b + delta
        else:
            if delta not in self._hreps:
                corners = np.array(list(itertools.product((-delta, delta), repeat=self.dim)))
                sums = (self.vertices[:, None, :] + corners[None, :, :]).reshape(-1, self.dim)
                self._hreps[delta] = _hull_hrep(sums)
            A, b = self._hreps[delta]
        return _inside(points, self.dim, A, b + MEMBERSHIP_TOL)


# --- homothets ----------------------------------------------------------


@dataclass(frozen=True)
class HomothetPlacement:
    """A translated, shrunken copy center + ratio * K of a reference body."""

    center: np.ndarray
    ratio: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).view()  # the caller's stays writable
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"homothety ratio must be in [0, 1], got {self.ratio}")


@dataclass(frozen=True, eq=False)
class Homothets:
    """A family of copies centers[i] + ratios[i] * K as two columns,
    ``centers`` (count x n) and ``ratios`` (count): read-only views, so the
    arrays passed in stay writable."""

    centers: np.ndarray
    ratios: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float).view()
        ratios = np.asarray(self.ratios, dtype=float).view()
        if centers.ndim != 2 or centers.shape[:1] != ratios.shape or \
                not np.all((ratios >= 0.0) & (ratios <= 1.0)):  # NaN fails too
            raise ValueError("need (count, n) centers and count ratios, each in [0, 1]")
        for name, column in (("centers", centers), ("ratios", ratios)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @classmethod
    def of(cls, placements: Homothets | Sequence[HomothetPlacement]) -> Homothets:
        """``placements`` itself if a ``Homothets``, else stacked into one (an
        empty one has n = 0): the one place copies become columns."""
        if isinstance(placements, cls):
            return placements
        centers = [pl.center for pl in placements]
        return cls(np.array(centers, dtype=float) if centers else np.empty((0, 0)),
                   [pl.ratio for pl in placements])


def covered_by_union(body: ConvexBody, placements: Homothets | Sequence[HomothetPlacement],
                     points, shrink: float = 0.0):
    """Boolean mask: which points lie in the union of (possibly shrunken)
    homothets of ``body``; ``first_cover(...) >= 0``.

    Homothets whose shrunken ratio is <= 0 cover nothing.
    """
    return first_cover(body, placements, points, shrink) >= 0


def first_cover(body: ConvexBody, placements: Homothets | Sequence[HomothetPlacement],
                points, shrink: float = 0.0) -> np.ndarray:
    """For each point, the index of the first placement whose shrunken copy
    center + (ratio - shrink) * body contains it (closed, up to
    MEMBERSHIP_TOL per facet), or -1; copies with ratio - shrink <= 0 cover
    nothing.  Calls whose copy x point pairs fit ``_PAIR_BLOCK`` test all
    pairs at once, without the grid's fixed cost (one point and one copy:
    40 us, not 250 us).  Otherwise each cell of ``_cell_grid`` lists the
    copies whose boxes meet it in index order, and each point walks its
    cell's list, a copy per vectorised round, to its first hit.  Copies go
    in index-ordered blocks whose lists fit ``_PAIR_BLOCK``, a later block
    walking only the points still uncovered, and points in chunks of a
    quarter of ``_PAIR_BLOCK // facets``: the working set stays bounded.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, n = pts.shape
    first = np.full(m, -1, dtype=np.int64)
    family = Homothets.of(placements)
    radii = family.ratios - shrink
    ids = np.flatnonzero(radii > 0.0)
    if m == 0 or ids.size == 0:
        return first
    A, b = body.halfspaces
    centers = family.centers[ids]
    budget = max(1, _PAIR_BLOCK // b.size)
    if m * ids.size <= budget:
        offsets = (pts.T[:, :, None] - centers.T[:, None, :]).reshape(n, -1)
        inside = np.all((A @ offsets).reshape(b.size, m, ids.size)
                        <= b[:, None, None] * radii[ids] + MEMBERSHIP_TOL, axis=0)  # points x copies
        hit = inside.any(axis=1)
        first[hit] = ids[inside[hit].argmax(axis=1)]
        return first
    origin, cell, shape, meets, c_lo, c_hi = _cell_grid(pts, centers, radii[ids],
                                                        *body.vertex_bbox)
    ids = ids[meets]
    centers_t = np.ascontiguousarray(centers[meets].T)
    bounds_t = b[:, None] * radii[ids] + MEMBERSHIP_TOL  # r * b + tol, a column per copy
    cells = int(np.prod(shape))
    steps = np.array(list(np.ndindex(*(int((c_hi - c_lo).max(initial=0)) + 1,) * n)), dtype=np.intp)
    per_block = max(1, _PAIR_BLOCK // len(steps))  # copies whose padded cell lists fit
    # points per chunk: a quarter of the budget keeps a round's arrays in cache
    # (29 ms, not 37 ms at the whole budget, on branch B's 168,921-point marking call)
    chunk = max(1, budget // 4)
    for k0 in range(0, ids.size, per_block):
        if first.min() >= 0:
            break
        # per cell, the block's copies whose boxes meet it: a stable sort keeps index order
        key, meet = 0, True
        for lo, hi, size, step in zip(c_lo[k0:k0 + per_block].T, c_hi[k0:k0 + per_block].T,
                                      shape, steps.T):
            on_axis = lo[:, None] + step
            meet = meet & (on_axis <= hi[:, None])
            key = key * size + on_axis
        listed, column = np.nonzero(meet)
        key = key[listed, column]
        listed = (listed + k0)[np.argsort(key.astype(np.uint16) if cells <= 1 << 16 else key,
                                          kind="stable")]
        starts = np.append(0, np.cumsum(np.bincount(key, minlength=cells)))
        del key, meet, on_axis, column  # not held through the walk
        for c0 in range(0, m, chunk):
            chunk_t = pts[c0:c0 + chunk].T.copy()
            key = 0
            for coords, low, width, size in zip(chunk_t, origin, cell, shape):
                key = key * size + np.minimum((coords - low) / width, size - 1).astype(np.intp)
            todo = np.flatnonzero(first[c0:c0 + chunk] < 0)
            key = key.take(todo)
            # rows, updated in place: index in the chunk, next candidate, end of its list
            walk = np.stack([todo, starts.take(key), starts[1:].take(key)])
            while True:
                walk = walk.compress(walk[1] < walk[2], axis=1)
                live, pos, end = walk
                if not live.size:
                    break
                copy = listed.take(pos)
                offsets = chunk_t.take(live, axis=1)
                for row, center in zip(offsets, centers_t):
                    row -= center.take(copy)
                slack = A @ offsets
                inside = slack[0] <= bounds_t[0].take(copy)
                for row, bound in zip(slack[1:], bounds_t[1:]):
                    inside &= row <= bound.take(copy)
                hit = np.flatnonzero(inside)
                first[c0 + live[hit]] = ids[copy[hit]]
                pos += 1
                end[hit] = 0  # a covered point leaves the walk
    return first


def _cell_grid(pts: np.ndarray, centers: np.ndarray, radii: np.ndarray, lo, hi):
    """A grid on the points' box, cells half as wide as the largest copy's
    box, widened until cells are no more than points: its origin, cell
    widths and shape, which copies' padded boxes meet the points, and per
    meeting copy the first and last cell its box meets on each axis."""
    m = pts.shape[0]
    origin = np.array([column.min() for column in pts.T])  # not pts.min(axis=0): 16x slower
    extent = np.array([column.max() for column in pts.T]) - origin
    cell = radii.max() * (hi - lo) / 2.0
    while np.prod(np.floor(extent / cell) + 1) > m:
        cell = 2.0 * cell
    shape = (np.floor(extent / cell) + 1).astype(np.intp)
    c_lo = np.floor((centers + radii[:, None] * lo - _BOX_PAD - origin) / cell)
    c_hi = np.floor((centers + radii[:, None] * hi + _BOX_PAD - origin) / cell)
    meets = np.all((c_hi >= 0) & (c_lo < shape), axis=1)
    c_lo = np.clip(c_lo[meets], 0, shape - 1).astype(np.intp)
    c_hi = np.clip(c_hi[meets], 0, shape - 1).astype(np.intp)
    return origin, cell, shape, meets, c_lo, c_hi


# --- Minkowski combinations ----------------------------------------------


@dataclass(frozen=True)
class MinkowskiCombo:
    """The set plus_coeff * K - minus_coeff * K for a reference body K."""

    body: ConvexBody
    plus_coeff: float
    minus_coeff: float

    def __post_init__(self):
        if not (np.isfinite(self.plus_coeff) and np.isfinite(self.minus_coeff)):
            raise ValueError("combination coefficients must be finite")
        if self.plus_coeff < 0 or self.minus_coeff < 0:
            raise ValueError("combination coefficients must be nonnegative")
        if self.plus_coeff + self.minus_coeff <= 0:
            raise ValueError("combination must have positive total scale")

    @property
    def dim(self) -> int:
        return self.body.dim

    @property
    def halfspaces(self):
        """(A, b) with unit rows so that plus*K - minus*K = {x : A x <= b}.

        From K's own facets when a coefficient is 0, or when K is the cube or
        the cross-polytope, which are origin-symmetric, so aK - cK = (a + c)K.
        Otherwise the hull of {V_i - (minus / plus) V_j}, which the body caches
        per ratio minus / plus; b scales with plus."""
        body, a, c = self.body, self.plus_coeff, self.minus_coeff
        A, b = body.halfspaces
        if c == 0.0:
            return A, a * b
        if a == 0.0:
            return -A, c * b
        if body.kind in _SYMMETRIC_KINDS:
            return A, (a + c) * b
        key = (1.0, c / a)
        if key not in body._hreps:
            V = body.vertices
            body._hreps[key] = _hull_hrep(
                (V[:, None, :] - key[1] * V[None, :, :]).reshape(-1, self.dim))
        A, b = body._hreps[key]
        return A, a * b


def bounding_box(combo: MinkowskiCombo):
    """Tight axis-aligned box of a K-combination, from per-axis supports."""
    a, c = combo.plus_coeff, combo.minus_coeff
    lo, hi = combo.body.vertex_bbox
    return a * lo - c * hi, a * hi + c * (-lo)


def combo_contains(combo: MinkowskiCombo, points):
    """Membership in plus*K - minus*K, as ``A x <= b + MEMBERSHIP_TOL`` on
    ``MinkowskiCombo.halfspaces``.

    The tolerance is absolute, on the combination's own facets, whatever the
    coefficients.  (Testing K at x / plus would grant plus * MEMBERSHIP_TOL.)
    """
    A, b = combo.halfspaces
    return _inside(points, combo.dim, A, b + MEMBERSHIP_TOL)


def combo_contains_lp(combo: MinkowskiCombo, point) -> bool:
    """Reference path: one linear feasibility problem over barycentric
    weights p, q >= 0 of both copies,
    [a V^T, -c V^T; 1^T 0^T; 0^T 1^T] [p; q] == [point; 1; 1]."""
    point = np.asarray(point, dtype=float)
    if point.shape != (combo.dim,):
        raise ValueError("point dimension mismatch")
    V = combo.body.vertices
    k = V.shape[0]
    a, c = combo.plus_coeff, combo.minus_coeff
    A = np.vstack([np.hstack([a * V.T, -c * V.T]), np.repeat(np.eye(2), k, axis=1)])
    status, _ = lpcore.solve(A, np.append(point, [1.0, 1.0]), np.zeros(2 * k))
    return status == lpcore.OPTIMAL


# --- factors used by cross-body certificates ------------------------------


def cover_factor(outer: ConvexBody, inner: ConvexBody) -> float:
    """min{t : outer subset of t * inner}; requires interior origin in inner."""
    A, b = inner.halfspaces
    if np.any(b <= 0):
        raise ValueError("cover_factor requires the origin interior to the inner body")
    supports = np.max(outer.vertices @ A.T, axis=0)
    return float(np.max(supports / b))


def cube_inclusion_factor(body: ConvexBody) -> float:
    """Largest rho with rho * [-1,1]^n inside the body."""
    A, b = body.halfspaces
    if np.any(b <= 0):
        raise ValueError("cube_inclusion_factor requires the origin in the interior")
    return float(np.min(b / np.abs(A).sum(axis=1)))


# --- random vertex bodies -------------------------------------------------


def random_vrep_body(dim: int, n_vertices: int, rng: np.random.Generator) -> ConvexBody:
    """Vertices sampled uniformly on the unit sphere (rejection from the
    cube), recentered so the vertex centroid is the origin."""
    if n_vertices < dim + 1:
        raise ValueError("need at least dim + 1 vertices")
    for _ in range(200):
        verts = []
        while len(verts) < n_vertices:
            u = rng.uniform(-1.0, 1.0, size=dim)
            norm = np.linalg.norm(u)
            if 1e-6 < norm <= 1.0:
                verts.append(u / norm)
        verts = np.array(verts)
        verts -= verts.mean(axis=0)
        try:
            return ConvexBody.from_vertices(verts)
        except ValueError:
            continue
    raise RuntimeError("failed to sample a full-dimensional vertex body")
