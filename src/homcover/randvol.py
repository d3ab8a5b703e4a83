"""Deterministic randomness, uniform sampling in body combinations, and
hit-or-miss Monte Carlo volume with Wilson confidence intervals.

Streams are counter-based (Philox keyed by (seed, stream)), so any worker
can be handed an independent stream without shared state and two runs with
the same spec reproduce bit-identical samples.

Counter layout.  Stream ``(seed, stream)`` is numpy's Philox4x64-10 with
the key ``[seed mod 2^64, stream]`` and a zero counter: its block j
(j = 1, 2, ...) encrypts the counter ``[j, 0, 0, 0]`` into four 64-bit
words, the stream is those words in order, a double is ``(word >> 11) *
2^-53`` and a proposal in the box [lo, hi] is ``lo + (hi - lo) * double``,
one double per coordinate.  So the first k proposals of a stream are a pure
function of its key, and ``first_points`` computes them for many streams at
once in numpy (``_philox_random``), bit for bit what ``Generator.uniform``
draws.  Under _VECTOR_MIN_STREAMS streams it draws each with numpy's
Generator instead, which is cheaper there.

Every rejection sampler here (one stream or many) stops with
RejectionTooSlow by one rule: at least _PROBE_PROPOSALS proposals of a
stream at an acceptance below _REJECTION_FLOOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .bodies import (CROSSPOLYTOPE, CUBE, SIMPLEX, SYMMETRIC_KINDS, ConvexBody, MinkowskiCombo,
                     bounding_box, combo_contains)

_MASK64 = (1 << 64) - 1
_REJECTION_FLOOR = 1e-6
_PROBE_PROPOSALS = 2_000_000
_VOLUME_SAMPLES = 200_000  # per Monte Carlo volume estimate
_SAMPLE_BATCH = 8192  # the one-stream sampler's largest batch of proposals

# first_points: proposals drawn per stream before a stream falls back to the
# one-stream sampler, and streams whose proposals are tested in one call
_FIRST_PROPOSALS = 8
_STREAMS_PER_BLOCK = 4096
# Below this many streams first_points draws each stream with numpy's
# Generator.  The vectorised Philox plus one membership call cost about
# 0.25-0.4 ms whatever the stream count (1 to 43 streams), the per-stream
# path about 75 us a stream (Generator construction, a draw and a
# membership call); measured with first_points in K - K of the square and
# the 3-cube on a 2-core x86-64 VM, where 4 streams tie and 8 favour the
# vectorised path two to one.
_VECTOR_MIN_STREAMS = 6

# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, SC 2011) as numpy's Philox
# computes it: the multipliers of counter words 0 and 2 (split into 32-bit
# halves for the 128-bit product), and the Weyl increments of the two key words.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None]
_PHILOX_M_HALVES = (_PHILOX_M & np.uint64(0xFFFFFFFF), _PHILOX_M >> np.uint64(32))
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None]
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


class RejectionTooSlow(RuntimeError):
    """Acceptance rate fell below the rejection-sampling floor; the target
    set is too thin inside its bounding box (dimension too high)."""


class UnsupportedBody(ValueError):
    """No closed-form volume for this body kind."""


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer on a uint64 array (numpy's uint64 arithmetic wraps)."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _as_uint64(v) -> np.ndarray:
    """An int or integer array as uint64, modulo 2^64 (as ``int(v) & _MASK64``)."""
    if isinstance(v, (int, np.integer)):
        return np.array([int(v) & _MASK64], dtype=np.uint64)
    return np.asarray(v).astype(np.uint64).ravel()


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
        return self.children(*indices)[0]

    def children(self, *indices) -> "RngStreams":
        """Substreams keyed by index paths whose entries are ints or integer
        arrays, broadcast together and taken modulo 2^64.  Path i folds each
        index v into the stream as s = sm(s ^ sm(v + 0x632BE59BD9B4E019)),
        with sm the splitmix64 finalizer."""
        parts = np.broadcast_arrays(*(_as_uint64(v) for v in indices))
        s = np.full(parts[0].shape if parts else 1, self.stream & _MASK64, dtype=np.uint64)
        for v in parts:
            s = _splitmix64_array(s ^ _splitmix64_array(v + np.uint64(0x632BE59BD9B4E019)))
        return RngStreams(self.seed, s)


@dataclass(frozen=True, eq=False)
class RngStreams:
    """Many streams of one seed: ``streams[i]`` is the stream id of spec i."""

    seed: int
    streams: np.ndarray

    def __len__(self) -> int:
        return self.streams.shape[0]

    def __getitem__(self, i: int) -> RngSpec:
        return RngSpec(self.seed, int(self.streams[i]))


def _mulhilo(x: np.ndarray):
    """High and low 64-bit words of the 128-bit products _PHILOX_M * x, the
    high word from 32-bit halves (numpy's uint64 products wrap)."""
    m_lo, m_hi = _PHILOX_M_HALVES
    x_lo, x_hi = x & _LO32, x >> _U32
    t = m_hi * x_lo + ((m_lo * x_lo) >> _U32)
    v = m_lo * x_hi + (t & _LO32)
    return m_hi * x_hi + (t >> _U32) + (v >> _U32), x * _PHILOX_M


def _philox_random(seed: int, streams: np.ndarray, count: int) -> np.ndarray:
    """Row i is ``RngSpec(seed, streams[i]).generator().random(count)``.

    numpy's Philox keyed by ``[seed & _MASK64, stream]`` with a zero counter
    makes block j (j = 1, 2, ...) from the counter ``[j, 0, 0, 0]`` and emits
    its four words in order; ``random()`` is ``(word >> 11) * 2**-53``.  All
    blocks of all streams go through the ten rounds together, with counter
    words 0 and 2 (and 1 and 3) stacked so that one numpy call serves both."""
    blocks = -(-count // 4)
    lanes = streams.shape[0] * blocks
    even = np.zeros((2, lanes), dtype=np.uint64)  # counter words 0 and 2
    even[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), streams.shape[0])
    odd = np.zeros((2, lanes), dtype=np.uint64)   # counter words 1 and 3
    key = np.empty((2, lanes), dtype=np.uint64)
    key[0] = seed & _MASK64
    key[1] = np.repeat(streams.astype(np.uint64), blocks)
    for r in range(10):
        if r:
            key += _PHILOX_W
        hi, lo = _mulhilo(even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=1)
    words = words.reshape(streams.shape[0], 4 * blocks)[:, :count]
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@dataclass(frozen=True)
class VolumeEstimate:
    mean: float
    ci95_low: float
    ci95_high: float
    samples: int
    hits: int
    box_volume: float


def wilson_interval(hits: int, trials: int):
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 1.959963984540054  # the standard normal quantile at 0.975
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # at the degenerate proportions the score bound equals the endpoint exactly;
    # keep it there so the interval always contains the point estimate
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


def _proposals(rng: RngSpec, lo: np.ndarray, hi: np.ndarray, size: int, batch: int,
               total: Optional[int] = None) -> Iterator[np.ndarray]:
    """Batches of uniform proposals in the box [lo, hi] from one stream: ``size``
    points, doubling up to ``batch``, ``total`` points in all when given.  The
    Philox stream does not depend on how it is cut, so neither do the points."""
    gen = rng.generator()
    drawn = 0
    while total is None or drawn < total:
        take = size if total is None else min(size, total - drawn)
        yield gen.uniform(lo, hi, size=(take, lo.shape[0]))
        drawn += take
        size = min(2 * size, batch)


def _check_stall(proposals: int, accepts: int) -> None:
    """The one stall rule of every rejection sampler here: give up once at
    least _PROBE_PROPOSALS proposals have run at an acceptance below
    _REJECTION_FLOOR."""
    if proposals >= _PROBE_PROPOSALS and accepts < _REJECTION_FLOOR * proposals:
        raise RejectionTooSlow(f"acceptance {accepts}/{proposals} below "
                               f"{_REJECTION_FLOOR:g} after {proposals} proposals")


def _sample(member: Callable, lo: np.ndarray, hi: np.ndarray, rng: RngSpec,
            count: int) -> np.ndarray:
    """The one-stream rejection sampler: the first ``count`` proposals of the
    stream in the box [lo, hi] that ``member`` accepts."""
    out = []
    got = proposals = 0
    for pts in _proposals(rng, lo, hi, min(_SAMPLE_BATCH, max(16, count)), _SAMPLE_BATCH):
        keep = member(pts)
        kept = pts[keep]
        out.append(kept)
        got += kept.shape[0]
        proposals += pts.shape[0]
        if got >= count:
            return np.concatenate(out)[:count]
        _check_stall(proposals, got)


def sample_uniform(combo: MinkowskiCombo, rng, count: int) -> np.ndarray:
    """i.i.d. uniform points in plus*K - minus*K by rejection from its
    bounding box.  Every returned point satisfies combo_contains.

    From one stream (an RngSpec), proposals come in batches that start at
    max(16, count) and double up to 8192 (``_SAMPLE_BATCH``).  The Philox
    stream does not depend on how it is cut into batches, so the points
    returned do not depend on that size either.  From many streams
    (RngStreams, count 1), row i is ``sample_uniform(combo, rng[i], 1)[0]``,
    all rows drawn in one pass as by first_points."""
    if count < 1:
        raise ValueError("count must be positive")
    lo, hi = bounding_box(combo)
    member = lambda pts: combo_contains(combo, pts)
    if isinstance(rng, RngStreams):
        if count != 1:
            raise ValueError("many streams give one point each")
        # the shared core, not first_points itself, so that a trace of the
        # public functions counts these proposals as sample_uniform's
        return _first_points(member, lo, hi, rng)
    return _sample(member, lo, hi, rng, count)


def first_points(member: Callable, lo, hi, specs: RngStreams) -> np.ndarray:
    """Row i is the first proposal of stream ``specs[i]`` in the box [lo, hi]
    that ``member`` accepts, bit for bit the one-stream sampler's first point.

    The first _FIRST_PROPOSALS proposals of every stream in a block come
    from the vectorised Philox and are tested in one ``member`` call; a
    stream with no hit among them is replayed by the one-stream sampler,
    whose stall rule then applies.  Fewer than _VECTOR_MIN_STREAMS streams
    are drawn one at a time."""
    return _first_points(member, lo, hi, specs)


def _first_points(member: Callable, lo, hi, specs: RngStreams) -> np.ndarray:
    k = _FIRST_PROPOSALS
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n = lo.shape[0]
    out = np.empty((len(specs), n))
    if len(specs) < _VECTOR_MIN_STREAMS:
        for i in range(len(specs)):
            out[i] = _sample(member, lo, hi, specs[i], 1)[0]
        return out
    for start in range(0, len(specs), _STREAMS_PER_BLOCK):
        streams = specs.streams[start:start + _STREAMS_PER_BLOCK]
        rows = np.arange(streams.shape[0])
        u = _philox_random(specs.seed, streams, k * n).reshape(rows.size, k, n)
        pts = lo + (hi - lo) * u  # bit for bit Generator.uniform(lo, hi)
        hit = member(pts.reshape(-1, n)).reshape(rows.size, k)
        first = hit.argmax(axis=1)
        out[start:start + rows.size] = pts[rows, first]
        for i in np.flatnonzero(~hit[rows, first]):
            out[start + i] = _sample(member, lo, hi, specs[start + i], 1)[0]
    return out


def sample_first(combos: Sequence[MinkowskiCombo], specs: RngStreams) -> np.ndarray:
    """Row i is ``sample_uniform(combos[i], specs[i], 1)[0]``.  The streams of
    each distinct combo (the same object) are drawn by one sample_uniform call."""
    groups = {}
    for i, combo in enumerate(combos):
        groups.setdefault(id(combo), (combo, []))[1].append(i)
    out = np.empty((len(combos), combos[0].dim))
    for combo, rows in groups.values():
        out[rows] = sample_uniform(combo, RngStreams(specs.seed, specs.streams[rows]), 1)
    return out


def sample_uniform_body(body: ConvexBody, rng: RngSpec, count: int) -> np.ndarray:
    return sample_uniform(MinkowskiCombo(body, 1.0, 0.0), rng, count)


def mc_volume(combo: MinkowskiCombo, rng: RngSpec, samples: int) -> VolumeEstimate:
    """Hit-or-miss estimate box_volume * hit_fraction with a Wilson 95% CI.
    Deterministic for a fixed RngSpec."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful interval")
    with np.errstate(over="ignore"):  # an overflowing box is rejected below
        lo, hi = bounding_box(combo)
        box_vol = float(np.prod(hi - lo))
    if not np.isfinite(box_vol):
        raise ValueError("the combination's bounding box is not finite")
    hits = 0
    for pts in _proposals(rng, lo, hi, 65536, 65536, total=samples):
        hits += int(np.count_nonzero(combo_contains(combo, pts)))
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
    if body.kind == CUBE:
        return (2.0 * s) ** n
    if body.kind == SIMPLEX:
        return s ** n / math.factorial(n)
    if body.kind == CROSSPOLYTOPE:
        return (2.0 * s) ** n / math.factorial(n)
    raise UnsupportedBody(f"no closed-form volume for kind {body.kind!r}")


def difference_volume_ratio(body: ConvexBody, rng: RngSpec | None = None,
                            samples: int = _VOLUME_SAMPLES):
    """Vol(K - K) / Vol(K): exact 2^n for the symmetric kinds, the exact
    central binomial for simplices, Monte Carlo otherwise.

    Returns (ratio, estimate) where estimate is None when exact.
    """
    n = body.dim
    if body.kind in SYMMETRIC_KINDS:
        return float(2 ** n), None
    if body.kind == SIMPLEX or body.vertices.shape[0] == n + 1:
        return float(math.comb(2 * n, n)), None
    if rng is None:
        raise ValueError("vertex bodies need an RngSpec for the Monte Carlo ratio")
    est_diff = mc_volume(MinkowskiCombo(body, 1.0, 1.0), rng.child(1), samples)
    est_body = mc_volume(MinkowskiCombo(body, 1.0, 0.0), rng.child(2), samples)
    return est_diff.mean / est_body.mean, (est_diff, est_body)


def body_volume(body: ConvexBody, rng: RngSpec | None = None) -> float:
    try:
        return exact_volume(body)
    except UnsupportedBody:
        if rng is None:
            raise
        return mc_volume(MinkowskiCombo(body, 1.0, 0.0), rng, _VOLUME_SAMPLES).mean
