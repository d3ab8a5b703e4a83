"""Property tests on random vertex bodies in R^2..R^4 and the special kinds:
the H-representation fast paths against LP oracles, the coverage kernel
against a dense membership matrix (also on point sets of 50,000 or more,
which take its grid path), sampler batch-size invariance,
the patch pass against a quadratic greedy, the vectorised Philox and
multi-stream draws against numpy's generator and the one-stream sampler,
the grouped grid against its one-slab form, the soundness of decided
coverage verdicts, the coverage entry points on a list of copies against
its columns, the CLI's JSON writer against ``json.dumps``, and the
certificate column codec's round trip."""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from homcover import bodies, fnsched, nets, randvol
from homcover.bodies import MEMBERSHIP_TOL, ConvexBody, HomothetPlacement, Homothets, \
    MinkowskiCombo, bounding_box, combo_contains, combo_contains_lp, covered_by_union, first_cover, \
    random_vrep_body
from homcover.cli import _dumps
from homcover.covercert import CERTIFIED, REFUTED, UNKNOWN, CoverageVerdict, certify_cover, \
    decide_cover, decode_column, encode_column, verdict_to_dict
from homcover.fnsched import _random_phase_points, _separated_subset
from homcover.nets import GRID_SLACK, NetTooLarge, build_net
from homcover.randvol import RejectionTooSlow, RngSpec, RngStreams, _philox_random, \
    first_points, sample_first, sample_uniform

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)
# a point set this large sends first_cover down its grid path
LARGE_POINT_SET = 50_000


@st.composite
def vrep_bodies(draw):
    dim = draw(st.integers(2, 4))
    k = draw(st.integers(dim + 1, 10))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return random_vrep_body(dim, k, np.random.default_rng(seed)), seed


@st.composite
def any_bodies(draw):
    """A random vertex body or a special kind, in R^2..R^4."""
    kind = draw(st.sampled_from(["vrep", "cube", "simplex", "crosspolytope"]))
    if kind == "vrep":
        return draw(vrep_bodies())[0]
    dim = draw(st.integers(2, 4))
    return ConvexBody.from_spec({"kind": kind, "dim": dim, "scale": draw(st.floats(0.5, 2.0))})


coefficients = st.floats(0.05, 2.0)
coefficients_or_zero = st.one_of(st.just(0.0), coefficients)
seeds = st.integers(0, 2 ** 32 - 1)
seeds_64 = st.integers(0, 2 ** 64 - 1)


def random_placements(body, rng, count):
    lo, hi = body.vertex_bbox
    return [HomothetPlacement(c, r) for c, r in
            zip(rng.uniform(lo, hi, size=(count, body.dim)), rng.uniform(0.0, 1.0, count))]


def budget_net(body, epsilon):
    """build_net under a 50,000-point budget, so a sliver body's net raises
    NetTooLarge at once rather than building millions of points."""
    with mock.patch.object(nets, "MAX_NET_POINTS", 50_000):
        return build_net(body, epsilon)


def dense_first_cover(body, placements, pts, shrink):
    """Index of the first True column of the points x placements membership
    matrix, -1 for an all-False row."""
    A, b = body.halfspaces
    member = np.column_stack([
        np.all((pts - pl.center) @ A.T <= (pl.ratio - shrink) * b + MEMBERSHIP_TOL, axis=1)
        & (pl.ratio - shrink > 0.0) for pl in placements])
    return np.where(member.any(axis=1), member.argmax(axis=1), -1)


def greedy_separated(points, zone):
    """Quadratic reference for the patch pass: one scalar test per pair."""
    kept = []
    for g in points:
        if not any(combo_contains(zone, g - p) for p in kept):
            kept.append(g)
    return np.array(kept).reshape(-1, points.shape[1])


def dilation_lp(body, x, delta) -> bool:
    """x = V^T w + u with w a probability vector and |u|_inf <= delta."""
    V = body.vertices
    k, n = V.shape
    A_eq = np.vstack([np.hstack([V.T, np.eye(n)]),
                      np.concatenate([np.ones(k), np.zeros(n)])])
    res = linprog(np.zeros(k + n), A_eq=A_eq, b_eq=np.append(x, 1.0),
                  bounds=[(0, None)] * k + [(-delta, delta)] * n, method="highs")
    return res.status == 0


@PROPERTY_SETTINGS
@given(any_bodies(), coefficients_or_zero, coefficients_or_zero, seeds)
def test_combo_hrep_matches_lp_oracle(body, a, c, seed):
    assume(a + c > 0)
    combo = MinkowskiCombo(body, a, c)
    lo, hi = bounding_box(combo)
    pad = 0.1 * (hi - lo)  # for the cube the box is the combination itself
    pts = np.random.default_rng(seed).uniform(lo - pad, hi + pad, size=(40, body.dim))
    oracle = [combo_contains_lp(combo, p) for p in pts]
    assert combo_contains(combo, pts).tolist() == oracle


@PROPERTY_SETTINGS
@given(any_bodies(), st.floats(0.0, 1.0), seeds)
def test_dilated_contains_matches_lp_oracle(body, delta, seed):
    lo, hi = body.vertex_bbox
    pts = np.random.default_rng(seed).uniform(lo - delta - 0.3, hi + delta + 0.3,
                                              size=(40, body.dim))
    oracle = [dilation_lp(body, p, delta) for p in pts]
    assert body.dilated_contains(pts, delta).tolist() == oracle


@PROPERTY_SETTINGS
@given(vrep_bodies(), coefficients, coefficients, st.integers(1, 50),
       st.integers(0, 2 ** 32 - 1))
def test_sample_uniform_is_batch_invariant(body_seed, a, c, count, seed):
    combo = MinkowskiCombo(body_seed[0], a, c)
    runs = []
    for b in (1, 3, 16, 8192):
        with mock.patch.object(randvol, "_SAMPLE_BATCH", b):
            runs.append(sample_uniform(combo, RngSpec(seed), count))
    for pts in runs[1:]:
        assert pts.tobytes() == runs[0].tobytes()


@PROPERTY_SETTINGS
@given(any_bodies(), seeds, st.integers(1, 12), st.integers(0, 12), st.integers(1, 400),
       st.floats(0.0, 0.4), st.integers(0, 8), st.integers(0, 8), st.integers(0, 20))
def test_first_cover_matches_dense_oracle(body, seed, count, tiny, probes, shrink,
                                          duplicates, dead, far):
    rng = np.random.default_rng(seed)
    # copies with ratios down to 1e-3 sit inside one cell of a grid sized to the largest
    placements = random_placements(body, rng, count)
    placements += [HomothetPlacement(pl.center, pl.ratio * 10.0 ** rng.uniform(-3.0, -1.0))
                   for pl in random_placements(body, rng, tiny)]
    # exact duplicates, and copies with ratio - shrink <= 0, which cover nothing
    placements += [placements[i] for i in rng.integers(0, len(placements), duplicates)]
    placements += [HomothetPlacement(pl.center, shrink * rng.uniform())
                   for pl in random_placements(body, rng, dead)]
    placements = [placements[i] for i in rng.permutation(len(placements))]
    lo, hi = body.vertex_bbox
    pad = 0.2 * (hi - lo)
    # points outside every copy's box (each lies within [2 lo, 2 hi]) widen the grid
    outside = 2.0 * hi + (hi - lo) * rng.uniform(0.5, 2.0, size=(far, body.dim))
    probe_pts = rng.uniform(lo - pad, hi + pad, size=(probes, body.dim))
    cases = [(placements, np.vstack([probe_pts, outside]))]
    try:
        net = budget_net(body, 0.35 if body.dim < 4 else 0.6)
    except NetTooLarge:
        pass  # a sliver body: its net would need millions of points
    else:
        cases.append((placements, np.vstack([net.points, outside])))
        # many copies over few points, as in EpsNet.covering_indices: a copy per net point
        cases.append(([HomothetPlacement(y, net.epsilon) for y in net.points],
                      np.vstack([probe_pts[:5], outside])))
    for copies, pts in cases:
        want = dense_first_cover(body, copies, pts, shrink)
        assert (want[len(pts) - far:] == -1).all()
        # the default block size, and blocks of a few pairs each
        for block in (bodies._PAIR_BLOCK, 256):
            with mock.patch.object(bodies, "_PAIR_BLOCK", block):
                assert np.array_equal(first_cover(body, copies, pts, shrink), want)
                assert np.array_equal(covered_by_union(body, copies, pts, shrink), want >= 0)


@settings(max_examples=5, deadline=None)
@given(seeds)
def test_coverage_of_large_point_sets_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    square = ConvexBody.cube(2)
    # a jittered 5 x 5 lattice of copies covers the square with margin to spare,
    # and random extra copies in random order vary which copy is first
    lattice = [HomothetPlacement(np.array([x, y]) + rng.uniform(-0.05, 0.05, 2), 0.3)
               for x in np.linspace(-0.8, 0.8, 5) for y in np.linspace(-0.8, 0.8, 5)]
    placements = lattice + random_placements(square, rng, 30)
    placements = [placements[i] for i in rng.permutation(len(placements))]
    net = build_net(square, 0.004)
    probes = rng.uniform(-1.0, 1.0, size=(LARGE_POINT_SET + 1000, 2))
    assert net.size > LARGE_POINT_SET
    mask = covered_by_union(square, placements, probes, 0.1)
    assert np.array_equal(mask, dense_first_cover(square, placements, probes, 0.1) >= 0)
    verdict = certify_cover(square, placements, 0.004, net=net)
    assert verdict.status == "certified"
    assert np.array_equal(verdict.assignment,
                          dense_first_cover(square, placements, net.points, verdict.shrink))


@PROPERTY_SETTINGS
@given(any_bodies(), seeds, st.floats(0.05, 0.4), st.floats(0.2, 0.9))
def test_patch_pass_matches_quadratic_greedy(body, seed, scale, density):
    # the marked points of a small cube: a random subset of its grid, in grid order
    n = body.dim
    side = {2: 13, 3: 6, 4: 4}[n]
    axis = np.linspace(-1.0, 1.0, side)
    grid = np.stack(np.meshgrid(*(axis,) * n, indexing="ij"), axis=-1).reshape(-1, n)
    marked = grid[np.random.default_rng(seed).random(grid.shape[0]) < density]
    zone = MinkowskiCombo(body, scale, scale)
    kept = _separated_subset(marked, zone)
    assert np.array_equal(kept, greedy_separated(marked, zone))
    for i in range(len(kept)):
        assert not combo_contains(zone, kept[i + 1:] - kept[i]).any()


def one_slab_grid(dim, keep_fn, inradius, anchor, lo, hi):
    """gauge_grid with one keep_fn call per first-axis slab, its points listed
    one index tuple at a time in row-major order."""
    h = 2.0 * inradius / math.sqrt(dim) * (1.0 - GRID_SLACK)
    j_lo = np.ceil((lo - anchor - h / 2) / h - 1e-12).astype(int)
    j_hi = np.floor((hi - anchor + h / 2) / h + 1e-12).astype(int)
    kept = []
    for j0 in range(j_lo[0], j_hi[0] + 1):
        idx = np.array([(j0,) + t for t in itertools.product(
            *(range(a, b + 1) for a, b in zip(j_lo[1:], j_hi[1:])))])
        pts = idx * h
        kept.append(pts[keep_fn(pts, h / 2)])
    return np.concatenate(kept), h


@PROPERTY_SETTINGS
@given(any_bodies(), st.floats(0.15, 0.5), st.integers(1, 3000))
@example(ConvexBody.cube(2), 0.3, 10)  # 5 slabs of 5 points, 2 slabs per call
def test_grouped_gauge_grid_matches_one_slab_per_call(body, eps, block):
    center, inradius = body.chebyshev
    anchor = eps * center
    lo, hi = body.vertex_bbox
    calls = []

    def keep(pts, half):
        calls.append(pts.shape[0])
        return body.dilated_contains(pts + anchor, half)

    with mock.patch.multiple(nets, GRID_BLOCK_POINTS=block, MAX_NET_POINTS=50_000):
        try:
            got, h = nets.gauge_grid(body.dim, keep, eps * inradius, anchor, lo, hi)
        except NetTooLarge:
            return  # a sliver body: its grid would need millions of points
    grouped_calls = calls[:]
    calls.clear()
    want, h_want = one_slab_grid(body.dim, keep, eps * inradius, anchor, lo, hi)
    assert h == h_want
    assert got.tobytes() == want.tobytes()
    # whole slabs per call, the last group possibly shorter
    slab_rows, slabs = calls[0], len(calls)
    per_call = max(1, block // slab_rows)
    assert grouped_calls == [slab_rows * min(per_call, slabs - s)
                             for s in range(0, slabs, per_call)]


def box_minus_body_first(side, body, spec):
    """The first point of one stream in side*B_inf - 2K, drawn 64 proposals at
    a time from the stream until -x/2 lies in K + (side/2)*B_inf."""
    lo = -side - 2.0 * body.vertices.max(axis=0)
    hi = side - 2.0 * body.vertices.min(axis=0)
    gen = spec.generator()
    for _ in range(0, randvol._PROBE_PROPOSALS, 64):
        batch = gen.uniform(lo, hi, size=(64, body.dim))
        keep = body.dilated_contains(-batch / 2.0, side / 2.0)
        if keep.any():
            return batch[keep.argmax()]
    raise RejectionTooSlow("no hit")


@PROPERTY_SETTINGS
@given(any_bodies(), seeds, st.floats(0.05, 4.0), st.integers(1, 40), st.integers(1, 50))
def test_batched_first_draws_match_one_stream_sampler(body, seed, side, count, block):
    specs = RngSpec(seed).children(fnsched._PIECE_TAG, np.arange(count))
    try:
        want = np.array([box_minus_body_first(side, body, specs[i]) for i in range(count)])
    except RejectionTooSlow:
        with pytest.raises(RejectionTooSlow):
            _random_phase_points(side, body, specs)
        return
    for streams in (randvol._STREAMS_PER_BLOCK, block):
        with mock.patch.object(randvol, "_STREAMS_PER_BLOCK", streams):
            got = _random_phase_points(side, body, specs)
        assert got.tobytes() == want.tobytes()


def test_batched_first_draws_fall_back_on_a_sliver():
    # side*B_inf - 2K fills about 2% of its box, so most streams miss with
    # every one of their first proposals
    sliver = ConvexBody.from_vertices([[0.0, 0.0], [1.0, 1.0], [1.0, 1.02]])
    specs = RngSpec(5).children(fnsched._PIECE_TAG, np.arange(40))
    want = np.array([box_minus_body_first(0.01, sliver, specs[i]) for i in range(40)])
    with mock.patch.object(randvol, "_sample", wraps=randvol._sample) as one_stream:
        got = _random_phase_points(0.01, sliver, specs)
    assert one_stream.call_count >= 1
    assert got.tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(seeds_64, st.lists(seeds_64, min_size=1, max_size=6),
       st.integers(1, 13), st.integers(2, 4))
@example(2 ** 63, [2 ** 64 - 1, 2 ** 63, 0], 13, 3)
def test_vectorised_philox_matches_numpy(seed, streams, k, dim):
    streams = np.array(streams, dtype=np.uint64)
    got = _philox_random(seed, streams, k)
    want = np.stack([RngSpec(seed, int(s)).generator().random(k) for s in streams])
    assert got.tobytes() == want.tobytes()
    # k proposals in R^dim: 3-D and 4-D proposals straddle the 4-word blocks
    lo, hi = np.arange(dim) - 1.5, np.arange(dim) + 0.25
    u = _philox_random(seed, streams, k * dim).reshape(-1, k, dim)
    want = np.stack([RngSpec(seed, int(s)).generator().uniform(lo, hi, size=(k, dim))
                     for s in streams])
    assert (lo + (hi - lo) * u).tobytes() == want.tobytes()


MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def scalar_child_stream(spec, *indices) -> int:
    """The stream of ``spec.child(*indices)``, one Python-int fold per index."""
    s = spec.stream & MASK64
    for v in indices:
        s = splitmix64(s ^ splitmix64((int(v) + 0x632BE59BD9B4E019) & MASK64))
    return s


@PROPERTY_SETTINGS
@given(seeds_64, seeds_64, st.integers(-2 ** 70, 2 ** 70),
       st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=20))
def test_vectorised_child_matches_scalar(seed, stream, tag, indices):
    base = RngSpec(seed, stream)
    got = base.children(tag, np.array(indices, dtype=np.int64))
    assert got.seed == seed
    assert got.streams.tolist() == [scalar_child_stream(base, tag, i) for i in indices]
    assert [base.child(tag, i) for i in indices] == [got[i] for i in range(len(indices))]
    unsigned = np.array(indices, dtype=np.int64).astype(np.uint64)
    assert base.children(unsigned, 7).streams.tolist() == \
        [scalar_child_stream(base, i, 7) for i in indices]
    assert base.child() == RngSpec(seed, stream)


@PROPERTY_SETTINGS
@given(any_bodies(), coefficients, coefficients, seeds, st.integers(1, 40), st.integers(1, 8))
def test_first_points_match_one_stream_sampler(body, a, c, seed, count, k):
    combos = [MinkowskiCombo(body, a, c), MinkowskiCombo(body, 1.0, c)]
    specs = RngSpec(seed).children(3, np.arange(count))
    want = np.array([sample_uniform(combos[0], specs[i], 1)[0] for i in range(count)])
    with mock.patch.object(randvol, "_FIRST_PROPOSALS", k):
        got = first_points(lambda pts: combo_contains(combos[0], pts),
                           *bounding_box(combos[0]), specs)
    assert got.tobytes() == want.tobytes()
    assert sample_uniform(combos[0], specs, 1).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        sample_uniform(combos[0], specs, 2)
    # streams of two interleaved combos, each combo drawn in one pass
    mixed = [combos[1 if i % 3 == 0 else 0] for i in range(count)]
    want = np.array([sample_uniform(mixed[i], specs[i], 1)[0] for i in range(count)])
    assert sample_first(mixed, specs).tobytes() == want.tobytes()


def test_first_points_fall_back_on_a_sliver():
    sliver = MinkowskiCombo(ConvexBody.from_vertices([[0.0, 0.0], [1.0, 1.0], [1.0, 1.2]]),
                            1.0, 0.0)  # 8% of its box: about half the streams miss 8 times
    specs = RngSpec(8).children(4, np.arange(30))
    want = np.array([sample_uniform(sliver, specs[i], 1)[0] for i in range(30)])
    with mock.patch.object(randvol, "_sample", wraps=randvol._sample) as one_stream:
        got = first_points(lambda pts: combo_contains(sliver, pts), *bounding_box(sliver), specs)
    assert 1 <= one_stream.call_count < 30
    assert got.tobytes() == want.tobytes()


def test_first_points_stall_like_the_one_stream_sampler(monkeypatch):
    monkeypatch.setattr(randvol, "_PROBE_PROPOSALS", 5000)
    combo = MinkowskiCombo(ConvexBody.cross_polytope(10), 1.0, 0.0)  # 1/10! of its box
    lo, hi = bounding_box(combo)
    specs = RngSpec(2).children(1, np.arange(20))
    with pytest.raises(RejectionTooSlow):
        sample_uniform(combo, specs[0], 1)
    for streams in (specs, RngStreams(2, specs.streams[:1])):  # vectorised, one at a time
        with pytest.raises(RejectionTooSlow):
            first_points(lambda pts: combo_contains(combo, pts), lo, hi, streams)


@PROPERTY_SETTINGS
@given(any_bodies(), seeds, st.integers(1, 12), st.floats(0.4, 0.95), st.floats(0.2, 0.45),
       st.booleans())
def test_decided_verdicts_are_sound(body, seed, count, lam, eps, whole):
    """A certified verdict leaves no uniform probe of K uncovered; a refuted
    witness lies in K and outside every copy."""
    specs = RngSpec(seed).children(1, np.arange(count))
    centers = sample_first([MinkowskiCombo(body, 1.0, lam)] * count, specs)
    placements = [HomothetPlacement(c, lam) for c in centers]
    try:
        net = budget_net(body, eps)
        if whole:  # unit copies on a 1/2-net cover K even after the shrink
            placements += [HomothetPlacement(y, 1.0)
                           for y in budget_net(body, 0.5).points]
    except NetTooLarge:
        return  # a sliver body: its net would need millions of points
    verdict = decide_cover(body, placements, eps, RngSpec(seed, 1), 2000, net=net)
    if verdict.status == CERTIFIED:
        probes = sample_uniform(MinkowskiCombo(body, 1.0, 0.0), RngSpec(seed, 2), 5000)
        assert (dense_first_cover(body, placements, probes, 0.0) >= 0).all()
    elif verdict.status == REFUTED:
        w = verdict.witness
        assert combo_contains_lp(MinkowskiCombo(body, 1.0, 0.0), w)
        assert dense_first_cover(body, placements, w[None], 0.0)[0] == -1


@PROPERTY_SETTINGS
@given(any_bodies(), seeds, st.integers(0, 12), st.floats(0.2, 0.6), st.booleans())
@example(ConvexBody.cube(2), 0, 0, 0.5, False)  # the empty family
def test_entry_points_give_the_same_for_a_list_and_its_columns(body, seed, count, eps, whole):
    """first_cover, certify_cover and verdict_to_dict read a list of
    HomothetPlacement and ``Homothets.of`` of it alike, the empty family too."""
    rng = np.random.default_rng(seed)
    placements = random_placements(body, rng, count)
    try:
        net = budget_net(body, eps)
        if whole:  # unit copies on a 1/2-net cover K even after the shrink
            placements += [HomothetPlacement(y, 1.0)
                           for y in budget_net(body, 0.5).points]
    except NetTooLarge:
        return  # a sliver body: its net would need millions of points
    family = Homothets.of(placements)
    lo, hi = body.vertex_bbox
    pts = rng.uniform(lo, hi, size=(300, body.dim))
    assert np.array_equal(first_cover(body, placements, pts, 0.01),
                          first_cover(body, family, pts, 0.01))
    if not placements:
        for given_family in (placements, family):
            with pytest.raises(ValueError):
                certify_cover(body, given_family, eps, net=net)
        verdicts = [CoverageVerdict(UNKNOWN, eps)] * 2
    else:
        verdicts = [certify_cover(body, p, eps, net=net) for p in (placements, family)]
        a, b = (v.assignment for v in verdicts)
        assert (a is None and b is None) or np.array_equal(a, b)
    assert verdict_to_dict(verdicts[0], body, placements) == \
        verdict_to_dict(verdicts[1], body, family)


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 200, 2 ** 200),
    st.floats(), st.sampled_from([-0.0, 1e-300, math.nan, math.inf, -math.inf]), st.text())


def json_containers(children):
    return st.one_of(st.lists(children), st.lists(children).map(tuple),
                     st.dictionaries(st.text(), children))


@PROPERTY_SETTINGS
@given(st.recursive(json_scalars, json_containers, max_leaves=40))
def test_json_writer_matches_json_dumps(obj):
    assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=1)


numpy_leaves = st.one_of(
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
    hnp.from_dtype(np.dtype(np.float64)), hnp.from_dtype(np.dtype(np.float32)),
    hnp.from_dtype(np.dtype(np.int64)), hnp.from_dtype(np.dtype(np.bool_)),
).map(lambda a: (a, a.tolist() if isinstance(a, np.ndarray) else a.item()))


def paired_containers(children):
    """Containers of (numpy form, plain form) pairs, as a pair of containers."""
    return st.one_of(
        st.lists(children).map(lambda ps: ([p[0] for p in ps], [p[1] for p in ps])),
        st.dictionaries(st.text(), children).map(
            lambda d: ({k: p[0] for k, p in d.items()}, {k: p[1] for k, p in d.items()})))


@PROPERTY_SETTINGS
@given(st.recursive(numpy_leaves | json_scalars.map(lambda x: (x, x)), paired_containers,
                    max_leaves=20))
def test_json_writer_converts_numpy_inline(pair):
    with_numpy, plain = pair
    assert _dumps(with_numpy) == json.dumps(plain, sort_keys=True, indent=1)


column_floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308]))


@PROPERTY_SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(column_floats, min_size=n, max_size=n),
                         min_size=1, max_size=50))))
@example((2, [[-0.0, 5e-324], [1e308, -1e308]]))
def test_column_codec_round_trips_bit_for_bit(case):
    n, rows = case
    values = np.array(rows, dtype=float)
    text = encode_column(values, "<f8")
    decoded = decode_column(text, "<f8", len(rows) * n)
    assert decoded.reshape(len(rows), n).tobytes() == values.tobytes()
    assert decode_column(text, "<f8").tobytes() == values.tobytes()  # any whole count
    assert decode_column(text, "<f8", len(rows) * n + 1) is None
    ints = np.arange(len(rows) * n, dtype=np.int64) - 7
    assert decode_column(encode_column(ints, "<i4"), "<i4", ints.size).tolist() == ints.tolist()
