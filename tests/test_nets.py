import math
from unittest import mock

import numpy as np
import pytest

from homcover import nets
from homcover.bodies import ConvexBody, MinkowskiCombo, combo_contains
from homcover.nets import NetTooLarge, build_net, default_epsilon
from homcover.randvol import RngSpec, sample_uniform_body


def test_square_half_epsilon_net_size():
    net = build_net(ConvexBody.cube(2), 0.5)
    assert net.size <= 49
    assert np.all(np.abs(net.points) <= 1.5 + 1e-12)
    assert net.size <= (5.0 / 0.5) ** 2  # the cardinality reference
    assert net.grid_spacing <= 2 * 0.5 / math.sqrt(2)


def test_spacing_inradius_invariant():
    for body, eps in ((ConvexBody.cube(2), 0.5), (ConvexBody.simplex(3), 0.25),
                      (ConvexBody.cross_polytope(2), 0.1)):
        net = build_net(body, eps)
        assert net.grid_spacing * math.sqrt(body.dim) / 2 <= net.certified_inradius


def test_net_points_inside_difference_combination():
    for body, eps in ((ConvexBody.cube(2), 0.25), (ConvexBody.simplex(2), 0.25)):
        net = build_net(body, eps)
        combo = MinkowskiCombo(body, 1.0, eps)
        assert combo_contains(combo, net.points).all()


def test_full_epsilon_net_certifies():
    body = ConvexBody.cube(2)
    net = build_net(body, 1.0)
    assert net.size <= 9
    probes = sample_uniform_body(body, RngSpec(6), 20_000)
    _, ok = net.covering_indices(probes)
    assert ok.all()


def test_triangle_probe_certification():
    body = ConvexBody.simplex(2)
    net = build_net(body, 0.25)
    probes = sample_uniform_body(body, RngSpec(7), 10_000)
    idx, ok = net.covering_indices(probes)
    assert ok.all()
    # every returned assignment is a genuine membership x in y + eps*K
    A, b = body.halfspaces
    diffs = probes - net.points[idx]
    assert np.all(diffs @ A.T <= 0.25 * b + 1e-9)


def test_epsilon_validation_and_size_guard():
    body = ConvexBody.cube(2)
    with pytest.raises(ValueError):
        build_net(body, 0.0)
    with pytest.raises(ValueError):
        build_net(body, 1.2)
    with mock.patch.object(nets, "MAX_NET_POINTS", 1000), pytest.raises(NetTooLarge):
        build_net(body, 0.001)


def test_default_epsilon_values():
    assert default_epsilon(3) == pytest.approx(1e-3)  # negative numerator, floor wins
    assert default_epsilon(100) == pytest.approx(0.8158 / (100 * math.log(100)), rel=1e-3)
    assert default_epsilon(9) == pytest.approx(0.02347 / (9 * math.log(9)), rel=1e-2)
    assert default_epsilon(9) > 1e-3
    with pytest.raises(ValueError):
        default_epsilon(1)


def test_shrinkage_implication_geometry(np_rng):
    # x in y + eps*K and y in c + (lam - eps)*K imply x in c + lam*K
    body = ConvexBody.simplex(2)
    eps = 0.2
    k_pts = sample_uniform_body(body, RngSpec(50), 10_000)
    k_pts2 = sample_uniform_body(body, RngSpec(51), 10_000)
    centers = np_rng.uniform(-1, 1, size=(10_000, 2))
    lams = np_rng.uniform(eps, 1.0, size=(10_000, 1))
    y = centers + (lams - eps) * k_pts
    x = y + eps * k_pts2
    A, b = body.halfspaces
    assert np.all((x - centers) @ A.T <= lams * b + 1e-9)


def test_vrep_triangle_net():
    # 2-D vertex bodies get exact dilation halfspaces, so nets certify too
    body = ConvexBody.from_vertices([[0, 0], [1, 0], [0, 1]])
    net = build_net(body, 0.25)
    probes = sample_uniform_body(body, RngSpec(8), 5000)
    _, ok = net.covering_indices(probes)
    assert ok.all()
