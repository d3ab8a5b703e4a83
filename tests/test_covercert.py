import base64

import numpy as np
import pytest

from homcover import covercert

from homcover.bodies import ConvexBody, HomothetPlacement, covered_by_union
from homcover.covercert import (
    CERTIFIED,
    REFUTED,
    UNKNOWN,
    certify_cover,
    decide_cover,
    decode_column,
    encode_column,
    recheck_certificate,
    refute_cover,
    verdict_to_dict,
)
from homcover.nets import build_net
from homcover.randvol import RngSpec, sample_uniform_body

SQUARE = ConvexBody.cube(2)


def quadrant_placements(offset, lam):
    return [HomothetPlacement(np.array([sx * offset, sy * offset]), lam)
            for sx in (-1, 1) for sy in (-1, 1)]


def test_margin_configuration_certifies():
    verdict = certify_cover(SQUARE, quadrant_placements(0.45, 0.6), 0.05)
    assert verdict.status == CERTIFIED
    assert verdict.assignment is not None and (verdict.assignment >= 0).all()


def test_certified_configuration_is_sound():
    placements = quadrant_placements(0.45, 0.6)
    verdict = certify_cover(SQUARE, placements, 0.05)
    assert verdict.status == CERTIFIED
    probes = sample_uniform_body(SQUARE, RngSpec(77), 100_000)
    assert covered_by_union(SQUARE, placements, probes).all()


def test_exactly_tight_configurations_stay_unknown():
    # the shrinkage certificate is sufficient, not necessary: coverings with
    # zero slack at the corners (or anywhere) cannot be certified
    tight_corner = quadrant_placements(0.4, 0.6)   # corners covered with zero margin
    assert certify_cover(SQUARE, tight_corner, 0.05).status == UNKNOWN
    tight_center = quadrant_placements(0.5, 0.5)   # exact tiling, tight at the center
    assert certify_cover(SQUARE, tight_center, 0.05).status == UNKNOWN
    single_full = [HomothetPlacement(np.zeros(2), 1.0)]
    assert certify_cover(SQUARE, single_full, 0.05).status == UNKNOWN
    # yet the underlying coverings are real: the falsifier finds no witness
    for placements in (tight_corner, tight_center, single_full):
        assert refute_cover(SQUARE, placements, RngSpec(3), 20_000).status == UNKNOWN


def test_refute_finds_the_uncovered_quadrant():
    placements = [HomothetPlacement(np.array(c), 0.6)
                  for c in ([0.4, 0.4], [-0.4, 0.4], [-0.4, -0.4])]
    verdict = refute_cover(SQUARE, placements, RngSpec(5), 100_000)
    assert verdict.status == REFUTED
    w = verdict.witness
    assert w.base is None  # a copy: the verdict does not keep the probe array alive
    assert w[0] > 0.2 and w[1] < -0.2  # the region no homothet reaches
    assert SQUARE.contains(w, "closed")
    assert not covered_by_union(SQUARE, placements, w[None, :])[0]


def test_refute_with_no_placements():
    verdict = refute_cover(SQUARE, [], RngSpec(1), 100)
    assert verdict.status == REFUTED and verdict.probes_used == 1


def test_decide_cover_tri_state():
    rng = RngSpec(11)
    assert decide_cover(SQUARE, quadrant_placements(0.45, 0.6), 0.05, rng, 5000).status == CERTIFIED
    three = quadrant_placements(0.45, 0.6)[:3]
    assert decide_cover(SQUARE, three, 0.05, rng, 5000).status == REFUTED
    tight = quadrant_placements(0.5, 0.5)
    assert decide_cover(SQUARE, tight, 0.05, rng, 5000).status == UNKNOWN


def test_monotone_in_placements_and_epsilon():
    placements = quadrant_placements(0.45, 0.6)
    base = certify_cover(SQUARE, placements, 0.05)
    assert base.status == CERTIFIED
    extra = placements + [HomothetPlacement(np.zeros(2), 0.3)]
    assert certify_cover(SQUARE, extra, 0.05).status == CERTIFIED
    finer = certify_cover(SQUARE, placements, 0.02)
    assert finer.status == CERTIFIED


def test_net_reuse_requires_matching_parameters():
    net = build_net(SQUARE, 0.05)
    placements = quadrant_placements(0.45, 0.6)
    v = certify_cover(SQUARE, placements, 0.05, net=net)
    assert v.status == CERTIFIED
    with pytest.raises(ValueError):
        certify_cover(SQUARE, placements, 0.1, net=net)


def test_small_ratio_contributes_nothing():
    placements = quadrant_placements(0.45, 0.6) + [HomothetPlacement(np.zeros(2), 0.01)]
    v = certify_cover(SQUARE, placements, 0.05)
    assert v.status == CERTIFIED
    assert not np.any(v.assignment == 4)  # the shrunken tiny copy is empty


def test_cross_body_certificate():
    target = ConvexBody.cube(2, scale=1.8)
    pieces = ConvexBody.cube(2)
    placements = [HomothetPlacement(np.array([sx * 0.9, sy * 0.9]), 1.0)
                  for sx in (-1, 1) for sy in (-1, 1)]
    verdict = certify_cover(target, placements, 0.02, pieces_body=pieces)
    assert verdict.status == CERTIFIED
    assert verdict.shrink == pytest.approx(0.02 * 1.8)
    probes = sample_uniform_body(target, RngSpec(13), 50_000)
    assert covered_by_union(pieces, placements, probes).all()


def test_certificate_roundtrip_and_tamper_detection():
    placements = quadrant_placements(0.45, 0.6)
    verdict = certify_cover(SQUARE, placements, 0.05)
    cert = verdict_to_dict(verdict, SQUARE, placements)
    assert recheck_certificate(cert)
    a = _decoded(cert)
    a[0] = (a[0] + 1) % 4
    assert not recheck_certificate(dict(cert, assignment=_encoded(a)))

    ref = refute_cover(SQUARE, placements[:3], RngSpec(5), 50_000)
    cert_r = verdict_to_dict(ref, SQUARE, placements[:3])
    assert recheck_certificate(cert_r)
    cert_bad = dict(cert_r, witness=[0.0, 0.0])  # interior point is covered
    assert not recheck_certificate(cert_bad)


def _decoded(cert):
    """The embedded assignment as a writable int32 array."""
    return np.frombuffer(base64.b64decode(cert["assignment"], validate=True), dtype="<i4").copy()


def _encoded(a):
    return base64.b64encode(np.asarray(a, dtype="<i4").tobytes()).decode("ascii")


def _columns(cert):
    """The decoded centres (one row per copy) and ratios, writable."""
    ratios = decode_column(cert["ratios"], "<f8").copy()
    centers = decode_column(cert["centers"], "<f8", ratios.size * cert["body"]["dim"])
    return centers.reshape(ratios.size, -1).copy(), ratios


def _edit(fn):
    """A tamper that edits the decoded assignment and re-encodes it."""
    return lambda cert: _encoded(fn(_decoded(cert), cert))


def _with(a, j, value):
    a[j] = value
    return a


def _miss(cert, j):
    """Index of a quadrant copy whose shrunken copy misses net point j."""
    net = build_net(SQUARE, cert["epsilon"])
    y = net.points[j]
    centers, ratios = _columns(cert)
    return next(i for i in range(4)
                if np.max(np.abs(y - centers[i])) > ratios[i] - cert["shrink"])


@pytest.mark.parametrize("tamper", [
    _edit(lambda a, cert: np.append(a, 0)),
    _edit(lambda a, cert: _with(a, 0, -1)),
    _edit(lambda a, cert: _with(a, 0, 5)),
    _edit(lambda a, cert: np.append(a, a[0])),
    _edit(lambda a, cert: _with(a, 0, _miss(cert, 0))),
    _edit(lambda a, cert: _with(a, 0, 4)),
    lambda cert: base64.b64encode(_decoded(cert).tobytes() + b"\0").decode("ascii"),  # 4n + 1 bytes
    lambda cert: cert["assignment"][:4] + "!" + cert["assignment"][4:],
    lambda cert: [[j, int(i)] for j, i in enumerate(_decoded(cert))],
    _edit(lambda a, cert: a[:-1]),
], ids=["net-index-out-of-range", "copy-index-negative", "copy-index-out-of-range",
        "duplicate-net-index", "copy-misses-point", "copy-shrunk-to-nothing",
        "non-integer-index", "not-base64", "schema-1-pair-list", "net-point-left-out"])
def test_tampered_assignment_is_rejected(tamper):
    placements = quadrant_placements(0.45, 0.6) + [HomothetPlacement(np.zeros(2), 0.01)]
    cert = verdict_to_dict(certify_cover(SQUARE, placements, 0.05), SQUARE, placements)
    assert recheck_certificate(cert)
    assert not recheck_certificate(dict(cert, assignment=tamper(cert)))


def _set(column, j, value):
    """A tamper that sets value j of a float64 column."""
    def tamper(cert):
        a = decode_column(cert[column], "<f8").copy()
        a[j] = value
        return dict(cert, **{column: encode_column(a, "<f8")})
    return tamper


def _schema_2(cert):
    """The certificate in the schema-2 layout: a ``placements`` list of dicts."""
    centers, ratios = _columns(cert)
    old = {k: v for k, v in cert.items() if k not in ("centers", "ratios")}
    return dict(old, schemaVersion=2, placements=[
        {"center": c, "ratio": r} for c, r in zip(centers.tolist(), ratios.tolist())])


@pytest.mark.parametrize("tamper", [
    lambda cert: dict(cert, centers=encode_column(_columns(cert)[0].ravel()[:-1], "<f8")),
    _set("ratios", 0, np.nan),
    _set("ratios", 1, np.inf),
    _set("centers", 2, -np.inf),
    _set("ratios", 0, 1.5),
    lambda cert: dict(cert, ratios=encode_column(np.append(_columns(cert)[1], 0.5), "<f8")),
    lambda cert: dict(cert, centers=cert["centers"][:4] + "!" + cert["centers"][4:]),
    lambda cert: dict(cert, centers=_columns(cert)[0].tolist()),
    lambda cert: dict(cert, ratios=None),
    lambda cert: dict(cert, schemaVersion=2),
    _schema_2,
], ids=["centers-one-value-short", "ratio-nan", "ratio-infinite", "center-infinite",
        "ratio-above-one", "ratios-longer-than-centers", "centers-not-base64",
        "centers-json-list", "ratios-null", "schema-2-version", "schema-2-layout"])
@pytest.mark.parametrize("status", [CERTIFIED, REFUTED])
def test_tampered_columns_are_rejected(tamper, status):
    placements = quadrant_placements(0.45, 0.6)
    if status == CERTIFIED:
        verdict = certify_cover(SQUARE, placements, 0.05)
    else:
        placements = placements[:3]
        verdict = refute_cover(SQUARE, placements, RngSpec(5), 50_000)
    cert = verdict_to_dict(verdict, SQUARE, placements)
    assert verdict.status == status and recheck_certificate(cert)
    assert not recheck_certificate(tamper(cert))


def test_certificate_dict_holds_plain_json_types():
    placements = quadrant_placements(0.45, 0.6)
    certified = certify_cover(SQUARE, placements, 0.05)
    refuted = refute_cover(SQUARE, placements[:3], RngSpec(5), 50_000)
    plain = (dict, list, str, int, float, bool, type(None))

    def walk(value):
        assert type(value) in plain, type(value)
        children = value.values() if isinstance(value, dict) else \
            value if isinstance(value, list) else ()
        for child in children:
            walk(child)

    for verdict, copies in ((certified, placements), (refuted, placements[:3])):
        cert = verdict_to_dict(verdict, SQUARE, copies)
        walk(cert)
        centers, ratios = _columns(cert)
        assert centers.tobytes() == np.array([pl.center for pl in copies]).tobytes()
        assert ratios.tolist() == [pl.ratio for pl in copies]


def test_large_certificate_is_replayed_without_search(monkeypatch):
    placements = quadrant_placements(0.45, 0.6)
    cert = verdict_to_dict(certify_cover(SQUARE, placements, 0.003), SQUARE, placements)
    assert cert["net"]["size"] > 200_000

    def no_search(*args, **kwargs):
        raise AssertionError("verification must not re-run the search")

    monkeypatch.setattr(covercert, "certify_cover", no_search)
    monkeypatch.setattr(covercert, "first_cover", no_search)
    assert recheck_certificate(cert)
    a = _decoded(cert)
    a[0] = _miss(cert, 0)
    assert not recheck_certificate(dict(cert, assignment=_encoded(a)))


def test_certify_input_validation():
    with pytest.raises(ValueError):
        certify_cover(SQUARE, [], 0.05)
    with pytest.raises(ValueError):
        certify_cover(SQUARE, quadrant_placements(0.4, 0.6), 1.5)
    with pytest.raises(ValueError):
        refute_cover(SQUARE, [], RngSpec(0), 0)
