import base64
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import homcover
from homcover import cli, fnsched
from homcover.bodies import ConvexBody, HomothetPlacement, random_vrep_body
from homcover.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, dispatch
from homcover.covercert import (certify_cover, decode_column, encode_column, refute_cover,
                                verdict_to_dict)
from homcover.randvol import RngSpec


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_bounds_table(tmp_path):
    out = tmp_path / "bounds.json"
    code = dispatch(["bounds", "--dim", "3", "--body", "cube", "--out", str(out)])
    assert code == EXIT_OK
    payload = read_json(out)
    assert payload["scheduleBound"] == 149
    manifest = read_json(str(out) + ".manifest.json")
    assert manifest["outputs"][0]["path"] == "bounds.json"


def test_volume_subcommand(tmp_path):
    out = tmp_path / "vol.json"
    code = dispatch(["volume", "--body", "cube", "--dim", "2", "--samples", "2000",
                     "--seed", "4", "--out", str(out)])
    assert code == EXIT_OK
    payload = read_json(out)
    assert payload["mean"] == pytest.approx(4.0)
    assert payload["ci95"][0] <= payload["mean"] <= payload["ci95"][1]


def test_net_subcommand(tmp_path):
    out = tmp_path / "net.json"
    code = dispatch(["net", "--body", "cube", "--dim", "2", "--epsilon", "0.5",
                     "--out", str(out)])
    assert code == EXIT_OK
    payload = read_json(out)
    assert payload["size"] <= 49
    assert payload["cardinalityReference"] == pytest.approx(100.0)


def test_cover_subcommand_with_rows(tmp_path):
    out = tmp_path / "cover.json"
    rows = tmp_path / "rows.csv"
    code = dispatch(["cover", "--body", "cube", "--dim", "2", "--lambda", "0.9",
                     "--count", "20", "--trials", "10", "--seed", "7",
                     "--epsilon", "0.05", "--probes", "2000",
                     "--out", str(out), "--rows", str(rows)])
    assert code == EXIT_OK
    payload = read_json(out)
    assert payload["trials"] == 10
    lines = rows.read_text().strip().splitlines()
    assert lines[0] == "trialId,verdict,witness"
    assert len(lines) == 11


def test_cover_determinism_byte_identical(tmp_path):
    args = ["cover", "--body", "cube", "--dim", "2", "--lambda", "0.9",
            "--count", "15", "--trials", "8", "--seed", "21",
            "--epsilon", "0.05", "--probes", "1000"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert dispatch(args + ["--out", str(out1)]) == EXIT_OK
    assert dispatch(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    d1 = read_json(str(out1) + ".manifest.json")["outputs"][0]["sha256"]
    d2 = read_json(str(out2) + ".manifest.json")["outputs"][0]["sha256"]
    assert d1 == d2


def test_verify_roundtrip_and_tamper(tmp_path):
    square = ConvexBody.cube(2)
    placements = [HomothetPlacement(np.array([sx * 0.45, sy * 0.45]), 0.6)
                  for sx in (-1, 1) for sy in (-1, 1)]
    verdict = certify_cover(square, placements, 0.05)
    cert = verdict_to_dict(verdict, square, placements)
    good = tmp_path / "cert.json"
    good.write_text(json.dumps(cert))
    assert dispatch(["verify", "--certificate", str(good)]) == EXIT_OK

    cert_bad = json.loads(good.read_text())
    a = np.frombuffer(base64.b64decode(cert_bad["assignment"]), dtype="<i4").copy()
    a[0] = (a[0] + 1) % 4
    cert_bad["assignment"] = base64.b64encode(a.tobytes()).decode("ascii")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert_bad))
    assert dispatch(["verify", "--certificate", str(bad)]) == EXIT_VERIFY


def _quadrant_certificates():
    """A certified and a refuted covering certificate of the square."""
    square = ConvexBody.cube(2)
    placements = [HomothetPlacement(np.array([sx * 0.45, sy * 0.45]), 0.6)
                  for sx in (-1, 1) for sy in (-1, 1)]
    certified = verdict_to_dict(certify_cover(square, placements, 0.05), square, placements)
    refuted = verdict_to_dict(refute_cover(square, placements[:3], RngSpec(5), 50_000),
                              square, placements[:3])
    return certified, refuted


def test_verify_takes_no_seed_or_out(tmp_path):
    certified, _ = _quadrant_certificates()
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certified))
    assert dispatch(["verify", "--certificate", str(path)]) == EXIT_OK
    for extra in (["--seed", "1"], ["--out", str(tmp_path / "verify.json")]):
        assert dispatch(["verify", "--certificate", str(path), *extra]) == EXIT_INPUT
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cert.json"]


def test_verify_body_overrides_the_embedded_one(tmp_path):
    certified, _ = _quadrant_certificates()
    cert, body = tmp_path / "cert.json", tmp_path / "body.json"
    cert.write_text(json.dumps(certified))
    body.write_text(json.dumps(certified["body"]))
    assert dispatch(["verify", "--certificate", str(cert), "--body", str(body)]) == EXIT_OK
    body.write_text(json.dumps({"kind": "cube", "dim": 2, "scale": 2.0}))
    assert dispatch(["verify", "--certificate", str(cert), "--body", str(body)]) == EXIT_VERIFY


def test_verify_rejects_a_raised_membership_tolerance(tmp_path):
    certified, _ = _quadrant_certificates()
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(certified, membershipTolerance=1.0)))
    assert dispatch(["verify", "--certificate", str(path)]) == EXIT_VERIFY


@pytest.mark.parametrize("malform", [
    lambda cov, ref: [],
    lambda cov, ref: dict(cov, epsilon=None),
    lambda cov, ref: dict(cov, piecesBody=None),
    lambda cov, ref: dict(ref, witness=None),
    lambda cov, ref: dict(cov, body="cube"),
    lambda cov, ref: dict(cov, net=None),
    lambda cov, ref: {"schemaVersion": 1, "type": "illumination", "status": "unknown",
                      "body": {"kind": "cube", "dim": 2}, "sources": None},
], ids=["top-level-list", "epsilon-null", "pieces-body-null", "witness-null",
        "body-string", "net-null", "sources-null"])
def test_malformed_certificates_exit_2(tmp_path, malform):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(malform(*_quadrant_certificates())))
    assert dispatch(["verify", "--certificate", str(path)]) == EXIT_INPUT


_CORNERS = [[2.0, 2.0], [-2.0, 2.0], [2.0, -2.0], [-2.0, -2.0]]


@pytest.mark.parametrize("status,sources,code", [
    ("unknown", _CORNERS, EXIT_OK),
    ("falsified", _CORNERS[:3], EXIT_OK),
    ("unknown", 3.0, EXIT_INPUT),
    ("unknown", [["a", 0]], EXIT_INPUT),
    ("unknown", [[3.0, 0.0], [3.0]], EXIT_VERIFY),
    ("unknown", [[3.0, 0.0, 0.0]], EXIT_VERIFY),
    ("unknown", [3.0, 0.0], EXIT_VERIFY),
    ("falsified", _CORNERS[:3] + [[np.nan, np.nan]], EXIT_VERIFY),
    ("falsified", _CORNERS[:3] + [[-np.inf, -np.inf]], EXIT_VERIFY),
    ("unknown", _CORNERS + [[np.nan, np.nan]], EXIT_VERIFY),
    ("unknown", _CORNERS + [[np.inf, 0.0]], EXIT_VERIFY),
], ids=["corners", "three-corners-falsified", "number", "string", "ragged", "3d-point",
        "flat", "falsified-nan", "falsified-inf", "unknown-nan", "unknown-inf"])
def test_verify_illumination_certificate_sources(tmp_path, status, sources, code):
    """Sources of a JSON type other than numbers in lists exit 2 (``null``:
    ``test_malformed_certificates_exit_2``); sources of the wrong shape, and
    non-finite ones, fail replay with exit 4."""
    cert = {"schemaVersion": 1, "type": "illumination", "status": status,
            "body": {"kind": "cube", "dim": 2}, "sources": sources}
    if status == "falsified":
        cert["witness"] = [-1.0, -1.0]  # the corner the first three sources leave unlit
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert dispatch(["verify", "--certificate", str(path)]) == code


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("witness,code", [
    ([0.5, 0.5, 0.0], EXIT_INPUT),
    ("a", EXIT_INPUT),
    ([np.nan, np.nan], EXIT_VERIFY),
    ([np.inf, 0.0], EXIT_VERIFY),
], ids=["3d-point", "string", "nan", "inf"])
def test_verify_refuted_covering_witness(tmp_path, witness, code):
    """A witness of the wrong dimension or JSON type exits 2; a non-finite
    one is rejected before any product with it, and replay fails with exit 4."""
    _, refuted = _quadrant_certificates()
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(refuted, witness=witness)))
    assert dispatch(["verify", "--certificate", str(path)]) == code


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("witness", [[np.inf, 0.0], [np.nan, 0.0], [-np.inf, -1.0]],
                         ids=["inf", "nan", "minus-inf"])
def test_verify_non_finite_illumination_witness(tmp_path, witness):
    """A falsified illumination certificate whose witness is not finite fails
    replay with exit 4, before any product with the witness."""
    cert = {"schemaVersion": 1, "type": "illumination", "status": "falsified",
            "body": {"kind": "cube", "dim": 2}, "sources": _CORNERS[:3], "witness": witness}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert dispatch(["verify", "--certificate", str(path)]) == EXIT_VERIFY


def _ratios(cert):
    return decode_column(cert["ratios"], "<f8").copy()


def _set_ratio(j, value):
    """A tamper that sets ratio j."""
    def tamper(cert):
        ratios = _ratios(cert)
        ratios[j] = value
        return dict(cert, ratios=encode_column(ratios, "<f8"))
    return tamper


def _schema_2(cert):
    """The certificate in the schema-2 layout: a ``placements`` list of dicts."""
    ratios = _ratios(cert)
    centers = decode_column(cert["centers"], "<f8", 2 * ratios.size).reshape(-1, 2)
    old = {k: v for k, v in cert.items() if k not in ("centers", "ratios")}
    return dict(old, schemaVersion=2, placements=[
        {"center": c, "ratio": r} for c, r in zip(centers.tolist(), ratios.tolist())])


@pytest.mark.parametrize("tamper", [
    lambda cert: dict(cert, centers=encode_column(
        decode_column(cert["centers"], "<f8")[:-1], "<f8")),
    _set_ratio(0, np.nan),
    _set_ratio(1, np.inf),
    lambda cert: dict(cert, ratios=encode_column(np.append(_ratios(cert), 0.5), "<f8")),
    lambda cert: dict(cert, centers=cert["centers"][:4] + "!" + cert["centers"][4:]),
    lambda cert: dict(cert, centers=decode_column(cert["centers"], "<f8").tolist()),
    _schema_2,
], ids=["centers-one-value-short", "ratio-nan", "ratio-infinite", "ratios-longer-than-centers",
        "centers-not-base64", "centers-json-list", "schema-2-layout"])
@pytest.mark.parametrize("which", ["certified", "refuted"])
def test_tampered_placement_columns_exit_4(tmp_path, tamper, which):
    certified, refuted = _quadrant_certificates()
    cert = certified if which == "certified" else refuted
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(cert))
    bad.write_text(json.dumps(tamper(cert)))
    assert dispatch(["verify", "--certificate", str(good)]) == EXIT_OK
    assert dispatch(["verify", "--certificate", str(bad)]) == EXIT_VERIFY


def test_verify_witness_certificate(tmp_path):
    square = ConvexBody.cube(2)
    placements = [HomothetPlacement(np.array(c), 0.6)
                  for c in ([0.4, 0.4], [-0.4, 0.4], [-0.4, -0.4])]
    verdict = refute_cover(square, placements, RngSpec(5), 50_000)
    cert = verdict_to_dict(verdict, square, placements)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(cert))
    assert dispatch(["verify", "--certificate", str(path)]) == EXIT_OK


def test_fn_schedule_certificate_roundtrip(tmp_path):
    out = tmp_path / "plan.json"
    cert = tmp_path / "cert.json"
    code = dispatch(["fn-schedule", "--body", "cube", "--dim", "2",
                     "--lambda", "0.9", "--count", "300", "--seed", "9",
                     "--out", str(out), "--certificate", str(cert)])
    assert code == EXIT_OK
    payload = read_json(out)
    assert payload["status"] == "certified"
    assert payload["info"]["branch"] == "A"
    assert dispatch(["verify", "--certificate", str(cert)]) == EXIT_OK


def test_fn_schedule_columns_decode_to_the_pieces(tmp_path):
    flags = ["--lambda", "0.9", "--count", "300", "--seed", "9"]
    out = tmp_path / "plan.json"
    assert dispatch(["fn-schedule", "--body", "cube", "--dim", "2", *flags,
                     "--out", str(out)]) == EXIT_OK
    payload = read_json(out)
    cons = fnsched.schedule_covering(ConvexBody.cube(2), fnsched.RatioSequence((0.9,) * 300, 2),
                                     RngSpec(9))
    count = cons.index.size
    columns = payload["placements"]
    index = decode_column(columns["index"], "<i4", count)
    centers = decode_column(columns["centers"], "<f8", 2 * count).reshape(count, 2)
    ratios = decode_column(columns["ratios"], "<f8", count)
    phase = decode_column(columns["phase"], "u1", count)
    assert payload["schemaVersion"] == 3
    assert payload["phaseCodes"] == ["prop1", "random", "patch"]
    assert index.tolist() == cons.index.tolist()
    assert centers.tobytes() == cons.placements.centers.tobytes()
    assert ratios.tobytes() == cons.placements.ratios.tobytes()
    assert phase.tobytes() == cons.phase.tobytes()
    assert [payload["phaseCodes"][c] for c in phase] == ["prop1"] * count


def test_net_on_a_body_whose_simplex_is_inaccurate(tmp_path):
    # the Chebyshev simplex overshoots a facet of this body by 4.1e-07
    body = tmp_path / "vrep5.json"
    body.write_text(json.dumps(random_vrep_body(5, 12, np.random.default_rng(92)).to_spec()))
    out = tmp_path / "net.json"
    assert dispatch(["net", "--body", str(body), "--epsilon", "0.9", "--out", str(out)]) == EXIT_OK
    assert read_json(out)["size"] == 4966


def test_numeric_failures_exit_3(tmp_path):
    from homcover.cli import EXIT_NUMERIC

    # a net this fine exceeds the point budget before materialization
    code = dispatch(["net", "--body", "cube", "--dim", "3", "--epsilon", "0.001",
                     "--out", str(tmp_path / "net.json")])
    assert code == EXIT_NUMERIC
    # ratios this small leave a dyadic class whose cube volume underflows to 0
    for ratio, count in (("1e-300", "5"), ("5e-324", "3")):
        assert dispatch(["fn-schedule", "--body", "cube", "--dim", "2", "--lambda", ratio,
                         "--count", count, "--out", str(tmp_path / "plan.json")]) == EXIT_NUMERIC


def test_input_errors_exit_2(tmp_path):
    assert dispatch(["cover", "--body", "cube", "--dim", "2", "--trials", "1"]) == EXIT_INPUT
    assert dispatch(["volume", "--body", "nosuchfile.json", "--dim", "2"]) == EXIT_INPUT
    assert dispatch(["bounds", "--body", "cube"]) == EXIT_INPUT  # missing --dim
    assert dispatch(["nonsense"]) == EXIT_INPUT
    assert dispatch(["cover", "--dim", "2", "--body", "cube", "--lambda", "0.5", "--count", "9",
                     "--threads", "-1"]) == EXIT_INPUT
    # --threads only on the commands that test coverage
    for command in ("volume", "net", "bounds"):
        assert dispatch([command, "--dim", "2", "--body", "cube", "--threads", "1"]) == EXIT_INPUT
    # the combination's coefficients and its bounding box must be finite
    for coeffs in (["--plus", "nan"], ["--minus", "inf"], ["--plus", "1e308", "--minus", "1e308"]):
        assert dispatch(["volume", "--body", "cube", "--dim", "2", *coeffs]) == EXIT_INPUT
    # the separation radius 1/(2 n ln n) needs n >= 2
    assert dispatch(["fn-schedule", "--body", "cube", "--dim", "1", "--lambda", "0.5",
                     "--count", "100", "--out", str(tmp_path / "plan.json")]) == EXIT_INPUT
    # the desk-mode multiplier must be finite and positive
    for scale in ("-1", "0", "nan", "inf"):
        assert dispatch(["fn-schedule", "--dim", "2", "--body", "cube", "--lambda", "0.9",
                         "--count", "300", "--scale", scale]) == EXIT_INPUT
    # a bad probe count fails before any trial, whatever the trials decide
    assert dispatch(["cover", "--body", "cube", "--dim", "2", "--lambda", "0.9", "--count", "43",
                     "--trials", "2", "--probes", "-5", "--seed", "3"]) == EXIT_INPUT
    assert dispatch(["illuminate", "--body", "cube", "--dim", "2", "--trials", "2",
                     "--epsilon", "0.5", "--probes", "-3", "--seed", "3"]) == EXIT_INPUT


def test_ratio_file_is_read(tmp_path):
    ratios = tmp_path / "ratios.json"
    ratios.write_text(json.dumps([0.9] * 15))
    out = tmp_path / "cover.json"
    assert dispatch(["cover", "--body", "cube", "--dim", "2", "--ratios", str(ratios),
                     "--trials", "2", "--seed", "21", "--epsilon", "0.05",
                     "--probes", "1000", "--out", str(out)]) == EXIT_OK
    assert read_json(out)["ratios"] == [0.9] * 15


@pytest.mark.parametrize("content", ["0.5", "[null, 0.5]", '["0.5"]', "[true]", "[NaN]",
                                     "[1" + "0" * 400 + "]", '{"ratios": [0.5]}'])
def test_malformed_ratio_files_exit_2(tmp_path, content):
    ratios = tmp_path / "ratios.json"
    ratios.write_text(content)
    out = tmp_path / "plan.json"
    assert dispatch(["fn-schedule", "--body", "cube", "--dim", "2", "--ratios", str(ratios),
                     "--out", str(out)]) == EXIT_INPUT
    assert not out.exists()


def test_body_json_file(tmp_path):
    body_file = tmp_path / "tri.json"
    body_file.write_text(json.dumps(
        {"kind": "vrep", "dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}))
    out = tmp_path / "vol.json"
    code = dispatch(["volume", "--body", str(body_file), "--plus", "1",
                     "--minus", "1", "--samples", "20000", "--seed", "2",
                     "--out", str(out)])
    assert code == EXIT_OK
    payload = read_json(out)
    assert payload["ci95"][0] <= 3.0 <= payload["ci95"][1]
    assert payload["exactBodyVolume"] == pytest.approx(0.5, rel=1e-12)


# sha256 of the --out result and of the --certificate file for one small run
# of each branch, pinned so that a change to these bytes is never silent
PINNED_FN_SCHEDULE = [
    (["--lambda", "0.9", "--count", "300", "--seed", "9"],
     "557f1e59a8d9d21f60a6a5fcb41522d6e84fb2c825c270bd0688e9ac4b496ca8",
     "1c60dcd1940e7b089811edda2a95ee9bea64ac0648b28305a7cf776951f3938b"),
    (["--lambda", "0.03", "--count", "13000", "--scale", "8", "--epsilon", "0.003",
      "--seed", "7"],
     "537c8dcf403fb32092c58c5726c8d14a2e660f6e4a101ce6776e5369bcdaabe4",
     "48c0a6cf55520a1bfaf3e969def0c1278782d9a2851394e57c23648f63fb9565"),
]


@pytest.mark.parametrize("flags,out_sha,cert_sha", PINNED_FN_SCHEDULE,
                         ids=["branch-A", "branch-B"])
def test_fn_schedule_bytes_are_pinned(tmp_path, flags, out_sha, cert_sha):
    out, cert = tmp_path / "plan.json", tmp_path / "cert.json"
    assert dispatch(["fn-schedule", "--body", "cube", "--dim", "2", *flags,
                     "--out", str(out), "--certificate", str(cert)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == cert_sha


def test_fn_schedule_starts_no_thread(tmp_path, monkeypatch):
    # branch B marks over 169,000 points at once: with --threads 2 that call
    # once split across a thread pool; now every mask runs on the calling thread
    import threading

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    flags, out_sha, cert_sha = PINNED_FN_SCHEDULE[1]
    out, cert = tmp_path / "plan.json", tmp_path / "cert.json"
    assert dispatch(["fn-schedule", "--body", "cube", "--dim", "2", *flags, "--threads", "2",
                     "--out", str(out), "--certificate", str(cert)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == cert_sha


# sha256 of the --out result of one small run of each other subcommand,
# pinned so that the JSON writer cannot change their bytes silently
PINNED_OUTPUTS = [
    (["volume", "--body", "cube", "--dim", "2", "--samples", "2000", "--seed", "4"],
     "6241b4aab5b8920f6d11eb1f9b4cbbe032008766e93fff476e57d3db7397715a"),
    (["net", "--body", "cube", "--dim", "2", "--epsilon", "0.5"],
     "67d9b30f0269bc3e2d84a08e1943ef51a11cd5b4a51e966a44012ed66a6c32f2"),
    (["cover", "--body", "cube", "--dim", "2", "--lambda", "0.9", "--count", "15",
      "--trials", "4", "--seed", "21", "--epsilon", "0.05", "--probes", "1000"],
     "96b4f2aff3a7d79821a784cb17921cf2b8e42d2b32028a138cb9ffe332b5c422"),
    (["illuminate", "--body", "cube", "--dim", "2", "--trials", "3", "--seed", "5",
      "--probes", "500"],
     "5112086c7e905d927e9141db557b86b66222a29def20eb7017a727b8d3284dac"),
    (["bounds", "--body", "cube", "--dim", "3"],
     "65469f848b144425d0624fa12b3407a38adfbf02d2789febdd17cab864712d04"),
]


@pytest.mark.parametrize("argv,out_sha", PINNED_OUTPUTS,
                         ids=[argv[0] for argv, _ in PINNED_OUTPUTS])
def test_output_bytes_are_pinned(tmp_path, argv, out_sha):
    out = tmp_path / "out.json"
    assert dispatch([*argv, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha


# sha256 of the --rows CSV of one small run of each command that writes one
PINNED_ROWS = [
    (["cover", "--body", "cube", "--dim", "2", "--lambda", "0.9", "--count", "15",
      "--trials", "4", "--seed", "21", "--epsilon", "0.05", "--probes", "1000"],
     "722a4adff216c0c4c173eb2c4aa5452d2f57a6d6e97c1f466c4c2c02bbe0c8fa"),
    (["illuminate", "--body", "cube", "--dim", "2", "--trials", "3", "--seed", "5",
      "--probes", "500"],
     "f761d5c16457d043ffb15eb4b2a312a018c1cd40bf0129c438a8a0981e00f9c3"),
]


@pytest.mark.parametrize("argv,rows_sha", PINNED_ROWS, ids=[argv[0] for argv, _ in PINNED_ROWS])
def test_rows_bytes_are_pinned(tmp_path, argv, rows_sha):
    rows = tmp_path / "rows.csv"
    assert dispatch([*argv, "--out", str(tmp_path / "out.json"), "--rows", str(rows)]) == EXIT_OK
    assert hashlib.sha256(rows.read_bytes()).hexdigest() == rows_sha


def test_parser_is_reused_without_leaking_arguments(tmp_path):
    square = ConvexBody.cube(2)
    placements = [HomothetPlacement(np.array([sx * 0.45, sy * 0.45]), 0.6)
                  for sx in (-1, 1) for sy in (-1, 1)]
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(verdict_to_dict(certify_cover(square, placements, 0.05),
                                               square, placements)))
    assert dispatch(["verify", "--certificate", str(cert)]) == EXIT_OK
    plan = tmp_path / "plan.json"
    assert dispatch(["fn-schedule", "--body", "cube", "--dim", "2", "--lambda", "0.9",
                     "--count", "300", "--threads", "1", "--out", str(plan)]) == EXIT_OK
    assert read_json(str(plan) + ".manifest.json")["config"]["threads"] == 1
    bounds = tmp_path / "bounds.json"
    assert dispatch(["bounds", "--body", "cube", "--dim", "2", "--out", str(bounds)]) == EXIT_OK
    assert read_json(str(bounds) + ".manifest.json")["config"] == {
        "command": "bounds", "body": "cube", "dim": 2, "seed": 0, "out": "bounds.json"}
    assert dispatch(["bounds", "--help"]) == EXIT_OK
    assert dispatch(["bounds", "--dim", "two"]) == EXIT_INPUT
    assert cli._parser() is cli._parser()


def test_manifest_config_does_not_depend_on_the_directory(tmp_path):
    """The echoed --out, --certificate and --rows are relative to the
    manifest, so one command run in two directories echoes one config."""
    configs = []
    for run in ("first", "second"):
        folder = tmp_path / run / "deeper"
        folder.mkdir(parents=True)
        for argv in (["cover", "--body", "cube", "--dim", "2", "--lambda", "0.9", "--count",
                      "15", "--trials", "2", "--epsilon", "0.1", "--probes", "200",
                      "--out", str(folder / "cover.json"), "--rows", str(folder / "rows.csv")],
                     ["fn-schedule", "--body", "cube", "--dim", "2", "--lambda", "0.9",
                      "--count", "300", "--out", str(folder / "plan.json"),
                      "--certificate", str(folder / "cert.json")]):
            assert dispatch(argv) == EXIT_OK
            manifest = read_json(argv[argv.index("--out") + 1] + ".manifest.json")
            configs.append((manifest["config"], manifest["outputs"]))
    assert configs[:2] == configs[2:]
    assert configs[0][0]["rows"] == "rows.csv" and configs[1][0]["certificate"] == "cert.json"


def test_cube_commands_import_no_scipy(tmp_path):
    """The cube's facets, combinations and dilations are closed forms, so its
    commands build no qhull hull and import no scipy module.  Checked in a
    fresh interpreter, because this test session has imported scipy."""
    script = textwrap.dedent("""
        import json, os, sys
        from homcover.cli import dispatch

        out = lambda name: os.path.join(sys.argv[1], name)
        cube = ["--body", "cube", "--dim", "2"]
        runs = [
            ["illuminate", *cube, "--trials", "2", "--seed", "5", "--probes", "500",
             "--out", out("illum.json")],
            ["cover", *cube, "--lambda", "0.9", "--count", "15", "--trials", "2",
             "--seed", "21", "--epsilon", "0.05", "--probes", "1000", "--out", out("cover.json")],
            ["net", *cube, "--epsilon", "0.5", "--out", out("net.json")],
            ["fn-schedule", *cube, "--lambda", "0.9", "--count", "300", "--seed", "9",
             "--out", out("plan.json"), "--certificate", out("cert.json")],
            ["verify", "--certificate", out("cert.json")],
            ["volume", *cube, "--samples", "2000", "--out", out("volume.json")],
            ["bounds", *cube, "--out", out("bounds.json")],
        ]
        codes = [dispatch(argv) for argv in runs]
        print(json.dumps({"codes": codes,
                          "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
    """)
    src = str(Path(homcover.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 7, "scipy": []}
