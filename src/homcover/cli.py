"""Command-line interface: reproducible experiments with manifested outputs.

Subcommands: volume, net, cover, illuminate, fn-schedule, verify, bounds.
Structured results go to --out as JSON (per-trial rows optionally as CSV);
every emitted file is referenced by sha256 digest in a sibling manifest.
Exit codes: 0 success, 2 input error, 3 numeric/feasibility failure,
4 failed re-verification (verify subcommand).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from . import __version__, fnsched, illum, lpcore, nets, randcover, randvol, runtime
from .bodies import CROSSPOLYTOPE, CUBE, SIMPLEX, SYMMETRIC_KINDS, ConvexBody, MinkowskiCombo
from .covercert import encode_column, recheck_certificate
from .fnsched import RatioSequence
from .randcover import CoverExperimentConfig
from .randvol import RngSpec

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

SCHEMA_VERSION = 1
FN_SCHEDULE_SCHEMA_VERSION = 3  # columnar placements

_NUMERIC_ERRORS = (
    lpcore.NumericFailure,
    lpcore.InradiusZero,
    randvol.RejectionTooSlow,
    nets.NetTooLarge,
    fnsched.PatchDeficit,
    fnsched.CubeAssignmentDeficit,
    illum.ConversionRequiresCertificate,
)


def _plain(obj):
    """``json.dumps`` hook: numpy arrays as ``tolist()``, numpy scalars as ``item()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_dumps = functools.partial(json.dumps, sort_keys=True, indent=1, default=_plain)


def _dump_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(_dumps(payload) + "\n")


def _write_rows(path: str, header: list, rows) -> None:
    """Rows as CSV under ``header``: a list field as JSON, None as an empty one."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([json.dumps(v) if isinstance(v, list) else v for v in row]
                         for row in rows)


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_manifest(command: str, args_echo: dict, seed: Optional[int],
                    outputs: list, started: float) -> None:
    if not outputs:
        return
    # output paths relative to the manifest: its bytes do not depend on where files live
    path = outputs[0] + ".manifest.json"
    home = os.path.dirname(os.path.abspath(path))
    rel = lambda p: os.path.relpath(p, home)
    manifest = {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "config": {k: rel(v) if k in ("out", "certificate", "rows") else v
                   for k, v in args_echo.items()},
        "seed": seed,
        "artifactVersion": __version__,
        "durationSeconds": round(time.time() - started, 3),
        "outputs": [{"path": rel(p), "sha256": _digest_file(p)} for p in outputs],
    }
    _dump_json(path, manifest)


def _load_body(name_or_path: str, dim: Optional[int]) -> ConvexBody:
    if name_or_path in (CUBE, SIMPLEX, CROSSPOLYTOPE):
        if dim is None:
            raise ValueError("--dim is required with a named body")
        return ConvexBody.from_spec({"kind": name_or_path, "dim": dim})
    with open(name_or_path) as fh:
        return ConvexBody.from_spec(json.load(fh))


def _ratios_from_args(args) -> list:
    if args.ratios:
        with open(args.ratios) as fh:
            data = json.load(fh, parse_int=float)  # huge integers become inf, not errors
        if not isinstance(data, list) or not all(
                type(r) is float and math.isfinite(r) for r in data):
            raise ValueError(f"{args.ratios}: ratios must be a JSON list of finite numbers")
        return data
    if args.lam is None or args.count is None:
        raise ValueError("provide either --ratios or both --lambda and --count")
    return [args.lam] * args.count


def _cmd_volume(args) -> list:
    body = _load_body(args.body, args.dim)
    combo = MinkowskiCombo(body, args.plus, args.minus)
    est = randvol.mc_volume(combo, RngSpec(args.seed), args.samples)
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "body": body.to_spec(),
        "plusCoeff": args.plus,
        "minusCoeff": args.minus,
        "mean": est.mean,
        "ci95": [est.ci95_low, est.ci95_high],
        "samples": est.samples,
        "hits": est.hits,
        "boxVolume": est.box_volume,
        "exactBodyVolume": randvol.exact_volume(body),
    }
    return _emit(args, payload)


def _cmd_net(args) -> list:
    body = _load_body(args.body, args.dim)
    eps = args.epsilon if args.epsilon is not None else nets.default_epsilon(body.dim)
    net = nets.build_net(body, eps)
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "body": body.to_spec(),
        "epsilon": eps,
        "size": net.size,
        "spacing": net.grid_spacing,
        "certifiedInradius": net.certified_inradius,
        "anchor": net.anchor,
        "cardinalityReference": net.cardinality_bound,
        "withinReference": bool(net.size <= net.cardinality_bound),
    }
    return _emit(args, payload)


def _cmd_cover(args) -> list:
    body = _load_body(args.body, args.dim)
    ratios = _ratios_from_args(args)
    config = CoverExperimentConfig(
        body=body, ratios=ratios, trials=args.trials, rng=RngSpec(args.seed),
        epsilon=args.epsilon, probes=args.probes)
    report = randcover.run_random_cover(config)
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "body": body.to_spec(),
        "ratios": ratios,
        "trials": report.trials,
        "certified": report.certified,
        "refuted": report.refuted,
        "unknown": report.unknown,
        "empiricalLowerBound": report.empirical_lower_bound,
        "asymptoticBound": report.asymptotic_bound,
        "thresholdSatisfied": report.threshold_satisfied,
        "sumPow": report.sum_pow,
        "thresholdValue": report.threshold_value,
        "epsilon": report.epsilon,
        "volumeRatio": report.volume_ratio,
    }
    outputs = _emit(args, payload)
    if args.rows:
        _write_rows(args.rows, ["trialId", "verdict", "witness"], report.rows)
        outputs.append(args.rows)
    return outputs


def _cmd_illuminate(args) -> list:
    body = _load_body(args.body, args.dim)
    report = illum.run_illumination_pipeline(body, args.trials, RngSpec(args.seed),
                                  probes=args.probes, net_epsilon=args.epsilon)
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "body": body.to_spec(),
        "trials": report.trials,
        "m": report.m,
        "epsilonCover": report.epsilon_cover,
        "rUsed": report.r_used,
        "coveringCertified": report.covering_certified,
        "illuminationVerified": report.illumination_verified,
        "falsified": report.falsified,
        "rows": report.rows,
    }
    outputs = _emit(args, payload)
    if args.rows:
        _write_rows(args.rows, ["trialId", "coveringVerdict", "illuminationVerdict"],
                    report.rows)
        outputs.append(args.rows)
    return outputs


def _cmd_fn_schedule(args) -> list:
    """Schedule the ratios and write the result with ``"schemaVersion": 3``.

    ``placements`` holds four columns (see ``covercert.encode_column``), one
    row per placed piece: ``index`` (int32, the ratio's index), ``centers``
    (count x n float64, row-major), ``ratios`` (float64) and ``phase``
    (uint8, an index into ``phaseCodes``).  In ``plan``, each value of
    ``classes`` and ``partitions``, and ``remainder`` and ``largeIndices``,
    are int32 columns of ratio indices.
    """
    body = _load_body(args.body, args.dim)
    ratios = _ratios_from_args(args)
    seq = RatioSequence(tuple(ratios), body.dim)
    cons = fnsched.schedule_covering(body, seq, RngSpec(args.seed), mode=args.mode,
                                  multiplier=args.scale, eps_final=args.epsilon)
    payload = {
        "schemaVersion": FN_SCHEDULE_SCHEMA_VERSION,
        "body": body.to_spec(),
        "sumPow": seq.sum_pow,
        "status": cons.verdict.status,
        "info": cons.info,
        "perCube": cons.per_cube,
        "phaseCodes": list(fnsched.PHASE_CODES),
        "placements": {
            "index": encode_column(cons.index, "<i4"),
            "centers": encode_column(cons.placements.centers, "<f8"),
            "ratios": encode_column(cons.placements.ratios, "<f8"),
            "phase": encode_column(cons.phase, "u1"),
        },
    }
    if cons.plan is not None:
        plan = cons.plan
        payload["plan"] = {
            "classes": {str(k): encode_column(v, "<i4") for k, v in plan.classes.items()},
            "budgets": {str(k): v for k, v in plan.budgets.items()},
            "partitions": {f"{k},{l}": encode_column(v, "<i4")
                           for (k, l), v in plan.partitions.items()},
            "remainder": encode_column(plan.remainder, "<i4"),
            "largeIndices": encode_column(plan.large_indices, "<i4"),
            "tilingCells": cons.info["tilingCells"],
        }
    outputs = _emit(args, payload)
    if args.certificate:
        _dump_json(args.certificate, cons.certificate)
        outputs.append(args.certificate)
    return outputs


def _cmd_bounds(args) -> list:
    body = _load_body(args.body, args.dim)
    symmetric = body.kind in SYMMETRIC_KINDS
    ratio = randvol.difference_volume_ratio(body)[0]
    table = randcover.reference_bounds(body.dim, ratio, symmetric)
    payload = {"schemaVersion": SCHEMA_VERSION, "body": body.to_spec(),
               "symmetric": symmetric, **table}
    return _emit(args, payload)


def _cmd_verify(args) -> list:
    with open(args.certificate) as fh:
        cert = json.load(fh)
    if not isinstance(cert, dict):
        raise ValueError("a certificate must be a JSON object")
    if args.body_file:
        with open(args.body_file) as fh:
            cert = dict(cert, body=json.load(fh))
    kind = cert.get("type")
    try:
        if kind == "covering":
            ok = recheck_certificate(cert)
        elif kind == "illumination":
            ok = illum.recheck_illumination_certificate(cert)
        else:
            raise ValueError(f"unknown certificate type {kind!r}")
    except (TypeError, IndexError, AttributeError) as exc:
        # a field of the wrong JSON type or shape
        raise ValueError(f"malformed certificate: {exc}") from exc
    print("verified" if ok else "REFUTED-VERIFICATION")
    if not ok:
        raise _VerificationFailed()
    return []


class _VerificationFailed(Exception):
    pass


def _emit(args, payload: dict) -> list:
    if args.out:
        _dump_json(args.out, payload)
        return [args.out]
    sys.stdout.write(_dumps(payload) + "\n")
    return []


def _common_flags(p: argparse.ArgumentParser, threads: bool = False) -> None:
    """--body, --dim, --seed and --out; --threads (accepted, validated and
    ignored) only on the commands that test coverage."""
    p.add_argument("--body", required=True,
                   help="cube | simplex | crosspolytope | path to body JSON")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    if threads:
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and validated (a negative count is an input "
                            "error) but starts no thread: every coverage test runs "
                            "on the calling thread, and results never depended on it")
    p.add_argument("--out", default=None, help="write the JSON result here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcover",
        description="Randomized coverings of convex bodies by homothets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", help="Monte Carlo volume of a*K - b*K")
    _common_flags(p)
    p.add_argument("--plus", type=float, default=1.0)
    p.add_argument("--minus", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("net", help="build a certified epsilon-net",
                       description="Build a certified epsilon-net.  A net is a deterministic "
                                   "grid, so --seed is accepted and ignored.")
    _common_flags(p)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=_cmd_net)

    p = sub.add_parser("cover", help="random-cover experiment")
    _common_flags(p, threads=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--ratios", default=None, help="JSON file with a ratio list")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--probes", type=int, default=10_000)
    p.add_argument("--rows", default=None, help="write per-trial CSV here")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("illuminate", help="covering-to-illumination pipeline")
    _common_flags(p, threads=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--probes", type=int, default=10_000)
    p.add_argument("--rows", default=None, help="write per-trial CSV here")
    p.set_defaults(func=_cmd_illuminate)

    p = sub.add_parser("fn-schedule", help="dyadic scheduling of a ratio sequence")
    _common_flags(p, threads=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--ratios", default=None)
    p.add_argument("--mode", choices=["desk", "paper"], default="desk")
    p.add_argument("--scale", type=float, default=fnsched.DESK_MULTIPLIER,
                   help="desk-mode multiplier replacing the Rogers factor")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--certificate", default=None,
                   help="also write the final coverage certificate here")
    p.set_defaults(func=_cmd_fn_schedule)

    p = sub.add_parser("bounds", help="reference-bound comparison table", description=(
        "Print the reference-bound comparison table.  Its volume ratio is exact, "
        "so --seed is accepted and ignored."))
    _common_flags(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="re-check an emitted certificate")
    p.add_argument("--certificate", required=True)
    p.add_argument("--body", dest="body_file", default=None,
                   help="optional body JSON overriding the embedded one")
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: parsing leaves it unchanged, and
    building it costs far more than one parse."""
    return build_parser()


def dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    started = time.time()
    try:
        runtime.set_threads(getattr(args, "threads", None))
        outputs = args.func(args)
    except _VerificationFailed:
        return EXIT_VERIFY
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    echo = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    _write_manifest(args.command, echo, getattr(args, "seed", None), outputs, started)
    return EXIT_OK


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
