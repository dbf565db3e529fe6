"""Command-line interface: calibrate, online, simulate, study, certify.

Exit codes: 0 success, 1 solver failure, 2 parse/config error,
3 degenerate data or infeasible candidate.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import errors
from .constraints import ConstraintMode
from .cost import CostAccumulator, check_planes
from .dualquat import DualQuat
from .global_solver import check_gap_threshold, solve_global
from .io import (load_pairs_jsonl, load_point_cloud, save_pair_rows_jsonl,
                 write_study_csv)
from .local_solver import solve_local
from .metrics import calib_error
from .online import (OnlineCalibrator, OnlineConfig, check_t_no_fail,
                     lift_solution)
from .planar import fit_ground_plane, plane_alignment_dq
from .sim import SimConfig, sample_study_calibration, simulate_rows
from .verify import certify

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3


def _parse_q8(text: str) -> DualQuat:
    vals = [float(x) for x in text.split(",")]
    if len(vals) != 8:
        raise ValueError(f"expected 8 comma-separated floats, got {len(vals)}")
    return DualQuat.from_vec(vals).normalized().canonicalized()


def _option_q8(name: str, text: str) -> DualQuat:
    """An ``--init`` or ``--gt`` value; one that is not a unit dual
    quaternion is a config error (ValueError), unlike a ``--candidate``."""
    try:
        return _parse_q8(text)
    except errors.NotUnit as err:
        raise ValueError(f"{name}: {err}") from err


def _parse_gt_pose(text: str) -> DualQuat:
    vals = [float(x) for x in text.split(",")]
    if len(vals) != 7:
        raise ValueError("expected tx,ty,tz,ax,ay,az,angle_deg")
    if not np.isfinite(vals).all():
        raise ValueError(f"--gt-pose values must be finite, got {text!r}")
    tx, ty, tz, ax, ay, az, angle_deg = vals
    axis = np.array([ax, ay, az])
    n = np.linalg.norm(axis)
    if angle_deg != 0.0:
        if n == 0.0:
            raise ValueError(f"gt pose axis ({ax:g}, {ay:g}, {az:g}) has zero "
                             f"length but the angle is {angle_deg:g} deg")
        axis = axis / n
    return DualQuat.from_rot_trans(axis, np.deg2rad(angle_deg), [tx, ty, tz])


def _load_pairs(path):
    """The pair file's rows; EmptyData if it holds none."""
    pairs = load_pairs_jsonl(path)
    if not pairs:
        raise errors.EmptyData("no pairs in input file")
    return pairs


def _mode(args) -> ConstraintMode:
    return ConstraintMode.PLANAR if args.mode == "planar" else ConstraintMode.FULL_3D


def _planes_and_mode(args):
    planes = [None if path is None else
              fit_ground_plane(load_point_cloud(path), args.seed)
              for path in (args.plane_a, args.plane_b)]
    return (*planes, ConstraintMode.PLANAR if planes[0] is not None else _mode(args))


def _ground_truth(args) -> DualQuat | None:
    if getattr(args, "gt", None):
        return _option_q8("--gt", args.gt)
    if getattr(args, "gt_pose", None):
        return _parse_gt_pose(args.gt_pose)
    return None


def _describe_solution(q_hat: DualQuat) -> dict:
    axis, angle, t = q_hat.to_rot_trans()
    return {
        "q_hat": [float(v) for v in q_hat.vec()],
        "axis": [float(v) for v in axis],
        "angle_deg": float(np.degrees(angle)),
        "translation_m": [float(v) for v in t],
    }


def _emit(args, payload: dict):
    if args.output == "json":
        print(json.dumps(payload, indent=2, default=str))
        return
    for key, value in payload.items():
        value = f"{value:.9g}" if isinstance(value, float) else value
        print(f"{key}: {value}")


def _median_time_ms(fn, repeats: int) -> tuple[object, float]:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return result, float(np.median(samples))


# -- subcommands ----------------------------------------------------------------

def _entry(sol, acc, gt, **timing) -> dict:
    """``calibrate``'s entry for a solver's record: estimate (lifted to 3D),
    certificate, verdict, ``timing`` and the error against ``gt``."""
    q_hat = lift_solution(sol, acc).q_hat
    entry = _describe_solution(q_hat)
    entry.update(cost=sol.primal_cost, gap=sol.gap, is_global=sol.is_global,
                 null_dim=sol.null_dim, degenerate=sol.degenerate,
                 diagnostic=sol.diagnostic, **timing)
    if gt is not None:
        err = calib_error(q_hat, gt)
        entry.update(eps_r_deg=err.eps_r_deg, eps_t_m=err.eps_t)
    return entry


def cmd_calibrate(args) -> int:
    gt = _ground_truth(args)  # malformed option values fail before the load
    init = _option_q8("--init", args.init).vec() if args.init else None
    if args.repeat < 1:
        raise ValueError(f"--repeat must be at least 1, got {args.repeat}")
    pairs = _load_pairs(args.pairs)
    plane_a, plane_b, mode = _planes_and_mode(args)
    acc = CostAccumulator(mode, *[None if p is None else plane_alignment_dq(p)
                                  for p in (plane_a, plane_b)]).add_batch(pairs)
    Q = acc.normalized_q

    payload = {"n_pairs": len(pairs), "mode": mode.value}
    sols = {}
    if args.solver in ("global", "both"):
        sols["global"], ms = _median_time_ms(
            lambda: solve_global(acc, args.gap_threshold), args.repeat)
        payload["global"] = _entry(sols["global"], acc, gt, time_ms=ms)
    if args.solver in ("fast", "both"):
        local, ms = _median_time_ms(lambda: solve_local(Q, mode, init),
                                    args.repeat)
        sols["fast"] = certify(Q, local.q_hat, mode, args.gap_threshold)
        payload["fast"] = _entry(sols["fast"], acc, gt, time_ms=ms,
                                 iterations=local.iterations,
                                 converged=local.converged)
    if len(sols) == 2:
        d = calib_error(sols["global"].q_hat, sols["fast"].q_hat)
        payload["solver_agreement"] = {"eps_r_deg": d.eps_r_deg,
                                       "eps_t_m": d.eps_t}
    _emit(args, payload)
    return EXIT_OK


def cmd_online(args) -> int:
    gt = _ground_truth(args)
    pairs = _load_pairs(args.pairs)
    plane_a, plane_b, mode = _planes_and_mode(args)
    config = OnlineConfig(mode=mode, t_no_fail=args.t_no_fail,
                          plane_a=plane_a, plane_b=plane_b,
                          gap_threshold=args.gap_threshold)
    calib = OnlineCalibrator(config)
    print("t,eps_r_deg,eps_t_m,gap,provenance,is_global,time_ms")
    for pair in pairs.motion_pairs():
        sol = calib.update(pair)
        if gt is not None:
            err = calib_error(sol.q_hat, gt)
            eps_r, eps_t = err.eps_r_deg, err.eps_t
        else:
            eps_r, eps_t = float("nan"), float("nan")
        print(f"{pair.timestamp:.6f},{eps_r:.9g},{eps_t:.9g},{sol.gap:.9g},"
              f"{sol.provenance},{sol.is_global},{sol.solve_time * 1e3:.3f}")
    summary = {"final": _describe_solution(sol.q_hat),  # pairs is not empty
               "provenance": sol.provenance, "is_global": sol.is_global,
               "degenerate": sol.degenerate}
    print("# " + json.dumps(summary), file=sys.stderr)
    return EXIT_OK


def _sim_config_from_dict(cfg: dict, seed_override=None) -> SimConfig:
    known = {"path", "surface", "step_length", "n_steps", "noise_level",
             "seed", "rate"}
    unknown = set(cfg) - known - {"true_calib"}
    if unknown:
        raise ValueError(f"unknown simulate config keys: {sorted(unknown)}")
    kwargs = {k: cfg[k] for k in known if k in cfg}
    if isinstance(kwargs.get("noise_level"), list):
        kwargs["noise_level"] = tuple(kwargs["noise_level"])
    if "true_calib" in cfg and cfg["true_calib"] is not None:
        kwargs["true_calib"] = DualQuat.from_vec(
            cfg["true_calib"]).normalized().canonicalized()
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return SimConfig(**kwargs)


def cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg_dict = json.load(fh)
    config = _sim_config_from_dict(cfg_dict)
    rows, truth = simulate_rows(config)
    save_pair_rows_jsonl(rows, args.out)
    sidecar = {
        "true_calib": list(truth.vec()),
        "seed": config.seed,
        "noise_level": config.noise_level,
        "n_pairs": len(rows),
    }
    with open(str(args.out) + ".gt.json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
    print(f"wrote {len(rows)} pairs to {args.out}")
    return EXIT_OK


def study_cell(noise_level, n, seed, base: dict) -> dict:
    """One study sweep cell: a fresh dataset, its global solve and error."""
    cfg = _sim_config_from_dict({**base, "n_steps": int(n), "seed": int(seed),
                                 "noise_level": noise_level})
    rows, truth = simulate_rows(replace(
        cfg, true_calib=sample_study_calibration(np.random.default_rng(seed))))
    acc = CostAccumulator().add_batch(rows)
    t0 = time.perf_counter()
    sol = solve_global(acc)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    err = calib_error(sol.q_hat, truth)
    return {"noise_level": noise_level, "n": int(n), "seed": int(seed),
            "eps_r_deg": err.eps_r_deg, "eps_t_m": err.eps_t,
            "gap": sol.gap, "time_ms": elapsed_ms}


def cmd_study(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    noise_levels = cfg.get("noise_levels", [0.02, 0.05, 0.10])
    sizes = cfg.get("sizes", [25, 50, 100, 200, 400])
    n_seeds = int(cfg.get("seeds", 8))
    base_seed = int(cfg.get("base_seed", 0))
    base = {k: cfg[k] for k in ("path", "surface", "step_length", "rate")
            if k in cfg}

    rows = [study_cell(nl, n, base_seed + 1000 * i, base)
            for nl in noise_levels for n in sizes for i in range(n_seeds)]
    write_study_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_certify(args) -> int:
    try:  # a malformed candidate fails first
        candidate = _parse_q8(args.candidate)
    except errors.NotUnit as err:
        raise errors.InfeasiblePoint(str(err)) from err
    mode = _mode(args)
    acc = CostAccumulator(mode).add_batch(_load_pairs(args.pairs))
    sol = certify(acc.normalized_q, candidate, mode, args.gap_threshold)
    _emit(args, {"gap": sol.gap, "is_global": sol.is_global,
                 "null_dim": sol.null_dim, "diagnostic": sol.diagnostic})
    return EXIT_OK


# -- parser -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqcalib",
        description="Extrinsic calibration from per-sensor ego-motion "
                    "using dual quaternions")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=["3d", "planar"], default="3d")
    parser.add_argument("--gap-threshold", type=float, default=1e-6)
    parser.add_argument("--output", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="batch calibration from a pair file")
    cal.add_argument("--pairs", required=True)
    cal.add_argument("--plane-a")
    cal.add_argument("--plane-b")
    cal.add_argument("--solver", choices=["global", "fast", "both"],
                     default="global")
    cal.add_argument("--init", help="8 comma-separated floats")
    cal.add_argument("--gt", help="8 comma-separated floats")
    cal.add_argument("--gt-pose", help="tx,ty,tz,ax,ay,az,angle_deg")
    cal.add_argument("--repeat", type=int, default=10,
                     help="timing repetitions (median reported)")

    onl = sub.add_parser("online", help="sequential replay with fallback")
    onl.add_argument("--pairs", required=True)
    onl.add_argument("--t-no-fail", type=float,
                     default=OnlineConfig.t_no_fail,
                     help="no-fail window in seconds: inf (the default) "
                          "gives a certified global estimate at every "
                          "step; a finite value gives the paper's "
                          "fast-then-verify policy, the global solver "
                          "running only within that time of a local error")
    onl.add_argument("--plane-a")
    onl.add_argument("--plane-b")
    onl.add_argument("--gt")
    onl.add_argument("--gt-pose")

    simp = sub.add_parser("simulate", help="generate a synthetic pair file")
    simp.add_argument("--config", required=True)
    simp.add_argument("--out", required=True)

    stu = sub.add_parser("study", help="noise/size sweep to CSV")
    stu.add_argument("--config", required=True)
    stu.add_argument("--out", required=True)

    cer = sub.add_parser("certify", help="globality certificate for a candidate")
    cer.add_argument("--pairs", required=True)
    cer.add_argument("--candidate", required=True,
                     help="8 comma-separated floats")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a rebound cmd_<command> is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        # bad option values fail before any file is read or solve is run
        check_gap_threshold(args.gap_threshold)
        if args.command in ("calibrate", "online"):  # planes imply planar
            check_planes(ConstraintMode.PLANAR, args.plane_a, args.plane_b)
        if args.command == "online":
            check_t_no_fail(args.t_no_fail)
        return command(args)
    except (errors.ParseError, errors.NonOrthogonalRotation, FileNotFoundError,
            json.JSONDecodeError, ValueError, errors.NonMonotonicTime,
            errors.EmptyData, errors.InvalidWeight, errors.NotUnit) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except errors.NonUniqueSolution as err:
        print(f"degenerate data: {err}", file=sys.stderr)
        if err.basis is not None:
            print("unobservable directions (null-space basis columns):",
                  file=sys.stderr)
            for row in np.array2string(err.basis, precision=6).splitlines():
                print("  " + row, file=sys.stderr)
        return EXIT_DEGENERATE
    except errors.InfeasiblePoint as err:
        print(f"infeasible candidate: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except errors.DQCalibError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
