"""File formats and stream pairing.

Supported inputs: TUM trajectories ("t tx ty tz qx qy qz qw", scalar-last
quaternions on disk), 3x4 row-major pose matrices with synthesized
timestamps, whitespace xyz point clouds, and a native motion-pair JSONL
format.  Two trajectories are paired on the first stream's time grid with
screw-linear interpolation of the second stream's poses.

A motion-pair file loads into one :class:`PairArrays` record of rows, ready
for :meth:`CostAccumulator.add_batch`; no per-pair object is built.  Its
rows carry the bits a :class:`MotionPair` built from the same line would
hold, and a bad file raises the error such a MotionPair would, naming the
first bad line.  The file is read line by line, never whole, and the
numbers of 64 lines at a time are converted together.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .cost import MotionPair
from .dualquat import DualQuat, canonicalized_rows, normalized_rows, quat_mul
from .errors import (InvalidWeight, NoOverlap, NonOrthogonalRotation, NotUnit,
                     ParseError)

STUDY_CSV_HEADER = "noise_level,n,seed,eps_r_deg,eps_t_m,gap,time_ms"


@dataclass(frozen=True)
class Trajectory:
    sensor_id: str
    times: np.ndarray
    poses: tuple[DualQuat, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "poses", tuple(self.poses))

    def __len__(self):
        return len(self.poses)


@dataclass(frozen=True)
class PairingConfig:
    max_skew: float = 0.02
    interpolate: bool = True

    def __post_init__(self):
        if self.max_skew < 0:
            raise ValueError("max_skew must be nonnegative")


# -- screw-linear interpolation ----------------------------------------------

def _screw_power(q: DualQuat, tau: float) -> DualQuat:
    """q**tau via screw parameters; q must be unit and sign-canonical."""
    sin_half = np.linalg.norm(q.real[1:])
    t = q.translation()
    if sin_half < 1e-12:
        return DualQuat.from_translation(tau * t)
    theta = 2.0 * math.atan2(sin_half, q.real[0])
    axis = q.real[1:] / sin_half
    d = float(t @ axis)
    moment = 0.5 * (np.cross(t, axis)
                    + np.cross(axis, np.cross(t, axis)) / math.tan(theta / 2.0))
    half = 0.5 * tau * theta
    s, c = math.sin(half), math.cos(half)
    real = np.concatenate(([c], s * axis))
    dual = np.concatenate(([-0.5 * tau * d * s],
                           s * moment + 0.5 * tau * d * c * axis))
    return DualQuat(real, dual)


def sclerp(p: DualQuat, q: DualQuat, tau: float) -> DualQuat:
    """Screw-linear interpolation between unit displacements.

    Exact at the endpoints; follows the shorter of the two double-cover
    paths.
    """
    for x in (p, q):
        x._require_unit()
    if tau == 0.0:
        return p
    if tau == 1.0:
        return q
    if float(p.real @ q.real) < 0:
        q = -q
    rel = (p.conjugate() * q).canonicalized()
    return (p * _screw_power(rel, tau)).canonicalized()


# -- trajectory formats --------------------------------------------------------

def load_trajectory(path, fmt: str = "tum", rate: float = 10.0,
                    sensor_id: str | None = None) -> Trajectory:
    """Read a trajectory file; ``fmt`` is "tum" or "kitti_pose".

    Pose-matrix rotations are re-orthogonalized when they deviate mildly
    from SO(3) and rejected beyond 1e-3.
    """
    times, poses = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if fmt == "tum":
                if len(fields) != 8:
                    raise ParseError(f"expected 8 fields, got {len(fields)}",
                                     line=lineno)
                try:
                    vals = [float(x) for x in fields]
                except ValueError as err:
                    raise ParseError(str(err), line=lineno) from None
                t, tx, ty, tz, qx, qy, qz, qw = vals
                real = np.array([qw, qx, qy, qz])
                try:
                    dq = DualQuat(
                        real, 0.5 * quat_mul(np.array([0.0, tx, ty, tz]), real)
                    ).normalized().canonicalized()
                except NotUnit as err:
                    raise ParseError(str(err), line=lineno) from None
                times.append(t)
                poses.append(dq)
            elif fmt == "kitti_pose":
                if len(fields) != 12:
                    raise ParseError(f"expected 12 fields, got {len(fields)}",
                                     line=lineno)
                try:
                    vals = np.array([float(x) for x in fields]).reshape(3, 4)
                except ValueError as err:
                    raise ParseError(str(err), line=lineno) from None
                R = vals[:, :3]
                defect = max(np.max(np.abs(R.T @ R - np.eye(3))),
                             abs(np.linalg.det(R) - 1.0))
                if defect > 1e-3:
                    raise NonOrthogonalRotation(
                        f"line {lineno}: rotation defect {defect:.2e}")
                if defect > 1e-12:
                    u, _, vt = np.linalg.svd(R)
                    R = u @ vt
                T = np.eye(4)
                T[:3, :3] = R
                T[:3, 3] = vals[:, 3]
                times.append(len(poses) / rate)
                poses.append(DualQuat.from_homogeneous(T))
            else:
                raise ValueError(f"unknown trajectory format {fmt!r}")
    arr = np.asarray(times, dtype=float)
    if len(arr) > 1 and np.any(np.diff(arr) <= 0):
        bad = int(np.argmax(np.diff(arr) <= 0)) + 2
        raise ParseError("timestamps not strictly increasing", line=bad)
    return Trajectory(sensor_id=sensor_id or fmt, times=arr, poses=tuple(poses))


def save_trajectory(traj: Trajectory, path, fmt: str = "tum"):
    with open(path, "w") as fh:
        for t, pose in zip(traj.times, traj.poses):
            if fmt == "tum":
                x, y, z = pose.translation()
                qw, qx, qy, qz = pose.real
                fh.write(f"{t:.17g} {x:.17g} {y:.17g} {z:.17g} "
                         f"{qx:.17g} {qy:.17g} {qz:.17g} {qw:.17g}\n")
            elif fmt == "kitti_pose":
                T = pose.to_homogeneous()
                fh.write(" ".join(f"{v:.17g}" for v in T[:3].ravel()) + "\n")
            else:
                raise ValueError(f"unknown trajectory format {fmt!r}")


def relative_motions(traj: Trajectory) -> list[tuple[float, DualQuat]]:
    """Incremental motions in the sensor frame, stamped at interval ends.

    Folding the motions onto the first pose reproduces the trajectory.
    """
    if len(traj) < 2:
        raise ValueError("need at least two poses")
    out = []
    for i in range(len(traj) - 1):
        motion = (traj.poses[i].conjugate() * traj.poses[i + 1]).canonicalized()
        out.append((float(traj.times[i + 1]), motion))
    return out


# -- pairing --------------------------------------------------------------------

def _pose_at(traj: Trajectory, t: float, cfg: PairingConfig):
    times = traj.times
    if cfg.interpolate:
        if t < times[0] or t > times[-1]:
            return None
        idx = int(np.searchsorted(times, t, side="right")) - 1
        idx = max(0, min(idx, len(times) - 2))
        t0, t1 = times[idx], times[idx + 1]
        if t == t0:
            return traj.poses[idx]
        tau = (t - t0) / (t1 - t0)
        return sclerp(traj.poses[idx], traj.poses[idx + 1], float(tau))
    idx = int(np.searchsorted(times, t))
    candidates = [i for i in (idx - 1, idx) if 0 <= i < len(times)]
    nearest = min(candidates, key=lambda i: abs(times[i] - t))
    if abs(times[nearest] - t) > cfg.max_skew:
        return None
    return traj.poses[nearest]


def pair_streams(traj_a: Trajectory, traj_b: Trajectory,
                 cfg: PairingConfig | None = None
                 ) -> tuple[list[MotionPair], int]:
    """Motion pairs on stream a's time grid; returns (pairs, dropped count).

    Stream b's poses are screw-interpolated at a's pose times (or matched
    nearest-neighbor within ``max_skew``); a-intervals without a valid
    b-pose at both ends are dropped and counted.
    """
    cfg = cfg or PairingConfig()
    if len(traj_a) < 2 or len(traj_b) < 2:
        raise ValueError("both trajectories need at least two poses")
    if traj_a.times[0] > traj_b.times[-1] or traj_a.times[-1] < traj_b.times[0]:
        raise NoOverlap("trajectory time ranges are disjoint")
    pairs = []
    dropped = 0
    for i in range(len(traj_a) - 1):
        t0, t1 = float(traj_a.times[i]), float(traj_a.times[i + 1])
        b0 = _pose_at(traj_b, t0, cfg)
        b1 = _pose_at(traj_b, t1, cfg)
        if b0 is None or b1 is None:
            dropped += 1
            continue
        q_a = (traj_a.poses[i].conjugate() * traj_a.poses[i + 1]).canonicalized()
        q_b = (b0.conjugate() * b1).canonicalized()
        pairs.append(MotionPair(q_a=q_a, q_b=q_b, timestamp=t1))
    return pairs, dropped


# -- motion-pair JSONL -----------------------------------------------------------

@dataclass(frozen=True)
class PairArrays:
    """Motion pairs as rows: ``t`` (N,), unit sign-canonical ``q_a`` and
    ``q_b`` (N, 8), residual weights ``w`` (N, 8) and confidences ``eta``
    (N,); a weight or confidence the file leaves out is 1."""

    t: np.ndarray
    q_a: np.ndarray
    q_b: np.ndarray
    w: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        for rows in (self.t, self.q_a, self.q_b, self.w, self.eta):
            rows.setflags(write=False)

    def __len__(self):
        return len(self.t)

    @classmethod
    def from_pairs(cls, pairs) -> "PairArrays":
        return cls(t=np.array([p.timestamp for p in pairs], dtype=float),
                   q_a=np.array([p.q_a.vec() for p in pairs]).reshape(-1, 8),
                   q_b=np.array([p.q_b.vec() for p in pairs]).reshape(-1, 8),
                   w=np.array([p.weight_diag for p in pairs]).reshape(-1, 8),
                   eta=np.array([1.0 if p.eta is None else p.eta for p in pairs],
                                dtype=float))

    def motion_pairs(self):
        """The rows as :class:`MotionPair` objects, in order."""
        for t, q_a, q_b, w, eta in zip(self.t, self.q_a, self.q_b, self.w, self.eta):
            yield MotionPair(q_a=DualQuat.from_vec(q_a), q_b=DualQuat.from_vec(q_b),
                             timestamp=float(t), weight_diag=w, eta=float(eta))


def save_pair_rows_jsonl(rows: PairArrays, path):
    """Write rows as a motion-pair file, one line per row; a line leaves
    out a weight or confidence of 1."""
    with open(path, "w") as fh:
        for t, q_a, q_b, w, eta in zip(rows.t.tolist(), rows.q_a.tolist(),
                                       rows.q_b.tolist(), rows.w.tolist(),
                                       rows.eta.tolist()):
            rec = {"t": t, "qa": q_a, "qb": q_b}
            if w != [1.0] * 8:
                rec["w"] = w
            if eta != 1.0:
                rec["eta"] = eta
            fh.write(json.dumps(rec) + "\n")


def save_pairs_jsonl(pairs, path):
    """Write :class:`MotionPair` objects as a motion-pair file."""
    save_pair_rows_jsonl(PairArrays.from_pairs(pairs), path)


def _weight_rows(w_rows: list, eta_rows: list) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``w`` and ``eta``, absent ones 1, checked as MotionPair does
    and also for finiteness.

    The error raised for a bad row carries the row's index as ``row``.
    A file whose rows carry neither is not scanned row by row.
    """
    n = len(w_rows)
    w, eta = np.ones((n, 8)), np.ones(n)
    if w_rows.count(None) == eta_rows.count(None) == n:
        return w, eta
    for i, (w_i, eta_i) in enumerate(zip(w_rows, eta_rows)):
        try:
            if w_i is not None:
                w[i] = np.asarray(w_i, dtype=float).reshape(8)
                if not np.all((w[i] >= 0) & (w[i] < np.inf)):
                    raise InvalidWeight("residual weights must be finite and "
                                        "nonnegative")
            if eta_i is not None:
                if not 0 <= eta_i < math.inf:
                    raise InvalidWeight("eta must be finite and nonnegative")
                eta[i] = eta_i
        except (ValueError, TypeError, InvalidWeight) as err:
            err.row = i
            raise
    return w, eta


# rows converted per numpy call; a block goes through the per-line
# conversion only when one of its lines needs it
_BLOCK = 64
_decode = json.JSONDecoder().raw_decode


def _numbered_lines(fh):
    """(line number, stripped line) of each non-blank line.  A file whose
    text does not decode ends with (None, the decode error), so that a bad
    line read before the error is still the one reported."""
    try:
        for lineno, raw in enumerate(fh, start=1):
            if line := raw.strip():
                yield lineno, line
    except UnicodeDecodeError as err:
        yield None, err


def _convert_block(block):
    """The rows of a block of numbered lines converted at once, as (line
    numbers, t bytes, qa bytes, qb bytes, records), or None when a line needs
    the per-line conversion: a line that is not one whole JSON object,
    lacks a key, or has a ``qa`` or ``qb`` other than a flat list of 8
    numbers or a ``t`` other than a finite float."""
    linenos = [lineno for lineno, _ in block]
    lines = [line for _, line in block]
    if linenos[-1] is None:
        return None
    try:
        recs, ends = zip(*map(_decode, lines))
    except (ValueError, RecursionError):
        return None
    if list(ends) != list(map(len, lines)):
        return None
    try:
        # a value other than an object fails its lookups with TypeError
        stamps = [rec["t"] for rec in recs]
        a = np.array([rec["qa"] for rec in recs], dtype=float)
        b = np.array([rec["qb"] for rec in recs], dtype=float)
    except (KeyError, ValueError, TypeError, OverflowError):
        return None
    if (a.shape != (len(recs), 8) or b.shape != a.shape
            or set(map(type, stamps)) != {float}):
        return None
    t = np.array(stamps)
    if not np.isfinite(t).all():
        return None
    return linenos, t.tobytes(), a.tobytes(), b.tobytes(), recs


def _convert_lines(block):
    """The block's rows converted line by line, up to its first bad line:
    ((line numbers, t bytes, qa bytes, qb bytes, records), the ParseError
    of the bad line or None)."""
    linenos, stamps, recs = [], [], []
    qa, qb = bytearray(), bytearray()
    fault = None
    for lineno, line in block:
        if lineno is None:
            raise line  # the file's text failed to decode here
        try:
            rec = json.loads(line)
            a = np.asarray(rec["qa"], dtype=float).reshape(8)
            b = np.asarray(rec["qb"], dtype=float).reshape(8)
            stamp = float(rec["t"])
            if not math.isfinite(stamp):
                raise ValueError(f"timestamp {stamp} is not finite")
        except KeyError as err:
            fault = ParseError(f"missing field {err}", line=lineno)
            break
        except (ValueError, TypeError) as err:
            fault = ParseError(str(err), line=lineno)
            break
        linenos.append(lineno)
        stamps.append(stamp)
        qa += a.tobytes()
        qb += b.tobytes()
        recs.append(rec)
    t = np.array(stamps, dtype=float).tobytes()
    return (linenos, t, qa, qb, recs), fault


def load_pairs_jsonl(path) -> PairArrays:
    """Read a motion-pair file; one JSON object per non-blank line.

    Each object holds ``t``, ``qa`` and ``qb`` (8-vectors, real part
    first) and optionally ``w`` (8 residual weights) and ``eta``.  The
    first bad line raises what a MotionPair built from it would:
    ParseError for malformed JSON or a missing or malformed ``t``, ``qa``
    or ``qb``, NotUnit (a non-finite motion included), ValueError for a
    ``w`` of the wrong length and InvalidWeight for a negative or
    non-finite ``w`` or ``eta``; a non-finite ``t`` is a ParseError, as a
    missing one is.  The message names the line.

    Each non-blank line is decoded once, as one whole JSON value, and the
    ``t``, ``qa`` and ``qb`` of 64 lines at a time are converted with one
    numpy call per field; a block that does not convert cleanly is
    converted line by line, up to its first bad line.  The value checks
    then run on all rows at once.
    """
    # flat buffers hold the motions: far smaller than one array per line
    lines, w, eta = [], [], []
    t, qa, qb = bytearray(), bytearray(), bytearray()
    fault = None
    with open(path) as fh:
        numbered = _numbered_lines(fh)
        while block := list(islice(numbered, _BLOCK)):
            rows = _convert_block(block)
            if rows is None:
                rows, fault = _convert_lines(block)
            linenos, t_rows, qa_rows, qb_rows, recs = rows
            lines += linenos
            t += t_rows
            qa += qa_rows
            qb += qb_rows
            w += [rec.get("w") for rec in recs]
            eta += [rec.get("eta") for rec in recs]
            if fault is not None:
                break
    # the row checks run in a MotionPair's order; each looks only at the
    # rows before the first fault found so far, so the first bad line wins
    qa, qb = np.frombuffer(qa).reshape(-1, 8), np.frombuffer(qb).reshape(-1, 8)
    checks = (lambda n: canonicalized_rows(normalized_rows(qa[:n])),
              lambda n: canonicalized_rows(normalized_rows(qb[:n])),
              lambda n: _weight_rows(w[:n], eta[:n]))
    n, arrays = len(lines), []
    for check in checks:
        try:
            arrays.append(check(n))
        except (NotUnit, InvalidWeight, ValueError, TypeError) as err:
            n = err.row
            fault = type(err)(f"line {lines[n]}: {err}")
    if fault is not None:
        raise fault
    q_a, q_b, (w_rows, eta_rows) = arrays
    return PairArrays(t=np.frombuffer(t), q_a=q_a, q_b=q_b, w=w_rows,
                      eta=eta_rows)


def load_point_cloud(path) -> np.ndarray:
    """Whitespace-separated xyz rows; a non-finite coordinate raises a
    ParseError naming its line."""
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ParseError(f"expected 3 fields, got {len(fields)}",
                                 line=lineno)
            try:
                row = [float(x) for x in fields]
            except ValueError as err:
                raise ParseError(str(err), line=lineno) from None
            if not all(map(math.isfinite, row)):
                raise ParseError("coordinates must be finite", line=lineno)
            rows.append(row)
    return np.asarray(rows, dtype=float).reshape(-1, 3)


def write_study_csv(rows, path):
    """Study sweep output; one dict per row keyed like the header."""
    keys = STUDY_CSV_HEADER.split(",")
    with open(path, "w") as fh:
        fh.write(STUDY_CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(repr(row[k]) if isinstance(row[k], float)
                              else str(row[k]) for k in keys) + "\n")
