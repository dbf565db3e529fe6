"""File formats and stream pairing, as rows.

Supported inputs: TUM trajectories ("t tx ty tz qx qy qz qw", scalar-last
quaternions on disk), 3x4 row-major pose matrices with synthesized
timestamps, whitespace xyz point clouds, and a native motion-pair JSONL
format.

A trajectory file loads into one :class:`Trajectory` record, times and
(n, 8) pose rows, the record the simulator's ``generate_path`` returns
too.  Each line's fields are parsed on their own, so a bad value raises a
ParseError naming its line; the poses are then converted at once.  Two
trajectories are paired on the first stream's time grid, the second
stream's poses screw-linearly interpolated or matched to the nearest one,
into a :class:`PairArrays`.

A motion-pair file loads into one :class:`PairArrays` record of rows, ready
for :meth:`CostAccumulator.add_batch`; no per-pair object is built.  The
loader only parses: the record's constructor checks the rows, which then
carry the bits a :class:`MotionPair` built from the same line would hold,
and a bad file raises the error such a MotionPair would, naming the first
bad line.  The file is read line by line, never whole, and the numbers of
64 lines at a time are converted together.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .cost import PairArrays, _motion_rows
from .dualquat import (NORMALIZE_LIMIT, _row_dots, _unit_rows,
                       angle_translation_rows, canonicalized_rows,
                       conjugate_rows, dq_mul_rows, from_homogeneous_rows,
                       quat_to_rot_rows, require_unit_rows)
from .errors import (InvalidWeight, NoOverlap, NonOrthogonalRotation, NotUnit,
                     ParseError)

STUDY_CSV_HEADER = "noise_level,n,seed,eps_r_deg,eps_t_m,gap,time_ms"


@dataclass(frozen=True)
class Trajectory:
    """Poses of one sensor: ``times`` (n,), finite and strictly increasing,
    and ``poses`` (n, 8), one dual-quaternion row per time."""

    times: np.ndarray
    poses: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        poses = np.array(self.poses, dtype=float)
        if t.ndim != 1 or poses.shape != (len(t), 8):
            raise ValueError(f"need (n,) times and (n, 8) poses, got shapes "
                             f"{t.shape} and {poses.shape}")
        if not (np.isfinite(t).all() and (np.diff(t) > 0).all()):
            raise ValueError("timestamps must be finite and strictly increasing")
        for name, rows in (("times", t), ("poses", poses)):
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class PairingConfig:
    """How :func:`pair_streams` finds stream b's pose at an a-time.

    With ``interpolate`` (the default) it is screw-interpolated between
    the two b-poses around the a-time, which must be at most twice b's
    median pose interval apart: a longer gap is a dropout.  Otherwise it
    is the nearest b-pose, which must lie within ``max_skew`` seconds;
    ``max_skew`` governs only this nearest-neighbour mode.
    """

    max_skew: float = 0.02
    interpolate: bool = True

    def __post_init__(self):
        if not self.max_skew >= 0:
            raise ValueError(f"max_skew must be nonnegative, got {self.max_skew!r}")


# -- screw-linear interpolation ----------------------------------------------

def _screw_power(q: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Rows q**tau of unit sign-canonical rows q, via screw parameters."""
    theta, t = angle_translation_rows(q)
    sin_half = np.sqrt(_row_dots(q[:, 1:4], q[:, 1:4]))
    pure = sin_half < 1e-12  # a pure translation, scaled by tau below
    axis = q[:, 1:4] / np.where(pure, 1.0, sin_half)[:, None]
    d = _row_dots(t, axis)
    t_axis = np.cross(t, axis)
    moment = 0.5 * (t_axis + np.cross(axis, t_axis)
                    / np.tan(np.where(pure, 1.0, theta) / 2.0)[:, None])
    half = 0.5 * tau * theta
    s, c = np.sin(half), np.cos(half)
    screw = np.concatenate([c[:, None], s[:, None] * axis,
                            (-0.5 * tau * d * s)[:, None],
                            s[:, None] * moment + (0.5 * tau * d * c)[:, None] * axis],
                           axis=1)
    shift = _unit_rows(np.tile([1.0, 0.0, 0.0, 0.0], (len(q), 1)), tau[:, None] * t)
    return np.where(pure[:, None], shift, screw)


def sclerp(p: np.ndarray, q: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Screw-linear interpolation between rows of unit displacements: p and
    q (n, 8) at fractions ``tau`` (n,).

    A row is exactly p at tau 0 and exactly q at tau 1; in between it is
    sign-canonical and follows the shorter of the two double-cover paths.
    """
    for rows in (p, q):
        require_unit_rows(rows)
    near = np.where((_row_dots(p[:, :4], q[:, :4]) < 0)[:, None], -q, q)
    rel = canonicalized_rows(dq_mul_rows(conjugate_rows(p), near))
    mid = canonicalized_rows(dq_mul_rows(p, _screw_power(rel, tau)))
    return np.where((tau == 0.0)[:, None], p, np.where((tau == 1.0)[:, None], q, mid))


# -- trajectory formats --------------------------------------------------------

_FIELDS = {"tum": 8, "kitti_pose": 12}

# largest |r|^2 - 1 of a TUM quaternion that is scaled to unit on load: a
# quaternion printed to 4 decimals, as the TUM RGB-D ground truth is, is off
# by up to about 2e-4
TUM_QUAT_LIMIT = 1e-3


def _numeric_lines(path, width: int) -> tuple[list[int], np.ndarray]:
    """(line numbers, (n, width) values) of the lines of a whitespace
    separated text file, skipping blank lines and lines starting with "#".
    A line with another number of fields or a value that is not a finite
    float raises a ParseError naming it."""
    linenos, rows = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != width:
                raise ParseError(f"expected {width} fields, got {len(fields)}",
                                 line=lineno)
            try:
                row = [float(x) for x in fields]
            except ValueError as err:
                raise ParseError(str(err), line=lineno) from None
            if not all(map(math.isfinite, row)):
                raise ParseError("values must be finite", line=lineno)
            linenos.append(lineno)
            rows.append(row)
    return linenos, np.array(rows, dtype=float).reshape(-1, width)


def load_trajectory(path, fmt: str = "tum", rate: float = 10.0) -> Trajectory:
    """Read a trajectory file; ``fmt`` is "tum" or "kitti_pose".

    Pose-matrix lines are stamped i / ``rate``.  Their rotations are
    re-orthogonalized when they deviate mildly from SO(3) and rejected
    beyond 1e-3.  A TUM quaternion is scaled to unit when its |r|^2 - 1
    is above ``NORMALIZE_LIMIT`` but at most ``TUM_QUAT_LIMIT``.  A bad
    value, a TUM quaternion beyond that and a timestamp not after its
    predecessor raise a ParseError naming the line; an unknown format or a
    rate that is not finite and positive raises ValueError.
    """
    if fmt not in _FIELDS:
        raise ValueError(f"unknown trajectory format {fmt!r}")
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be finite and positive, got {rate!r}")
    linenos, vals = _numeric_lines(path, _FIELDS[fmt])
    if fmt == "tum":
        times, real = vals[:, 0], vals[:, [7, 4, 5, 6]]
        # the defect as normalizing measures it, so a row within its limit
        # keeps its bits
        nr = np.sqrt(_row_dots(real, real))
        defect = np.abs(nr * nr - 1.0)
        loose = (defect > NORMALIZE_LIMIT) & (defect <= TUM_QUAT_LIMIT)
        real[loose] /= nr[loose, None]
        try:  # normalizing is sign-symmetric: canonical first, same bits
            poses = _motion_rows(_unit_rows(real, vals[:, 1:4]))
        except NotUnit as err:
            raise ParseError(str(err), line=linenos[err.row]) from None
    else:
        mats = vals.reshape(-1, 3, 4)
        R = mats[:, :, :3]
        defect = np.maximum(
            np.abs(np.swapaxes(R, 1, 2) @ R - np.eye(3)).max(axis=(1, 2)),
            np.abs(np.linalg.det(R) - 1.0))
        if (defect > 1e-3).any():
            i = int(np.argmax(defect > 1e-3))
            raise NonOrthogonalRotation(
                f"line {linenos[i]}: rotation defect {defect[i]:.2e}")
        drift = defect > 1e-12
        if drift.any():
            u, _, vt = np.linalg.svd(R[drift])
            mats[drift, :, :3] = u @ vt
        times = np.arange(len(vals)) / rate
        poses = from_homogeneous_rows(mats)
    late = np.diff(times) <= 0
    if late.any():
        raise ParseError("timestamps not strictly increasing",
                         line=linenos[int(np.argmax(late)) + 1])
    return Trajectory(times=times, poses=poses)


def save_trajectory(traj: Trajectory, path, fmt: str = "tum"):
    """Write a trajectory that :func:`load_trajectory` reads back, each
    value with 17 significant digits; its poses must be unit (NotUnit)."""
    _, t = angle_translation_rows(traj.poses)
    if fmt == "tum":
        real = traj.poses[:, :4]
        table = np.column_stack([traj.times, t, real[:, 1:], real[:, :1]])
    elif fmt == "kitti_pose":
        table = np.concatenate([quat_to_rot_rows(traj.poses[:, :4]), t[:, :, None]],
                               axis=2).reshape(-1, 12)
    else:
        raise ValueError(f"unknown trajectory format {fmt!r}")
    np.savetxt(path, table, fmt="%.17g")


def relative_motions(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Incremental motions in the sensor frame, stamped at interval ends:
    (times (n - 1,), sign-canonical motion rows (n - 1, 8)).

    Folding the motions onto the first pose reproduces the trajectory.
    """
    if len(traj) < 2:
        raise ValueError("need at least two poses")
    steps = dq_mul_rows(conjugate_rows(traj.poses[:-1]), traj.poses[1:])
    return traj.times[1:], canonicalized_rows(steps)


# -- pairing --------------------------------------------------------------------

def _poses_at(traj: Trajectory, t: np.ndarray, cfg: PairingConfig):
    """Rows of ``traj``'s poses at times ``t``, and which of them exist:
    inside the time range and between poses at most twice the median
    interval apart when interpolating, within ``max_skew`` of the nearest
    pose (the earlier one on a tie) otherwise."""
    times, poses = traj.times, traj.poses
    if cfg.interpolate:
        i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
        gap = times[i + 1] - times[i]
        found = ((t >= times[0]) & (t <= times[-1])
                 & (gap <= 2.0 * np.median(np.diff(times))))
        return sclerp(poses[i], poses[i + 1], (t - times[i]) / gap), found
    i = np.searchsorted(times, t)
    before, after = np.maximum(i - 1, 0), np.minimum(i, len(times) - 1)
    near = np.where(np.abs(times[after] - t) < np.abs(times[before] - t),
                    after, before)
    return poses[near], np.abs(times[near] - t) <= cfg.max_skew


def pair_streams(traj_a: Trajectory, traj_b: Trajectory,
                 cfg: PairingConfig | None = None) -> tuple[PairArrays, int]:
    """Motion pairs on stream a's time grid; returns (pairs, dropped count).

    Stream b's poses are screw-interpolated at a's pose times (or matched
    nearest-neighbor within ``max_skew``), as :class:`PairingConfig` says;
    a-intervals without a valid b-pose at both ends are dropped and
    counted.  The record normalizes and sign-canonicalizes the motions.
    """
    cfg = cfg or PairingConfig()
    if len(traj_a) < 2 or len(traj_b) < 2:
        raise ValueError("both trajectories need at least two poses")
    if traj_a.times[0] > traj_b.times[-1] or traj_a.times[-1] < traj_b.times[0]:
        raise NoOverlap("trajectory time ranges are disjoint")
    poses_b, found = _poses_at(traj_b, traj_a.times, cfg)
    keep = found[:-1] & found[1:]
    t, q_a = relative_motions(traj_a)
    _, q_b = relative_motions(Trajectory(traj_a.times, poses_b))
    return PairArrays(t[keep], q_a[keep], q_b[keep]), len(keep) - int(keep.sum())


# -- motion-pair JSONL -----------------------------------------------------------

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


def _weight_rows(w_rows: list, eta_rows: list):
    """Rows of ``w`` (n, 8) and ``eta`` (n,) converted from JSON values,
    absent ones 1, and the error of the first row that does not convert (its
    ``row`` set, its values left at 1) or None; a :class:`PairArrays` checks
    the values.  A file whose rows carry neither is not scanned row by row."""
    n = len(w_rows)
    w, eta = np.ones((n, 8)), np.ones(n)
    if w_rows.count(None) == eta_rows.count(None) == n:
        return w, eta, None
    for i, (w_i, eta_i) in enumerate(zip(w_rows, eta_rows)):
        try:
            if w_i is not None:
                w[i] = np.asarray(w_i, dtype=float).reshape(8)
            if eta_i is not None:
                eta[i] = float(eta_i)
        except (ValueError, TypeError, OverflowError) as err:
            w[i], eta[i], err.row = 1.0, 1.0, i
            return w, eta, err
    return w, eta, None


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
    converted line by line, up to its first bad line.  The
    :class:`PairArrays` record then checks the values of all rows at once.
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
    # a weight that does not convert loses to a motion fault on its row or
    # before it, and the record's first bad row wins, as in a MotionPair
    w, eta, bad = _weight_rows(w, eta)
    n = len(lines) if bad is None else bad.row + 1
    qa, qb = np.frombuffer(qa).reshape(-1, 8), np.frombuffer(qb).reshape(-1, 8)
    try:
        pairs = PairArrays(np.frombuffer(t)[:n], qa[:n], qb[:n], w[:n], eta[:n])
    except (NotUnit, InvalidWeight) as err:
        bad = err
    if bad is not None:
        raise type(bad)(f"line {lines[bad.row]}: {bad}")
    if fault is not None:
        raise fault
    return pairs


def load_point_cloud(path) -> np.ndarray:
    """Whitespace-separated xyz rows; a malformed or non-finite coordinate
    raises a ParseError naming its line."""
    return _numeric_lines(path, 3)[1]


def write_study_csv(rows, path):
    """Study sweep output; one dict per row keyed like the header."""
    keys = STUDY_CSV_HEADER.split(",")
    with open(path, "w") as fh:
        fh.write(STUDY_CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(repr(row[k]) if isinstance(row[k], float)
                              else str(row[k]) for k in keys) + "\n")
