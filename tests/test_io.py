import json
import math
import re

import numpy as np
import pytest
from scipy.spatial.transform import Rotation, Slerp

import dqcalib.io
from dqcalib.cost import MotionPair
from dqcalib.dualquat import DualQuat
from dqcalib.errors import InvalidWeight, NoOverlap, NotUnit, ParseError
from dqcalib.io import (PairArrays, PairingConfig, STUDY_CSV_HEADER,
                        Trajectory, load_pairs_jsonl, load_point_cloud,
                        load_trajectory, pair_streams, relative_motions,
                        save_pairs_jsonl, save_trajectory, sclerp,
                        write_study_csv)
from dqcalib.sim import SimConfig, generate_path, random_unit_dq


def make_traj(rng, n=10, dt=0.1, start=0.0):
    poses = [DualQuat.identity()]
    for _ in range(n - 1):
        step = random_unit_dq(rng, max_translation=0.5)
        poses.append((poses[-1] * step).canonicalized())
    times = start + dt * np.arange(n)
    return Trajectory(times=times, poses=rows_of(poses))


def rows_of(dqs):
    return np.array([q.vec() for q in dqs]).reshape(-1, 8)


def same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


class TestTrajectoryFormats:
    def test_tum_identity_line(self, tmp_path):
        p = tmp_path / "traj.txt"
        p.write_text("0.0 0 0 0 0 0 0 1\n")
        traj = load_trajectory(p, fmt="tum")
        assert len(traj) == 1
        assert DualQuat.from_vec(traj.poses[0]).is_close(DualQuat.identity(),
                                                         atol=1e-15)

    def test_kitti_identity_line(self, tmp_path):
        p = tmp_path / "poses.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
        traj = load_trajectory(p, fmt="kitti_pose")
        assert DualQuat.from_vec(traj.poses[0]).is_close(DualQuat.identity(),
                                                         atol=1e-15)
        assert traj.times[0] == 0.0

    def test_kitti_timestamps_at_rate(self, tmp_path):
        p = tmp_path / "poses.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n" * 5)
        traj = load_trajectory(p, fmt="kitti_pose", rate=10.0)
        assert np.allclose(np.diff(traj.times), 0.1)

    @pytest.mark.parametrize("fmt", ["tum", "kitti_pose"])
    def test_round_trip_1000_poses(self, tmp_path, rng, fmt):
        poses = rows_of(random_unit_dq(rng, max_translation=5.0)
                        for _ in range(1000))
        traj = Trajectory(0.1 * np.arange(1000), poses)
        p = tmp_path / "t.txt"
        save_trajectory(traj, p, fmt=fmt)
        back = load_trajectory(p, fmt=fmt, rate=10.0)
        worst = np.max(np.abs(traj.poses - back.poses))
        assert worst < 1e-9

    def test_tum_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0.0 0 0 0 0 0 0 1\n0.1 nope 0 0 0 0 0 1\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(p, fmt="tum")
        assert err.value.line == 2

    def test_tum_quaternion_printed_to_4_decimals_loads(self, tmp_path):
        # |r|^2 - 1 = -8.5e-5, as 4-decimal rounding leaves it: scaled to unit
        p = tmp_path / "groundtruth.txt"
        p.write_text("# ground truth trajectory\n# timestamp tx ty tz qx qy qz qw\n"
                     "1305031102.1758 1.3405 0.6266 1.6575 "
                     "0.6574 0.6126 -0.2949 -0.3248\n")
        q = DualQuat.from_vec(load_trajectory(p, fmt="tum").poses[0])
        r = np.array([-0.3248, 0.6574, 0.6126, -0.2949])
        assert q.is_unit()
        assert np.allclose(q.real, -r / np.linalg.norm(r), atol=1e-15)
        assert np.allclose(q.translation(), [1.3405, 0.6266, 1.6575], atol=1e-12)

    @pytest.mark.parametrize("qw", ["1.0004", "0.9996"])
    def test_tum_quaternion_within_1e_3_loads_as_unit(self, tmp_path, qw):
        p = tmp_path / "t.txt"
        p.write_text(f"0.0 1 2 3 0 0 0 1\n0.1 1 2 3 0 0 0 {qw}\n")
        traj = load_trajectory(p, fmt="tum")
        assert same_bits(traj.poses[0], traj.poses[1])

    @pytest.mark.parametrize("qw", ["1.001", "0.999"])
    def test_tum_quaternion_beyond_1e_3_names_its_line(self, tmp_path, qw):
        p = tmp_path / "t.txt"
        p.write_text(f"# t tx ty tz qx qy qz qw\n0.0 0 0 0 0 0 0 1\n"
                     f"0.1 0 0 0 0 0 0 {qw}\n")
        with pytest.raises(ParseError, match="too far from 1") as err:
            load_trajectory(p, fmt="tum")
        assert err.value.line == 3

    def test_kitti_non_orthogonal_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 0.5 0 0 0 1 0 0 0 0 1 0\n")
        from dqcalib.errors import NonOrthogonalRotation
        with pytest.raises(NonOrthogonalRotation):
            load_trajectory(p, fmt="kitti_pose")

    def test_kitti_mild_drift_reorthogonalized(self, tmp_path, rng):
        R = Rotation.random(random_state=np.random.RandomState(3)).as_matrix()
        R_drift = R + 1e-5 * rng.normal(size=(3, 3))
        line = " ".join(str(v) for v in np.column_stack(
            [R_drift, [1.0, 2.0, 3.0]]).ravel())
        p = tmp_path / "drift.txt"
        p.write_text(line + "\n")
        traj = load_trajectory(p, fmt="kitti_pose")
        R_back = DualQuat.from_vec(traj.poses[0]).rotation_matrix()
        assert np.allclose(R_back.T @ R_back, np.eye(3), atol=1e-12)
        assert np.allclose(R_back, R, atol=1e-4)

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n")
        with pytest.raises(ParseError):
            load_trajectory(p, fmt="tum")

    def test_non_monotone_timestamp_names_its_line(self, tmp_path):
        # comment and blank lines count: the error names the file's line
        p = tmp_path / "bad.txt"
        p.write_text("# t tx ty tz qx qy qz qw\n\n0.0 0 0 0 0 0 0 1\n"
                     "1.0 0 0 0 0 0 0 1\n1.0 0 0 0 0 0 0 1\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(p, fmt="tum")
        assert err.value.line == 5

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_kitti_non_finite_value_names_its_line(self, tmp_path, bad):
        p = tmp_path / "bad.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n"
                     f"1 0 0 {bad} 0 1 0 0 0 0 1 0\n")
        with pytest.raises(ParseError, match="finite") as err:
            load_trajectory(p, fmt="kitti_pose")
        assert err.value.line == 2

    def test_tum_nan_timestamp_names_its_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0.0 0 0 0 0 0 0 1\nnan 0 0 0 0 0 0 1\n")
        with pytest.raises(ParseError, match="finite") as err:
            load_trajectory(p, fmt="tum")
        assert err.value.line == 2

    @pytest.mark.parametrize("rate", [float("nan"), 0.0, -10.0],
                             ids=["nan", "zero", "negative"])
    def test_bad_rate_rejected(self, tmp_path, rate):
        p = tmp_path / "poses.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n" * 3)
        with pytest.raises(ValueError, match="rate must be finite and positive"):
            load_trajectory(p, fmt="kitti_pose", rate=rate)

    def test_record_rejects_unordered_times_and_bad_shapes(self):
        poses = np.tile(DualQuat.identity().vec(), (3, 1))
        for times in ([0.0, 0.2, 0.1], [0.0, np.nan, 0.2]):
            with pytest.raises(ValueError, match="strictly increasing"):
                Trajectory(times, poses)
        with pytest.raises(ValueError, match="shapes"):
            Trajectory([0.0, 0.1], poses)

    def test_record_copies_its_inputs(self, rng):
        times, poses = np.arange(4) * 0.1, make_traj(rng, n=4).poses.copy()
        traj = Trajectory(times, poses)
        assert times.flags.writeable and poses.flags.writeable
        assert not (traj.times.flags.writeable or traj.poses.flags.writeable)
        assert not (np.shares_memory(traj.times, times)
                    or np.shares_memory(traj.poses, poses))
        assert same_bits(traj.times, times) and same_bits(traj.poses, poses)


class TestRelativeMotions:
    def test_constant_trajectory_gives_identities(self):
        pose = DualQuat.from_translation([1, 2, 3])
        traj = Trajectory(np.arange(5.0), rows_of([pose] * 5))
        for m in relative_motions(traj)[1]:
            assert DualQuat.from_vec(m).is_close(DualQuat.identity(), atol=1e-12)

    def test_two_poses_give_known_displacement(self, rng):
        d = random_unit_dq(rng)
        start = random_unit_dq(rng)
        traj = Trajectory(np.array([0.0, 1.0]),
                          rows_of([start, (start * d).canonicalized()]))
        times, motions = relative_motions(traj)
        assert len(motions) == 1
        assert DualQuat.from_vec(motions[0]).is_close(d, atol=1e-12)

    def test_chain_recomposition(self, rng):
        traj = make_traj(rng, n=40)
        pose = DualQuat.from_vec(traj.poses[0])
        for m in relative_motions(traj)[1]:
            pose = pose * DualQuat.from_vec(m)
        assert pose.canonicalized().is_close(DualQuat.from_vec(traj.poses[-1]),
                                             atol=1e-9)


class TestSclerp:
    def test_endpoints_exact(self, rng):
        p = rows_of(random_unit_dq(rng) for _ in range(5))
        q = rows_of(random_unit_dq(rng) for _ in range(5))
        assert same_bits(sclerp(p, q, np.zeros(5)), p)
        assert same_bits(sclerp(p, q, np.ones(5)), q)

    def test_midpoint_unit(self, rng):
        p = rows_of(random_unit_dq(rng, 2.0) for _ in range(20))
        q = rows_of(random_unit_dq(rng, 2.0) for _ in range(20))
        for mid in sclerp(p, q, np.full(20, 0.37)):
            assert DualQuat.from_vec(mid).is_unit(tol=1e-9)

    def test_rotation_part_matches_scipy_slerp(self, rng):
        p = [random_unit_dq(rng) for _ in range(20)]
        q = [random_unit_dq(rng) for _ in range(20)]
        tau = rng.uniform(0, 1, 20)
        mids = sclerp(rows_of(p), rows_of(q), tau)
        for p_i, q_i, tau_i, mid in zip(p, q, tau, mids):
            key_rots = Rotation.concatenate([
                Rotation.from_matrix(p_i.rotation_matrix()),
                Rotation.from_matrix(q_i.rotation_matrix())])
            oracle = Slerp([0.0, 1.0], key_rots)(tau_i).as_matrix()
            assert np.allclose(DualQuat.from_vec(mid).rotation_matrix(), oracle,
                               atol=1e-9)

    def test_pure_translation_is_linear(self):
        p = DualQuat.identity()
        q = DualQuat.from_translation([2.0, -4.0, 6.0])
        mid = DualQuat.from_vec(sclerp(rows_of([p]), rows_of([q]),
                                       np.array([0.25]))[0])
        assert np.allclose(mid.translation(), [0.5, -1.0, 1.5], atol=1e-12)

    def test_non_unit_row_rejected(self, rng):
        p = rows_of(random_unit_dq(rng) for _ in range(3))
        q = p.copy()
        q[1, 0] += 1e-6
        with pytest.raises(NotUnit) as err:
            sclerp(p, q, np.full(3, 0.5))
        assert err.value.row == 1


class TestPairStreams:
    def test_identical_timestamps_exact(self, rng):
        a = make_traj(rng, n=12)
        q_t = random_unit_dq(rng)
        b = Trajectory(a.times, rows_of((DualQuat.from_vec(p) * q_t).canonicalized()
                                        for p in a.poses))
        pairs, dropped = pair_streams(a, b)
        assert isinstance(pairs, PairArrays)
        assert dropped == 0
        assert len(pairs) == 11
        for q_a, q_b in zip(pairs.q_a, pairs.q_b):
            lhs = (DualQuat.from_vec(q_a) * q_t).vec()
            rhs = (q_t * DualQuat.from_vec(q_b)).vec()
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_double_rate_constant_twist(self, rng):
        # constant-twist motion: screw interpolation is exact, so every
        # a-motion must match the analytic relative pose
        twist = DualQuat.from_rot_trans([0, 0, 1], 0.3, [1.0, 0.2, 0.0])

        def stream(times):
            n = len(times)
            return Trajectory(times, sclerp(np.tile(DualQuat.identity().vec(), (n, 1)),
                                            np.tile(twist.vec(), (n, 1)),
                                            times / 2.0))

        b = stream(0.05 * np.arange(41))
        a = stream(0.1 * np.arange(20) + 0.025)
        pairs, dropped = pair_streams(a, b)
        assert dropped == 0
        assert len(pairs) == 19
        expected = (DualQuat.from_vec(a.poses[0]).conjugate()
                    * DualQuat.from_vec(a.poses[1])).canonicalized()
        for q_a, q_b in zip(pairs.q_a, pairs.q_b):
            assert DualQuat.from_vec(q_a).is_close(expected, atol=1e-9)
            assert DualQuat.from_vec(q_b).is_close(expected, atol=1e-9)

    def test_disjoint_ranges(self, rng):
        a = make_traj(rng, n=5, start=0.0)
        b = make_traj(rng, n=5, start=10.0)
        with pytest.raises(NoOverlap):
            pair_streams(a, b)

    def test_partial_overlap_drops_and_counts(self, rng):
        a = make_traj(rng, n=10, dt=0.1, start=0.0)
        b = make_traj(rng, n=6, dt=0.1, start=0.35)
        pairs, dropped = pair_streams(a, b)
        assert dropped > 0
        assert len(pairs) + dropped == 9

    def test_nearest_neighbor_mode(self, rng):
        a = make_traj(rng, n=8, dt=0.1)
        b = Trajectory(a.times + 0.004, a.poses)
        pairs, dropped = pair_streams(a, b, PairingConfig(interpolate=False,
                                                          max_skew=0.02))
        assert dropped == 0
        assert len(pairs) == 7
        _, dropped_strict = pair_streams(
            a, b, PairingConfig(interpolate=False, max_skew=0.001))
        assert dropped_strict == 7

    def test_interpolation_drops_intervals_across_a_dropout(self):
        # stream b loses 10 s after its 11th pose: the a-intervals inside
        # the gap are dropped and counted, the others keep their bits
        traj = generate_path(SimConfig(n_steps=120))
        late = np.arange(len(traj)) >= 11
        b = Trajectory(np.where(late, traj.times + 10.0, traj.times), traj.poses)
        pairs, dropped = pair_streams(traj, b)
        assert len(pairs) + dropped == 120
        assert dropped == 102
        # an interval [t - 0.1, t] is kept only outside the gap
        gap_start, gap_end = b.times[10], b.times[11]
        assert np.all((pairs.t <= gap_start) | (pairs.t - 0.1 >= gap_end - 1e-9))
        # the intervals before the gap as pairing b's poses up to it gives
        ref, _ = pair_streams(traj, Trajectory(b.times[:11], b.poses[:11]))
        assert same_bits(pairs.q_b[:9], ref.q_b[:9])

    @pytest.mark.parametrize("max_skew", [float("nan"), -0.01],
                             ids=["nan", "negative"])
    def test_bad_max_skew_rejected(self, max_skew):
        with pytest.raises(ValueError, match="max_skew"):
            PairingConfig(max_skew=max_skew)


class TestPairsJsonl:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        pairs = [MotionPair(q_a=random_unit_dq(rng), q_b=random_unit_dq(rng),
                            timestamp=0.1 * i) for i in range(20)]
        pairs[3] = MotionPair(q_a=pairs[3].q_a, q_b=pairs[3].q_b,
                              timestamp=pairs[3].timestamp,
                              weight_diag=np.arange(1.0, 9.0), eta=2.5)
        pairs[5] = MotionPair(q_a=pairs[5].q_a, q_b=pairs[5].q_b,
                              timestamp=pairs[5].timestamp, eta=0.0)
        p = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(pairs, p)
        back = load_pairs_jsonl(p)
        assert len(back) == 20
        for i, x in enumerate(pairs):
            assert np.array_equal(x.q_a.vec(), back.q_a[i])
            assert np.array_equal(x.q_b.vec(), back.q_b[i])
            assert x.timestamp == back.t[i]
            assert np.array_equal(x.weight_diag, back.w[i])
            assert (1.0 if x.eta is None else x.eta) == back.eta[i]
        for x, y in zip(pairs, back.motion_pairs()):
            assert np.array_equal(x.q_a.vec(), y.q_a.vec())
            assert np.array_equal(x.q_b.vec(), y.q_b.vec())
            assert x.timestamp == y.timestamp
            assert np.array_equal(x.weight_diag, y.weight_diag)

    def test_non_unit_rejected_with_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        good = {"t": 0.0, "qa": [1, 0, 0, 0, 0, 0, 0, 0],
                "qb": [1, 0, 0, 0, 0, 0, 0, 0]}
        bad = {"t": 0.1, "qa": [1.1, 0, 0, 0, 0, 0, 0, 0],
               "qb": [1, 0, 0, 0, 0, 0, 0, 0]}
        import json
        p.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(NotUnit, match="line 2"):
            load_pairs_jsonl(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert len(load_pairs_jsonl(p)) == 0

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("{not json\n")
        with pytest.raises(ParseError) as err:
            load_pairs_jsonl(p)
        assert err.value.line == 1


def oracle_load_pairs_jsonl(path):
    """The per-line loader the array loader replaced, kept as its oracle,
    with the loader's check for a non-finite ``t``, which it reports as a
    ParseError."""
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                qa = DualQuat.from_vec(rec["qa"])
                qb = DualQuat.from_vec(rec["qb"])
            except (json.JSONDecodeError, KeyError, ValueError, TypeError) as err:
                raise ParseError(str(err), line=lineno) from None
            if "t" in rec and not math.isfinite(float(rec["t"])):
                raise ParseError("timestamp is not finite", line=lineno)
            try:
                pair = MotionPair(q_a=qa, q_b=qb, timestamp=float(rec["t"]),
                                  weight_diag=rec.get("w"),
                                  eta=rec.get("eta"))
            except (NotUnit, InvalidWeight) as err:
                raise type(err)(f"line {lineno}: {err}") from None
            except KeyError as err:
                raise ParseError(f"missing field {err}", line=lineno) from None
            pairs.append(pair)
    return pairs


def _bump_real(rec, key):
    if len(rec.get(key, ())) == 8:
        rec[key][0] *= 1.1


def _tilt_dual(rec, key):
    if len(rec.get(key, ())) == 8:
        rec[key][4:] = list(np.add(rec[key][4:], 1e-3 * np.array(rec[key][:4])))


FAULTS = {
    "non_unit_qa": lambda rec: _bump_real(rec, "qa"),
    "non_unit_qb": lambda rec: _bump_real(rec, "qb"),
    "orthogonality_qa": lambda rec: _tilt_dual(rec, "qa"),
    "orthogonality_qb": lambda rec: _tilt_dual(rec, "qb"),
    "missing_t": lambda rec: rec.pop("t", None),
    "missing_qa": lambda rec: rec.pop("qa", None),
    "missing_qb": lambda rec: rec.pop("qb", None),
    "qa_7_elements": lambda rec: rec.update(qa=rec.get("qa", [1.0] * 8)[:7]),
    "negative_w": lambda rec: rec.update(w=[1.0] * 7 + [-0.5]),
    "negative_eta": lambda rec: rec.update(eta=-1.0),
    "w_7_elements": lambda rec: rec.update(w=[1.0] * 7),
    "malformed_json": None,
}


def _set(key, index, value):
    def fault(rec):
        if isinstance(rec.get(key), list) and len(rec[key]) > index:
            rec[key][index] = value
    return fault


NON_FINITE_FAULTS = {
    "nan_t": lambda rec: rec.update(t=math.nan),
    "inf_t": lambda rec: rec.update(t=math.inf),
    "nan_qa_real": _set("qa", 0, math.nan),
    "inf_qa_dual": _set("qa", 6, math.inf),
    "nan_qb_dual": _set("qb", 5, math.nan),
    "neg_inf_qb_real": _set("qb", 2, -math.inf),
    "nan_w": lambda rec: rec.update(w=[1.0] * 3 + [math.nan] + [1.0] * 4),
    "inf_w": lambda rec: rec.update(w=[math.inf] + [1.0] * 7),
    "nan_eta": lambda rec: rec.update(eta=math.nan),
    "inf_eta": lambda rec: rec.update(eta=math.inf),
}


def _record(rng, i):
    rec = {"t": 0.1 * (i + 1), "qa": list(random_unit_dq(rng).vec()),
           "qb": list(random_unit_dq(rng).vec())}
    if rng.uniform() < 0.3:
        rec["w"] = list(rng.uniform(0.0, 2.0, 8))
    if rng.uniform() < 0.3:
        rec["eta"] = float(rng.uniform(0.0, 3.0))
    return rec


def _write_pairs_file(path, rng, n_lines, faults):
    """A pair file with the given faults ({record index: [fault names]})
    and blank lines scattered between its records."""
    text = []
    for i in range(n_lines):
        while rng.uniform() < 0.2:
            text.append(" " * int(rng.integers(0, 3)))
        rec = _record(rng, i)
        names = faults.get(i, [])
        for name in names:
            fault = {**FAULTS, **NON_FINITE_FAULTS}[name]
            if fault is not None:
                fault(rec)
        line = json.dumps(rec)
        text.append(line[:len(line) // 2] if "malformed_json" in names else line)
    path.write_text("\n".join(text) + "\n")


def _outcome(load, path):
    """(exception type, line number or None) or the loaded rows."""
    try:
        result = load(path)
    except Exception as err:  # any error: its type is what is compared
        line = getattr(err, "line", None)
        match = re.match(r"line (\d+):", str(err))
        return type(err), line if line is not None else (
            int(match.group(1)) if match else None)
    return result


def _assert_same_outcome(path):
    expected = _outcome(oracle_load_pairs_jsonl, path)
    got = _outcome(load_pairs_jsonl, path)
    if isinstance(expected, tuple):
        exc_type, line = expected
        assert isinstance(got, tuple), f"expected {exc_type.__name__}, loaded"
        assert got[0] is exc_type
        if line is not None:
            assert got[1] == line
        return
    assert not isinstance(got, tuple), f"oracle loaded, got {got}"
    assert len(got) == len(expected)
    rows = PairArrays.from_pairs(expected)
    for name in ("t", "q_a", "q_b", "w", "eta"):
        assert getattr(got, name).tobytes() == getattr(rows, name).tobytes(), name


class TestPairsLoaderAgainstOracle:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_single_fault(self, tmp_path, fault):
        rng = np.random.default_rng(sorted(FAULTS).index(fault))
        path = tmp_path / "pairs.jsonl"
        _write_pairs_file(path, rng, 6, {3: [fault]})
        _assert_same_outcome(path)

    def test_first_bad_line_wins_over_later_malformed_line(self, tmp_path):
        rng = np.random.default_rng(1)
        for fault in sorted(set(FAULTS) - {"malformed_json"}):
            path = tmp_path / f"{fault}.jsonl"
            _write_pairs_file(path, rng, 6, {2: [fault], 4: ["malformed_json"]})
            _assert_same_outcome(path)

    def test_generated_files(self, tmp_path):
        rng = np.random.default_rng(2024)
        names = sorted(FAULTS)
        for k in range(300):
            n_lines = int(rng.integers(1, 12))
            faults = {}
            for _ in range(int(rng.integers(0, 4))):
                line = int(rng.integers(0, n_lines))
                faults.setdefault(line, []).append(names[rng.integers(len(names))])
            path = tmp_path / f"pairs{k}.jsonl"
            _write_pairs_file(path, rng, n_lines, faults)
            _assert_same_outcome(path)


class TestNonFinitePairsAgainstOracle:
    @pytest.mark.parametrize("fault", sorted(NON_FINITE_FAULTS))
    def test_single_fault_names_its_line(self, tmp_path, fault):
        rng = np.random.default_rng(sorted(NON_FINITE_FAULTS).index(fault))
        path = tmp_path / "pairs.jsonl"
        _write_pairs_file(path, rng, 6, {3: [fault]})
        expected = _outcome(oracle_load_pairs_jsonl, path)
        assert isinstance(expected, tuple) and expected[1] is not None
        _assert_same_outcome(path)

    def test_first_bad_line_wins(self, tmp_path):
        rng = np.random.default_rng(3)
        for early in sorted(NON_FINITE_FAULTS):
            for late in ("non_unit_qa", "negative_w", "malformed_json", "nan_t"):
                path = tmp_path / f"{early}-{late}.jsonl"
                _write_pairs_file(path, rng, 6, {1: [early], 4: [late]})
                _assert_same_outcome(path)
                path = tmp_path / f"{late}-{early}.jsonl"
                _write_pairs_file(path, rng, 6, {1: [late], 4: [early]})
                _assert_same_outcome(path)

    def test_generated_files(self, tmp_path):
        rng = np.random.default_rng(2025)
        names = sorted(FAULTS) + sorted(NON_FINITE_FAULTS)
        for k in range(300):
            n_lines = int(rng.integers(1, 12))
            faults = {}
            for _ in range(int(rng.integers(0, 4))):
                line = int(rng.integers(0, n_lines))
                faults.setdefault(line, []).append(names[rng.integers(len(names))])
            path = tmp_path / f"pairs{k}.jsonl"
            _write_pairs_file(path, rng, n_lines, faults)
            _assert_same_outcome(path)


def _write_lines(path, rng, n_lines, lines):
    """A pair file of well-formed records with blank lines scattered
    between them, record i written as ``lines[i](record)`` where given."""
    text = []
    for i in range(n_lines):
        while rng.uniform() < 0.2:
            text.append(" " * int(rng.integers(0, 3)))
        rec = _record(rng, i)
        text.append(lines[i](rec) if i in lines else json.dumps(rec))
    path.write_text("\n".join(text) + "\n")


def _malformed(rec):
    line = json.dumps(rec)
    return line[:len(line) // 2]


def _nan_t(rec):
    return json.dumps({**rec, "t": math.nan})


# lines of unusual layout, most of which the loader cannot convert with
# the rest of their block; some load and some raise, as the oracle decides
LAYOUTS = {
    "two_objects": lambda rec: json.dumps(rec) + " " + json.dumps(rec),
    "split_object": lambda rec: json.dumps(rec).replace(', "qa"', ',\n"qa"'),
    "array": lambda rec: json.dumps([rec]),
    "number": lambda rec: "1.5",
    "nested_qa": lambda rec: json.dumps(
        {**rec, "qa": [rec["qa"][:4], rec["qa"][4:]]}),
    "qa_16_elements": lambda rec: json.dumps({**rec, "qa": rec["qa"] * 2}),
    "int_t": lambda rec: json.dumps({**rec, "t": 3}),
    "bool_t": lambda rec: json.dumps({**rec, "t": True}),
    "string_t": lambda rec: json.dumps({**rec, "t": "0.25"}),
    "string_qa_element": lambda rec: json.dumps(
        {**rec, "qa": [str(rec["qa"][0])] + rec["qa"][1:]}),
    "duplicate_keys": lambda rec: json.dumps(rec)[:-1] + ', "qa": '
                                  + json.dumps(rec["qb"]) + "}",
    "huge_int_qa": lambda rec: json.dumps(
        {**rec, "qa": [10**400] + rec["qa"][1:]}),
    "deep_nesting": lambda rec: "[" * 100_000 + "]" * 100_000,
}


class TestMultiBlockPairsAgainstOracle:
    """Files of about 200 rows, which span several of the loader's blocks
    of 64 rows (blank lines do not count)."""

    EDGES = (63, 64, 127, 128, 150)

    @pytest.mark.parametrize("fault", sorted(FAULTS) + sorted(NON_FINITE_FAULTS))
    def test_fault_at_block_edges(self, tmp_path, fault):
        rng = np.random.default_rng(len(fault))
        for row in self.EDGES:
            path = tmp_path / f"{row}.jsonl"
            _write_pairs_file(path, rng, 200, {row: [fault]})
            _assert_same_outcome(path)

    def test_faults_on_both_sides_of_a_block_edge(self, tmp_path):
        rng = np.random.default_rng(4)
        names = sorted(FAULTS) + sorted(NON_FINITE_FAULTS)
        for early in names:
            for late in ("non_unit_qb", "nan_w", "malformed_json", "missing_t"):
                path = tmp_path / f"{early}-{late}.jsonl"
                _write_pairs_file(path, rng, 200, {127: [early], 128: [late]})
                _assert_same_outcome(path)

    def test_malformed_line_after_value_fault_in_same_block(self, tmp_path):
        rng = np.random.default_rng(5)
        names = sorted((set(FAULTS) | set(NON_FINITE_FAULTS)) - {"malformed_json"})
        for fault in names:
            path = tmp_path / f"{fault}.jsonl"
            _write_pairs_file(path, rng, 200, {70: [fault], 75: ["malformed_json"]})
            _assert_same_outcome(path)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_layout_sent_to_the_per_line_conversion(self, tmp_path, layout):
        rng = np.random.default_rng(len(layout))
        for row in (0, *self.EDGES):
            path = tmp_path / f"{row}.jsonl"
            _write_lines(path, rng, 200, {row: LAYOUTS[layout]})
            _assert_same_outcome(path)
            # a bad line earlier in the same block is the one reported,
            # whether it fails to decode or decodes and fails to convert
            for bad in (_malformed, _nan_t) if row % 64 else ():
                _write_lines(path, rng, 200, {row - 1: bad, row: LAYOUTS[layout]})
                _assert_same_outcome(path)

    def test_16_element_qa_on_every_line(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "pairs.jsonl"
        _write_lines(path, rng, 200, dict.fromkeys(range(200),
                                                  LAYOUTS["qa_16_elements"]))
        _assert_same_outcome(path)

    def test_undecodable_text_after_a_bad_line(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "pairs.jsonl"
        for lines in ({}, {10: _malformed}, {10: LAYOUTS["number"]}):
            # the bad byte is far enough past line 10 that a per-line
            # reader meets line 10 before it has to decode the byte
            _write_lines(path, rng, 200, lines)
            text = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(b"".join(text[:60]) + b"\xff\n" + b"".join(text[60:]))
            _assert_same_outcome(path)

    def test_generated_files(self, tmp_path):
        rng = np.random.default_rng(2026)
        names = sorted(FAULTS) + sorted(NON_FINITE_FAULTS)
        for k in range(40):
            n_lines = int(rng.integers(60, 260))
            faults = {}
            for _ in range(int(rng.integers(0, 3))):
                line = int(rng.integers(0, n_lines))
                faults.setdefault(line, []).append(names[rng.integers(len(names))])
            path = tmp_path / f"pairs{k}.jsonl"
            _write_pairs_file(path, rng, n_lines, faults)
            _assert_same_outcome(path)

    def test_only_weight_past_the_first_block_is_checked(self, tmp_path):
        # no line carries a w or an eta except one bad eta in the second
        # block: its line is the one named
        rng = np.random.default_rng(10)
        records = [{"t": 0.1 * (i + 1), "qa": list(random_unit_dq(rng).vec()),
                    "qb": list(random_unit_dq(rng).vec())} for i in range(200)]
        records[100]["eta"] = -1.0
        path = tmp_path / "pairs.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        with pytest.raises(InvalidWeight, match="^line 101: eta must be"):
            load_pairs_jsonl(path)
        _assert_same_outcome(path)

    def test_well_formed_blocks_skip_the_per_line_conversion(self, tmp_path,
                                                              monkeypatch):
        rng = np.random.default_rng(9)
        path = tmp_path / "pairs.jsonl"
        _write_pairs_file(path, rng, 200, {})
        text = path.read_text()
        assert "\n\n" in text and '"w"' in text and '"eta"' in text

        def per_line(block):
            raise AssertionError("a well-formed block was converted line by line")

        monkeypatch.setattr(dqcalib.io, "_convert_lines", per_line)
        _assert_same_outcome(path)


class TestPointCloudAndCsv:
    def test_point_cloud_round_trip(self, tmp_path, rng):
        pts = rng.normal(size=(50, 3))
        p = tmp_path / "cloud.xyz"
        p.write_text("\n".join(" ".join(f"{v:.17g}" for v in row)
                               for row in pts))
        back = load_point_cloud(p)
        assert np.array_equal(back, pts)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_point_cloud_non_finite_names_line(self, tmp_path, bad):
        p = tmp_path / "cloud.xyz"
        p.write_text(f"0 0 0\n1 0 0\n# comment\n{bad} 2 0\n0 1 0\n")
        with pytest.raises(ParseError) as err:
            load_point_cloud(p)
        assert err.value.line == 4

    def test_study_csv_header(self, tmp_path):
        p = tmp_path / "study.csv"
        write_study_csv([{"noise_level": 0.05, "n": 100, "seed": 1,
                          "eps_r_deg": 0.1, "eps_t_m": 0.02, "gap": 1e-9,
                          "time_ms": 12.5}], p)
        lines = p.read_text().splitlines()
        assert lines[0] == STUDY_CSV_HEADER
        assert len(lines) == 2
