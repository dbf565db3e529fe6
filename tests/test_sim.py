from dataclasses import astuple

import numpy as np
import pytest

from dqcalib.dualquat import (DualQuat, canonicalized_rows, conjugate_rows,
                              dq_mul_rows, left_mat, quat_mul_rows, right_mat)
from dqcalib.errors import DegeneratePath
from dqcalib.io import PairArrays
from dqcalib.sim import (SimConfig, add_noise, generate_path, noise_sigmas,
                         planar_rig, random_unit_dq, sensor_pair_motions,
                         simulate_pairs, simulate_rows, surface_from_spec)

from conftest import (oracle_add_noise, oracle_generate_path,
                      oracle_noise_sigmas, oracle_planar_rig,
                      oracle_sensor_pair_motions, oracle_simulate_pairs)


def flat_config(**kw):
    base = dict(path={"kind": "waypoints",
                      "points": [[0.0, 0.0], [100.0, 0.0]]},
                surface={"kind": "flat"}, step_length=1.0, n_steps=20)
    base.update(kw)
    return SimConfig(**base)


class TestGeneratePath:
    def test_straight_flat_path_has_identity_orientations(self):
        poses = generate_path(flat_config())
        for p in map(DualQuat.from_vec, poses.poses):
            assert p.is_close(DualQuat.identity() *
                              DualQuat.from_translation(p.translation()), atol=1e-12)
            assert np.allclose(p.real, [1, 0, 0, 0], atol=1e-12)
        positions = np.array([DualQuat.from_vec(p).translation() for p in poses.poses])
        assert np.allclose(positions[:, 1:], 0.0, atol=1e-12)

    def test_circle_flat_path_sweeps_yaw(self):
        cfg = SimConfig(path={"kind": "circle", "radius": 10.0},
                        surface={"kind": "flat"}, step_length=1.0, n_steps=63)
        poses = generate_path(cfg)
        yaws = []
        for p in map(DualQuat.from_vec, poses.poses):
            axis, angle, _ = p.to_rot_trans()
            if angle > 1e-9:
                assert np.allclose(np.abs(axis), [0, 0, 1], atol=1e-9)
            yaws.append(np.sign(axis[2]) * angle)
        # ~63 steps of 1 m on radius 10 sweep a full turn
        assert np.max(np.abs(yaws)) > 0.9 * np.pi

    def test_sinusoid_surface_normals_match_numeric_gradient(self):
        cfg = SimConfig(path={"kind": "circle", "radius": 12.0},
                        surface={"kind": "sinusoid"}, n_steps=40)
        poses = generate_path(cfg)
        height, _ = surface_from_spec({"kind": "sinusoid"})
        h = 1e-6
        for p in map(DualQuat.from_vec, poses.poses):
            x, y, z = p.translation()
            assert abs(z - height(x, y)) < 1e-12
            gx = (height(x + h, y) - height(x - h, y)) / (2 * h)
            gy = (height(x, y + h) - height(x, y - h)) / (2 * h)
            n = np.array([-gx, -gy, 1.0])
            n /= np.linalg.norm(n)
            z_axis = p.rotation_matrix()[:, 2]
            assert np.allclose(z_axis, n, atol=1e-6)

    def test_x_axis_is_tangent_projected_onto_surface(self):
        cfg = SimConfig(path={"kind": "circle", "radius": 12.0},
                        surface={"kind": "sinusoid"}, n_steps=30)
        poses = generate_path(cfg)
        height, _ = surface_from_spec({"kind": "sinusoid"})
        positions = np.array([DualQuat.from_vec(p).translation() for p in poses.poses])
        h = 1e-6
        for i, p in enumerate(map(DualQuat.from_vec, poses.poses[:-1])):
            x, y = positions[i, :2]
            gx = (height(x + h, y) - height(x - h, y)) / (2 * h)
            gy = (height(x, y + h) - height(x, y - h)) / (2 * h)
            n = np.array([-gx, -gy, 1.0])
            n /= np.linalg.norm(n)
            t2d = positions[i + 1, :2] - positions[i, :2]
            t3 = np.array([t2d[0], t2d[1], 0.0])
            t3 /= np.linalg.norm(t3)
            expected = t3 - (t3 @ n) * n
            expected /= np.linalg.norm(expected)
            R = p.rotation_matrix()
            assert np.allclose(R[:, 0], expected, atol=1e-6)
            assert abs(R[:, 0] @ R[:, 2]) < 1e-12
            # forward component stays aligned with travel direction
            assert R[:2, 0] @ t2d > 0

    def test_coincident_waypoints_rejected(self):
        cfg = flat_config(path={"kind": "waypoints",
                                "points": [[0, 0], [0, 0], [5, 0]]})
        with pytest.raises(DegeneratePath):
            generate_path(cfg)

    def test_timestamps_at_rate(self):
        poses = generate_path(flat_config(n_steps=5))
        assert np.allclose(np.diff(poses.times), 0.1)


class TestSensorPairMotions:
    def test_identity_calibration_gives_equal_motions(self):
        poses = generate_path(flat_config())
        rows = sensor_pair_motions(poses, DualQuat.identity())
        for a, b in zip(rows.q_a, rows.q_b):
            assert DualQuat.from_vec(a).is_close(DualQuat.from_vec(b), atol=1e-15)

    def test_loop_closure_exact(self, rng):
        cfg = SimConfig(n_steps=30, true_calib=random_unit_dq(rng, 2.0))
        poses = generate_path(cfg)
        q_t = np.broadcast_to(cfg.true_calib.vec(), (30, 8))
        rows = sensor_pair_motions(poses, cfg.true_calib)
        assert len(rows) == 30
        lhs = dq_mul_rows(rows.q_a, q_t)
        rhs = dq_mul_rows(q_t, rows.q_b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_two_poses_give_one_pair(self, rng):
        poses = generate_path(flat_config(n_steps=1))
        rows = sensor_pair_motions(poses, random_unit_dq(rng))
        assert len(rows) == 1


def motions(rows):
    """The motions of ``rows``, q_a of a pair before its q_b."""
    return np.stack([rows.q_a, rows.q_b], axis=1).reshape(-1, 8)


class TestAddNoise:
    def test_zero_noise_returns_pairs_unchanged(self, rng):
        rows, _ = simulate_rows(SimConfig(n_steps=10, noise_level=0.0))
        assert add_noise(rows, 0.0, seed=7) is rows

    def test_relative_sigma_from_average_motion(self, rng):
        # motions averaging exactly 1 m and 0.1 rad per step at 10% relative
        # noise must give sigma_trans = 0.1 m and sigma_rot = 0.01 rad
        from dqcalib.cost import MotionPair

        pairs = []
        for _ in range(25):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            q = DualQuat.from_rot_trans(axis, 0.1, t)
            pairs.append(MotionPair(q_a=q, q_b=q))
        sigma_t, sigma_r = noise_sigmas(PairArrays.from_pairs(pairs), 0.10)
        assert abs(sigma_t - 0.1) < 1e-12
        assert abs(sigma_r - 0.01) < 1e-12

    def test_relative_sigma_on_circle_path(self):
        # 1 m steps along a circle of radius 10 -> ~0.1 rad per-step rotation
        cfg = SimConfig(path={"kind": "circle", "radius": 10.0},
                        surface={"kind": "flat"}, step_length=1.0, n_steps=40,
                        true_calib=DualQuat.identity())
        rows = sensor_pair_motions(generate_path(cfg), DualQuat.identity())
        sigma_t, sigma_r = noise_sigmas(rows, 0.10)
        assert abs(sigma_t - 0.1) < 2e-3
        assert abs(sigma_r - 0.01) < 5e-4

    def test_absolute_sigmas_passed_through(self, rng):
        rows, _ = simulate_rows(SimConfig(n_steps=5))
        assert noise_sigmas(rows, (0.25, 0.03)) == (0.25, 0.03)

    def test_injected_translation_noise_is_unbiased(self):
        cfg = SimConfig(path={"kind": "circle", "radius": 12.0},
                        surface={"kind": "flat"}, n_steps=200,
                        true_calib=DualQuat.identity())
        rows = sensor_pair_motions(generate_path(cfg), DualQuat.identity())
        # 50k pairs -> 100k perturbed motions
        rows = PairArrays(*(np.concatenate([r] * 250) for r in astuple(rows)))
        sigma_t = 0.1
        noisy = add_noise(rows, (sigma_t, 0.0), seed=11)
        q0, q1 = motions(rows), motions(noisy)
        d = canonicalized_rows(dq_mul_rows(q1, conjugate_rows(q0)))
        # DualQuat.translation, row-wise
        deltas = 2.0 * quat_mul_rows(d[:, 4:], conjugate_rows(d)[:, :4])[:, 1:]
        n = len(deltas)
        bound = 3 * sigma_t / np.sqrt(n)
        assert np.all(np.abs(deltas.mean(axis=0)) < bound * 1.5)
        assert np.allclose(deltas.std(axis=0), sigma_t, rtol=0.05)

    def test_deterministic_under_seed(self):
        rows, _ = simulate_rows(SimConfig(n_steps=15))
        a = add_noise(rows, 0.1, seed=3)
        b = add_noise(rows, 0.1, seed=3)
        assert np.array_equal(motions(a), motions(b))

    def test_full_config_determinism(self):
        p1, t1 = simulate_pairs(SimConfig(n_steps=12, noise_level=0.05, seed=9))
        p2, t2 = simulate_pairs(SimConfig(n_steps=12, noise_level=0.05, seed=9))
        assert np.array_equal(t1.vec(), t2.vec())
        for a, b in zip(p1, p2):
            assert np.array_equal(a.q_a.vec(), b.q_a.vec())


class TestPlanarRig:
    def test_pairs_close_loops_with_true_calibration(self):
        rig = planar_rig(n_steps=25, seed=4)
        for p in rig.pairs:
            lhs = (p.q_a * rig.true_calib).vec()
            rhs = (rig.true_calib * p.q_b).vec()
            assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_aligned_motions_are_planar(self):
        from dqcalib.constraints import ConstraintMode, eval_g
        from dqcalib.planar import plane_alignment_dq, project_motion

        rig = planar_rig(n_steps=25, seed=5)
        g_a = plane_alignment_dq(rig.plane_a)
        q_a = PairArrays.from_pairs(rig.pairs[:10]).q_a
        for proj in project_motion(q_a, g_a):
            assert np.max(np.abs(eval_g(proj, ConstraintMode.PLANAR))) < 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(step_length=0.0)
        with pytest.raises(ValueError):
            SimConfig(noise_level=-0.1)


@pytest.mark.parametrize("field, value", [
    ("n_steps", 5.0), ("n_steps", True), ("seed", 1.5), ("seed", False),
    ("step_length", float("nan")), ("step_length", float("inf")),
    ("rate", 0.0), ("rate", float("inf")), ("rate", -10.0),
    ("noise_level", float("nan")), ("noise_level", float("inf")),
    ("noise_level", (float("nan"), 0.01)), ("noise_level", (0.01, -0.1)),
    ("noise_level", (0.01,)), ("noise_level", (0.01, 0.01, 0.01)),
    ("noise_level", "0.05"), ("noise_level", True), ("noise_level", (True, 0.01)),
    ("noise_level", (0.01, False)), ("step_length", True), ("rate", True),
])
def test_bad_config_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{"n_steps": 5, field: value})


def _pair_bits(pairs):
    return np.array([np.concatenate([[p.timestamp], p.q_a.vec(), p.q_b.vec(),
                                     p.weight_diag, [p.eta is None]])
                     for p in pairs]).view(np.int64)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


def _same_rows(rows, expected):
    return all(_same_bits(a, b) for a, b in zip(astuple(rows), astuple(expected)))


WAVY = {"kind": "sinusoid", "terms": [
    {"amplitude": 2.0, "wavelength": 5.0, "axis": "y", "phase": 0.3},
    {"amplitude": 0.7, "wavelength": 3.0, "axis": "x", "phase": -1.0}]}
WAYPOINTS = {"kind": "waypoints",
             "points": [[0, 0], [30, 5], [10, 60], [-40, 20], [0, 0]]}
LISSAJOUS = {"kind": "lissajous", "ax": 14.0, "ay": 9.0, "fx": 1.0, "fy": 2.0}


@pytest.mark.parametrize("case", [
    SimConfig(n_steps=1),
    SimConfig(n_steps=2, noise_level=0.05, seed=3),
    SimConfig(n_steps=7, surface={"kind": "flat"}, noise_level=(0.1, 0.0)),
    SimConfig(n_steps=300, noise_level=0.05, seed=11),
    SimConfig(path=LISSAJOUS, surface=WAVY, n_steps=7, noise_level=(0.0, 0.02)),
    SimConfig(path=LISSAJOUS, surface={"kind": "flat"}, n_steps=300,
              noise_level=(0.05, 0.3), seed=4),
    SimConfig(path=WAYPOINTS, surface=WAVY, n_steps=60, noise_level=0.1, seed=5),
    SimConfig(path=WAYPOINTS, surface={"kind": "flat"}, n_steps=2,
              noise_level=(0.0, 0.02), seed=6),
    SimConfig(path={"kind": "circle", "radius": 5.0}, surface=WAVY, n_steps=1,
              noise_level=(0.05, 0.3), rate=7.0,
              true_calib=DualQuat.from_rot_trans([0, 0, 1], 0.3, [1, 2, 3])),
    {"n_steps": 1, "seed": 1},
    {"n_steps": 80, "seed": 2, "noise_level": 0.02},
    {"n_steps": 300, "seed": 7, "noise_level": 0.1, "mount_translation": 1.0},
    {"n_steps": 40, "seed": 8, "noise_level": (0.05, 0.01), "rate": 4.0},
], ids=lambda case: "rig" if isinstance(case, dict) else "sim")
def test_row_pipeline_matches_oracle_bit_for_bit(case):
    if isinstance(case, dict):
        rig = planar_rig(**case)
        pairs, truth, mount_a, mount_b = oracle_planar_rig(**case)
        assert _same_bits(_pair_bits(rig.pairs), _pair_bits(pairs))
        for made, expected in ((rig.true_calib, truth), (rig.mount_a, mount_a),
                               (rig.mount_b, mount_b)):
            assert _same_bits(made.vec(), expected.vec())
        return
    poses, expected_poses = generate_path(case), oracle_generate_path(case)
    assert _same_bits(poses.times, expected_poses.times)
    assert _same_bits(poses.poses, expected_poses.poses)
    pairs, truth = simulate_pairs(case)
    expected, expected_truth = oracle_simulate_pairs(case)
    assert _same_bits(truth.vec(), expected_truth.vec())
    assert _same_bits(_pair_bits(pairs), _pair_bits(expected))
    rows, _ = simulate_rows(case)
    assert _same_rows(rows, PairArrays.from_pairs(expected))
    # the stages on their own, from the oracle's inputs
    clean = oracle_sensor_pair_motions(expected_poses, truth)
    clean_rows = PairArrays.from_pairs(clean)
    assert _same_rows(sensor_pair_motions(expected_poses, truth), clean_rows)
    assert _same_bits(noise_sigmas(clean_rows, case.noise_level),
                      oracle_noise_sigmas(clean, case.noise_level))
    assert _same_rows(add_noise(clean_rows, case.noise_level, seed=9),
                      PairArrays.from_pairs(oracle_add_noise(clean, case.noise_level,
                                                             seed=9)))
