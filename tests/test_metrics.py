import numpy as np
from hypothesis import given, settings
from scipy.spatial.transform import Rotation

from dqcalib.dualquat import DualQuat
from dqcalib.metrics import calib_error
from dqcalib.sim import random_unit_dq

from conftest import unit_dqs


def test_zero_error_for_equal_inputs(rng):
    q = random_unit_dq(rng, max_translation=2.0)
    err = calib_error(q, q)
    assert err.eps_r < 1e-12
    assert err.eps_t < 1e-12


def test_pure_translation_offset(rng):
    q = random_unit_dq(rng)
    q_hat = (q * DualQuat.from_translation([0.1, 0.0, 0.0])).canonicalized()
    err = calib_error(q_hat, q)
    assert abs(err.eps_t - 0.1) < 1e-12
    assert err.eps_r < 1e-12


def test_yaw_error_matches_rotation_matrix_trace(rng):
    q = random_unit_dq(rng)
    delta = DualQuat.from_rot_trans([0, 0, 1], np.deg2rad(10.0), [0, 0, 0])
    q_hat = (q * delta).canonicalized()
    err = calib_error(q_hat, q)
    R_rel = q.rotation_matrix().T @ q_hat.rotation_matrix()
    angle_oracle = np.arccos(np.clip((np.trace(R_rel) - 1) / 2, -1, 1))
    assert abs(err.eps_r - np.deg2rad(10.0)) < 1e-12
    assert abs(err.eps_r - angle_oracle) < 1e-10
    assert abs(err.eps_r_deg - 10.0) < 1e-9


def test_large_angle_stays_in_range(rng):
    q = random_unit_dq(rng)
    delta = DualQuat.from_rot_trans([1, 0, 0], np.pi - 0.01, [0, 0, 0])
    err = calib_error((q * delta).canonicalized(), q)
    assert 0.0 <= err.eps_r <= np.pi
    assert abs(err.eps_r - (np.pi - 0.01)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(q_hat=unit_dqs(), q_true=unit_dqs())
def test_property_sign_invariance(q_hat, q_true):
    a = calib_error(q_hat, q_true)
    b = calib_error(-q_hat, q_true)
    assert abs(a.eps_r - b.eps_r) < 1e-12
    assert abs(a.eps_t - b.eps_t) < 1e-12


@settings(max_examples=50, deadline=None)
@given(q_hat=unit_dqs(), q_true=unit_dqs(), pre=unit_dqs())
def test_property_left_invariance(q_hat, q_true, pre):
    a = calib_error(q_hat, q_true)
    b = calib_error(pre * q_hat, pre * q_true)
    # arccos amplifies 1e-16 roundoff in the scalar part to ~1e-8 in angle
    assert abs(a.eps_r - b.eps_r) < 1e-7
    assert abs(a.eps_t - b.eps_t) < 1e-9


def test_geodesic_angle_oracle(rng):
    for _ in range(25):
        q_true = random_unit_dq(rng, 2.0)
        q_hat = random_unit_dq(rng, 2.0)
        err = calib_error(q_hat, q_true)
        R_rel = q_true.rotation_matrix().T @ q_hat.rotation_matrix()
        angle = np.linalg.norm(Rotation.from_matrix(R_rel).as_rotvec())
        assert abs(err.eps_r - angle) < 1e-9


def test_tiny_rotation_keeps_full_precision(rng):
    # an arccos of the scalar part reads ~3e-8 rad for any rotation this small
    q = random_unit_dq(rng, max_translation=2.0)
    delta = DualQuat.from_rot_trans([0.6, 0.0, 0.8], 1e-12, [0, 0, 0])
    err = calib_error((q * delta).canonicalized(), q)
    assert abs(err.eps_r - 1e-12) < 1e-15
    assert abs(calib_error(delta, DualQuat.identity()).eps_r - 1e-12) < 1e-15
