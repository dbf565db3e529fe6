import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqcalib.constraints import (ConstraintMode, assemble_Z, constraint_matrices,
                                 eval_g, multiplier_matrices)
from dqcalib.dualquat import DualQuat

from conftest import grad_g, unit_dqs

MODES = [ConstraintMode.FULL_3D, ConstraintMode.PLANAR]

vec8 = st.tuples(*([st.floats(-2, 2, allow_nan=False)] * 8)).map(np.array)


@pytest.mark.parametrize("mode", MODES)
def test_identity_satisfies_constraints(mode):
    g = eval_g(DualQuat.identity().vec(), mode)
    assert g.shape == ({ConstraintMode.FULL_3D: 2, ConstraintMode.PLANAR: 5}[mode],)
    assert np.allclose(g, 0.0)


def _in_planar_set(v, tol):
    # the explicit planar feasible set: unit (q1, q4), q2 = q3 = q5 = q8 = 0
    return max(abs(1.0 - v[0] ** 2 - v[3] ** 2),
               *np.abs(v[[1, 2, 4, 7]])) < tol


def test_planar_displacement_satisfies_planar_constraints():
    q = DualQuat.from_rot_trans([0, 0, 1], 0.3, [1.0, 2.0, 0.0])
    assert np.max(np.abs(eval_g(q.vec(), ConstraintMode.PLANAR))) < 1e-12
    assert _in_planar_set(q.vec(), 1e-12)


def test_nonplanar_displacement_violates_planar_constraints():
    q = DualQuat.from_rot_trans([1, 0, 0], 0.3, [0.0, 0.0, 1.0])
    assert np.max(np.abs(eval_g(q.vec(), ConstraintMode.PLANAR))) > 1e-3


def test_zero_multipliers_give_zero_matrix():
    assert np.allclose(multiplier_matrices(np.zeros(2)), 0.0)


def test_assemble_Z_trivials(rng):
    Q = rng.normal(size=(8, 8))
    Q = Q + Q.T
    assert np.allclose(assemble_Z(Q, [0.0, 0.0]), Q)
    Z = assemble_Z(np.zeros((8, 8)), [-1.0, 0.0])
    assert np.allclose(Z, np.diag([1, 1, 1, 1, 0, 0, 0, 0]))


def test_assemble_Z_matches_multiplier_matrices(rng):
    Q = rng.normal(size=(8, 8))
    Q = Q + Q.T
    lam = rng.normal(size=2)
    Z = assemble_Z(Q, lam)
    assert np.allclose(Z - Q, multiplier_matrices(lam), atol=1e-14)
    assert np.allclose(Z, Z.T)


def test_multiplier_quadratic_identities(rng):
    # each multiplier matrix reproduces its constraint's quadratic part
    for _ in range(50):
        q = rng.normal(size=8)
        l1, l2 = rng.normal(size=2)
        P_par = multiplier_matrices([l1, 0])
        assert abs(q @ P_par @ q - (-l1 * (q[:4] @ q[:4]))) < 1e-12 * (1 + abs(l1))
        P_cross = multiplier_matrices([0, l2])
        g2 = 2 * (q[:4] @ q[4:])
        assert abs(q @ P_cross @ q - l2 * g2) < 1e-11 * (1 + abs(l2))


@settings(max_examples=100, deadline=None)
@given(q=vec8, lam=st.tuples(*([st.floats(-3, 3, allow_nan=False)] * 2)))
def test_property_lagrangian_identity(q, lam):
    # q^T Q q + lam . g(q) == q^T Z(lam) q + lam_1
    Q = np.outer(q, q) + np.eye(8)  # arbitrary symmetric stand-in
    lam = np.array(lam)
    lhs = q @ Q @ q + lam @ eval_g(q, ConstraintMode.FULL_3D)
    rhs = q @ assemble_Z(Q, lam) @ q + lam[0]
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_gradients_match_finite_differences(rng):
    for _ in range(10):
        q = rng.normal(size=8)
        J = grad_g(q)
        h = 1e-6
        for k in range(8):
            e = np.zeros(8)
            e[k] = h
            num = (eval_g(q + e, ConstraintMode.FULL_3D)
                   - eval_g(q - e, ConstraintMode.FULL_3D)) / (2 * h)
            denom = np.maximum(np.abs(J[:, k]), 1.0)
            assert np.max(np.abs(J[:, k] - num) / denom) < 1e-5


def test_gradient_rows_are_2Gq(rng):
    q = rng.normal(size=8)
    J = grad_g(q)
    for row, G in zip(J, constraint_matrices()):
        assert np.allclose(row, 2 * G @ q)


@settings(max_examples=100, deadline=None)
@given(q=unit_dqs())
@example(q=DualQuat(np.array([0.0, 0.0, 1e-10, 1.0]) / np.hypot(1e-10, 1.0),
                    np.zeros(4)))
def test_property_planar_feasible_sets_agree(q):
    # the planar residuals vanish exactly on the explicit planar set, on the
    # same (linear) scale: a tilt of 1e-10 fails both
    v = q.vec()
    g_ok = np.max(np.abs(eval_g(v, ConstraintMode.PLANAR))) < 1e-12
    assert g_ok == _in_planar_set(v, 1e-12)
