import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from dqcalib.dualquat import (DualQuat, angle_translation_rows,
                              canonicalized_rows, conjugate_rows, dq_mul_rows,
                              from_homogeneous_rows, from_rot_trans_rows,
                              left_mat, normalized_rows, quat_mul,
                              quat_to_rot_rows, right_mat, rot_to_quat_rows)
from dqcalib.errors import NonUnitAxis, NotUnit

from conftest import unit_dqs, unit_quats


def scipy_rot(q_wxyz):
    return Rotation.from_quat([q_wxyz[1], q_wxyz[2], q_wxyz[3], q_wxyz[0]])


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


class TestQuatMul:
    def test_identity_neutral(self, rng):
        q = random_unit_quat(rng)
        e = np.array([1.0, 0, 0, 0])
        assert np.allclose(quat_mul(e, q), q)
        assert np.allclose(quat_mul(q, e), q)

    def test_basis_law(self):
        i = np.array([0.0, 1, 0, 0])
        j = np.array([0.0, 0, 1, 0])
        k = np.array([0.0, 0, 0, 1])
        assert np.allclose(quat_mul(i, j), k)

    def test_matches_rotation_composition(self, rng):
        for _ in range(50):
            p = random_unit_quat(rng)
            q = random_unit_quat(rng)
            R_expected = scipy_rot(p).as_matrix() @ scipy_rot(q).as_matrix()
            assert np.allclose(quat_to_rot_rows(quat_mul(p, q)[None])[0], R_expected,
                               atol=1e-12)


class TestRotQuatConversions:
    def test_round_trip(self, rng):
        q = np.array([random_unit_quat(rng) for _ in range(100)])
        q[q[:, 0] < 0] *= -1
        assert np.allclose(rot_to_quat_rows(quat_to_rot_rows(q)), q, atol=1e-12)

    def test_matches_scipy(self, rng):
        R = Rotation.random(50, random_state=np.random.RandomState(
            rng.integers(2**31))).as_matrix()
        assert np.allclose(quat_to_rot_rows(rot_to_quat_rows(R)), R, atol=1e-12)


def random_homogeneous(rng, t_scale=2.0):
    T = np.eye(4)
    T[:3, :3] = scipy_rot(random_unit_quat(rng)).as_matrix()
    T[:3, 3] = rng.uniform(-t_scale, t_scale, 3)
    return T


class TestDualQuatMul:
    def test_identity(self, rng):
        q = DualQuat.from_homogeneous(random_homogeneous(rng))
        assert (DualQuat.identity() * q).is_close(q, atol=1e-15)

    def test_times_conjugate_is_identity(self, rng):
        q = DualQuat.from_homogeneous(random_homogeneous(rng))
        assert (q * q.conjugate()).is_close(DualQuat.identity(), atol=1e-12)

    def test_matches_homogeneous_product(self, rng):
        for _ in range(100):
            Tp = random_homogeneous(rng)
            Tq = random_homogeneous(rng)
            p = DualQuat.from_homogeneous(Tp)
            q = DualQuat.from_homogeneous(Tq)
            expected = DualQuat.from_homogeneous(Tp @ Tq)
            assert (p * q).canonicalized().is_close(expected, atol=1e-9)

    def test_unit_preserved(self, rng):
        p = DualQuat.from_homogeneous(random_homogeneous(rng))
        q = DualQuat.from_homogeneous(random_homogeneous(rng))
        assert (p * q).is_unit(tol=1e-9)


class TestConjugate:
    def test_identity(self):
        e = DualQuat.identity()
        assert e.conjugate().is_close(e, atol=0.0)

    def test_involution(self, rng):
        q = DualQuat.from_homogeneous(random_homogeneous(rng))
        assert q.conjugate().conjugate().is_close(q, atol=0.0,
                                                  up_to_sign=False)

    def test_inverse_displacement(self, rng):
        for _ in range(20):
            q = DualQuat.from_homogeneous(random_homogeneous(rng))
            v = rng.uniform(-3, 3, 3)
            back = q.conjugate().transform_point(q.transform_point(v))
            assert np.allclose(back, v, atol=1e-10)


class TestFromToRotTrans:
    def test_zero_angle_zero_translation(self):
        q = DualQuat.from_rot_trans([0.3, 0.4, 0.5], 0.0, [0, 0, 0])
        assert q.is_close(DualQuat.identity(), atol=0.0)

    def test_half_turn_about_z(self):
        q = DualQuat.from_rot_trans([0, 0, 1], np.pi, [0, 0, 0])
        assert np.allclose(q.real, [0, 0, 0, 1], atol=1e-15)
        assert np.allclose(q.dual, 0.0)

    def test_matrix_route_oracle(self, rng):
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-np.pi, np.pi)
            t = rng.uniform(-2, 2, 3)
            q = DualQuat.from_rot_trans(axis, angle, t)
            T = np.eye(4)
            T[:3, :3] = Rotation.from_rotvec(angle * axis).as_matrix()
            T[:3, 3] = t
            assert q.is_close(DualQuat.from_homogeneous(T), atol=1e-12)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(NonUnitAxis):
            DualQuat.from_rot_trans([1, 1, 0], 0.5, [0, 0, 0])

    def test_identity_decomposition_convention(self):
        axis, angle, t = DualQuat.identity().to_rot_trans()
        assert np.allclose(axis, [1, 0, 0])
        assert angle == 0.0
        assert np.allclose(t, 0.0)

    def test_pure_translation(self):
        q = DualQuat(np.array([1.0, 0, 0, 0]), np.array([0.0, 1.0, 0, 0]))
        axis, angle, t = q.to_rot_trans()
        assert angle == 0.0
        assert np.allclose(t, [2, 0, 0])

    def test_round_trip_1000(self, rng):
        worst = 0.0
        for _ in range(1000):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0, np.pi)
            t = rng.uniform(-2, 2, 3)
            q = DualQuat.from_rot_trans(axis, angle, t)
            q2 = DualQuat.from_rot_trans(*q.to_rot_trans())
            worst = max(worst, np.max(np.abs(q.vec() - q2.vec())))
        assert worst < 1e-9


class TestTransformPoint:
    def test_identity(self, rng):
        v = rng.uniform(-1, 1, 3)
        assert np.allclose(DualQuat.identity().transform_point(v), v)

    def test_pure_translation(self):
        q = DualQuat.from_translation([1.0, -2.0, 3.0])
        assert np.allclose(q.transform_point([0.5, 0.5, 0.5]), [1.5, -1.5, 3.5])

    def test_matrix_oracle(self, rng):
        for _ in range(100):
            T = random_homogeneous(rng)
            q = DualQuat.from_homogeneous(T)
            v = rng.uniform(-3, 3, 3)
            expected = T[:3, :3] @ v + T[:3, 3]
            assert np.allclose(q.transform_point(v), expected, atol=1e-10)

    def test_requires_unit(self):
        q = DualQuat(np.array([2.0, 0, 0, 0]), np.zeros(4))
        with pytest.raises(NotUnit):
            q.transform_point([1, 0, 0])


class TestMatrixization:
    def test_left_mat_identity(self):
        assert np.allclose(left_mat(DualQuat.identity()), np.eye(8))

    def test_vectorized_multiplication(self, rng):
        worst = 0.0
        for _ in range(1000):
            p = DualQuat(rng.normal(size=4), rng.normal(size=4))
            q = DualQuat(rng.normal(size=4), rng.normal(size=4))
            lhs = (p * q).vec()
            via_left = left_mat(p) @ q.vec()
            via_right = right_mat(q) @ p.vec()
            worst = max(worst, np.max(np.abs(lhs - via_left)),
                        np.max(np.abs(via_left - via_right)))
        assert worst < 1e-12

    def test_block_lower_triangular(self, rng):
        p = DualQuat(rng.normal(size=4), rng.normal(size=4))
        assert np.allclose(left_mat(p)[:4, 4:], 0.0)
        assert np.allclose(right_mat(p)[:4, 4:], 0.0)


class TestCanonicalize:
    def test_positive_scalar_unchanged(self):
        q = DualQuat.from_rot_trans([0, 0, 1], 0.5, [1, 2, 3])
        c = q.canonicalized()
        assert c is q or c.is_close(q, up_to_sign=False)

    def test_negated_identity(self):
        q = -DualQuat.identity()
        assert q.canonicalized().is_close(DualQuat.identity(), atol=0.0,
                                          up_to_sign=False)

    def test_zero_scalar_tiebreak(self):
        q = DualQuat(np.array([0.0, 0, 0, 1]), np.zeros(4))
        a = q.canonicalized().vec()
        b = (-q).canonicalized().vec()
        assert np.array_equal(a, b)


class TestNormalizePolicy:
    def test_small_drift_repaired(self, rng):
        q = DualQuat.from_homogeneous(random_homogeneous(rng))
        drifted = DualQuat(q.real * (1 + 3e-7), q.dual + 1e-7 * q.real)
        fixed = drifted.normalized()
        assert fixed.is_unit(tol=1e-12)

    def test_large_defect_rejected(self):
        with pytest.raises(NotUnit):
            DualQuat(np.array([1.1, 0, 0, 0]), np.zeros(4)).normalized()


@settings(max_examples=100, deadline=None)
@given(p=unit_dqs(), q=unit_dqs())
def test_property_unit_preservation(p, q):
    assert (p * q).is_unit(tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(p=unit_dqs(), q=unit_dqs())
def test_property_homogeneous_homomorphism(p, q):
    composed = (p * q).to_homogeneous()
    assert np.allclose(composed, p.to_homogeneous() @ q.to_homogeneous(), atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(q=unit_dqs())
def test_property_double_cover(q):
    v = np.array([0.3, -1.2, 2.0])
    assert np.allclose(q.transform_point(v), (-q).transform_point(v), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(q=unit_dqs())
def test_property_canonicalize_sign_invariant(q):
    a = q.canonicalized().vec()
    b = (-q).canonicalized().vec()
    assert np.array_equal(a, b)


@settings(max_examples=50, deadline=None)
@given(r=unit_quats())
def test_property_vec_round_trip(r):
    q = DualQuat(r, np.array([0.1, 0.2, -0.3, 0.4]))
    assert np.array_equal(DualQuat.from_vec(q.vec()).vec(), q.vec())


# -- row-wise forms ---------------------------------------------------------------

def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# real parts scaled off unit length and dual parts pushed off the tangent by
# amounts around the 1e-15 keep-the-bits rule and the 1e-6 NotUnit limit;
# some real parts have a scalar below the 1e-12 sign rule's threshold
_defects = st.sampled_from([0.0, 1e-17, 3e-16, 1e-15, 4e-15, 1e-12, 1e-9,
                            4.9e-7, 5.1e-7, 1e-6, 2e-6, 1e-3])
_tiny_w = st.sampled_from([None, 0.0, -0.0, 3e-13, -3e-13, -1e-12, 2e-12])


@st.composite
def near_unit_rows(draw):
    r, t = draw(unit_quats()), draw(st.tuples(*[st.floats(-3, 3)] * 3))
    w = draw(_tiny_w)
    if w is not None:
        axis = r[1:] if np.linalg.norm(r[1:]) > 1e-3 else np.array([0.0, 0.0, 1.0])
        r = np.concatenate(([w], axis / np.linalg.norm(axis)))
    r = r * (1.0 + draw(_defects) * draw(st.sampled_from([1, -1])))
    dual = 0.5 * quat_mul(np.concatenate(([0.0], t)), r)
    dual = dual + draw(_defects) * draw(st.sampled_from([1.0, -1.0])) * r
    return np.concatenate([r, dual])


def _scalar_normalized(row):
    try:
        return DualQuat.from_vec(row).normalized().vec()
    except NotUnit as err:
        return err


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(near_unit_rows(), min_size=1, max_size=6))
def test_property_row_forms_match_scalar_methods(rows):
    V = np.array(rows)
    scalar = [_scalar_normalized(v) for v in V]
    rejected = [i for i, s in enumerate(scalar) if isinstance(s, NotUnit)]
    if rejected:
        with pytest.raises(NotUnit) as err:
            normalized_rows(V)
        assert err.value.row == rejected[0]
        assert str(err.value) == str(scalar[rejected[0]])
    else:
        assert same_bits(normalized_rows(V), scalar)
    for i, v in enumerate(V):
        single = scalar[i]
        if isinstance(single, NotUnit):
            with pytest.raises(NotUnit):
                normalized_rows(v[None])
        else:
            assert same_bits(normalized_rows(v[None])[0], single)
    assert same_bits(canonicalized_rows(V),
                     [DualQuat.from_vec(v).canonicalized().vec() for v in V])
    P, Q = V, V[::-1]
    assert same_bits(dq_mul_rows(P, Q),
                     [(DualQuat.from_vec(p) * DualQuat.from_vec(q)).vec()
                      for p, q in zip(P, Q)])


@st.composite
def rows_with_non_finite(draw):
    rows = np.array(draw(st.lists(near_unit_rows(), min_size=1, max_size=6)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, 7))
        rows[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return rows


@settings(max_examples=200, deadline=None)
@given(V=rows_with_non_finite())
def test_property_non_finite_rows_rejected_as_scalar_method(V):
    scalar = [_scalar_normalized(v) for v in V]
    for v, s in zip(V, scalar):
        if not np.isfinite(v).all():
            assert isinstance(s, NotUnit) and "non-finite" in str(s)
    first = next(i for i, s in enumerate(scalar) if isinstance(s, NotUnit))
    with pytest.raises(NotUnit) as err:
        normalized_rows(V)
    assert err.value.row == first
    assert str(err.value) == str(scalar[first])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k", range(8))
def test_normalized_rejects_non_finite_component(bad, k):
    v = DualQuat.from_rot_trans([0, 0, 1], 0.3, [1.0, 2.0, 3.0]).vec().copy()
    v[k] = bad
    with pytest.raises(NotUnit, match="non-finite"):
        DualQuat.from_vec(v).normalized()


def test_pose_row_forms_match_scalar_methods(rng):
    # half-turns about each axis, and about diagonals, reach every branch of
    # Shepperd's method; the zero and tiny angles the sign and axis rules
    n = 400
    axes = np.concatenate([np.eye(3), [[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]],
                           rng.normal(size=(n - 5, 3))])
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.concatenate([[np.pi] * 5, [0.0, 1e-12, -1e-10, 2 * np.pi],
                             rng.uniform(-4.0, 4.0, n - 9)])
    trans = rng.normal(size=(n, 3)) * 10.0
    scalar = [DualQuat.from_rot_trans(a, t, d) for a, t, d in zip(axes, angles, trans)]
    V = np.array([q.vec() for q in scalar])
    assert same_bits(from_rot_trans_rows(axes, angles, trans), V)
    assert same_bits(conjugate_rows(V), [q.conjugate().vec() for q in scalar])
    angle, t = angle_translation_rows(V)
    expected = [q.to_rot_trans() for q in scalar]
    assert same_bits(angle, [e[1] for e in expected])
    assert same_bits(t, [e[2] for e in expected])
    T = np.array([q.to_homogeneous() for q in scalar])
    R = T[:, :3, :3]
    assert same_bits(quat_to_rot_rows(V[:, :4]), R)
    assert {int(np.argmax([np.trace(M), *np.diag(M)])) for M in R} == {0, 1, 2, 3}
    # every branch of Shepperd's method recovers the quaternion, up to sign
    r = rot_to_quat_rows(R)
    assert np.all(np.minimum(np.abs(r - V[:, :4]).max(axis=1),
                             np.abs(r + V[:, :4]).max(axis=1)) < 1e-12)
    assert same_bits(from_homogeneous_rows(T),
                     [DualQuat.from_homogeneous(M).vec() for M in T])


def test_pose_row_forms_reject_as_scalar_methods():
    axes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
    with pytest.raises(NonUnitAxis, match="axis norm 2.0 "):
        from_rot_trans_rows(axes, np.array([0.1, 0.2, 0.3]), np.zeros((3, 3)))
    # a zero angle ignores the axis, as the scalar method does
    from_rot_trans_rows(axes, np.zeros(3), np.zeros((3, 3)))
    V = np.tile(DualQuat.from_rot_trans([0, 0, 1], 0.3, [1, 2, 3]).vec(), (3, 1))
    V[2, 0] += 1e-6
    with pytest.raises(NotUnit) as err:
        angle_translation_rows(V)
    assert err.value.row == 2
    with pytest.raises(NotUnit):
        DualQuat.from_vec(V[2]).to_rot_trans()
