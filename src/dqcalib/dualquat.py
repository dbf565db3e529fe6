"""Dual quaternion algebra for rigid 6-DOF displacements.

Quaternions are stored as length-4 arrays in scalar-first order (w, x, y, z).
A dual quaternion is a pair (real, dual) of quaternions; it represents a
rigid displacement when the real part is unit and the dual part is
orthogonal to it.  The 8-vector form concatenates real then dual part.

Composition convention: the product ``p * q`` applies ``q`` first, then
``p`` (like homogeneous-matrix products), so "apply a then b" is ``b * a``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonUnitAxis, NotUnit

TOL_UNIT = 1e-9
NORMALIZE_LIMIT = 1e-6


def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of two (w, x, y, z) quaternions."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ])


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_left_mat(q: np.ndarray) -> np.ndarray:
    """4x4 matrix M with M @ vec(x) = vec(q * x)."""
    w, x, y, z = q
    return np.array([
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ])


def quat_right_mat(q: np.ndarray) -> np.ndarray:
    """4x4 matrix M with M @ vec(x) = vec(x * q)."""
    w, x, y, z = q
    return np.array([
        [w, -x, -y, -z],
        [x, w, z, -y],
        [y, -z, w, x],
        [z, y, -x, w],
    ])


def _frozen_array(values, n) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(n)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DualQuat:
    """A dual quaternion; unit instances represent rigid displacements.

    Instances are immutable values and safe to share between threads.
    The constructor accepts arbitrary (non-unit) dual quaternions; use
    :meth:`normalized` to enforce the unit constraints or :meth:`is_unit`
    to test them.
    """

    real: np.ndarray
    dual: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "real", _frozen_array(self.real, 4))
        object.__setattr__(self, "dual", _frozen_array(self.dual, 4))

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls) -> "DualQuat":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4))

    @classmethod
    def from_vec(cls, v: np.ndarray) -> "DualQuat":
        v = np.asarray(v, dtype=float).reshape(8)
        return cls(v[:4], v[4:])

    @classmethod
    def from_rot_trans(cls, axis, angle: float, translation) -> "DualQuat":
        """Build a unit displacement from axis/angle rotation plus translation.

        The axis must be normalized (within 1e-9) unless the angle is zero,
        in which case it is ignored.  The result is sign-canonical.  This
        is a one-row call of :func:`from_rot_trans_rows`.
        """
        return cls.from_vec(from_rot_trans_rows(
            np.asarray(axis, dtype=float).reshape(1, 3),
            np.array([angle], dtype=float),
            np.asarray(translation, dtype=float).reshape(1, 3))[0])

    @classmethod
    def from_translation(cls, translation) -> "DualQuat":
        return cls.from_rot_trans(np.array([1.0, 0.0, 0.0]), 0.0, translation)

    @classmethod
    def from_homogeneous(cls, T: np.ndarray) -> "DualQuat":
        """Unit displacement from a 4x4 homogeneous matrix (R assumed in
        SO(3)); a one-row call of :func:`from_homogeneous_rows`."""
        return cls.from_vec(from_homogeneous_rows(np.asarray(T, dtype=float)[None])[0])

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "DualQuat") -> "DualQuat":
        real = quat_mul(self.real, other.real)
        dual = quat_mul(self.real, other.dual) + quat_mul(self.dual, other.real)
        return DualQuat(real, dual)

    def __neg__(self) -> "DualQuat":
        return DualQuat(-self.real, -self.dual)

    def conjugate(self) -> "DualQuat":
        """Quaternion conjugate of both parts; inverse displacement for unit DQs."""
        return DualQuat(quat_conj(self.real), quat_conj(self.dual))

    def vec(self) -> np.ndarray:
        return np.concatenate([self.real, self.dual])

    def canonicalized(self) -> "DualQuat":
        """Fix the +/- sign ambiguity.

        The scalar of the real part is made positive; if it is zero (within
        1e-12) the first nonzero component of the 8-vector decides the sign.
        """
        v = self.vec()
        if abs(v[0]) > 1e-12:
            return self if v[0] > 0 else -self
        for c in v:
            if abs(c) > 1e-12:
                return self if c > 0 else -self
        return self

    def is_unit(self, tol: float = TOL_UNIT) -> bool:
        norm_defect = abs(self.real @ self.real - 1.0)
        orth_defect = abs(2.0 * (self.real @ self.dual))
        return norm_defect <= tol and orth_defect <= tol

    def normalized(self) -> "DualQuat":
        """Return the nearest unit dual quaternion.

        Renormalizes the real part and projects the dual part onto the
        tangent.  Raises :class:`NotUnit` when a component is not finite or
        the defect exceeds ``NORMALIZE_LIMIT``; small constraint drift is
        repaired silently.
        """
        if not (np.isfinite(self.real).all() and np.isfinite(self.dual).all()):
            raise NotUnit("non-finite component")
        nr = np.linalg.norm(self.real)
        if abs(nr * nr - 1.0) > NORMALIZE_LIMIT:
            raise NotUnit(f"real-part norm {nr} too far from 1")
        dual_scale = 1.0 + np.linalg.norm(self.dual)
        raw_orth = 2.0 * (self.real @ self.dual)
        if abs(nr * nr - 1.0) <= 1e-15 and abs(raw_orth) <= 1e-15 * dual_scale:
            return self  # already unit to machine precision; keep bits stable
        real = self.real / nr
        orth = 2.0 * (real @ self.dual)
        if abs(orth) > NORMALIZE_LIMIT * dual_scale:
            raise NotUnit(f"real/dual orthogonality defect {orth}")
        dual = self.dual - (real @ self.dual) * real
        return DualQuat(real, dual)

    def _require_unit(self):
        if not self.is_unit():
            raise NotUnit("operation requires a unit dual quaternion")

    # -- rigid displacement views -----------------------------------------

    def translation(self) -> np.ndarray:
        """Translation vector, the vector part of 2 * dual * conj(real)."""
        return 2.0 * quat_mul(self.dual, quat_conj(self.real))[1:]

    def rotation_matrix(self) -> np.ndarray:
        self._require_unit()
        return quat_to_rot_rows(self.real[None])[0]

    def to_rot_trans(self):
        """Decompose into (axis, angle, translation) with angle in [0, pi].

        For a zero rotation the axis defaults to (1, 0, 0) so round trips
        are deterministic.  The angle and translation come from a one-row
        call of :func:`angle_translation_rows`.
        """
        (angle,), (translation,) = angle_translation_rows(self.vec()[None])
        vector = self.canonicalized().real[1:]
        sin_half = np.linalg.norm(vector)
        axis = vector / sin_half if sin_half > 1e-9 else np.array([1.0, 0.0, 0.0])
        return axis, angle, translation

    def to_homogeneous(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation_matrix()
        T[:3, 3] = self.translation()
        return T

    def transform_point(self, v) -> np.ndarray:
        """Apply the displacement to a point: R @ v + t."""
        self._require_unit()
        v = np.asarray(v, dtype=float).reshape(3)
        qv = np.concatenate(([0.0], v))
        rotated = quat_mul(quat_mul(self.real, qv), quat_conj(self.real))[1:]
        return rotated + self.translation()

    # -- comparisons -------------------------------------------------------

    def is_close(self, other: "DualQuat", atol: float = 1e-9,
                 up_to_sign: bool = True) -> bool:
        d_plus = np.max(np.abs(self.vec() - other.vec()))
        if not up_to_sign:
            return d_plus <= atol
        d_minus = np.max(np.abs(self.vec() + other.vec()))
        return min(d_plus, d_minus) <= atol

    def __repr__(self):
        r = np.array2string(self.real, precision=6, suppress_small=True)
        d = np.array2string(self.dual, precision=6, suppress_small=True)
        return f"DualQuat(real={r}, dual={d})"


def left_mat(p: DualQuat) -> np.ndarray:
    """8x8 matrix L with L @ vec(q) = vec(p * q); block lower triangular."""
    M = np.zeros((8, 8))
    Mr = quat_left_mat(p.real)
    M[:4, :4] = Mr
    M[4:, 4:] = Mr
    M[4:, :4] = quat_left_mat(p.dual)
    return M


def right_mat(q: DualQuat) -> np.ndarray:
    """8x8 matrix R with R @ vec(p) = vec(p * q); block lower triangular."""
    M = np.zeros((8, 8))
    Mr = quat_right_mat(q.real)
    M[:4, :4] = Mr
    M[4:, 4:] = Mr
    M[4:, :4] = quat_right_mat(q.dual)
    return M


# -- row-wise forms ------------------------------------------------------------
# The pair record's row check, the cost kernel, the loaders, stream pairing
# and the simulator work on (n, 8) arrays of 8-vectors.  The pose conversions
# exist only here: DualQuat's from_rot_trans, from_homogeneous, to_rot_trans
# and rotation_matrix are one-row calls.  Five scalar methods keep a twin of
# their row form, with the same arithmetic operation by operation and so the
# same bits, because a per-step or per-pair path calls them and a one-row call
# there costs several times more:
# normalized and canonicalized (every MotionPair; the solvers' _feasible and
# solve_local on every online step), __mul__, conjugate and is_unit (the
# lift of a planar estimate and calib_error, on every online step).

_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products through the same BLAS dot as ``a[i] @ b[i]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def quat_mul_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise :func:`quat_mul` of (n, 4) arrays, in its operation order."""
    pw, px, py, pz = p.T
    qw, qx, qy, qz = q.T
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ], axis=1)


def dq_mul_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise ``DualQuat.__mul__`` of (n, 8) arrays."""
    real = quat_mul_rows(p[:, :4], q[:, :4])
    dual = quat_mul_rows(p[:, :4], q[:, 4:]) + quat_mul_rows(p[:, 4:], q[:, :4])
    return np.concatenate([real, dual], axis=1)


def normalized_rows(v: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`DualQuat.normalized` of an (n, 8) array.

    Raises :class:`NotUnit` with the scalar method's message for the first
    row it would reject; the error's ``row`` is that row's index.
    """
    real, dual = v[:, :4], v[:, 4:]
    finite = np.isfinite(v).all(axis=1)
    # a non-finite row is rejected by ``finite``; its NaN arithmetic is moot
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        nr = np.sqrt(_row_dots(real, real))
        norm_defect = np.abs(nr * nr - 1.0)
        dual_scale = 1.0 + np.sqrt(_row_dots(dual, dual))
        raw_orth = 2.0 * _row_dots(real, dual)
        keep = (norm_defect <= 1e-15) & (np.abs(raw_orth) <= 1e-15 * dual_scale)
        unit_real = real / nr[:, None]
        along = _row_dots(unit_real, dual)
        orth = 2.0 * along
    bad_norm = norm_defect > NORMALIZE_LIMIT
    bad = ~finite | bad_norm | (~keep & (np.abs(orth) > NORMALIZE_LIMIT * dual_scale))
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i]:
            raise NotUnit("non-finite component", row=i)
        if bad_norm[i]:
            raise NotUnit(f"real-part norm {nr[i]} too far from 1", row=i)
        raise NotUnit(f"real/dual orthogonality defect {orth[i]}", row=i)
    unit = np.concatenate([unit_real, dual - along[:, None] * unit_real], axis=1)
    return np.where(keep[:, None], v, unit)


def canonicalized_rows(v: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`DualQuat.canonicalized` of an (n, 8) array."""
    big = np.abs(v) > 1e-12
    lead = v[np.arange(len(v)), np.argmax(big, axis=1)]
    flip = big.any(axis=1) & (lead < 0)
    return np.where(flip[:, None], -v, v)


def conjugate_rows(v: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`DualQuat.conjugate` of an (n, 8) array."""
    return v * _CONJ_SIGNS


def rot_to_quat_rows(R: np.ndarray) -> np.ndarray:
    """Unit quaternions, w >= 0, of an (n, 3, 3) array of rotations by
    Shepperd's method: each row takes the branch of the largest of its
    trace and diagonal entries."""
    R = np.asarray(R, dtype=float)
    R00, R01, R02 = R[:, 0, 0], R[:, 0, 1], R[:, 0, 2]
    R10, R11, R12 = R[:, 1, 0], R[:, 1, 1], R[:, 1, 2]
    R20, R21, R22 = R[:, 2, 0], R[:, 2, 1], R[:, 2, 2]
    tr = R00 + R11 + R22
    case = np.argmax(np.stack([tr, R00, R11, R22], axis=1), axis=1)
    d21, d02, d10 = R21 - R12, R02 - R20, R10 - R01
    s01, s02, s12 = R01 + R10, R02 + R20, R12 + R21
    # per branch: the radicand of s and the numerators of the components
    # other than the branch's own (which is 0.25 * s)
    branches = ((tr + 1.0, (None, d21, d02, d10)),
                (1.0 + R00 - R11 - R22, (d21, None, s01, s02)),
                (1.0 - R00 + R11 - R22, (d02, s01, None, s12)),
                (1.0 - R00 - R11 + R22, (d10, s02, s12, None)))
    q = np.empty((len(R), 4))
    for c, (radicand, numerators) in enumerate(branches):
        rows = case == c
        s = np.sqrt(radicand[rows]) * 2.0
        for k, num in enumerate(numerators):
            q[rows, k] = 0.25 * s if num is None else num[rows] / s
    q /= np.sqrt(_row_dots(q, q))[:, None]
    return np.where(q[:, :1] < 0, -q, q)


def _unit_rows(real: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Rows (real, 0.5 * (0, t) * real), sign-canonicalized."""
    t_quat = np.concatenate([np.zeros((len(real), 1)), translation], axis=1)
    dual = 0.5 * quat_mul_rows(t_quat, real)
    return canonicalized_rows(np.concatenate([real, dual], axis=1))


def from_homogeneous_rows(T: np.ndarray) -> np.ndarray:
    """Sign-canonical unit displacements of an (n, 4, 4) array of
    homogeneous matrices, or of its (n, 3, 4) top rows (R assumed in SO(3))."""
    T = np.asarray(T, dtype=float)
    return _unit_rows(rot_to_quat_rows(T[:, :3, :3]), T[:, :3, 3])


def from_rot_trans_rows(axis: np.ndarray, angle: np.ndarray,
                        translation: np.ndarray) -> np.ndarray:
    """Sign-canonical unit displacements of (n, 3) axes, (n,) angles and
    (n, 3) translations.

    Raises :class:`NonUnitAxis` for the first row with a nonzero angle
    whose axis norm is more than 1e-9 from 1.
    """
    norm = np.sqrt(_row_dots(axis, axis))
    bad = (angle != 0.0) & (np.abs(norm - 1.0) > 1e-9)
    if bad.any():
        raise NonUnitAxis(f"axis norm {norm[np.argmax(bad)]} deviates from 1")
    half = 0.5 * angle
    real = np.concatenate([np.cos(half)[:, None], np.sin(half)[:, None] * axis],
                          axis=1)
    return _unit_rows(real, translation)


def quat_to_rot_rows(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (n, 3, 3) of an (n, 4) array of unit quaternions."""
    w, x, y, z = q.T
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
        2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
        2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y),
    ], axis=1).reshape(-1, 3, 3)


def require_unit_rows(v: np.ndarray) -> None:
    """Row-wise :meth:`DualQuat._require_unit` of an (n, 8) array; the
    error's ``row`` is the index of the first row it rejects."""
    real, dual = v[:, :4], v[:, 4:]
    bad = ~((np.abs(_row_dots(real, real) - 1.0) <= TOL_UNIT)
            & (np.abs(2.0 * _row_dots(real, dual)) <= TOL_UNIT))
    if bad.any():
        raise NotUnit("operation requires a unit dual quaternion",
                      row=int(np.argmax(bad)))


def angle_translation_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation angles (n,), in [0, pi], and translations (n, 3) of an
    (n, 8) array of displacements.

    Raises :class:`NotUnit` for the first row that is not a unit dual
    quaternion within ``TOL_UNIT``; the error's ``row`` is its index.
    """
    require_unit_rows(v)
    q = canonicalized_rows(v)
    vector = q[:, 1:4]
    angle = 2.0 * np.arctan2(np.sqrt(_row_dots(vector, vector)), q[:, 0])
    translation = 2.0 * quat_mul_rows(q[:, 4:], q[:, :4] * _CONJ_SIGNS[:4])[:, 1:]
    return angle, translation
