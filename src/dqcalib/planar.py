"""Ground-plane handling for planar-motion calibration.

A plane is stored in Hesse normal form with unit normal ``v`` and offset
``d``; its points satisfy v . x + d = 0.  For a ground plane below the
sensor origin with the normal pointing up, ``d`` is the sensor height and
is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dualquat import (DualQuat, canonicalized_rows, dq_mul_rows,
                       quat_to_rot_rows, require_unit_rows)
from .errors import DegenerateInput, NotUnit

_EZ = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class GroundPlane:
    normal: np.ndarray
    distance: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3).copy()
        norm = np.linalg.norm(n)
        if abs(norm - 1.0) > 1e-6:
            raise NotUnit(f"plane normal has norm {norm}")
        n /= norm
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "distance", float(self.distance))

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return points @ self.normal + self.distance


def plane_alignment_dq(plane: GroundPlane) -> DualQuat:
    """Displacement mapping the sensor frame so the plane becomes z = 0.

    Rotates the plane normal onto +z (axis = normal x e_z, normalized) and
    translates by distance * e_z.  Degenerate axes: identity rotation when
    the normal already points along +z, a half-turn about x when it points
    along -z.
    """
    v = plane.normal
    axis = np.cross(v, _EZ)
    s = np.linalg.norm(axis)
    c = float(v @ _EZ)
    if s < 1e-9:
        if c > 0:
            axis, angle = np.array([1.0, 0.0, 0.0]), 0.0
        else:
            axis, angle = np.array([1.0, 0.0, 0.0]), np.pi
    else:
        axis = axis / s
        angle = float(np.arccos(np.clip(c, -1.0, 1.0)))
    return DualQuat.from_rot_trans(axis, angle, plane.distance * _EZ)


def project_motion(q: np.ndarray, q_g: DualQuat) -> np.ndarray:
    """Express (n, 8) unit motion rows in the plane-aligned frame: each is
    conjugated by q_g and sign-canonicalized.  Raises :class:`NotUnit`
    when q_g or a row is not a unit dual quaternion."""
    q_g._require_unit()
    require_unit_rows(q)
    g = np.broadcast_to(q_g.vec(), q.shape)
    g_conj = np.broadcast_to(q_g.conjugate().vec(), q.shape)
    return canonicalized_rows(dq_mul_rows(dq_mul_rows(g, q), g_conj))


def lift_calibration(q_tp: DualQuat, q_ga: DualQuat, q_gb: DualQuat) -> DualQuat:
    """Recover the full 3D calibration from its planar part and both alignments."""
    for x in (q_tp, q_ga, q_gb):
        x._require_unit()
    return (q_ga.conjugate() * q_tp * q_gb).canonicalized()


def transform_plane(plane: GroundPlane, frame: DualQuat) -> GroundPlane:
    """Re-express a plane in a new frame.

    ``frame`` maps new-frame coordinates to the frame the plane is given in
    (x_old = frame(x_new)).
    """
    frame._require_unit()
    R = quat_to_rot_rows(frame.real[None])[0]
    t = frame.translation()
    normal = R.T @ plane.normal
    distance = plane.distance + float(plane.normal @ t)
    return GroundPlane(normal=normal, distance=distance)


# minimal samples drawn per fit, and the distance within which a point is
# an inlier of a sample's plane
RANSAC_ITERATIONS = 200
INLIER_THRESHOLD = 0.05

# points scored per matrix product: bounds the scoring temporaries (800 KB of
# distances at 200 hypotheses) whatever the size of the cloud
SCORE_BLOCK_ROWS = 512


def _minimal_samples(n_pts: int, iterations: int,
                     rng: np.random.Generator) -> np.ndarray:
    """``iterations`` rows of three distinct indices in [0, n_pts), each
    row uniform over ordered triples; one row (0, 1, 2) when n_pts is 3.

    The second index is drawn from n_pts - 1 values and the third from
    n_pts - 2; each is shifted past the indices picked before it.
    """
    if n_pts == 3:
        return np.arange(3).reshape(1, 3)
    idx = rng.integers(0, [n_pts, n_pts - 1, n_pts - 2], size=(iterations, 3))
    first, second, third = idx.T
    second += second >= first
    lo, hi = np.minimum(first, second), np.maximum(first, second)
    third += third >= lo
    third += third >= hi
    return idx


def _hypotheses(points: np.ndarray, samples: np.ndarray):
    """Unit normals and offsets of the planes through each sample, in
    sample order, without the samples whose cross-product norm is below
    1e-12."""
    p0 = points[samples[:, 0]]
    u = points[samples[:, 1]] - p0
    v = points[samples[:, 2]] - p0
    cross = np.stack([u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
                      u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2],
                      u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]], axis=1)
    norm = np.sqrt(np.einsum("ij,ij->i", cross, cross))
    keep = norm >= 1e-12
    normals = cross[keep] / norm[keep, None]
    offsets = -np.einsum("ij,ij->i", normals, p0[keep])
    return normals, offsets


def _inlier_counts(points: np.ndarray, normals: np.ndarray,
                   offsets: np.ndarray, threshold: float) -> np.ndarray:
    """Points within ``threshold`` of each plane, one matrix product per
    block of ``SCORE_BLOCK_ROWS`` points."""
    counts = np.zeros(len(normals), dtype=np.int64)
    for start in range(0, len(points), SCORE_BLOCK_ROWS):
        dist = points[start:start + SCORE_BLOCK_ROWS] @ normals.T
        dist += offsets
        np.abs(dist, out=dist)
        counts += np.count_nonzero(dist <= threshold, axis=0)
    return counts


def fit_ground_plane(points: np.ndarray, seed: int) -> GroundPlane:
    """RANSAC plane fit with least-squares refinement over the inliers.

    Sampling: ``RANSAC_ITERATIONS`` minimal samples, each three distinct
    point indices drawn uniformly, all in one pass from
    ``np.random.default_rng(seed)``, so the fit is deterministic by seed; a
    3-point cloud has its single sample.  A sample whose cross-product norm
    is below 1e-12 is dropped.  Scoring: a point is an inlier of a sample's
    plane when its distance is at most ``INLIER_THRESHOLD``; the first
    sample with the most inliers wins, and the plane is refit by SVD over
    its inliers.

    The returned plane is oriented so its offset is nonnegative.  Raises
    :class:`DegenerateInput` when fewer than three points are given, any
    coordinate is not finite, all points are collinear or every sample is.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n_pts = points.shape[0]
    if n_pts < 3 or points.shape[1] != 3:
        raise DegenerateInput("plane fitting needs at least 3 xyz points")
    if not np.isfinite(points).all():
        raise DegenerateInput("plane fitting needs finite points")

    if np.linalg.matrix_rank(points - points.mean(axis=0), tol=1e-9) < 2:
        raise DegenerateInput("all points are collinear")

    rng = np.random.default_rng(seed)
    normals, offsets = _hypotheses(
        points, _minimal_samples(n_pts, RANSAC_ITERATIONS, rng))
    if len(normals) == 0:
        raise DegenerateInput("no non-collinear minimal sample found")
    best = int(np.argmax(_inlier_counts(points, normals, offsets,
                                        INLIER_THRESHOLD)))
    mask = np.abs(points @ normals[best] + offsets[best]) <= INLIER_THRESHOLD

    inliers = points[mask]
    centroid = inliers.mean(axis=0)
    _, _, vt = np.linalg.svd(inliers - centroid, full_matrices=False)
    normal = vt[-1]
    distance = -float(normal @ centroid)
    if distance < 0:
        normal, distance = -normal, -distance
    return GroundPlane(normal=normal, distance=distance)
