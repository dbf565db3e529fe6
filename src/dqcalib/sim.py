"""Motion-data simulator: 2D paths on 3D surfaces, rigid sensor rigs, noise.

A 2D path is resampled at a fixed step length and projected onto a height
field.  The surface normal gives each pose's z-axis and the horizontal
path tangent (after Gram-Schmidt against the normal) its x-axis.  From the
resulting 6-DOF pose sequence, incremental motions for a pair of rigidly
mounted sensors are generated, optionally perturbed by zero-mean Gaussian
noise specified either absolutely or relative to the average motion.

The simulator is one pipeline over arrays of dual-quaternion rows, with no
loop over poses or pairs:

* the frames of all poses at once (surface gradient, normal, Gram-Schmidt
  x-axis, cross product), turned into (n + 1, 8) pose rows by the row form
  of Shepperd's method in :func:`~dqcalib.dualquat.from_homogeneous_rows`;
  :func:`generate_path` returns them as the one pose record,
  :class:`~dqcalib.io.Trajectory`, that a loaded trajectory file also is;
* the motions as a :class:`~dqcalib.cost.PairArrays`, sensor A's in
  ``q_a`` and sensor B's in ``q_b``, by
  :func:`~dqcalib.io.relative_motions` and row products; the record
  normalizes and sign-canonicalizes them as a
  :class:`~dqcalib.cost.MotionPair` holds them;
* the noise as one block of normal draws, turned into perturbation rows
  and left-composed with the motions into a new record.

:func:`simulate_pairs` and :func:`planar_rig` hand the rows out as
MotionPairs, which hold them unchanged.

RNG draw order (an invariant: every seeded dataset depends on it): the
noise generator is ``default_rng(seed)``.  It draws for the motions in
order, sensor A's motion of a pair before sensor B's.  Each motion draws
its rotation axis (3 normals), then its angle (1, only if sigma_rot > 0),
then its translation (3, only if sigma_trans > 0).  The draws come as one
block, whose values equal those of the draws made one by one in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .cost import MotionPair, PairArrays
from .dualquat import (DualQuat, _row_dots, angle_translation_rows,
                       canonicalized_rows, dq_mul_rows, from_homogeneous_rows,
                       from_rot_trans_rows, quat_mul)
from .errors import DegeneratePath
from .io import Trajectory, relative_motions
from .planar import GroundPlane, transform_plane


# -- surfaces ---------------------------------------------------------------

@dataclass(frozen=True)
class SinusoidTerm:
    amplitude: float
    wavelength: float
    axis: str = "x"  # "x" or "y"
    phase: float = 0.0


DEFAULT_SURFACE_TERMS = (
    SinusoidTerm(amplitude=0.5, wavelength=20.0, axis="x"),
    SinusoidTerm(amplitude=0.2, wavelength=7.0, axis="y"),
)


def surface_from_spec(spec) -> tuple[Callable, Callable]:
    """Return (height, gradient) callables for a surface spec.

    ``spec`` is None or {"kind": "flat"} for a flat surface, or
    {"kind": "sinusoid", "terms": [{amplitude, wavelength, axis, phase}, ...]}.
    """
    if spec is None or (isinstance(spec, dict) and spec.get("kind") == "flat"):
        return (lambda x, y: 0.0 * x, lambda x, y: (0.0 * x, 0.0 * y))
    if isinstance(spec, dict) and spec.get("kind") == "sinusoid":
        raw = spec.get("terms")
        terms = DEFAULT_SURFACE_TERMS if raw is None else tuple(
            SinusoidTerm(**t) for t in raw)

        def height(x, y):
            z = 0.0 * x
            for t in terms:
                u = x if t.axis == "x" else y
                z = z + t.amplitude * np.sin(2 * np.pi * u / t.wavelength + t.phase)
            return z

        def gradient(x, y):
            gx = 0.0 * x
            gy = 0.0 * y
            for t in terms:
                u = x if t.axis == "x" else y
                g = (t.amplitude * 2 * np.pi / t.wavelength
                     * np.cos(2 * np.pi * u / t.wavelength + t.phase))
                if t.axis == "x":
                    gx = gx + g
                else:
                    gy = gy + g
            return gx, gy

        return height, gradient
    raise ValueError(f"unknown surface spec: {spec!r}")


# -- 2D paths ---------------------------------------------------------------

def _dense_path_2d(path_spec, n_steps: int, step_length: float) -> np.ndarray:
    total = n_steps * step_length
    if isinstance(path_spec, dict):
        kind = path_spec.get("kind")
        if kind == "circle":
            radius = float(path_spec.get("radius", 12.0))
            # 5% parameter margin: the chord length of the dense polyline is
            # slightly below the arc length
            phi = np.linspace(0.0, 1.05 * total / radius, 20 * n_steps + 1)
            return np.column_stack([radius * np.cos(phi), radius * np.sin(phi)])
        if kind == "lissajous":
            ax = float(path_spec.get("ax", 12.0))
            ay = float(path_spec.get("ay", 8.0))
            fx = float(path_spec.get("fx", 1.0))
            fy = float(path_spec.get("fy", 2.0))
            # generous parameter span so the curve is long enough to resample
            span = 1.5 * total / max(ax * fx, ay * fy)
            s = np.linspace(0.0, span, 40 * n_steps + 1)
            pts = np.column_stack([ax * np.sin(fx * s), ay * np.sin(fy * s + 0.5)])
            seg = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
            while seg < 1.05 * total:
                span *= 1.5
                s = np.linspace(0.0, span, 40 * n_steps + 1)
                pts = np.column_stack([ax * np.sin(fx * s), ay * np.sin(fy * s + 0.5)])
                seg = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
            return pts
        if kind == "waypoints":
            return np.asarray(path_spec["points"], dtype=float)
        raise ValueError(f"unknown path kind: {kind!r}")
    return np.asarray(path_spec, dtype=float)


def _resample_by_arclength(points: np.ndarray, step_length: float,
                           n_steps: int) -> np.ndarray:
    seg = np.diff(points, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    if np.any(seg_len < 1e-12):
        raise DegeneratePath("consecutive waypoints coincide")
    s = np.concatenate([[0.0], np.cumsum(seg_len)])
    wanted = np.arange(n_steps + 1) * step_length
    if wanted[-1] > s[-1] + 1e-9:
        raise DegeneratePath(
            f"path length {s[-1]:.3f} m shorter than requested "
            f"{wanted[-1]:.3f} m")
    x = np.interp(wanted, s, points[:, 0])
    y = np.interp(wanted, s, points[:, 1])
    return np.column_stack([x, y])


# -- configuration and pose generation ---------------------------------------

def _check_noise_level(level) -> None:
    """Raise ValueError unless ``level`` is a finite nonnegative fraction or
    a pair of finite nonnegative sigmas."""
    if isinstance(level, (int, float)):
        values = (level,)
    else:
        try:
            values = tuple(level)
        except TypeError:
            raise ValueError(f"noise_level {level!r} is neither a number nor "
                             "a pair of sigmas") from None
        if len(values) != 2:
            raise ValueError("noise_level sigmas must be a pair (sigma_trans_m, "
                             f"sigma_rot_rad), got {len(values)} values")
    for v in values:
        if (isinstance(v, bool) or not isinstance(v, Real)
                or not (math.isfinite(v) and v >= 0)):
            raise ValueError(f"noise_level must be finite and nonnegative, "
                             f"got {level!r}")


@dataclass(frozen=True)
class SimConfig:
    path: object = field(default_factory=lambda: {"kind": "circle", "radius": 12.0})
    surface: object = field(default_factory=lambda: {"kind": "sinusoid"})
    step_length: float = 1.0
    n_steps: int = 100
    true_calib: DualQuat | None = None
    noise_level: object = 0.0  # fraction, or (sigma_trans_m, sigma_rot_rad)
    seed: int = 0
    rate: float = 10.0

    def __post_init__(self):
        for name in ("n_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("step_length", "rate"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not (math.isfinite(value) and value > 0)):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value!r}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        _check_noise_level(self.noise_level)


def _unit_vectors(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt(_row_dots(v, v))[:, None]


def generate_path(config: SimConfig) -> Trajectory:
    """6-DOF poses along the configured path projected onto the surface."""
    height, gradient = surface_from_spec(config.surface)
    dense = _dense_path_2d(config.path, config.n_steps, config.step_length)
    xy = _resample_by_arclength(dense, config.step_length, config.n_steps)

    tangents = np.empty_like(xy)
    tangents[:-1] = xy[1:] - xy[:-1]
    tangents[-1] = tangents[-2] if len(xy) > 1 else np.array([1.0, 0.0])

    x, y = xy[:, 0], xy[:, 1]
    gx, gy = gradient(x, y)
    normal = _unit_vectors(np.column_stack([-gx, -gy, np.ones(len(xy))]))
    t3 = np.column_stack([tangents, np.zeros(len(xy))])
    nt = np.sqrt(_row_dots(t3, t3))
    if np.any(nt < 1e-12):
        raise DegeneratePath("zero path tangent")
    t3 /= nt[:, None]
    x_axis = _unit_vectors(t3 - _row_dots(t3, normal)[:, None] * normal)
    T = np.zeros((len(xy), 4, 4))
    T[:, :3, 0] = x_axis
    T[:, :3, 1] = np.cross(normal, x_axis)
    T[:, :3, 2] = normal
    T[:, :3, 3] = np.column_stack([x, y, height(x, y)])
    T[:, 3, 3] = 1.0
    return Trajectory(times=np.arange(len(xy)) / config.rate,
                      poses=from_homogeneous_rows(T))


def sensor_pair_motions(poses: Trajectory, true_calib: DualQuat) -> PairArrays:
    """Incremental motion pairs of two sensors rigidly related by ``true_calib``.

    The pose sequence is sensor A's; sensor B moves rigidly attached with
    calibration ``true_calib`` (mapping B coordinates into A).  Every pair
    then satisfies q_a * q_T = q_T * q_b exactly.  The weights are 1.
    """
    qt = true_calib.normalized().canonicalized()
    times, v_a = relative_motions(poses)
    qt_inv = np.broadcast_to(qt.conjugate().vec(), v_a.shape)
    v_b = dq_mul_rows(dq_mul_rows(qt_inv, v_a), np.broadcast_to(qt.vec(), v_a.shape))
    return PairArrays(t=times, q_a=v_a, q_b=v_b)


# -- noise --------------------------------------------------------------------

def _motions(rows: PairArrays) -> np.ndarray:
    """The motions of ``rows`` in RNG order, q_a of a pair before its q_b."""
    return np.stack([rows.q_a, rows.q_b], axis=1).reshape(-1, 8)


def noise_sigmas(rows: PairArrays, noise_level) -> tuple[float, float]:
    """Resolve a noise spec into absolute (sigma_trans, sigma_rot).

    A scalar is a fraction of the dataset's mean per-step translation and
    rotation magnitudes; a tuple is taken as absolute sigmas.
    """
    _check_noise_level(noise_level)
    if not isinstance(noise_level, (int, float)):
        st, sr = noise_level
        return float(st), float(sr)
    if noise_level == 0:
        return 0.0, 0.0
    angle, t = angle_translation_rows(_motions(rows))
    mean_t = float(np.mean(np.sqrt(_row_dots(t, t))))
    return noise_level * mean_t, noise_level * float(np.mean(angle))


def add_noise(rows: PairArrays, noise_level, seed: int) -> PairArrays:
    """Left-compose each motion with a random small displacement.

    Rotation noise uses a uniformly random axis and a zero-mean normal
    angle; translation noise is isotropic normal.  The times and weights
    are kept; a zero level returns ``rows`` itself.
    """
    sigma_t, sigma_r = noise_sigmas(rows, noise_level)
    if sigma_t == 0.0 and sigma_r == 0.0:
        return rows
    motions = _motions(rows)
    n = len(motions)
    # a normal draw is loc + scale * z: the block holds 0.0 + 1.0 * z
    draws = np.random.default_rng(seed).normal(
        size=(n, 3 + (sigma_r > 0) + 3 * (sigma_t > 0)))
    axis = _unit_vectors(draws[:, :3])
    angle = 0.0 + sigma_r * draws[:, 3] if sigma_r > 0 else np.zeros(n)
    t = 0.0 + sigma_t * draws[:, -3:] if sigma_t > 0 else np.zeros((n, 3))
    noisy = dq_mul_rows(from_rot_trans_rows(axis, angle, t), motions)
    return replace(rows, q_a=noisy[0::2], q_b=noisy[1::2])


# -- sampling helpers ----------------------------------------------------------

def random_unit_dq(rng: np.random.Generator, max_translation: float = 1.0) -> DualQuat:
    """Uniformly random rotation with uniform translation in a cube."""
    r = rng.normal(size=4)
    r /= np.linalg.norm(r)
    t = rng.uniform(-max_translation, max_translation, size=3)
    dual = 0.5 * quat_mul(np.concatenate(([0.0], t)), r)
    return DualQuat(r, dual).canonicalized()


def sample_study_calibration(rng: np.random.Generator) -> DualQuat:
    """Random sensor-rig calibration with offset between 2 m and 8 m."""
    r = rng.normal(size=4)
    r /= np.linalg.norm(r)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    t = direction * rng.uniform(2.0, 8.0)
    dual = 0.5 * quat_mul(np.concatenate(([0.0], t)), r)
    return DualQuat(r, dual).canonicalized()


def simulate_rows(config: SimConfig) -> tuple[PairArrays, DualQuat]:
    """Full pipeline as rows: path -> pair motions -> noise.  Returns
    (rows, truth)."""
    rng = np.random.default_rng(config.seed)
    truth = config.true_calib
    if truth is None:
        truth = sample_study_calibration(rng)
    rows = sensor_pair_motions(generate_path(config), truth)
    return add_noise(rows, config.noise_level, seed=config.seed + 1), truth


def simulate_pairs(config: SimConfig) -> tuple[list[MotionPair], DualQuat]:
    """:func:`simulate_rows` as a MotionPair list.  Returns (pairs, truth)."""
    rows, truth = simulate_rows(config)
    return list(rows.motion_pairs()), truth


# -- planar rig scenario --------------------------------------------------------

@dataclass(frozen=True)
class PlanarRig:
    pairs: list[MotionPair]
    plane_a: GroundPlane
    plane_b: GroundPlane
    true_calib: DualQuat
    mount_a: DualQuat
    mount_b: DualQuat


def planar_rig(n_steps: int = 60, seed: int = 0, step_length: float = 1.0,
               body_height: float = 1.3, noise_level=0.0,
               mount_translation: float = 1.5, rate: float = 10.0) -> PlanarRig:
    """Two tilt-mounted sensors on a body moving in a ground plane.

    The body follows a curvy planar path; each sensor is rigidly mounted
    with a random full-3D offset, so its own motions are planar only after
    alignment with its ground plane.  Ground planes are derived exactly
    from the mounts, making the scenario a noise-controlled oracle for the
    planar pipeline.
    """
    rng = np.random.default_rng(seed)
    mount_a = random_unit_dq(rng, max_translation=mount_translation)
    mount_b = random_unit_dq(rng, max_translation=mount_translation)
    true_calib = (mount_a.conjugate() * mount_b).canonicalized()

    body_cfg = SimConfig(path={"kind": "lissajous", "ax": 14.0, "ay": 9.0,
                               "fx": 1.0, "fy": 2.0},
                         surface={"kind": "flat"}, step_length=step_length,
                         n_steps=n_steps, rate=rate)
    body = generate_path(body_cfg)
    sensor_a = Trajectory(body.times, canonicalized_rows(
        dq_mul_rows(body.poses, np.broadcast_to(mount_a.vec(), body.poses.shape))))
    rows = add_noise(sensor_pair_motions(sensor_a, true_calib), noise_level,
                     seed=seed + 1)

    body_plane = GroundPlane(normal=np.array([0.0, 0.0, 1.0]), distance=body_height)
    plane_a = transform_plane(body_plane, mount_a)
    plane_b = transform_plane(body_plane, mount_b)
    return PlanarRig(pairs=list(rows.motion_pairs()), plane_a=plane_a, plane_b=plane_b,
                     true_calib=true_calib, mount_a=mount_a, mount_b=mount_b)
