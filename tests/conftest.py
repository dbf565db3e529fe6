import numpy as np
import pytest
from hypothesis import strategies as st

from dqcalib.cost import CostAccumulator, MotionPair
from dqcalib.dualquat import DualQuat
from dqcalib.sim import random_unit_dq


def unit_quats():
    """Hypothesis strategy for unit quaternions, away from the zero vector."""
    comps = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    return (
        st.tuples(comps, comps, comps, comps)
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-2)
        .map(lambda v: v / np.linalg.norm(v))
    )


def unit_dqs(max_translation=2.0):
    """Hypothesis strategy for unit dual quaternions."""
    t_comp = st.floats(-max_translation, max_translation,
                       allow_nan=False, allow_infinity=False)

    def build(args):
        r, t = args
        from dqcalib.dualquat import quat_mul
        dual = 0.5 * quat_mul(np.concatenate(([0.0], np.array(t))), r)
        return DualQuat(r, dual)

    return st.tuples(unit_quats(), st.tuples(t_comp, t_comp, t_comp)).map(build)


@st.composite
def near_feasible_points(draw, max_translation=100.0, max_residual=0.99e-6):
    """Strategy for 8-vectors q = (r, d) with |r| = 1 and a translation of at
    most ``max_translation``, moved off the 3D manifold until the residuals
    (g1, g2) reach up to ``max_residual``: by default just inside the
    certificate's feasibility tolerance of 1e-6."""
    from dqcalib.dualquat import quat_mul

    r = draw(unit_quats())
    t = np.array(draw(st.tuples(*[st.floats(-max_translation, max_translation)] * 3)))
    t *= min(1.0, max_translation / max(np.linalg.norm(t), 1e-300))
    d = 0.5 * quat_mul(np.concatenate(([0.0], t)), r)
    e1, e2 = draw(st.tuples(*[st.floats(-max_residual, max_residual)] * 2))
    # |r|^2 = 1 - e1 and 2 r.d = e2 / sqrt(1 - e1)
    return np.concatenate([r * np.sqrt(1.0 - e1), d + 0.5 * e2 / (1.0 - e1) * r])


def random_cost(seed):
    """A positive definite 8x8 cost matrix with trace between 1e-3 and 1e3."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(8, 8))
    return M.T @ M / np.trace(M.T @ M) * 10.0 ** rng.uniform(-3.0, 3.0)


def make_dataset(seed=0, n_pairs=40, noise=0.0, max_translation=1.0,
                 n_steps=None):
    """Noise-controlled full-3D dataset with a random true calibration."""
    from dqcalib.sim import SimConfig, simulate_pairs

    cfg = SimConfig(
        path={"kind": "circle", "radius": 12.0},
        surface={"kind": "sinusoid"},
        n_steps=n_steps or n_pairs,
        true_calib=random_unit_dq(np.random.default_rng(seed), max_translation),
        noise_level=noise,
        seed=seed,
    )
    return simulate_pairs(cfg)


def make_study_dataset(seed=0, n_pairs=100, noise=0.05):
    """Dataset with a vehicle-scale calibration (2-8 m sensor offset)."""
    from dqcalib.sim import SimConfig, sample_study_calibration, simulate_pairs

    calib = sample_study_calibration(np.random.default_rng(seed))
    cfg = SimConfig(n_steps=n_pairs, true_calib=calib, noise_level=noise,
                    seed=seed)
    return simulate_pairs(cfg)


def accumulate_pairs(pairs, mode=None, **kwargs):
    from dqcalib.constraints import ConstraintMode

    acc = CostAccumulator(mode or ConstraintMode.FULL_3D, **kwargs)
    for p in pairs:
        acc.add(p)
    return acc


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# Oracles for the closed-form 3D kernels: the generic least-squares and
# complete-QR forms they replace, with the same signatures.

def grad_g(q):
    """Jacobian of the 3D residuals, one row per constraint (rows are 2 G_i q)."""
    from dqcalib.constraints import constraint_matrices

    q = np.asarray(q, dtype=float).reshape(8)
    return np.stack([2.0 * (G @ q) for G in constraint_matrices()])


def lstsq_stationarity(Q, q):
    """Multipliers, Lagrangian gradient and KKT residual by SVD lstsq."""
    from dqcalib.constraints import ConstraintMode, eval_g

    A = grad_g(q)
    Qq2 = 2.0 * (Q @ q)
    lam = np.linalg.lstsq(A.T, -Qq2, rcond=None)[0]
    grad = Qq2 + A.T @ lam
    g = eval_g(q, ConstraintMode.FULL_3D)
    return lam, grad, float(max(np.max(np.abs(grad)), np.max(np.abs(g))))


def qr_tangent_basis(q):
    """Orthonormal null space of the constraint Jacobian by complete QR."""
    return np.linalg.qr(grad_g(q).T, mode="complete")[0][:, 2:]


def qr_restricted_hessian(Q, q, lam):
    """(N, w, V, mag): the QR tangent basis N, the eigenpairs (w, V) of the
    Lagrangian Hessian restricted to it, and the magnitudes |w| floored at
    1e-12 (1 + max |w|), as the safeguarded Newton step uses them."""
    from dqcalib.constraints import constraint_matrices

    N = qr_tangent_basis(q)
    H = 2.0 * Q + sum(li * 2.0 * G for li, G in zip(lam, constraint_matrices()))
    w, V = np.linalg.eigh(N.T @ H @ N)
    mag = np.maximum(np.abs(w), 1e-12 * (1.0 + np.max(np.abs(w))))
    return N, w, V, mag


def qr_newton_direction(Q, q, lam, grad, exact):
    """The safeguarded tangent-space Newton step on the QR basis."""
    N, w, V, mag = qr_restricted_hessian(Q, q, lam)
    if exact:
        mag = np.copysign(mag, w)
    return -(N @ V) @ ((V.T @ (N.T @ grad)) / mag)


def lstsq_fit_multipliers(q, Qq):
    """Minimum-norm SVD least-squares fit of (lam_1, lam_2) at q."""
    from dqcalib.constraints import constraint_matrices

    A = np.column_stack([G @ q for G in constraint_matrices()])
    lam = np.linalg.lstsq(A, -Qq, rcond=1e-12)[0]
    return float(lam[0]), float(lam[1])


# The closed-form kernels and their oracles are both backward stable, so they
# agree to a forward-error bound C_FWD * eps * kappa times the scale of the
# data, kappa the condition number of the problem the kernel solves.  Over
# 60 000 drawn points the largest error / (eps * kappa * scale) was 6.5.
C_FWD = 16.0

# drawn (q, random_cost seed) at which fixed relative tolerances (1e-12 on
# the certificate's multipliers, 1e-10 on the Newton step) failed
ILL_CONDITIONED_DRAWS = [
    (np.array([0.0, -float.fromhex("0x1.aab2ace0d7b78p-20"),
               -float.fromhex("0x1.fffffffffd38dp-1"), 0.0,
               float.fromhex("0x1.75fffffffdf88p+4"), 0.0, 0.0,
               float.fromhex("0x1.37b084483d931p-15")]), 314),
    (np.array([float.fromhex(x) for x in (
        "-0x1.894614fb9bb3ap-4", "0x1.6e164f5db20a0p-2",
        "0x1.c958dc9a1b2a2p-1", "-0x1.053290d28464dp-2",
        "0x1.1293c4095b04cp+2", "-0x1.04afb65a4ecb2p+4",
        "0x1.9c951f9295fc0p+2", "-0x1.e004a3f86e85ep+0")]), 382),
]


def forward_tol(kappa, scale):
    """C_FWD * eps * kappa * scale."""
    return C_FWD * np.finfo(float).eps * kappa * scale


def normal_matrix_cond(q):
    """Condition number of the multiplier fit's 2x2 normal matrix at q."""
    r, d = q[:4], q[4:]
    rd = r @ d
    return np.linalg.cond([[r @ r, -rd], [-rd, r @ r + d @ d]])


def restricted_hessian_cond(Q, q, lam):
    """Condition number of the Newton step's restricted Hessian, its
    eigenvalues taken by their floored magnitudes."""
    mag = qr_restricted_hessian(Q, q, lam)[3]
    return mag.max() / mag.min()


def use_oracle_kernels(monkeypatch):
    """Route the fast solver and the 3D certificate through the oracles."""
    import dqcalib.local_solver
    import dqcalib.verify

    monkeypatch.setattr(dqcalib.local_solver, "_stationarity", lstsq_stationarity)
    monkeypatch.setattr(dqcalib.local_solver, "_newton_direction",
                        qr_newton_direction)
    monkeypatch.setattr(dqcalib.verify, "fit_multipliers", lstsq_fit_multipliers)


# Oracle for the simulator's row pipeline: the per-pose and per-pair loops it
# replaces, on DualQuat and MotionPair objects, with the same signatures.

def oracle_generate_path(config):
    from dqcalib.errors import DegeneratePath
    from dqcalib.io import Trajectory
    from dqcalib.sim import (_dense_path_2d, _resample_by_arclength,
                             surface_from_spec)

    height, gradient = surface_from_spec(config.surface)
    dense = _dense_path_2d(config.path, config.n_steps, config.step_length)
    xy = _resample_by_arclength(dense, config.step_length, config.n_steps)

    tangents = np.empty_like(xy)
    tangents[:-1] = xy[1:] - xy[:-1]
    tangents[-1] = tangents[-2] if len(xy) > 1 else np.array([1.0, 0.0])

    poses = []
    for (x, y), tan in zip(xy, tangents):
        gx, gy = gradient(x, y)
        normal = np.array([-gx, -gy, 1.0])
        normal /= np.linalg.norm(normal)
        t3 = np.array([tan[0], tan[1], 0.0])
        nt = np.linalg.norm(t3)
        if nt < 1e-12:
            raise DegeneratePath("zero path tangent")
        t3 /= nt
        x_axis = t3 - (t3 @ normal) * normal
        x_axis /= np.linalg.norm(x_axis)
        y_axis = np.cross(normal, x_axis)
        R = np.column_stack([x_axis, y_axis, normal])
        T = np.eye(4)
        T[:3, :3] = R
        T[:3, 3] = (x, y, float(height(x, y)))
        poses.append(DualQuat.from_homogeneous(T))
    times = np.arange(len(poses)) / config.rate
    return Trajectory(times=times, poses=np.array([p.vec() for p in poses]))


def oracle_sensor_pair_motions(poses, true_calib):
    qt = true_calib.normalized().canonicalized()
    qt_inv = qt.conjugate()
    dqs = [DualQuat.from_vec(v) for v in poses.poses]
    pairs = []
    for i in range(len(poses) - 1):
        v_a = (dqs[i].conjugate() * dqs[i + 1]).canonicalized()
        v_b = (qt_inv * v_a * qt).canonicalized()
        pairs.append(MotionPair(q_a=v_a, q_b=v_b,
                                timestamp=float(poses.times[i + 1])))
    return pairs


def oracle_noise_sigmas(pairs, noise_level):
    if isinstance(noise_level, (int, float)):
        if noise_level == 0:
            return 0.0, 0.0
        trans, rot = [], []
        for p in pairs:
            for q in (p.q_a, p.q_b):
                _, angle, t = q.to_rot_trans()
                rot.append(angle)
                trans.append(np.linalg.norm(t))
        return noise_level * float(np.mean(trans)), noise_level * float(np.mean(rot))
    st, sr = noise_level
    return float(st), float(sr)


def _oracle_perturbation(rng, sigma_t, sigma_r):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.normal(0.0, sigma_r) if sigma_r > 0 else 0.0
    t = rng.normal(0.0, sigma_t, size=3) if sigma_t > 0 else np.zeros(3)
    return DualQuat.from_rot_trans(axis, angle, t)


def oracle_add_noise(pairs, noise_level, seed):
    from dataclasses import replace

    sigma_t, sigma_r = oracle_noise_sigmas(pairs, noise_level)
    if sigma_t == 0.0 and sigma_r == 0.0:
        return list(pairs)
    rng = np.random.default_rng(seed)
    noisy = []
    for p in pairs:
        qa = (_oracle_perturbation(rng, sigma_t, sigma_r) * p.q_a).canonicalized()
        qb = (_oracle_perturbation(rng, sigma_t, sigma_r) * p.q_b).canonicalized()
        noisy.append(replace(p, q_a=qa, q_b=qb))
    return noisy


def oracle_simulate_pairs(config):
    from dqcalib.sim import sample_study_calibration

    rng = np.random.default_rng(config.seed)
    truth = config.true_calib
    if truth is None:
        truth = sample_study_calibration(rng)
    pairs = oracle_sensor_pair_motions(oracle_generate_path(config), truth)
    return oracle_add_noise(pairs, config.noise_level, seed=config.seed + 1), truth


def oracle_planar_rig(n_steps=60, seed=0, step_length=1.0, noise_level=0.0,
                      mount_translation=1.5, rate=10.0):
    """The pairs, truth and mounts of ``planar_rig`` with these arguments."""
    from dqcalib.io import Trajectory
    from dqcalib.sim import SimConfig

    rng = np.random.default_rng(seed)
    mount_a = random_unit_dq(rng, max_translation=mount_translation)
    mount_b = random_unit_dq(rng, max_translation=mount_translation)
    true_calib = (mount_a.conjugate() * mount_b).canonicalized()
    body_cfg = SimConfig(path={"kind": "lissajous", "ax": 14.0, "ay": 9.0,
                               "fx": 1.0, "fy": 2.0},
                         surface={"kind": "flat"}, step_length=step_length,
                         n_steps=n_steps, rate=rate)
    body = oracle_generate_path(body_cfg)
    sensor_a = Trajectory(times=body.times,
                          poses=np.array([(DualQuat.from_vec(w) * mount_a)
                                          .canonicalized().vec()
                                          for w in body.poses]))
    pairs = oracle_sensor_pair_motions(sensor_a, true_calib)
    pairs = oracle_add_noise(pairs, noise_level, seed=seed + 1)
    return pairs, true_calib, mount_a, mount_b
