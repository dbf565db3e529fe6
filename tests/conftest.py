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


def qr_newton_direction(Q, q, lam, grad, exact):
    """The safeguarded tangent-space Newton step on the QR basis."""
    from dqcalib.constraints import constraint_matrices

    N = qr_tangent_basis(q)
    H = 2.0 * Q + sum(li * 2.0 * G for li, G in zip(lam, constraint_matrices()))
    w, V = np.linalg.eigh(N.T @ H @ N)
    mag = np.maximum(np.abs(w), 1e-12 * (1.0 + np.max(np.abs(w))))
    if exact:
        mag = np.copysign(mag, w)
    return -(N @ V) @ ((V.T @ (N.T @ grad)) / mag)


def lstsq_fit_multipliers(q, Qq):
    """Minimum-norm SVD least-squares fit of (lam_1, lam_2) at q."""
    from dqcalib.constraints import constraint_matrices

    A = np.column_stack([G @ q for G in constraint_matrices()])
    lam = np.linalg.lstsq(A, -Qq, rcond=1e-12)[0]
    return float(lam[0]), float(lam[1])


def use_oracle_kernels(monkeypatch):
    """Route the fast solver and the 3D certificate through the oracles."""
    import dqcalib.local_solver
    import dqcalib.verify

    monkeypatch.setattr(dqcalib.local_solver, "_stationarity", lstsq_stationarity)
    monkeypatch.setattr(dqcalib.local_solver, "_newton_direction",
                        qr_newton_direction)
    monkeypatch.setattr(dqcalib.verify, "fit_multipliers", lstsq_fit_multipliers)
