"""Fast local solver for the constrained quadratic calibration problem.

Minimizes q^T Q q subject to the mode's equality constraints.  In 3D mode a
short projected-gradient phase descends from the initial point, then damped
Newton iterations on the KKT system polish to tight tolerances.  Iterates
are re-projected onto the constraint manifold after every step (cheap and
exact for these constraints), so returned points are feasible to floating
point accuracy.  Planar mode needs no iteration: the planar problem reduces
to a 2x2 eigenproblem (:func:`dqcalib.constraints.solve_planar`) whose
solution is global, so the fast and the global solver return the same
estimate.  Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintMode, constraint_matrices, eval_g, grad_g, solve_planar
from .dualquat import DualQuat
from .errors import DegenerateInit

_IDENTITY8 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
_HESSIANS = [2.0 * G for G in constraint_matrices()]


@dataclass(frozen=True)
class LocalSolveOptions:
    max_iter: int = 100
    tol_kkt: float = 1e-10
    tol_step: float = 1e-12
    init: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iter < 1 or self.tol_kkt <= 0 or self.tol_step <= 0:
            raise ValueError("solver tolerances and budgets must be positive")


@dataclass(frozen=True)
class LocalSolution:
    """A KKT point of the calibration QCQP.

    Planar mode: ``lam`` is (p*, 0), ``iterations`` 0 and ``kkt_residual``
    0, since the reduced problem is solved in closed form.
    """

    q_hat: DualQuat
    lam: np.ndarray  # multipliers of (g1, g2)
    cost: float
    converged: bool
    iterations: int
    kkt_residual: float


def project_feasible(q: np.ndarray) -> np.ndarray:
    """Exact restoration onto the 3D constraint manifold.

    The real part is normalized and the dual part orthogonalized to it.
    """
    v = np.array(q, dtype=float).reshape(8).copy()
    nr = np.linalg.norm(v[:4])
    if nr < 1e-8:
        raise DegenerateInit("initial point has (near-)zero real part")
    v[:4] /= nr
    v[4:] -= (v[:4] @ v[4:]) * v[:4]
    return v


def _canonical(q: np.ndarray) -> np.ndarray:
    # both constraints are even in q, so the multipliers keep their sign
    if q[0] < 0 or (abs(q[0]) <= 1e-12 and _first_nonzero_negative(q)):
        return -q
    return q


def _first_nonzero_negative(q: np.ndarray) -> bool:
    for c in q:
        if abs(c) > 1e-12:
            return c < 0
    return False


def _ls_multipliers(Q: np.ndarray, q: np.ndarray, A: np.ndarray) -> np.ndarray:
    lam, *_ = np.linalg.lstsq(A.T, -2.0 * (Q @ q), rcond=None)
    return lam


def _kkt_residual(Q, q, lam, A, g):
    stat = 2.0 * (Q @ q) + A.T @ lam
    return max(np.max(np.abs(stat)), np.max(np.abs(g)))


def _gradient_phase(Q, q, budget=500, target=1e-6):
    """Armijo projected-gradient descent; returns (q, iterations used)."""
    alpha0 = 1.0 / (1.0 + 2.0 * np.linalg.norm(Q, ord="fro"))
    it = 0
    for it in range(1, budget + 1):
        A = grad_g(q)
        lam = _ls_multipliers(Q, q, A)
        grad = 2.0 * (Q @ q) + A.T @ lam
        gnorm = np.max(np.abs(grad))
        if gnorm <= target:
            break
        cost = q @ Q @ q
        alpha = alpha0
        accepted = False
        for _ in range(40):
            trial = project_feasible(q - alpha * grad)
            if trial @ Q @ trial <= cost - 1e-4 * alpha * (grad @ grad):
                q = trial
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
    return q, it


def solve_local(Q: np.ndarray, mode: ConstraintMode,
                opts: LocalSolveOptions | None = None) -> LocalSolution:
    """Return a KKT point of the constrained quadratic program.

    Canonical dual multipliers for certification are re-fit by
    :func:`dqcalib.verify.certify`.  A non-converged 3D run returns the best
    iterate with ``converged=False`` rather than raising.  Planar mode
    returns the exact reduced solution, ignores ``init`` and the budgets,
    and never raises (a non-unique optimum is reported by
    :func:`dqcalib.global_solver.probe_degeneracy`).
    """
    opts = opts or LocalSolveOptions()
    Q = np.asarray(Q, dtype=float).reshape(8, 8)
    if mode is ConstraintMode.PLANAR:
        q8, p_star, _ = solve_planar(Q)
        return LocalSolution(q_hat=DualQuat.from_vec(q8),
                             lam=np.array([p_star, 0.0]),
                             cost=float(q8 @ Q @ q8), converged=True,
                             iterations=0, kkt_residual=0.0)
    init = _IDENTITY8 if opts.init is None else np.asarray(opts.init, dtype=float)
    q = project_feasible(init)

    # the descent phase budget shrinks with tight iteration caps so a
    # realtime-configured solver stays strictly bounded
    q, grad_iters = _gradient_phase(Q, q, budget=min(500, 25 * opts.max_iter))
    A = grad_g(q)
    lam = _ls_multipliers(Q, q, A)
    q = _canonical(q)

    m = len(lam)
    iterations = grad_iters
    for _ in range(opts.max_iter):
        A = grad_g(q)
        g = eval_g(q, mode)
        F = np.concatenate([2.0 * (Q @ q) + A.T @ lam, g])
        res = np.max(np.abs(F))
        if res < opts.tol_kkt:
            break
        iterations += 1

        H = 2.0 * Q + sum(li * Hi for li, Hi in zip(lam, _HESSIANS))
        KKT = np.zeros((8 + m, 8 + m))
        KKT[:8, :8] = H
        KKT[:8, 8:] = A.T
        KKT[8:, :8] = A
        rhs = -F
        try:
            d = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            KKT[np.arange(8), np.arange(8)] += 1e-10 * (1.0 + np.trace(np.abs(Q)))
            d = np.linalg.solve(KKT, rhs)

        norm_F = np.linalg.norm(F)
        alpha = 1.0
        best = None
        for _ in range(30):
            q_trial = project_feasible(q + alpha * d[:8])
            lam_trial = lam + alpha * d[8:]
            A_t = grad_g(q_trial)
            g_t = eval_g(q_trial, mode)
            F_t = np.concatenate([2.0 * (Q @ q_trial) + A_t.T @ lam_trial, g_t])
            if np.linalg.norm(F_t) <= (1.0 - 1e-4 * alpha) * norm_F:
                best = (q_trial, lam_trial)
                break
            alpha *= 0.5
        if best is None:
            break  # stalled; report the current iterate honestly
        q, lam = best
        q = _canonical(q)
        if alpha * np.max(np.abs(d[:8])) < opts.tol_step:
            break

    A = grad_g(q)
    g = eval_g(q, mode)
    res = _kkt_residual(Q, q, lam, A, g)
    # a fresh multiplier fit can only reduce the stationarity residual
    lam_ls = _ls_multipliers(Q, q, A)
    res_ls = _kkt_residual(Q, q, lam_ls, A, g)
    if res_ls < res:
        lam, res = lam_ls, res_ls

    return LocalSolution(
        q_hat=DualQuat.from_vec(q).canonicalized(),
        lam=lam,
        cost=float(q @ Q @ q),
        converged=bool(res < opts.tol_kkt),
        iterations=iterations,
        kkt_residual=float(res),
    )
