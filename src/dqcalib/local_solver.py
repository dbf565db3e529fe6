"""Fast local solver for the constrained quadratic calibration problem.

Minimizes q^T Q q subject to the mode's equality constraints.  In 3D mode
the feasible set is a 6-dimensional manifold, and the solver runs Newton's
method on its tangent space (Absil, Mahony & Sepulchre, 2008).  The
constraint Jacobian's rows (-2r, 0) and (2d, 2r) at q = (r, d) give the
least-squares multipliers and an orthonormal tangent basis in closed
form; the Lagrangian Hessian restricted to it takes one 6x6 eigh, and a
backtracking line search on the cost picks the step length.  Far from a
stationary point an indefinite Hessian enters by the magnitudes of its
eigenvalues, so every step descends; near one the exact Newton step
converges quadratically.  Iterates are re-projected onto the manifold
after every step (cheap and exact for these constraints), so returned
points are feasible to floating point accuracy.  The budgets are fixed
(``MAX_ITER``, ``TOL_KKT``, ``TOL_STEP``); the one setting is the start.
A warm start (``init``) from a nearby optimum, as in online use,
converges in two or three iterations.
Planar mode needs no iteration: the planar problem reduces to a 2x2
eigenproblem (:func:`dqcalib.constraints.solve_planar`) whose solution is
global, so the fast and the global solver return the same estimate.
Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import (ConstraintMode, assemble_Z, fit_multipliers,
                          solve_planar)
from .dualquat import DualQuat, quat_left_mat
from .errors import DegenerateInit

_IDENTITY8 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
# Lagrangian-gradient size below which a step is the exact Newton step
_NEAR_GRAD = 1e-6
# 3D budgets: Newton iterations, the KKT residual that counts as converged
# and the step size that ends the iteration early
MAX_ITER = 100
TOL_KKT = 1e-10
TOL_STEP = 1e-12


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
    v = np.array(q, dtype=float).reshape(8)
    nr = np.linalg.norm(v[:4])
    if nr < 1e-8:
        raise DegenerateInit("initial point has (near-)zero real part")
    v[:4] /= nr
    v[4:] -= (v[:4] @ v[4:]) * v[:4]
    return v


def _stationarity(Q: np.ndarray, q: np.ndarray):
    """Least-squares multipliers, Lagrangian gradient 2 Qq + lam_1 (-2r, 0)
    + lam_2 (2d, 2r) and KKT residual (with g1, g2) at q."""
    Qq = Q @ q
    lam1, lam2, g1, g2 = fit_multipliers(q, Qq)
    r = q[:4]
    grad = 2.0 * (Qq + np.concatenate((lam2 * q[4:] - lam1 * r, lam2 * r)))
    res = max(float(np.abs(grad).max()), abs(g1), abs(g2))
    return np.array([lam1, lam2]), grad, res


def _tangent_basis(q: np.ndarray) -> np.ndarray:
    """Orthonormal basis N (8x6) of the tangent space at a feasible q.

    With q = (r, d), E the last three columns of r's left-multiplication
    matrix (orthonormal, orthogonal to r), u = E^T d and s^2 = 1 + |u|^2,
    N = [[E W, 0], [-r u^T / s, E]] with W = (I + u u^T)^(-1/2) = I - u u^T
    / (s (s + 1)) is orthonormal and annihilated by (-2r, 0) and (2d, 2r).
    """
    r, E = q[:4], quat_left_mat(q[:4])[:, 1:]
    u = E.T @ q[4:]
    s = np.sqrt(1.0 + u @ u)
    N = np.zeros((8, 6))
    N[:4, :3] = E - np.outer(E @ u, u / (s * (s + 1.0)))
    N[4:, :3] = np.outer(r, u / -s)
    N[4:, 3:] = E
    return N


def _newton_direction(Q, q, lam, grad, exact: bool) -> np.ndarray:
    """Newton step at q on the tangent space of :func:`_tangent_basis`
    (any orthonormal basis gives the same step) for the Lagrangian Hessian
    2 Z(lam); ``grad`` is the Lagrangian gradient at q.  Unless ``exact``,
    the restricted Hessian's eigenvalues enter by magnitude, so an
    indefinite one still gives a descent direction (out of a saddle)."""
    N = _tangent_basis(q)
    w, V = np.linalg.eigh(N.T @ (2.0 * assemble_Z(Q, lam)) @ N)
    mag = np.maximum(np.abs(w), 1e-12 * (1.0 + np.max(np.abs(w))))
    if exact:
        mag = np.copysign(mag, w)
    return -(N @ V) @ ((V.T @ (N.T @ grad)) / mag)


def _cold_start(Q: np.ndarray) -> np.ndarray:
    """The cheaper of the identity and a spectral guess.

    The guess follows Daniilidis (IJRR 1999): the vector with the largest
    real part in the span of Q's two smallest eigenvectors, made feasible.
    On exact data that span holds the true calibration and the pure-dual
    vec(eps * q_r), so the guess is the optimum itself.  Ties keep the
    identity, so Q = 0 returns it.
    """
    V = np.linalg.eigh(Q)[1][:, :2]
    w, U = np.linalg.eigh(V[:4].T @ V[:4])
    if w[-1] < 1e-12:
        return _IDENTITY8
    guess = project_feasible(V @ U[:, -1])
    return guess if guess @ Q @ guess < Q[0, 0] else _IDENTITY8


def solve_local(Q: np.ndarray, mode: ConstraintMode,
                init: np.ndarray | None = None) -> LocalSolution:
    """Return a KKT point of the constrained quadratic program.

    3D mode starts from ``init`` (made feasible) or, without one, from
    :func:`_cold_start`, and takes at most ``MAX_ITER`` Newton iterations
    until the KKT residual is below ``TOL_KKT`` or a step below
    ``TOL_STEP``; a non-converged run returns the last iterate with
    ``converged=False`` rather than raising.  Planar mode returns the exact
    reduced solution, ignores ``init``, and never raises.
    :func:`dqcalib.verify.certify` re-fits the multipliers and reports a
    non-unique optimum.
    """
    Q = np.asarray(Q, dtype=float).reshape(8, 8)
    if mode is ConstraintMode.PLANAR:
        q8, p_star, _ = solve_planar(Q)
        return LocalSolution(q_hat=DualQuat.from_vec(q8),
                             lam=np.array([p_star, 0.0]),
                             cost=float(q8 @ Q @ q8), converged=True,
                             iterations=0, kkt_residual=0.0)
    q = _cold_start(Q) if init is None else project_feasible(init)
    cost = q @ Q @ q
    lam, grad, res = _stationarity(Q, q)
    iterations = 0
    while res >= TOL_KKT and iterations < MAX_ITER:
        # near a stationary point the exact Newton step converges
        # quadratically; cost-only backtracking would stall there at
        # rounding level, so a lower KKT residual also accepts a step
        near = np.max(np.abs(grad)) <= _NEAR_GRAD
        d = _newton_direction(Q, q, lam, grad, exact=near)
        slope = grad @ d
        alpha = 1.0
        for _ in range(30):
            trial = project_feasible(q + alpha * d)
            trial_cost = trial @ Q @ trial
            armijo = trial_cost <= cost + 1e-4 * alpha * slope
            if armijo or near:
                kkt = _stationarity(Q, trial)
                if armijo or kkt[2] < res:
                    break
            alpha *= 0.5
        else:
            break  # stalled; report the current iterate honestly
        iterations += 1
        q, cost = trial, trial_cost
        lam, grad, res = kkt
        if alpha * np.max(np.abs(d)) < TOL_STEP:
            break

    return LocalSolution(
        q_hat=DualQuat.from_vec(q).canonicalized(),
        lam=lam,
        cost=float(cost),
        converged=bool(res < TOL_KKT),
        iterations=iterations,
        kkt_residual=res,
    )
