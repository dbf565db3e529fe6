"""Globality certification of a candidate calibration.

Given a feasible candidate q, the first-order dual optimality condition
Z(lam) q = 0 is linear in the multipliers, so in 3D mode the best-fitting
lam solves 2x2 normal equations
(:func:`dqcalib.constraints.fit_multipliers`).  If Z(lam) is positive
semidefinite, the duality gap q^T Q q - lam_1 bounds the candidate's
distance from the global optimum; near-zero gap certifies globality.  One
eigendecomposition of Z(lam) also gives the degeneracy verdict
(:func:`dqcalib.global_solver.nullspace_verdict`).

Planar mode needs no fit: the exact optimum p* of the reduced problem
(:func:`dqcalib.constraints.solve_planar`) is the multiplier of the unit
circle, Z is Q - p* G1 restricted to the planar coordinates (q1, q4, q6,
q7), positive semidefinite by construction, and the gap q^T Q q - p* is
the candidate's exact excess cost; the reduced solve judges degeneracy.
Cost normalization makes the gap threshold independent of the number of
accumulated pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import (ConstraintMode, assemble_Z, eval_g,
                          fit_multipliers, planar_lagrangian, solve_planar)
from .dualquat import DualQuat
from .errors import InfeasiblePoint
from .global_solver import GAP_THRESHOLD, nullspace_verdict

PSD_TOL = 1e-9  # Z counts as PSD when lambda_min >= -PSD_TOL * (1 + |trace Q|)


@dataclass(frozen=True)
class VerifyOptions:
    gap_threshold: float = GAP_THRESHOLD
    residual_tol: float = 1e-6
    feas_tol: float = 1e-6


@dataclass(frozen=True)
class Certificate:
    """Verdict plus its evidence.

    ``lambda_fit`` holds the multipliers of (g1, g2); ``min_eig`` is the
    smallest eigenvalue of Z(lambda_fit), ``residual`` is ||Z q||,
    ``null_dim`` counts Z's near-null eigenvalues and ``diagnostic`` says
    why they allow other than one calibration (None if they do not).  In
    planar mode ``lambda_fit`` is (p*, 0) and Z is the 4x4 restriction of
    Q - p* G1 to (q1, q4, q6, q7), so ``min_eig`` is zero up to rounding;
    ``null_dim`` and ``diagnostic`` come from the reduced solve.
    """

    lambda_fit: np.ndarray
    residual: float
    min_eig: float
    gap: float
    is_global: bool
    indefinite: bool
    null_dim: int
    diagnostic: str | None


def certify(Q: np.ndarray, q_hat, mode: ConstraintMode,
            opts: VerifyOptions | None = None) -> Certificate:
    """Certificate for a candidate solution.

    ``q_hat`` may be a DualQuat or an 8-vector; it must satisfy the mode's
    constraints within ``feas_tol`` (every residual on the linear scale).
    Verdict requires three conditions: Z(lam) positive semidefinite
    (scale-aware tolerance), small stationarity residual, and duality gap
    below the threshold.  When the 3D fit fails the PSD check, the reported
    gap falls back to the distance bound against the zero multiplier, which
    is always dual feasible; such a certificate never certifies.
    """
    opts = opts or VerifyOptions()
    Q = np.asarray(Q, dtype=float).reshape(8, 8)
    q8 = q_hat.vec() if isinstance(q_hat, DualQuat) else np.asarray(
        q_hat, dtype=float).reshape(8)

    g = eval_g(q8, mode)
    if np.max(np.abs(g)) > opts.feas_tol:
        raise InfeasiblePoint(
            f"constraint residual {np.max(np.abs(g)):.3e} exceeds {opts.feas_tol}")

    if mode is ConstraintMode.PLANAR:
        _, p_star, degeneracy = solve_planar(Q)
        lam = np.array([p_star, 0.0])
        Z, x = planar_lagrangian(Q, p_star, q8)
        vals = np.linalg.eigvalsh(Z)
        null_dim = 1 if degeneracy is None else degeneracy.null_dim
        diagnostic = None if degeneracy is None else str(degeneracy)
    else:
        lam = np.array(fit_multipliers(q8, Q @ q8)[:2])
        Z, x = assemble_Z(Q, lam), q8
        vals, vecs = np.linalg.eigh(Z)
        V, diagnostic = nullspace_verdict(Q, vals, vecs)
        null_dim = V.shape[1]

    scale = 1.0 + abs(float(np.trace(Q)))
    primal = float(q8 @ Q @ q8)
    residual = float(np.linalg.norm(Z @ x))

    min_eig = float(vals[0])
    psd_ok = min_eig >= -PSD_TOL * scale

    gap = primal - float(lam[0])
    if not psd_ok:
        # the fitted multipliers are not dual feasible, so primal - lam_1
        # bounds nothing; the zero multiplier is always feasible for a PSD
        # cost and turns the reported gap into a true distance bound
        gap = primal
    # complementarity allows ||Z q|| up to sqrt(gap * max_eig) even for an
    # exactly optimal pair, so the residual criterion carries that slack
    max_eig = max(float(vals[-1]), 0.0)
    residual_limit = (opts.residual_tol * scale
                      + np.sqrt(max(gap, 0.0) * max_eig))
    is_global = bool(psd_ok
                     and residual < residual_limit
                     and gap < opts.gap_threshold)
    return Certificate(
        lambda_fit=lam,
        residual=residual,
        min_eig=min_eig,
        gap=gap,
        is_global=is_global,
        indefinite=not psd_ok,
        null_dim=null_dim,
        diagnostic=diagnostic,
    )
