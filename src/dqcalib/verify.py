"""Globality certification of a candidate calibration.

Any lam with Z(lam) = Q + lam_1 G1 + lam_2 G2 positive semidefinite makes
lam_1 a lower bound on the cost of every feasible point, so the duality
gap q^T Q q - lam_1 bounds a feasible candidate's excess cost.  In 3D mode
the candidate's multipliers come from 2x2 normal equations
(:func:`dqcalib.constraints.fit_multipliers`), and only the fitted lam_2
is kept: the global solver's reduced dual gives the best lam_1 for it
(:func:`dqcalib.global_solver.dual_bound`, lam_2 = 0 when the dual block
of Q is singular).  The zero multiplier is always feasible, so the bound
is max(lam_1, 0) and the gap is sound by construction.  The eigenpairs of
Z(phi(lam_2), lam_2) give the degeneracy verdict
(:func:`dqcalib.global_solver.nullspace_verdict`).

Planar mode needs no fit: the exact optimum p* of the reduced problem
(:func:`dqcalib.constraints.solve_planar`) is the tightest bound, the gap
q^T Q q - p* is the candidate's exact excess cost, and the reduced solve
judges degeneracy.  Cost normalization makes the gap threshold independent
of the number of accumulated pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintMode, eval_g, fit_multipliers, solve_planar
from .dualquat import DualQuat
from .errors import InfeasiblePoint
from .global_solver import GAP_THRESHOLD, dual_bound, nullspace_verdict

FEAS_TOL = 1e-6  # largest constraint residual of a candidate, linear scale


@dataclass(frozen=True)
class Certificate:
    """Verdict plus its evidence.

    ``lam`` holds the multipliers of (g1, g2) behind the lower bound
    ``lam[0]`` (in 3D mode Z(lam) is positive semidefinite up to
    rounding); ``gap`` is the candidate's cost minus that bound.
    ``null_dim`` counts the near-null eigenvalues of Z(phi(lam_2), lam_2)
    at the fitted lam_2 and ``diagnostic`` says why they allow other than
    one calibration (None if they do not).  In planar mode ``lam`` is
    (p*, 0) and ``null_dim`` and ``diagnostic`` come from the reduced
    solve.
    """

    lam: np.ndarray
    gap: float
    is_global: bool
    null_dim: int
    diagnostic: str | None


def certify(Q: np.ndarray, q_hat, mode: ConstraintMode,
            gap_threshold: float = GAP_THRESHOLD) -> Certificate:
    """Certificate for a candidate solution.

    ``q_hat`` may be a DualQuat or an 8-vector; it must satisfy the mode's
    constraints within ``FEAS_TOL`` (every residual on the linear scale),
    else :class:`InfeasiblePoint` is raised.  The candidate is certified
    globally optimal when its gap is below ``gap_threshold``.
    """
    Q = np.asarray(Q, dtype=float).reshape(8, 8)
    q8 = q_hat.vec() if isinstance(q_hat, DualQuat) else np.asarray(
        q_hat, dtype=float).reshape(8)

    g = eval_g(q8, mode)
    if np.max(np.abs(g)) > FEAS_TOL:
        raise InfeasiblePoint(
            f"constraint residual {np.max(np.abs(g)):.3e} exceeds {FEAS_TOL}")

    if mode is ConstraintMode.PLANAR:
        _, p_star, degeneracy = solve_planar(Q)
        lam = np.array([p_star, 0.0])
        null_dim = 1 if degeneracy is None else degeneracy.null_dim
        diagnostic = None if degeneracy is None else str(degeneracy)
    else:
        lam, _, vals, vecs = dual_bound(Q, fit_multipliers(q8, Q @ q8)[1])
        if not lam[0] > 0.0:
            lam = np.zeros(2)
        V, diagnostic = nullspace_verdict(Q, vals, vecs)
        null_dim = V.shape[1]

    gap = float(q8 @ Q @ q8) - float(lam[0])
    return Certificate(lam=lam, gap=gap, is_global=bool(gap < gap_threshold),
                       null_dim=null_dim, diagnostic=diagnostic)
