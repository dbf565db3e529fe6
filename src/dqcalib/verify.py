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

The verdict is the candidate's :class:`CalibSolution`, with provenance
"local".  A degeneracy diagnostic does not clear ``is_global``: the gap
bounds the candidate's cost, not the number of calibrations that reach it.
"""

from __future__ import annotations

import numpy as np

from .constraints import ConstraintMode, eval_g, fit_multipliers
from .dualquat import DualQuat
from .errors import InfeasiblePoint
from .global_solver import (GAP_THRESHOLD, CalibSolution, _planar_bound,
                            _solution, check_gap_threshold, dual_bound,
                            nullspace_verdict)

FEAS_TOL = 1e-6  # largest constraint residual of a candidate, linear scale


def certify(Q: np.ndarray, q_hat, mode: ConstraintMode,
            gap_threshold: float = GAP_THRESHOLD) -> CalibSolution:
    """The candidate's :class:`CalibSolution`, with provenance "local".

    ``q_hat`` may be a DualQuat or an 8-vector; it must satisfy the mode's
    constraints within ``FEAS_TOL`` (every residual on the linear scale),
    else :class:`InfeasiblePoint` is raised.  In 3D mode Z(lam) is positive
    semidefinite up to rounding and ``null_dim`` counts its near-null
    eigenvalues at (phi(lam_2), lam_2), lam_2 the fitted one.  The candidate
    is certified globally optimal when its gap is below ``gap_threshold``,
    which must be finite and nonnegative (ValueError).
    """
    check_gap_threshold(gap_threshold)
    Q = np.asarray(Q, dtype=float).reshape(8, 8)
    q8 = q_hat.vec() if isinstance(q_hat, DualQuat) else np.asarray(
        q_hat, dtype=float).reshape(8)

    g = eval_g(q8, mode)
    if np.max(np.abs(g)) > FEAS_TOL:
        raise InfeasiblePoint(
            f"constraint residual {np.max(np.abs(g)):.3e} exceeds {FEAS_TOL}")

    if mode is ConstraintMode.PLANAR:
        _, lam, null_dim, degeneracy = _planar_bound(Q)
    else:
        lam, _, vals, vecs = dual_bound(Q, fit_multipliers(q8, Q @ q8)[1])
        if not lam[0] > 0.0:
            lam = np.zeros(2)
        V, degeneracy = nullspace_verdict(Q, vals, vecs)
        null_dim = V.shape[1]
    return _solution(Q, q8, lam, gap_threshold, "local", null_dim, degeneracy)
