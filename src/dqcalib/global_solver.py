"""Certifiably global solver for the calibration QCQP.

3D mode solves the Lagrangian dual, max lam_1 subject to Z(lam) >= 0, as
one concave scalar problem.  With Q = [[A, B], [B^T, C]] in real and dual
4x4 blocks, a Schur complement gives Z(lam) >= 0 exactly when lam_1 <=
phi(lam_2) = lambda_min(A - (B + lam_2 I) C^+ (B + lam_2 I)^T), and the
slope of phi is the g2 residual of the lifted smallest eigenvector
q = (v, -C^+ (B + lam_2 I)^T v): dual stationarity is primal feasibility,
and the minimizer comes off the same 4x4 eigenpair (Briales &
Gonzalez-Jimenez, CVPR 2017; Giamou et al., RA-L 2019).  phi's curvature
comes off the same eigenpairs too, so the root of the slope is found by
Newton steps at no extra decomposition, safeguarded by the bracket the
slope's signs give: where phi has a kink (tied eigenvalues) the search
bisects.

Exact rotations (noise-free data in particular) carry structural extra
null directions with zero real part — most prominently vec(eps * q_r),
which closes every motion loop but is not a unit dual quaternion.  They
lie in the null space of C, which the pseudo-inverse drops.  Q >= 0 makes
B vanish on that null space, so (B + lam_2 I) does only at lam_2 = 0: it
is then the one admissible multiplier, and the lifted point's dual part
moves along the null space, where the cost is flat, to meet g2.
Uniqueness is judged from the near-null space of Z at the dual optimum; a
genuine continuum of feasible solutions (unobservable data) raises
NonUniqueSolution.  One pass gives everything: the search's last slope
evaluation and one eigendecomposition of Z there yield the bound, the
estimate and the verdict.  The search starts at lam_2 = 0, or warm at a
given lam_2 (an online caller's previous optimum).

Planar mode needs no dual search: the feasible set is a circle times a
plane, and :func:`dqcalib.constraints.solve_planar` returns the exact
optimum of the reduced 2x2 eigenproblem, which is its own lower bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .constraints import (NULL_TOL, ConstraintMode, assemble_Z,
                          constraint_matrices, eval_g, schur_reduction,
                          solve_planar)
from .cost import CostAccumulator
from .dualquat import DualQuat
from .errors import EmptyData, NonUniqueSolution
from .local_solver import project_feasible

GAP_THRESHOLD = 1e-6


def check_gap_threshold(gap_threshold: float) -> None:
    """Raise ValueError unless the duality-gap threshold is finite and
    nonnegative: NaN or a negative value certifies nothing, inf anything."""
    if not 0.0 <= gap_threshold < math.inf:
        raise ValueError(f"gap threshold must be finite and nonnegative, "
                         f"got {gap_threshold}")


@dataclass(frozen=True)
class CalibSolution:
    """The one record of an estimate: point, certificate and provenance.

    ``lam`` holds the multipliers of (g1, g2), ``dual_value`` the lower
    bound lam_1 and ``gap`` the primal cost above it.  In planar mode
    ``lam`` is (p*, 0) and ``dual_value`` is p*, the exact planar optimum:
    restricted to the planar coordinates, G2 vanishes and Q - p* G1 is
    positive semidefinite.  ``null_dim`` counts the near-null directions
    of Z at the optimum (1 for a unique planar optimum).  ``provenance``
    is "global" for :func:`solve_global`'s optimum, "local" for a candidate
    :func:`dqcalib.verify.certify` judged; a local record may be both
    ``degenerate`` (``diagnostic`` says why) and ``is_global``, and one
    that is not ``is_global`` has no verdict: ``null_dim`` None,
    ``degenerate`` False, ``diagnostic`` None.
    """

    q_hat: DualQuat
    lam: np.ndarray
    primal_cost: float
    dual_value: float | None
    gap: float
    is_global: bool
    provenance: str  # "local" or "global"
    solve_time: float = 0.0
    q_hat_planar: DualQuat | None = None
    null_dim: int | None = None
    degenerate: bool = False
    diagnostic: str | None = None
    plane_derived: tuple[str, ...] | None = None


def _reduced_dual(Q: np.ndarray):
    """``(cut, lifted)``: whether C has a cut direction, and lam_2 ->
    (phi(lam_2), q, phi''(lam_2)): the smallest eigenvalue of the Schur
    complement S, its lifted eigenvector q = (v, -C^+ (B + lam_2 I)^T v),
    whose dual part is moved along C's cut null space to meet g2 (the cost
    is flat there), and phi's curvature.  With C^+ = W W^T and F = C^+ (B +
    lam_2 I)^T, S' = -(F + F^T) and S'' = -2 W W^T, so second-order
    perturbation of S's eigenpairs (w_j, u_j), v = u_0, gives phi'' =
    -2 |W^T v|^2 + 2 sum_{j>=1} (u_j^T (F + F^T) v)^2 / (w_0 - w_j); it is
    NaN where w_0 and w_1 tie (a kink of phi)."""
    _, Uc, W, reduce = schur_reduction(Q[:4, :4], Q[4:, 4:],
                                       max(1.0, float(np.trace(Q))))
    cut, B, eye = W.shape[1] < 4, Q[:4, 4:], np.eye(4)
    N = Uc[:, :4 - W.shape[1]]

    def lifted(lam2):
        ws, Us, F = reduce(B + lam2 * eye)
        v = Us[:, 0]
        Fv = F @ v
        d = -Fv
        if cut:
            vn = N.T @ v
            if vn @ vn > 0.0:
                d -= (v @ d) / (vn @ vn) * (N @ vn)
        gaps = ws[0] - ws[1:]
        if gaps[0] < 0.0:
            c, Wv = Us[:, 1:].T @ (Fv + F.T @ v), W.T @ v
            curvature = 2.0 * float(c @ (c / gaps) - Wv @ Wv)
        else:
            curvature = np.nan
        return ws[0], np.concatenate([v, d]), curvature
    return cut, lifted


class Multipliers(tuple):
    """(lam_1, lam_2) of a :func:`dual_bound`, carrying the rest of it: the
    lifted point ``q`` and the eigenpairs ``vals``, ``vecs`` of Z, so that
    :func:`recover_primal` decomposes nothing again.  It indexes and
    converts to an array as the multiplier pair does."""

    def __new__(cls, lam: np.ndarray, q, vals, vecs):
        self = super().__new__(cls, lam.tolist())
        self.q, self.vals, self.vecs = q, vals, vecs
        return self


def dual_bound(Q: np.ndarray, lam2: float, reduced=None):
    """The reduced-dual lower bound at ``lam2``: ``(lam, q, vals, vecs)``.

    ``lam`` is (lam_1, lam_2) with lam_1 = phi(lam_2) lowered by the
    negative part of lambda_min(Z(phi, lam_2)) times |q|^2 (G1 acts on
    the real part only, which carries 1/|q|^2 of the null vector q/|q|),
    so Z(lam) >= 0 up to rounding and lam_1 bounds the primal optimum from
    below.  When C has a cut direction n, Q >= 0 forces B n = 0, so
    (B + lam_2 I) n = lam_2 n vanishes only at lam_2 = 0, the one
    admissible value, which replaces ``lam2``.  ``q`` is the lifted point
    and ``(vals, vecs)`` the eigenpairs of Z(phi, lam_2).  ``reduced``
    reuses a :func:`_reduced_dual` of the same Q.
    """
    cut, lifted = reduced or _reduced_dual(Q)
    lam2 = 0.0 if cut else float(lam2)
    phi, q, _ = lifted(lam2)
    vals, vecs = np.linalg.eigh(assemble_Z(Q, [phi, lam2]))
    lam1 = phi - max(0.0, -float(vals[0])) * (q @ q)
    return np.array([lam1, lam2]), q, vals, vecs


def _slope_root(slope, x0: float = 0.0) -> float:
    """Root of a nonincreasing slope by safeguarded Newton steps from
    ``x0``.  ``slope(x)`` returns the slope and its derivative.  The latest
    points with a positive and a negative slope bracket the root.  A Newton
    step is taken when the derivative is negative and the step lands
    strictly inside the bracket; with both ends known it must also be at
    most half the step before last.  Otherwise the search bisects the
    bracket, or, with one end known, steps s, 2s, 4s, ... towards the root
    (s = 10 % of |x0|, or 1 at x0 = 0), up to 1e12 from ``x0``.  A second
    step in a row below the width tolerance, 1e-12 relative, is lengthened
    to it.  The search stops at a zero slope, at a bracket within the
    tolerance or after 100 evaluations, and returns an evaluated point:
    the zero, or the bracket end with the smaller |slope|."""
    ends = {}  # slope > 0 -> (x, slope) at the latest such point
    x, grow, steps = x0, 0.1 * abs(x0) or 1.0, [np.inf, np.inf]
    for _ in range(100):
        g, h = slope(x)
        if not g:
            return x
        ends[g > 0] = (x, g)
        lo, hi = ends.get(True, (-np.inf,))[0], ends.get(False, (np.inf,))[0]
        if len(ends) == 2:
            if hi - lo <= 1e-12 * (1 + abs(lo) + abs(hi)):
                break
        elif abs(x - x0) >= 1e12:
            break
        newton, tol = x - g / h if h < 0 else np.nan, 1e-12 * (1 + abs(x))
        if abs(newton - x) < tol and steps[-1] < tol:
            # rounding noise in the slope fails zero's test: a step of the
            # tolerance closes a bracket instead of creeping
            newton = x + np.copysign(tol, g)
        if len(ends) == 2:
            if not (lo < newton < hi and abs(newton - x) <= 0.5 * steps[-2]):
                newton = 0.5 * (lo + hi)
        elif not lo < newton < hi:
            newton, grow = x + np.copysign(grow, g), 2.0 * grow
        steps.append(abs(newton - x))
        x = newton
    return min(ends.values(), key=lambda end: abs(end[1]))[0]


def solve_dual(Q: np.ndarray, lam2_start: float = 0.0) -> Multipliers:
    """Maximize lam_1 subject to Z(lam) >= 0 in 3D mode; returns the
    optimal (lam_1, lam_2) as :class:`Multipliers`.

    Finds the zero of the slope of the concave phi of the module notes,
    the lifted point's g2 residual (zero below 1e-13 relative to the dual
    part), by safeguarded Newton steps on phi's curvature from
    ``lam2_start`` (a warm start: the previous solve's lam_2 on a slightly
    changed Q), bisecting where the slope jumps.  It ends with
    :func:`dual_bound` at the point found, reusing the slope evaluation
    there, so lam_1 is a valid lower bound on the primal optimum.  When C
    has a cut direction lam_2 = 0 is the only admissible value and there
    is no search.
    """
    Q = np.asarray(Q, dtype=float).reshape(8, 8)
    cut, lifted = _reduced_dual(Q)
    seen = {}

    def slope(lam2):  # g2 at the lifted point, zero at rounding level
        seen[lam2] = phi_q_h = lifted(lam2)
        q = phi_q_h[1]
        g2 = 2.0 * float(q[:4] @ q[4:])
        if abs(g2) <= 1e-13 * (1.0 + np.linalg.norm(q[4:])):
            g2 = 0.0
        return g2, phi_q_h[2]

    lam2 = 0.0 if cut else _slope_root(slope, float(lam2_start))
    return Multipliers(*dual_bound(
        Q, lam2, (cut, lambda x: seen.get(x) or lifted(x))))


def nullspace_verdict(Q: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """``(V, diagnostic)`` from the eigenpairs of Z(lam): V spans those
    below ``NULL_TOL * max(1, |trace Q|)``; ``diagnostic`` is None unless V
    holds other than one constraint-feasible direction.  The threshold
    must not depend on the multipliers (a large feasible multiplier would
    otherwise sweep genuine noise-lifted directions into the null space).
    """
    V = vecs[:, vals < NULL_TOL * max(1.0, abs(float(np.trace(Q))))]
    if V.shape[1] == 0:
        return V, None

    # separate directions that carry real-part norm from pure-dual ones
    eig_a, U = np.linalg.eigh(V[:4].T @ V[:4])
    n_carriers = int(np.sum(eig_a > 1e-3))
    if n_carriers == 0:
        return V, "null space has no unit-normalizable direction"
    if n_carriers > 1:
        return V, "multiple independent feasible directions"
    D = V @ U[:, :-1]  # pure-dual directions (real part ~ 0)
    if D.shape[1] == 0:
        return V, None

    v0 = V @ U[:, -1]
    v0 = v0 / np.linalg.norm(v0[:4])
    # g1 is met by the scaling above; g2 is linear in the pure-dual
    # coefficients, one equation that pins at most one of them
    G2 = constraint_matrices()[1]
    m = 2.0 * (v0 @ G2 @ D[:, 0])
    if D.shape[1] > 1 or abs(m) <= 1e-9 * max(1.0, abs(m)):
        return V, "feasible set in null space is a continuum"
    v = v0 - (v0 @ G2 @ v0) / m * D[:, 0]
    v = v / np.linalg.norm(v[:4])
    residual = np.max(np.abs(eval_g(v, ConstraintMode.FULL_3D)))
    if residual > 1e-5:
        return V, f"constraints unmet in null space ({residual:.2e})"
    return V, None


def _feasible(q: np.ndarray) -> np.ndarray:
    """q made exactly feasible and sign-canonical."""
    return DualQuat.from_vec(project_feasible(q)).canonicalized().vec()


def recover_primal(Q: np.ndarray, lam: Multipliers) -> tuple[np.ndarray, int]:
    """``(q8, null_dim)`` at the 3D dual point ``lam`` that
    :func:`solve_dual` returned for the same Q.

    Both are read off the :func:`dual_bound` that ``lam`` carries, with no
    further decomposition: q8 is the lifted point made exactly feasible
    and sign-canonical, and the eigenpairs of Z give the verdict
    (:func:`nullspace_verdict`).  Raises :class:`NonUniqueSolution` when
    the data does not pin down a single calibration (e.g. all rotation
    axes parallel without planar constraints).
    """
    Q = np.asarray(Q, dtype=float).reshape(8, 8)
    V, diag = nullspace_verdict(Q, lam.vals, lam.vecs)
    if diag is not None:
        raise NonUniqueSolution(diag, basis=V, null_dim=V.shape[1])
    return _feasible(lam.q), V.shape[1]


def _planar_bound(Q: np.ndarray):
    """:func:`solve_planar` as ``(q8, lam, null_dim, degeneracy)``: its
    optimum p* is the bound, so ``lam`` is (p*, 0)."""
    q8, p_star, degeneracy = solve_planar(Q)
    return (q8, np.array([p_star, 0.0]),
            1 if degeneracy is None else degeneracy.null_dim, degeneracy)


def _solution(Q, q8, lam, gap_threshold, provenance, null_dim, degeneracy,
              solve_time=0.0) -> CalibSolution:
    """The record of the feasible ``q8`` against the bound ``lam[0]``: its
    cost on Q, the gap, and whether that is below ``gap_threshold``.
    ``degeneracy`` (a diagnostic or a NonUniqueSolution) or None."""
    primal = float(q8 @ Q @ q8)
    gap = primal - float(lam[0])
    return CalibSolution(
        q_hat=DualQuat.from_vec(q8), lam=lam, primal_cost=primal,
        dual_value=float(lam[0]), gap=gap, is_global=bool(gap < gap_threshold),
        provenance=provenance, solve_time=solve_time, null_dim=null_dim,
        degenerate=degeneracy is not None,
        diagnostic=None if degeneracy is None else str(degeneracy))


def solve_global(acc: CostAccumulator, gap_threshold: float = GAP_THRESHOLD,
                 *, lam2_start: float = 0.0) -> CalibSolution:
    """Certified global optimum over an accumulator snapshot.

    3D mode runs :func:`solve_dual` from ``lam2_start`` (a warm start,
    such as the previous online step's ``lam[1]``; the default is the cold
    search), whose bound is a valid lower bound, then reads the estimate
    and its verdict off that bound with :func:`recover_primal`; planar mode
    takes the exact reduced solve and ignores ``lam2_start``.  Both raise
    :class:`NonUniqueSolution` (with the unobservable directions) when the
    data does not pin down a single calibration; its ``estimate`` is the
    point the solve found anyway, as a degenerate, non-global solution.
    """
    check_gap_threshold(gap_threshold)
    if acc.n == 0:
        raise EmptyData("accumulator holds no motion pairs")
    Q, mode = acc.normalized_q, acc.mode
    t0 = time.perf_counter()
    if mode is ConstraintMode.PLANAR:
        q8, lam, null_dim, degeneracy = _planar_bound(Q)
    else:
        lam, degeneracy = solve_dual(Q, lam2_start), None
        try:
            q8, null_dim = recover_primal(Q, lam)
        except NonUniqueSolution as err:
            q8, null_dim, degeneracy = _feasible(lam.q), err.null_dim, err
        lam = np.array(lam)
    sol = _solution(Q, q8, lam, gap_threshold, "global", null_dim, degeneracy,
                    time.perf_counter() - t0)
    if degeneracy is not None:
        degeneracy.estimate = replace(sol, is_global=False)
        raise degeneracy
    return sol
