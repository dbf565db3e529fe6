"""Certifiably global solver for the calibration QCQP.

3D mode solves the Lagrangian dual: maximize lam_1 subject to
Z(lam) >= 0.  Because lam -> lambda_min(Z(lam)) is concave, the feasible
lam_1 values form an interval: the solver bisects on lam_1 and, at each
candidate, maximizes the minimum eigenvalue over lam_2 by golden-section
search.  The primal is recovered from the (near-)null space of Z at the
optimum.

Consistent (noise-free) data always carries structural extra null
directions with zero real part — most prominently vec(eps * q_r), which
closes every motion loop but is not a unit dual quaternion.  Recovery
therefore selects the unique constraint-satisfying combination inside the
null space instead of assuming it is one-dimensional; a genuine continuum
of feasible solutions (unobservable data) raises NonUniqueSolution.

Planar mode needs no dual search: the feasible set is a circle times a
plane, and :func:`dqcalib.constraints.solve_planar` returns the exact
optimum of the reduced 2x2 eigenproblem, which is its own lower bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .constraints import (ConstraintMode, assemble_Z, constraint_matrices,
                          eval_g, solve_planar)
from .cost import CostAccumulator
from .dualquat import DualQuat
from .errors import EmptyData, NoNullSpace, NonUniqueSolution
from .local_solver import LocalSolveOptions, project_feasible, solve_local

GAP_THRESHOLD = 1e-6

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DualSolveOptions:
    tol_psd: float = 1e-9
    tol_obj: float = 1e-10
    max_outer: int = 200
    null_tol: float = 1e-7

    def __post_init__(self):
        if min(self.tol_psd, self.tol_obj, self.max_outer, self.null_tol) <= 0:
            raise ValueError("all dual-solver options must be positive")


@dataclass(frozen=True)
class CalibSolution:
    """Solver output: estimate, duality diagnostics, and provenance.

    ``lam`` holds the multipliers of (g1, g2) and ``dual_value`` the lower
    bound lam_1.  In planar mode ``lam`` is (p*, 0) and ``dual_value`` is
    p*, the exact planar optimum: restricted to the planar coordinates, G2
    vanishes and Q - p* G1 is positive semidefinite.  ``null_dim`` counts
    the near-null directions of Z at the optimum (1 for a unique planar
    optimum).
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


def _min_eig(Q: np.ndarray, lam) -> float:
    return float(np.linalg.eigvalsh(assemble_Z(Q, lam))[0])


def _golden_max(f, center: float, tol: float, exit_level: float | None):
    """Maximize a concave 1-D function; bracket grown geometrically from center.

    Returns (x_best, f_best).  If ``exit_level`` is given, returns early as
    soon as any evaluation reaches it (enough to decide feasibility).
    """
    fc = f(center)
    if exit_level is not None and fc >= exit_level:
        return center, fc
    plateau = lambda new, old: new - old < 1e-12 * (1.0 + abs(old))
    step = 0.5
    lo, flo = center, fc
    # expand left
    while True:
        x = lo - step
        fx = f(x)
        if exit_level is not None and fx >= exit_level:
            return x, fx
        if fx < flo:
            left = x
            break
        if plateau(fx, flo):
            # asymptotic direction (e.g. a PSD multiplier matrix): no gain
            # from chasing it further out
            lo, flo = x, fx
            left = x - step
            break
        lo, flo = x, fx
        step *= 2.0
        if step > 1e12:
            return lo, flo
    step = 0.5
    hi, fhi = center, fc
    while True:
        x = hi + step
        fx = f(x)
        if exit_level is not None and fx >= exit_level:
            return x, fx
        if fx < fhi:
            right = x
            break
        if plateau(fx, fhi):
            hi, fhi = x, fx
            right = x + step
            break
        hi, fhi = x, fx
        step *= 2.0
        if step > 1e12:
            return hi, fhi
    # golden-section shrink on [left, right]
    a, b = left, right
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    if flo > best_f:
        best_x, best_f = lo, flo
    if fhi > best_f:
        best_x, best_f = hi, fhi
    while b - a > tol * (1.0 + abs(a) + abs(b)):
        if exit_level is not None and best_f >= exit_level:
            return best_x, best_f
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        if f1 > best_f:
            best_x, best_f = x1, f1
        if f2 > best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


def _inner_max(Q: np.ndarray, lam1: float, warm: np.ndarray,
               exit_level: float | None, tol: float = 1e-8):
    """max over lam_2 of lambda_min(Z(lam1, lam_2))."""
    def f(l2):
        return _min_eig(Q, np.array([lam1, l2]))
    x, val = _golden_max(f, float(warm[0]), tol, exit_level)
    return np.array([x]), val


def _require_3d(mode: ConstraintMode):
    if mode is not ConstraintMode.FULL_3D:
        raise ValueError("the dual search is for 3D mode; planar mode is "
                         "solved exactly by constraints.solve_planar")


def solve_dual(Q: np.ndarray, mode: ConstraintMode,
               opts: DualSolveOptions | None = None) -> np.ndarray:
    """Maximize lam_1 subject to Z(lam) >= 0; returns (lam_1, lam_2).

    3D mode only.  The search interval is [0, c] where c is the cost of any
    feasible point (weak duality).  The feasibility slack is kept near
    machine precision so the returned lam_1 is a valid lower bound on the
    primal optimum.
    """
    _require_3d(mode)
    opts = opts or DualSolveOptions()
    Q = np.asarray(Q, dtype=float).reshape(8, 8)
    rest = np.zeros(1)

    ub = float(Q[0, 0])  # cost of the identity, a feasible point
    slack = -1e-13 * (1.0 + np.linalg.norm(Q, ord="fro"))

    if ub <= opts.tol_obj:
        rest, _ = _inner_max(Q, 0.0, rest, exit_level=None)
        return np.concatenate([[0.0], rest])

    # cheap probe: optimum at (or within tol of) zero is the common
    # noise-free case and needs no bisection
    rest_probe, val = _inner_max(Q, opts.tol_obj, rest, exit_level=0.0)
    if val < slack:
        rest, _ = _inner_max(Q, 0.0, rest, exit_level=None)
        return np.concatenate([[0.0], rest])

    lb = opts.tol_obj
    rest = rest_probe
    outer = 0
    while ub - lb > opts.tol_obj and outer < opts.max_outer:
        outer += 1
        mid = 0.5 * (lb + ub)
        rest_mid, val = _inner_max(Q, mid, rest, exit_level=0.0)
        if val >= slack:
            lb, rest = mid, rest_mid
        else:
            ub = mid
    rest, _ = _inner_max(Q, lb, rest, exit_level=None)
    return np.concatenate([[lb], rest])


def _nullspace_solution(Z: np.ndarray, null_tol: float, scale: float = 1.0):
    """Pick the unique constraint-feasible 8-vector in the near-null space.

    Returns (q8 or None, null_dim, unique, diagnostic).  ``q8`` is scaled
    to unit real part but not yet sign-canonical.  ``scale`` is the data
    magnitude the relative threshold refers to; it must not depend on the
    multipliers (a large feasible multiplier would otherwise sweep genuine
    noise-lifted directions into the null space).
    """
    vals, vecs = np.linalg.eigh(Z)
    thresh = null_tol * max(1.0, scale)
    mask = vals < thresh
    null_dim = int(mask.sum())
    if null_dim == 0:
        return None, 0, True, "no null space within tolerance"
    V = vecs[:, mask]

    # separate directions that carry real-part norm from pure-dual ones
    A = V[:4].T @ V[:4]
    eig_a, U = np.linalg.eigh(A)
    carriers = eig_a > 1e-3
    n_carriers = int(carriers.sum())
    if n_carriers == 0:
        return None, null_dim, False, "null space has no unit-normalizable direction"
    if n_carriers > 1:
        return None, null_dim, False, "multiple independent feasible directions"

    v0 = V @ U[:, -1]
    v0 = v0 / np.linalg.norm(v0[:4])
    D = V @ U[:, :-1]  # pure-dual directions (real part ~ 0)

    if D.shape[1] == 0:
        return v0, null_dim, True, None
    # g1 is met by the scaling above; g2 is linear in the pure-dual
    # coefficients
    G2 = constraint_matrices()[1]
    M = np.array([[2.0 * (v0 @ G2 @ D[:, j]) for j in range(D.shape[1])]])
    b = -np.array([v0 @ G2 @ v0])
    u, s, vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0] if len(s) else 0.0)))
    if rank < D.shape[1]:
        return None, null_dim, False, "feasible set in null space is a continuum"
    mu = np.linalg.lstsq(M, b, rcond=None)[0]
    v = v0 + D @ mu
    v = v / np.linalg.norm(v[:4])
    residual = np.max(np.abs(eval_g(v, ConstraintMode.FULL_3D)))
    if residual > 1e-5:
        return None, null_dim, False, f"constraints unmet in null space ({residual:.2e})"
    return v, null_dim, True, None


def recover_primal(Q: np.ndarray, lam: np.ndarray, mode: ConstraintMode,
                   opts: DualSolveOptions | None = None) -> tuple[np.ndarray, int]:
    """Primal solution from the near-null space of Z(lam); 3D mode only.

    Raises :class:`NoNullSpace` when Z has no sufficiently small eigenvalue
    (dual not converged) and :class:`NonUniqueSolution` when the data does
    not pin down a single calibration (e.g. all rotation axes parallel
    without planar constraints).
    """
    _require_3d(mode)
    opts = opts or DualSolveOptions()
    Q = np.asarray(Q, dtype=float).reshape(8, 8)
    Z = assemble_Z(Q, lam)
    scale = float(np.trace(Q))
    q8, null_dim, unique, diag = _nullspace_solution(Z, opts.null_tol, scale)
    if null_dim == 0:
        raise NoNullSpace(diag)
    if not unique or q8 is None:
        vals, vecs = np.linalg.eigh(Z)
        basis = vecs[:, vals < opts.null_tol * max(1.0, scale)]
        raise NonUniqueSolution(diag, basis=basis, null_dim=null_dim)
    q8 = project_feasible(q8)
    q8 = DualQuat.from_vec(q8).canonicalized().vec()
    return q8, null_dim


def probe_degeneracy(Q: np.ndarray, lam: np.ndarray, mode: ConstraintMode,
                     opts: DualSolveOptions | None = None) -> tuple[int, str | None]:
    """Near-null dimension of the problem and why its optimum is not unique.

    Returns ``(null_dim, diagnostic)`` with ``diagnostic`` None for a
    unique optimum.  3D mode inspects the null space of Z(lam); planar mode
    ignores ``lam`` and asks the exact reduced solve.
    """
    opts = opts or DualSolveOptions()
    Q = np.asarray(Q, dtype=float).reshape(8, 8)
    if mode is ConstraintMode.PLANAR:
        _, _, degeneracy = solve_planar(Q, opts.null_tol)
        return (1, None) if degeneracy is None else (degeneracy.null_dim,
                                                     str(degeneracy))
    _, null_dim, unique, diag = _nullspace_solution(
        assemble_Z(Q, lam), opts.null_tol, float(np.trace(Q)))
    return null_dim, None if unique else diag


def solve_global(acc: CostAccumulator, opts: DualSolveOptions | None = None,
                 gap_threshold: float = GAP_THRESHOLD) -> CalibSolution:
    """Certified global optimum over an accumulator snapshot.

    3D mode runs the dual solve, primal recovery and a Newton polish;
    planar mode the exact reduced solve.  Both raise
    :class:`NonUniqueSolution` (with the unobservable directions) when the
    data does not pin down a single calibration.
    """
    if acc.n == 0:
        raise EmptyData("accumulator holds no motion pairs")
    opts = opts or DualSolveOptions()
    Q = acc.normalized_q
    mode = acc.mode
    t0 = time.perf_counter()
    if mode is ConstraintMode.PLANAR:
        q8, p_star, degeneracy = solve_planar(Q, opts.null_tol)
        if degeneracy is not None:
            raise degeneracy
        lam, null_dim = np.array([p_star, 0.0]), 1
        primal = float(q8 @ Q @ q8)
    else:
        lam = solve_dual(Q, mode, opts)
        q8, null_dim = recover_primal(Q, lam, mode, opts)
        primal = float(q8 @ Q @ q8)
        # Newton polish: the recovered vector can carry a small component
        # of a nearly-null direction (finite dual tolerance); the fast
        # solver's Newton iteration, started there, lands on the exact KKT
        # point of the same basin in a step or two
        polish = solve_local(Q, mode, LocalSolveOptions(init=q8))
        if polish.converged and polish.cost <= primal + 1e-15:
            q8 = polish.q_hat.vec()
            primal = polish.cost
    elapsed = time.perf_counter() - t0
    dual_value = float(lam[0])
    gap = primal - dual_value
    return CalibSolution(
        q_hat=DualQuat.from_vec(q8),
        lam=lam,
        primal_cost=primal,
        dual_value=dual_value,
        gap=gap,
        is_global=bool(gap < gap_threshold),
        provenance="global",
        solve_time=elapsed,
        null_dim=null_dim,
    )
