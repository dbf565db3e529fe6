"""Equality constraints on the 8-vector calibration variable, and the planar solve.

Full 3D mode has two constraints, both quadratic forms: real-part
normalization g1 = 1 - |q_r|^2 and real/dual orthogonality
g2 = 2 q_r . q_d.  With g(q) = q^T G q + c the Lagrangian is
q^T Z(lam) q + lam_1 with Z(lam) = Q + lam_1 G1 + lam_2 G2.

Planar mode adds the ground-plane prior: no roll or pitch (q2 = q3 = 0) and
no out-of-plane translation (g4 = q1 q8 - q4 q5 = 0).  Together with g2,
whose determinant q1^2 + q4^2 = 1 is nonzero, these force q5 = q8 = 0, so
the planar feasible set is exactly {(q1, q4) on the unit circle} x
{(q6, q7) in R^2}.  :func:`solve_planar` minimizes over that set in closed
form: eliminating (q6, q7) by a Schur complement leaves the smallest
eigenpair of a 2x2 matrix.  Planar residuals are g1 and the four
coordinates that set forces to zero, all on the linear scale, so one
feasibility tolerance means the same thing in both modes.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .dualquat import DualQuat
from .errors import NonUniqueSolution


class ConstraintMode(Enum):
    FULL_3D = "3d"
    PLANAR = "planar"


def _g1_matrix() -> np.ndarray:
    G = np.zeros((8, 8))
    G[:4, :4] = -np.eye(4)
    return G


def _g2_matrix() -> np.ndarray:
    G = np.zeros((8, 8))
    G[:4, 4:] = np.eye(4)
    G[4:, :4] = np.eye(4)
    return G


_G1 = _g1_matrix()
_G2 = _g2_matrix()
for _m in (_G1, _G2):
    _m.setflags(write=False)

# the only coordinates a planar-feasible q may carry: the yaw (q1, q4) and
# the in-plane translation part (q6, q7)
_PLANAR_ROT = [0, 3]
_PLANAR_TRANS = [5, 6]

NULL_TOL = 1e-7  # eigenvalues below NULL_TOL * max(1, trace Q) count as zero


def constraint_matrices() -> list[np.ndarray]:
    """Quadratic-form matrices (G1, G2) of the 3D constraints."""
    return [_G1, _G2]


def eval_g(q: np.ndarray, mode: ConstraintMode) -> np.ndarray:
    """Constraint residuals; all zero iff q is a valid displacement for the mode.

    3D: (g1, g2).  Planar: (g1, q2, q3, q5, q8).  q2 and q3 are the tilt;
    at zero tilt, q5 = q8 = 0 is equivalent to g2 = 0 and no out-of-plane
    translation (q1 q8 - q4 q5 = 0), whose 2x2 system has determinant
    q1^2 + q4^2 = 1.
    """
    q = np.asarray(q, dtype=float).reshape(8)
    g1 = 1.0 - q[:4] @ q[:4]
    if mode is ConstraintMode.FULL_3D:
        return np.array([g1, 2.0 * (q[:4] @ q[4:])])
    return np.array([g1, q[1], q[2], q[4], q[7]])


def fit_multipliers(q: np.ndarray, Qq: np.ndarray) -> tuple[float, ...]:
    """Floats (lam_1, lam_2, g1, g2): the 3D residuals at q and the
    multipliers minimizing |Qq + lam_1 G1 q + lam_2 G2 q|.

    With q = (r, d), G1 q = (-r, 0) and G2 q = (d, r): the 2x2 normal
    matrix [[|r|^2, -r.d], [-r.d, |r|^2 + |d|^2]] has determinant >= |r|^4.
    """
    X = np.concatenate((q, Qq)).reshape(4, 4)  # rows r, d, (Qq)_r, (Qq)_d
    (rr, rd, rh, rk), (_, dd, dh, _) = (X[:2] @ X.T).tolist()
    c, b = rr + dd, -(dh + rk)
    det = rr * c - rd * rd
    return ((c * rh + rd * b) / det, (rd * rh + rr * b) / det,
            1.0 - rr, 2.0 * rd)


def multiplier_matrices(lam: np.ndarray) -> np.ndarray:
    """P(lam) = lam_1 G1 + lam_2 G2, so q^T P q + lam_1 = lam^T g(q)."""
    lam = np.asarray(lam, dtype=float).reshape(2)
    return lam[0] * _G1 + lam[1] * _G2


def assemble_Z(Q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Z(lam) = Q + P(lam); the Hessian of the 3D Lagrangian (up to a factor 2)."""
    return np.asarray(Q, dtype=float) + multiplier_matrices(lam)


def schur_reduction(A: np.ndarray, C: np.ndarray, scale: float):
    """Eliminate the block with Hessian ``C`` (PSD) from [[A, B], [B^T, C]].

    C's eigenvalues at or below ``1e-12 * scale`` are rounding-level and
    cut: their eigenvectors, the first ``n_cut`` columns of ``Uc``, span
    the null space the pseudo-inverse drops.  Over the kept eigenpairs
    W = Uc diag(wc^-1/2) whitens C, so with G = B W the reduced matrix is
    the Gram form S = A - G G^T and F = W G^T = C^+ B^T; it rounds less
    than A - B C^+ B^T.  Returns ``(wc, Uc, n_cut, reduce)``: C's ascending
    eigenpairs, the cut count and B -> ``(ws, Us, F)``, S's ascending
    eigenpairs and F, whose minimizer over the eliminated block at r is
    -F r.
    """
    # only rounding-level eigenvalues are cut, so the reduced minimum stays
    # a true minimum (a dropped genuine eigenvalue would raise it)
    wc, Uc = np.linalg.eigh(C)
    n_cut = int(np.count_nonzero(wc <= 1e-12 * scale))
    W = Uc[:, n_cut:] / np.sqrt(wc[n_cut:])

    def reduce(B):
        G = B @ W
        ws, Us = np.linalg.eigh(A - G @ G.T)
        return ws, Us, W @ G.T

    return wc, Uc, n_cut, reduce


def solve_planar(Q: np.ndarray):
    """Global minimum of q^T Q q over the planar feasible set, in closed form.

    With A, B, C the (q1,q4)-(q1,q4), (q1,q4)-(q6,q7) and (q6,q7)-(q6,q7)
    blocks of Q, the cost minimized over the translation part is r^T S r
    with S = A - B C^+ B^T, at (q6, q7) = -C^+ B^T r.  Returns
    ``(q8, p_star, degeneracy)``: the sign-canonical minimizer, the exact
    optimum p* = lambda_min(S), and ``None`` or a
    :class:`NonUniqueSolution` (not raised) when C is singular or the two
    eigenvalues of S tie, judged by ``NULL_TOL * max(1, trace Q)``.  Its
    8-row basis spans the minimizer and the unobservable directions, the
    near-null space of the reduced Lagrangian Hessian.
    """
    Q = np.asarray(Q, dtype=float).reshape(8, 8)
    A = Q[np.ix_(_PLANAR_ROT, _PLANAR_ROT)]
    B = Q[np.ix_(_PLANAR_ROT, _PLANAR_TRANS)]
    C = Q[np.ix_(_PLANAR_TRANS, _PLANAR_TRANS)]
    scale = max(1.0, float(np.trace(Q)))
    wc, Uc, _, reduce = schur_reduction(A, C, scale)
    ws, Us, F = reduce(B)  # (q6, q7) = -F r

    def lift(r):
        v = np.zeros(8)
        v[_PLANAR_ROT] = r
        v[_PLANAR_TRANS] = -F @ r
        return v

    q8 = DualQuat.from_vec(lift(Us[:, 0])).canonicalized().vec()
    p_star = float(ws[0])

    thresh = NULL_TOL * scale
    tie = ws[1] - ws[0] < thresh
    free = np.flatnonzero(wc < thresh)
    if not tie and free.size == 0:
        return q8, p_star, None
    basis = [lift(Us[:, j]) for j in range(2 if tie else 1)]
    for k in free:
        v = np.zeros(8)
        v[_PLANAR_TRANS] = Uc[:, k]
        basis.append(v)
    reasons = []
    if tie:
        reasons.append("yaw unobservable (reduced eigenvalues tie)")
    if free.size:
        reasons.append("in-plane translation unobservable (singular translation block)")
    return q8, p_star, NonUniqueSolution(
        "; ".join(reasons), basis=np.column_stack(basis), null_dim=len(basis))
