"""Quadratic cost from the motion loop-closure condition.

For a synchronized pair of incremental sensor motions (q_a, q_b), a
calibration q must satisfy q_a * q = q * q_b.  Writing both products with
the 8x8 multiplication matrices gives a residual D vec(q), with
D = R(q_b) - L(q_a), whose weighted squared norm yields one
positive-semidefinite 8x8 cost matrix per pair.  Pair matrices are
averaged with weights summing to one, which keeps the duality-gap
threshold independent of the dataset size.

One kernel forms every pair cost: it lays out the (n, 8, 8) residual
matrices of a block of pairs by indexing their 8-vector rows and forms
D^T diag(w) D with one batched matrix product.
:meth:`CostAccumulator.add_batch` feeds it blocks of rows; ``add`` and
:func:`pair_cost_matrix` are one-row calls.  Each pair's matrix carries the
bits of the 2-D product ``D.T @ (w[:, None] * D)``, and the running sum
adds the matrices one by one in input order, so the result does not depend
on how the pairs are split into calls or blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintMode
from .dualquat import (DualQuat, canonicalized_rows, dq_mul_rows, left_mat,
                       normalized_rows, right_mat)
from .errors import InvalidWeight


@dataclass(frozen=True)
class MotionPair:
    """One synchronized pair of per-sensor incremental motions.

    ``weight_diag`` weights the 8 residual coordinates; ``eta`` is an
    optional per-pair confidence weight (renormalized internally so the
    weights over a dataset sum to one).
    """

    q_a: DualQuat
    q_b: DualQuat
    timestamp: float = 0.0
    weight_diag: np.ndarray = field(default=None)
    eta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "q_a", self.q_a.normalized().canonicalized())
        object.__setattr__(self, "q_b", self.q_b.normalized().canonicalized())
        w = np.ones(8) if self.weight_diag is None else np.asarray(
            self.weight_diag, dtype=float).reshape(8).copy()
        _check_weights(w, np.asarray(1.0 if self.eta is None else self.eta,
                                     dtype=float))
        if not math.isfinite(self.timestamp):
            raise ValueError(f"timestamp {self.timestamp} is not finite")
        w.setflags(write=False)
        object.__setattr__(self, "weight_diag", w)


def _check_weights(w: np.ndarray, eta: np.ndarray) -> None:
    """Raise InvalidWeight unless every weight is finite and nonnegative."""
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise InvalidWeight("residual weights must be finite and nonnegative")
    if not (np.isfinite(eta).all() and (eta >= 0).all()):
        raise InvalidWeight("eta must be finite and nonnegative")


# rows handed to the cost kernel at once: bounds its temporaries (32 KB each
# at 64 rows); 1024-row blocks kept a 5000-pair calibrate's peak memory about
# 3 MB higher, and 256-row blocks a 300-pair planar one's about 0.5 MB
BLOCK_ROWS = 64


def _gather_index(block_mat) -> np.ndarray:
    """Where each entry of ``block_mat``'s 8x8 matrix sits in [v, -v, 0]."""
    codes = block_mat(DualQuat.from_vec(np.arange(1.0, 9.0)))
    k = np.abs(codes).astype(int) - 1
    return np.where(codes > 0, k, np.where(codes < 0, 8 + k, 16))


_RIGHT = _gather_index(right_mat)
_LEFT = _gather_index(left_mat)


def _cost_rows(q_a: np.ndarray, q_b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(n, 8, 8) pair matrices (R(q_b) - L(q_a))^T diag(w) (R(q_b) - L(q_a))."""
    zero = np.zeros((len(q_a), 1))
    D = np.concatenate([q_b, -q_b, zero], axis=1)[:, _RIGHT]
    D -= np.concatenate([q_a, -q_a, zero], axis=1)[:, _LEFT]
    Q = np.swapaxes(D, 1, 2) @ (w[:, :, None] * D)
    Q += np.swapaxes(Q, 1, 2)
    Q *= 0.5
    return Q


def pair_cost_matrix(pair: MotionPair) -> np.ndarray:
    """Weighted PSD cost matrix of one pair: (R - L)^T diag(w) (R - L)."""
    return _cost_rows(pair.q_a.vec()[None], pair.q_b.vec()[None],
                      pair.weight_diag[None])[0]


def _motion_rows(q: np.ndarray) -> np.ndarray:
    """Motions normalized and sign-canonicalized as a MotionPair holds them.

    A sign-canonical row within 1e-15 of unit keeps its bits.
    """
    return canonicalized_rows(normalized_rows(q))


def _project_rows(q: np.ndarray, align: DualQuat) -> np.ndarray:
    """Motions conjugated into a plane frame, each as a MotionPair holds it."""
    g = np.broadcast_to(align.vec(), q.shape)
    g_conj = np.broadcast_to(align.conjugate().vec(), q.shape)
    return _motion_rows(canonicalized_rows(dq_mul_rows(dq_mul_rows(g, q), g_conj)))


class CostAccumulator:
    """Running sum of per-pair cost matrices with weight normalization.

    In planar mode with alignment displacements set, incoming motions are
    conjugated into the respective ground-plane frames before their cost
    matrix is formed.  Single writer; snapshots returned by
    :attr:`normalized_q` are fresh arrays safe to hand to solver threads.
    """

    def __init__(self, mode: ConstraintMode = ConstraintMode.FULL_3D,
                 align_a: DualQuat | None = None,
                 align_b: DualQuat | None = None):
        self.mode = mode
        self.align_a = align_a
        self.align_b = align_b
        self.sum_q = np.zeros((8, 8))
        self.n = 0
        self.sum_eta = 0.0

    def add(self, pair: MotionPair) -> "CostAccumulator":
        # a MotionPair holds checked, normalized, sign-canonical motions
        return self._add_rows(pair.q_a.vec()[None], pair.q_b.vec()[None],
                              pair.weight_diag[None],
                              np.array([1.0 if pair.eta is None else pair.eta]))

    def add_batch(self, q_a, q_b, w=None, eta=None) -> "CostAccumulator":
        """Add n pairs given as rows, in order.

        ``q_a`` and ``q_b`` are (n, 8) motions, normalized and
        sign-canonicalized as :class:`MotionPair` does (a row too far from
        unit raises :class:`NotUnit`); ``w`` holds (n, 8) residual weights
        and ``eta`` (n,) confidence weights, both 1 when omitted.  Raises
        :class:`InvalidWeight` for a negative or non-finite weight.  The
        result equals n one-row calls bit for bit.
        """
        q_a = _motion_rows(np.asarray(q_a, dtype=float).reshape(-1, 8))
        q_b = _motion_rows(np.asarray(q_b, dtype=float).reshape(-1, 8))
        n = len(q_a)
        w = np.ones((n, 8)) if w is None else np.asarray(w, dtype=float).reshape(n, 8)
        eta = np.ones(n) if eta is None else np.asarray(eta, dtype=float).reshape(n)
        _check_weights(w, eta)
        return self._add_rows(q_a, q_b, w, eta)

    def _add_rows(self, q_a, q_b, w, eta) -> "CostAccumulator":
        """Add checked rows: unit sign-canonical motions and finite,
        nonnegative weights."""
        if self.mode is ConstraintMode.PLANAR and self.align_a is not None:
            q_a = _project_rows(q_a, self.align_a)
            q_b = _project_rows(q_b, self.align_b)
        for i in range(0, len(q_a), BLOCK_ROWS):
            rows = slice(i, i + BLOCK_ROWS)
            terms = _cost_rows(q_a[rows], q_b[rows], w[rows])
            terms *= eta[rows, None, None]
            # a running sum in input order, as one pair at a time would add
            terms[0] += self.sum_q
            self.sum_q = np.add.accumulate(terms, out=terms)[-1].copy()
        for e in eta.tolist():
            self.sum_eta += e
        self.n += len(q_a)
        return self

    @property
    def normalized_q(self) -> np.ndarray:
        if self.n == 0 or self.sum_eta == 0.0:
            return np.zeros((8, 8))
        Q = self.sum_q / self.sum_eta
        return 0.5 * (Q + Q.T)

    def copy(self) -> "CostAccumulator":
        other = CostAccumulator(self.mode, self.align_a, self.align_b)
        other.sum_q = self.sum_q.copy()
        other.n = self.n
        other.sum_eta = self.sum_eta
        return other


def cost_value(acc: CostAccumulator, q: np.ndarray) -> float:
    """Normalized quadratic cost of an 8-vector candidate."""
    q = np.asarray(q, dtype=float).reshape(8)
    return float(q @ acc.normalized_q @ q)
