"""Quadratic cost from the motion loop-closure condition.

For a synchronized pair of incremental sensor motions (q_a, q_b), a
calibration q must satisfy q_a * q = q * q_b.  Writing both products with
the 8x8 multiplication matrices gives a residual D vec(q), with
D = R(q_b) - L(q_a), whose weighted squared norm yields one
positive-semidefinite 8x8 cost matrix per pair.  Pair matrices are
averaged with weights summing to one, which keeps the duality-gap
threshold independent of the dataset size.

A pair is checked once, where it is built: a :class:`MotionPair` checks
itself, and a :class:`PairArrays` record, the rows that the loader, the
stream pairing and the simulator hand on, checks all of its rows.

One kernel forms every pair cost: it lays out the (n, 8, 8) residual
matrices of a block of pairs by indexing their 8-vector rows and forms
D^T diag(w) D with one batched matrix product.
:meth:`CostAccumulator.add_batch` feeds it a record's rows in blocks;
``add`` and :func:`pair_cost_matrix` are one-row calls.  Each pair's
matrix carries the bits of the 2-D product ``D.T @ (w[:, None] * D)``, and
the running sum adds the matrices one by one in input order, so the result
does not depend on how the pairs are split into calls or blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintMode
from .dualquat import (DualQuat, canonicalized_rows, left_mat, normalized_rows,
                       right_mat)
from .errors import InvalidWeight, NotUnit
from .planar import project_motion


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


def check_planes(mode: ConstraintMode, plane_a, plane_b) -> None:
    """Raise ValueError unless the ground planes (or their alignments) are
    given for both sensors, in planar mode, or for neither."""
    if (plane_a is None) != (plane_b is None):
        raise ValueError("ground planes must be given for both sensors")
    if plane_a is not None and mode is not ConstraintMode.PLANAR:
        raise ValueError("ground planes require planar mode")


def _check_weights(w: np.ndarray, eta: np.ndarray) -> None:
    """Raise InvalidWeight unless every value in ``w`` (n, 8) or (8,) and
    ``eta`` (n,) or () is finite and nonnegative; ``row`` is the first bad
    row, whose ``w`` is checked before its ``eta``."""
    w_ok, eta_ok = np.isfinite(w) & (w >= 0), np.isfinite(eta) & (eta >= 0)
    if w_ok.all() and eta_ok.all():
        return
    w_ok = w_ok.reshape(-1, 8).all(axis=1)
    i = int(np.argmax(~(w_ok & eta_ok.reshape(-1))))
    what = "eta" if w_ok[i] else "residual weights"
    raise InvalidWeight(f"{what} must be finite and nonnegative", row=i)


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


@dataclass(frozen=True)
class PairArrays:
    """Motion pairs as rows, checked once here; every consumer trusts them.

    Finite times ``t`` (N,), motions ``q_a`` and ``q_b`` (N, 8) normalized
    and sign-canonicalized as a :class:`MotionPair` holds them, and finite,
    nonnegative residual weights ``w`` (N, 8) and confidences ``eta`` (N,),
    1 when omitted.  Disagreeing shapes or a non-finite time raise
    ValueError; a motion too far from unit raises :class:`NotUnit` and a bad
    weight :class:`InvalidWeight`, with the bad row's index as ``row``.  The
    first bad row wins; in a row ``q_a`` goes before ``q_b``, then the
    weights.  The record holds read-only copies of the caller's arrays.
    """

    t: np.ndarray
    q_a: np.ndarray
    q_b: np.ndarray
    w: np.ndarray | None = None
    eta: np.ndarray | None = None

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        n = t.size
        q_a, q_b = (np.asarray(q, dtype=float) for q in (self.q_a, self.q_b))
        w = np.ones((n, 8)) if self.w is None else np.array(self.w, dtype=float)
        eta = np.ones(n) if self.eta is None else np.array(self.eta, dtype=float)
        shapes = (t.shape, q_a.shape, q_b.shape, w.shape, eta.shape)
        if shapes != ((n,), (n, 8), (n, 8), (n, 8), (n,)):
            raise ValueError(f"need (n,) t and eta, (n, 8) q_a, q_b and w: {shapes}")
        if not np.isfinite(t).all():
            raise ValueError(f"row {np.argmax(~np.isfinite(t))}: time is not finite")
        # each check sees only the rows before the first fault found so far
        checks = (lambda n: _motion_rows(q_a[:n]), lambda n: _motion_rows(q_b[:n]),
                  lambda n: _check_weights(w[:n], eta[:n]))
        fault, checked = None, []
        for check in checks:
            try:
                checked.append(check(n))
            except (NotUnit, InvalidWeight) as err:
                n, fault = err.row, err
        if fault is not None:
            raise fault
        q_a, q_b, _ = checked
        for name, rows in zip(("t", "q_a", "q_b", "w", "eta"), (t, q_a, q_b, w, eta)):
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)

    def __len__(self):
        return len(self.t)

    @classmethod
    def from_pairs(cls, pairs) -> "PairArrays":
        return cls(t=np.array([p.timestamp for p in pairs], dtype=float),
                   q_a=np.array([p.q_a.vec() for p in pairs]).reshape(-1, 8),
                   q_b=np.array([p.q_b.vec() for p in pairs]).reshape(-1, 8),
                   w=np.array([p.weight_diag for p in pairs]).reshape(-1, 8),
                   eta=np.array([1.0 if p.eta is None else p.eta for p in pairs],
                                dtype=float))

    def motion_pairs(self):
        """The rows as :class:`MotionPair` objects, in order; a confidence
        of 1 is left at the default, None."""
        for t, q_a, q_b, w, eta in zip(self.t, self.q_a, self.q_b, self.w, self.eta):
            yield MotionPair(q_a=DualQuat.from_vec(q_a), q_b=DualQuat.from_vec(q_b),
                             timestamp=float(t), weight_diag=w,
                             eta=None if eta == 1.0 else float(eta))


class CostAccumulator:
    """Running sum of per-pair cost matrices with weight normalization.

    With alignment displacements set (both or neither, in planar mode;
    else ValueError), incoming motions are conjugated into the respective
    ground-plane frames before their cost matrix is formed.  Single writer;
    snapshots returned by :attr:`normalized_q` are fresh arrays safe to
    hand to solver threads.
    """

    def __init__(self, mode: ConstraintMode = ConstraintMode.FULL_3D,
                 align_a: DualQuat | None = None,
                 align_b: DualQuat | None = None):
        check_planes(mode, align_a, align_b)
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

    def add_batch(self, pairs: PairArrays) -> "CostAccumulator":
        """Add the rows of a :class:`PairArrays` record, in order.  The
        record's constructor checked them, so nothing is checked here; the
        result equals one :meth:`add` per row bit for bit."""
        return self._add_rows(pairs.q_a, pairs.q_b, pairs.w, pairs.eta)

    def _add_rows(self, q_a, q_b, w, eta) -> "CostAccumulator":
        """Add checked rows: unit sign-canonical motions and finite,
        nonnegative weights."""
        if self.align_a is not None:
            # each projected motion as a MotionPair holds it
            q_a = _motion_rows(project_motion(q_a, self.align_a))
            q_b = _motion_rows(project_motion(q_b, self.align_b))
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


def cost_value(acc: CostAccumulator, q: np.ndarray) -> float:
    """Normalized quadratic cost of an 8-vector candidate."""
    q = np.asarray(q, dtype=float).reshape(8)
    return float(q @ acc.normalized_q @ q)
