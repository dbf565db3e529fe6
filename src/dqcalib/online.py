"""Online calibration: a certified global estimate at every step, or the
paper's fast-then-verify policy.

Each incoming motion pair is (optionally plane-aligned and) accumulated.
By default (``t_no_fail = inf``) every step is one global solve whose dual
search starts at the previous step's lam_2; it certifies itself, so no
fast solve or separate certificate runs.  With a finite no-fail window the
fast solver runs warm-started from the previous solution and its result is
certified.  A failed certificate, or a fast solve that ran out of
iterations, stamps the error time; while the latest error is within the
window the global solver's result replaces the fast one.  With exact
ground planes configured, solutions are estimated in the plane-aligned
frame and lifted back to 3D on output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .constraints import ConstraintMode
from .cost import CostAccumulator, MotionPair, check_planes
from .errors import NonMonotonicTime, NonUniqueSolution
from .global_solver import (GAP_THRESHOLD, CalibSolution, check_gap_threshold,
                            solve_global)
from .local_solver import solve_local
from .planar import GroundPlane, lift_calibration, plane_alignment_dq
from .verify import certify

PLANE_DERIVED_DOFS = ("z", "roll", "pitch")


def check_t_no_fail(t_no_fail: float) -> None:
    """Raise ValueError unless the no-fail window is nonnegative (inf
    included): a NaN window would run the fast path on every step."""
    if not t_no_fail >= 0:  # NaN too
        raise ValueError(f"t_no_fail must be nonnegative, got {t_no_fail}")


@dataclass(frozen=True)
class OnlineConfig:
    """``t_no_fail`` is the no-fail window in seconds.  ``inf`` (the
    default) never closes it: every step returns the warm-started global
    solve, certified or flagged degenerate.  A finite value gives the
    paper's policy: fast solve and certificate, with the global solver
    inside the window after a local error."""

    mode: ConstraintMode = ConstraintMode.FULL_3D
    t_no_fail: float = math.inf
    plane_a: GroundPlane | None = None
    plane_b: GroundPlane | None = None
    gap_threshold: float = GAP_THRESHOLD

    def __post_init__(self):
        check_t_no_fail(self.t_no_fail)
        check_gap_threshold(self.gap_threshold)
        check_planes(self.mode, self.plane_a, self.plane_b)


def lift_solution(sol: CalibSolution, acc: CostAccumulator) -> CalibSolution:
    """``sol`` lifted from ``acc``'s plane-aligned frame to 3D, keeping the
    planar estimate; unchanged without alignments."""
    if acc.align_a is None:
        return sol
    return replace(sol, q_hat_planar=sol.q_hat, plane_derived=PLANE_DERIVED_DOFS,
                   q_hat=lift_calibration(sol.q_hat, acc.align_a, acc.align_b))


class OnlineCalibrator:
    """Sequential estimator; single owner, mutated only through update()."""

    def __init__(self, config: OnlineConfig | None = None):
        cfg = self.config = config or OnlineConfig()
        self.acc = CostAccumulator(cfg.mode, *[
            None if p is None else plane_alignment_dq(p)
            for p in (cfg.plane_a, cfg.plane_b)])
        self.t_last_local_error: float | None = None
        self._last_time = -np.inf
        self._warm: np.ndarray | None = None
        self._lam2 = 0.0  # the previous lam_2: the dual search starts there

    def update(self, pair: MotionPair) -> CalibSolution:
        """Process one pair and return the current calibration estimate."""
        cfg = self.config
        if not math.isfinite(pair.timestamp) or pair.timestamp <= self._last_time:
            raise NonMonotonicTime(
                f"timestamp {pair.timestamp} not after {self._last_time}")
        self._last_time = pair.timestamp
        if self.t_last_local_error is None:
            self.t_last_local_error = pair.timestamp

        t0 = time.perf_counter()
        self.acc.add(pair)
        if math.isinf(cfg.t_no_fail):
            try:
                sol = self._solve_global()
            except NonUniqueSolution as err:
                sol = err.estimate
        else:
            sol = self._fast_then_verify(pair.timestamp)
        self._warm = sol.q_hat.vec()
        self._lam2 = float(sol.lam[1])

        sol = lift_solution(sol, self.acc)
        return replace(sol, solve_time=time.perf_counter() - t0)

    def _solve_global(self) -> CalibSolution:
        return solve_global(self.acc, self.config.gap_threshold,
                            lam2_start=self._lam2)

    def _fast_then_verify(self, timestamp: float) -> CalibSolution:
        """The paper's policy: the certified fast estimate, or the global
        one while the latest local error is within the no-fail window."""
        cfg = self.config
        Q = self.acc.normalized_q
        local = solve_local(Q, cfg.mode, self._warm)
        sol = certify(Q, local.q_hat, cfg.mode, cfg.gap_threshold)
        if not (sol.is_global and local.converged):
            self.t_last_local_error = timestamp
        if timestamp - self.t_last_local_error > cfg.t_no_fail:
            return sol
        try:
            return self._solve_global()
        except NonUniqueSolution as err:
            return replace(sol, provenance="global", is_global=False,
                           null_dim=err.null_dim, degenerate=True,
                           diagnostic=str(err))


def replay(pairs, config: OnlineConfig | None = None) -> list[CalibSolution]:
    """Feed a time-ordered pair stream through a fresh calibrator."""
    calib = OnlineCalibrator(config)
    return [calib.update(p) for p in pairs]
