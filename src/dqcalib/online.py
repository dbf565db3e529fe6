"""Online calibration combining the fast local and the global solver.

Each incoming motion pair is (optionally plane-aligned and) accumulated;
the fast solver runs warm-started from the previous solution and its
result is certified.  A failed certificate, or a fast solve that ran out
of iterations, stamps the error time; while the latest error is within
the no-fail window the global solver's result replaces the fast one.
With exact ground planes configured, solutions are estimated in the
plane-aligned frame and lifted back to 3D on output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import ConstraintMode
from .cost import CostAccumulator, MotionPair
from .errors import NonMonotonicTime, NonUniqueSolution
from .global_solver import GAP_THRESHOLD, CalibSolution, solve_global
from .local_solver import LocalSolveOptions, solve_local
from .planar import GroundPlane, lift_calibration, plane_alignment_dq
from .verify import certify

PLANE_DERIVED_DOFS = ("z", "roll", "pitch")


@dataclass(frozen=True)
class OnlineConfig:
    mode: ConstraintMode = ConstraintMode.FULL_3D
    t_no_fail: float = 5.0
    plane_a: GroundPlane | None = None
    plane_b: GroundPlane | None = None
    local_opts: LocalSolveOptions = field(default_factory=LocalSolveOptions)
    gap_threshold: float = GAP_THRESHOLD

    def __post_init__(self):
        if self.t_no_fail < 0:
            raise ValueError("t_no_fail must be nonnegative")
        if (self.plane_a is None) != (self.plane_b is None):
            raise ValueError("ground planes must be given for both sensors")
        if self.plane_a is not None and self.mode is not ConstraintMode.PLANAR:
            raise ValueError("ground planes require planar mode")


def _fast_estimate(local, cert, provenance: str, is_global: bool,
                   error: NonUniqueSolution | None = None) -> CalibSolution:
    """The fast solver's estimate with its certificate's multipliers, gap
    and null space; degenerate with ``error`` or its diagnostic."""
    diagnostic = cert.diagnostic if error is None else str(error)
    return CalibSolution(
        q_hat=local.q_hat, lam=cert.lam, primal_cost=local.cost,
        dual_value=float(cert.lam[0]), gap=cert.gap,
        is_global=is_global, provenance=provenance, null_dim=cert.null_dim,
        degenerate=diagnostic is not None, diagnostic=diagnostic)


class OnlineCalibrator:
    """Sequential estimator; single owner, mutated only through update()."""

    def __init__(self, config: OnlineConfig | None = None):
        self.config = config or OnlineConfig()
        if self.config.plane_a is not None:
            self._align_a = plane_alignment_dq(self.config.plane_a)
            self._align_b = plane_alignment_dq(self.config.plane_b)
        else:
            self._align_a = None
            self._align_b = None
        self.acc = CostAccumulator(self.config.mode,
                                   align_a=self._align_a,
                                   align_b=self._align_b)
        self.t_last_local_error: float | None = None
        self._last_time = -np.inf
        self._warm: np.ndarray | None = None

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
        Q = self.acc.normalized_q

        local_opts = replace(cfg.local_opts, init=self._warm)
        local = solve_local(Q, cfg.mode, local_opts)
        cert = certify(Q, local.q_hat, cfg.mode, cfg.gap_threshold)
        if not (cert.is_global and local.converged):
            self.t_last_local_error = pair.timestamp

        use_global = (pair.timestamp - self.t_last_local_error) <= cfg.t_no_fail
        if use_global:
            try:
                sol = solve_global(self.acc, cfg.gap_threshold)
            except NonUniqueSolution as err:
                sol = _fast_estimate(local, cert, "global", False, err)
        else:
            sol = _fast_estimate(local, cert, "local", cert.is_global)

        self._warm = sol.q_hat.vec()

        if self._align_a is not None:
            lifted = lift_calibration(sol.q_hat, self._align_a, self._align_b)
            sol = replace(sol, q_hat=lifted, q_hat_planar=sol.q_hat,
                          plane_derived=PLANE_DERIVED_DOFS)
        sol = replace(sol, solve_time=time.perf_counter() - t0)
        return sol


def replay(pairs, config: OnlineConfig | None = None) -> list[CalibSolution]:
    """Feed a time-ordered pair stream through a fresh calibrator."""
    calib = OnlineCalibrator(config)
    return [calib.update(p) for p in pairs]
