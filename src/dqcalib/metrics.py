"""Calibration error metrics: geodesic rotation angle and translation offset."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dualquat import DualQuat


@dataclass(frozen=True)
class CalibError:
    eps_r: float  # radians, in [0, pi]
    eps_t: float  # meters

    @property
    def eps_r_deg(self) -> float:
        return float(np.degrees(self.eps_r))


def calib_error(q_hat: DualQuat, q_true: DualQuat) -> CalibError:
    """Error of an estimate against ground truth.

    The residual displacement conj(q_true) * q_hat is canonicalized; its
    rotation angle 2 atan2(|vec|, |w|) lies in [0, pi] and keeps full
    relative precision for tiny rotations (an arccos of w cannot resolve
    angles below about 3e-8 rad).  Its translation magnitude is the
    translation error.
    """
    for q in (q_hat, q_true):
        q._require_unit()
    q_eps = (q_true.conjugate() * q_hat).canonicalized()
    eps_r = 2.0 * np.arctan2(np.linalg.norm(q_eps.real[1:]), abs(q_eps.real[0]))
    eps_t = float(np.linalg.norm(q_eps.translation()))
    return CalibError(eps_r=float(eps_r), eps_t=eps_t)
