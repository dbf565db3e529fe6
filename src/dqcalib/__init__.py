"""Extrinsic sensor calibration from per-sensor ego-motion using dual quaternions."""

from .constraints import (ConstraintMode, assemble_Z, eval_g,
                          multiplier_matrices, solve_planar)
from .cost import (CostAccumulator, MotionPair, PairArrays, cost_value,
                   pair_cost_matrix)
from .dualquat import DualQuat, left_mat, right_mat
from .global_solver import (CalibSolution, recover_primal, solve_dual,
                            solve_global)
from .io import Trajectory
from .local_solver import LocalSolution, solve_local
from .metrics import CalibError, calib_error
from .online import OnlineCalibrator, OnlineConfig, replay
from .planar import (GroundPlane, fit_ground_plane, lift_calibration,
                     plane_alignment_dq, project_motion, transform_plane)
from .sim import (SimConfig, add_noise, generate_path, planar_rig,
                  random_unit_dq, sensor_pair_motions, simulate_pairs)
from .verify import certify

__version__ = "0.1.0"

__all__ = [
    "CalibError", "CalibSolution", "ConstraintMode", "CostAccumulator",
    "DualQuat", "GroundPlane", "LocalSolution", "MotionPair",
    "OnlineCalibrator", "OnlineConfig", "PairArrays", "SimConfig",
    "Trajectory",
    "add_noise", "assemble_Z", "calib_error", "certify", "cost_value",
    "eval_g", "fit_ground_plane", "generate_path", "left_mat",
    "lift_calibration", "multiplier_matrices", "pair_cost_matrix",
    "planar_rig", "plane_alignment_dq", "project_motion", "random_unit_dq",
    "recover_primal", "replay", "right_mat", "sensor_pair_motions",
    "simulate_pairs", "solve_dual", "solve_global", "solve_local",
    "solve_planar", "transform_plane",
]
