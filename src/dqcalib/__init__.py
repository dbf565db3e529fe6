"""Extrinsic sensor calibration from per-sensor ego-motion using dual quaternions."""

from .constraints import (ConstraintMode, assemble_Z, eval_g,
                          multiplier_matrices, solve_planar)
from .cost import CostAccumulator, MotionPair, cost_value, pair_cost_matrix
from .dualquat import (DualQuat, canonicalize, conjugate, dq_mul,
                       from_rot_trans, left_mat, right_mat, to_rot_trans,
                       transform_point)
from .global_solver import (CalibSolution, recover_primal, solve_dual,
                            solve_global)
from .local_solver import LocalSolveOptions, LocalSolution, solve_local
from .metrics import CalibError, calib_error
from .online import OnlineCalibrator, OnlineConfig, replay
from .planar import (GroundPlane, RansacOptions, fit_ground_plane,
                     lift_calibration, plane_alignment_dq, project_motion,
                     transform_plane)
from .sim import (PoseSequence, SimConfig, add_noise, generate_path,
                  planar_rig, random_unit_dq, sensor_pair_motions,
                  simulate_pairs)
from .verify import Certificate, certify

__version__ = "0.1.0"

__all__ = [
    "CalibError", "CalibSolution", "Certificate", "ConstraintMode",
    "CostAccumulator", "DualQuat",
    "GroundPlane", "LocalSolveOptions", "LocalSolution", "MotionPair",
    "OnlineCalibrator", "OnlineConfig", "PoseSequence", "RansacOptions",
    "SimConfig", "add_noise", "assemble_Z",
    "calib_error", "canonicalize", "certify", "conjugate", "cost_value",
    "dq_mul", "eval_g", "fit_ground_plane", "from_rot_trans", "generate_path",
    "left_mat", "lift_calibration", "multiplier_matrices", "pair_cost_matrix",
    "planar_rig", "plane_alignment_dq", "project_motion",
    "random_unit_dq", "recover_primal", "replay", "right_mat",
    "sensor_pair_motions", "simulate_pairs", "solve_dual", "solve_global",
    "solve_local", "solve_planar",
    "to_rot_trans", "transform_plane", "transform_point",
]
