"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from dqcalib.constraints import ConstraintMode, eval_g
from dqcalib.cost import CostAccumulator
from dqcalib.dualquat import DualQuat, left_mat, right_mat
from dqcalib.errors import NonUniqueSolution
from dqcalib.global_solver import solve_global
from dqcalib.local_solver import solve_local
from dqcalib.metrics import calib_error
from dqcalib.online import OnlineConfig, replay
from dqcalib.planar import plane_alignment_dq
from dqcalib.sim import (SimConfig, planar_rig, random_unit_dq,
                         sample_study_calibration, simulate_pairs)
from dqcalib.verify import certify

from conftest import accumulate_pairs
from test_global_solver import oracle_dual_lambda1


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def random_config(seed, n_steps=10, noise=0.0):
    rng = np.random.default_rng(seed)
    kind = ["circle", "lissajous"][seed % 2]
    path = ({"kind": "circle", "radius": float(rng.uniform(6, 20))}
            if kind == "circle" else
            {"kind": "lissajous", "ax": float(rng.uniform(8, 16)),
             "ay": float(rng.uniform(6, 12))})
    return SimConfig(path=path, surface={"kind": "sinusoid"},
                     n_steps=n_steps,
                     true_calib=random_unit_dq(rng, max_translation=2.0),
                     noise_level=noise, seed=seed)


def test_acceptance_01_exact_recovery_noise_free():
    t0 = time.perf_counter()
    for seed in range(100):
        cfg = random_config(seed)
        pairs, truth = simulate_pairs(cfg)
        acc = accumulate_pairs(pairs)
        sol = solve_global(acc)
        assert sol.gap < 1e-9
        err = calib_error(sol.q_hat, truth)
        assert err.eps_r < 1e-6 and err.eps_t < 1e-6
        # fast solver initialized from the global result, as in the
        # combined pipeline
        local = solve_local(acc.normalized_q, ConstraintMode.FULL_3D,
                            sol.q_hat.vec())
        err_l = calib_error(local.q_hat, truth)
        assert err_l.eps_r < 1e-6 and err_l.eps_t < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"100 noise-free configs recovered exactly by both solvers "
               f"in {elapsed:.2f} s")


def test_acceptance_02_zero_gap_certification():
    worst_gap_shift = 0.0
    for seed in range(100):
        cfg = random_config(seed)
        pairs, truth = simulate_pairs(cfg)
        acc = accumulate_pairs(pairs)
        sol = solve_global(acc)
        cert = certify(acc.normalized_q, sol.q_hat, ConstraintMode.FULL_3D)
        assert cert.is_global
        doubled = accumulate_pairs(pairs + pairs)
        cert2 = certify(doubled.normalized_q, sol.q_hat, ConstraintMode.FULL_3D)
        worst_gap_shift = max(worst_gap_shift, abs(cert.gap - cert2.gap))
    assert worst_gap_shift < 1e-12
    _report(2, f"all 100 cases certified; duplication shifts the gap by "
               f"at most {worst_gap_shift:.2e}")


def test_acceptance_03_dual_oracle_equivalence():
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng(3000 + k)
        cfg = SimConfig(n_steps=int(rng.integers(20, 80)),
                        true_calib=random_unit_dq(rng, 2.0),
                        noise_level=float(rng.uniform(0.02, 0.12)),
                        seed=3000 + k)
        pairs, _ = simulate_pairs(cfg)
        Q = accumulate_pairs(pairs).normalized_q
        from dqcalib.global_solver import solve_dual
        lam = solve_dual(Q)
        ref = oracle_dual_lambda1(Q)
        worst = max(worst, abs(lam[0] - ref))
    assert worst < 1e-6
    _report(3, f"50 noisy datasets: custom dual matches the brute-force "
               f"scan within {worst:.2e}")


def test_acceptance_04_local_global_agreement():
    for k in range(50):
        rng = np.random.default_rng(4000 + k)
        cfg = SimConfig(n_steps=int(rng.integers(100, 220)),
                        true_calib=random_unit_dq(rng, 2.0),
                        noise_level=float(rng.uniform(0.01, 0.10)),
                        seed=4000 + k)
        pairs, _ = simulate_pairs(cfg)
        acc = accumulate_pairs(pairs)
        sol = solve_global(acc)
        local = solve_local(acc.normalized_q, ConstraintMode.FULL_3D,
                            sol.q_hat.vec())
        dist = calib_error(local.q_hat, sol.q_hat)
        assert dist.eps_r < 1e-4 and dist.eps_t < 1e-4
        cert = certify(acc.normalized_q, local.q_hat, ConstraintMode.FULL_3D)
        assert cert.is_global
    _report(4, "50 well-conditioned noisy datasets: warm-started fast solver "
               "matches the global one and certifies")


def test_acceptance_05_falsification_sensitivity():
    # motion-rich terrain so a 0.1 degree yaw error moves the normalized
    # cost decisively past the gap threshold
    rough = {"kind": "sinusoid", "terms": [
        {"amplitude": 1.2, "wavelength": 14.0, "axis": "x"},
        {"amplitude": 0.7, "wavelength": 5.0, "axis": "y"}]}
    flips = 0
    trials = 0
    for k in range(50):
        rng = np.random.default_rng(5000 + k)
        cfg = SimConfig(path={"kind": "circle", "radius": 7.0}, surface=rough,
                        n_steps=120,
                        true_calib=sample_study_calibration(rng),
                        noise_level=0.05, seed=5000 + k)
        pairs, _ = simulate_pairs(cfg)
        acc = accumulate_pairs(pairs)
        sol = solve_global(acc)
        base = certify(acc.normalized_q, sol.q_hat, ConstraintMode.FULL_3D)
        if not base.is_global:
            trials += 2  # count as non-flips; the criterion tolerates 5%
            continue
        yaw = DualQuat.from_rot_trans([0, 0, 1], np.deg2rad(0.1), [0, 0, 0])
        cand = (sol.q_hat * yaw).canonicalized()
        if not certify(acc.normalized_q, cand, ConstraintMode.FULL_3D).is_global:
            flips += 1
        trials += 1
        direction = rng.normal(size=3)
        direction = 0.1 * direction / np.linalg.norm(direction)
        cand = (sol.q_hat * DualQuat.from_translation(direction)).canonicalized()
        if not certify(acc.normalized_q, cand, ConstraintMode.FULL_3D).is_global:
            flips += 1
        trials += 1
    assert trials == 100
    assert flips >= 95
    _report(5, f"perturbations of 0.1 deg / 0.1 m flipped the certificate in "
               f"{flips}/100 trials")


def test_acceptance_06_study_error_trend(tmp_path):
    from dqcalib.cli import main

    cfg = {"noise_levels": [0.02, 0.05, 0.10],
           "sizes": [25, 50, 100, 200, 400],
           "seeds": 8}
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "study.csv"
    t0 = time.perf_counter()
    assert main(["study", "--config", str(cfg_path), "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0

    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 5 * 8
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    for noise in ("0.02", "0.05", "0.1"):
        medians = []
        for size in (25, 50, 100, 200, 400):
            cell = [float(r["eps_t_m"]) for r in rows
                    if r["noise_level"] == noise and int(r["n"]) == size]
            assert len(cell) == 8
            medians.append(np.median(cell))
        inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
        assert inversions <= 1, (noise, medians)
    _report(6, f"study grid of 120 cells in {elapsed:.1f} s with the "
               f"expected error-vs-size trend")


def test_acceptance_07_planar_pipeline():
    rig = planar_rig(n_steps=60, seed=777)
    g_a = plane_alignment_dq(rig.plane_a)
    g_b = plane_alignment_dq(rig.plane_b)
    acc = accumulate_pairs(rig.pairs, mode=ConstraintMode.PLANAR,
                           align_a=g_a, align_b=g_b)
    sol = solve_global(acc)
    assert sol.is_global

    # planar components: x, y and yaw in the plane-aligned frames
    truth_planar = (g_a * rig.true_calib * g_b.conjugate()).canonicalized()
    est, ref = sol.q_hat, truth_planar
    assert abs(est.translation()[0] - ref.translation()[0]) < 1e-6
    assert abs(est.translation()[1] - ref.translation()[1]) < 1e-6
    yaw_est = 2 * np.arctan2(est.real[3], est.real[0])
    yaw_ref = 2 * np.arctan2(ref.real[3], ref.real[0])
    assert abs(yaw_est - yaw_ref) < 1e-6

    # lifting restores the full 3D calibration; the out-of-plane components
    # come from the planes
    from dqcalib.planar import lift_calibration
    lifted = lift_calibration(sol.q_hat, g_a, g_b)
    err = calib_error(lifted, rig.true_calib)
    assert err.eps_r < 1e-6 and err.eps_t < 1e-6

    sols = replay(rig.pairs[:3], OnlineConfig(
        mode=ConstraintMode.PLANAR, plane_a=rig.plane_a, plane_b=rig.plane_b))
    assert sols[-1].plane_derived == ("z", "roll", "pitch")

    # the same data without planar constraints is unobservable
    acc3d = accumulate_pairs(rig.pairs)
    with pytest.raises(NonUniqueSolution):
        solve_global(acc3d)
    _report(7, "planar pipeline exact in (x, y, yaw), lift restores 3D, and "
               "the 3D-mode solve reports non-uniqueness")


def test_acceptance_08_online_replay_500_steps():
    rig = planar_rig(n_steps=500, seed=888, rate=10.0)
    cfg = OnlineConfig(mode=ConstraintMode.PLANAR, plane_a=rig.plane_a,
                       plane_b=rig.plane_b, t_no_fail=5.0)
    sols = replay(rig.pairs, cfg)
    assert len(sols) == 500

    provs = [s.provenance for s in sols]
    switch = provs.index("local")
    assert all(p == "global" for p in provs[:switch])
    assert all(p == "local" for p in provs[switch:])

    threshold = cfg.gap_threshold
    assert all(s.gap < threshold for s in sols if s.provenance == "local")

    batch = solve_global(accumulate_pairs(
        rig.pairs, mode=ConstraintMode.PLANAR,
        align_a=plane_alignment_dq(rig.plane_a),
        align_b=plane_alignment_dq(rig.plane_b)))
    dist = calib_error(sols[-1].q_hat_planar, batch.q_hat)
    assert dist.eps_r < 1e-6 and dist.eps_t < 1e-6
    err = calib_error(sols[-1].q_hat, rig.true_calib)
    assert err.eps_r < 1e-6 and err.eps_t < 1e-6
    _report(8, f"500-step replay: one provenance switch (step {switch}), "
               f"all certified-local steps under threshold, final solution "
               f"matches the batch solve")


def test_acceptance_09_performance_envelope():
    rng = np.random.default_rng(909)
    cfg = SimConfig(n_steps=200, true_calib=random_unit_dq(rng, 2.0),
                    noise_level=0.05, seed=909)
    pairs, _ = simulate_pairs(cfg)
    acc = accumulate_pairs(pairs)
    Q = acc.normalized_q
    sol = solve_global(acc)

    local_times = []
    for _ in range(20):
        t0 = time.perf_counter()
        solve_local(Q, ConstraintMode.FULL_3D, sol.q_hat.vec())
        local_times.append(time.perf_counter() - t0)
    warm_ms = np.median(local_times) * 1e3
    assert warm_ms < 50.0

    cert_times = []
    for _ in range(20):
        t0 = time.perf_counter()
        certify(Q, sol.q_hat, ConstraintMode.FULL_3D)
        cert_times.append(time.perf_counter() - t0)
    cert_ms = np.median(cert_times) * 1e3
    assert cert_ms < 5.0
    _report(9, f"warm local solve {warm_ms:.2f} ms (< 50), certification "
               f"{cert_ms:.3f} ms (< 5) on a 200-pair accumulator")


def test_acceptance_10_algebra_suite():
    rng = np.random.default_rng(1010)
    n = 10_000
    worst_unit = worst_homo = worst_mat = worst_cover = 0.0
    for _ in range(n):
        p = random_unit_dq(rng, max_translation=2.0)
        q = random_unit_dq(rng, max_translation=2.0)
        prod = p * q
        worst_unit = max(worst_unit,
                         abs(prod.real @ prod.real - 1.0),
                         abs(2.0 * (prod.real @ prod.dual)))
        worst_homo = max(worst_homo, np.max(np.abs(
            prod.to_homogeneous() - p.to_homogeneous() @ q.to_homogeneous())))
        a = DualQuat(rng.normal(size=4), rng.normal(size=4))
        b = DualQuat(rng.normal(size=4), rng.normal(size=4))
        ab = (a * b).vec()
        worst_mat = max(worst_mat,
                        np.max(np.abs(ab - left_mat(a) @ b.vec())),
                        np.max(np.abs(ab - right_mat(b) @ a.vec())))
        v = rng.uniform(-2, 2, 3)
        worst_cover = max(worst_cover, np.max(np.abs(
            p.transform_point(v) - (-p).transform_point(v))))
    assert worst_unit < 1e-9
    assert worst_homo < 1e-9
    assert worst_mat < 1e-12
    assert worst_cover < 1e-12
    _report(10, f"10^4 samples: unit defect {worst_unit:.1e}, matrix "
                f"homomorphism {worst_homo:.1e}, matrixization {worst_mat:.1e},"
                f" double cover {worst_cover:.1e}")
