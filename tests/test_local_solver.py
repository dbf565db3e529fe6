import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqcalib.constraints import ConstraintMode, eval_g, fit_multipliers
from dqcalib.dualquat import DualQuat
from dqcalib.errors import DegenerateInit
from dqcalib.global_solver import solve_global
from dqcalib.local_solver import (_newton_direction, _stationarity,
                                  _tangent_basis, project_feasible,
                                  solve_local)
from dqcalib.metrics import calib_error
from dqcalib.planar import plane_alignment_dq
from dqcalib.sim import add_noise, planar_rig, random_unit_dq
from dqcalib.verify import certify

from conftest import (ILL_CONDITIONED_DRAWS, accumulate_pairs, forward_tol,
                      grad_g, lstsq_fit_multipliers, lstsq_stationarity,
                      make_dataset, near_feasible_points, normal_matrix_cond,
                      qr_newton_direction, qr_tangent_basis, random_cost,
                      restricted_hessian_cond, use_oracle_kernels)


def perturbed(q, angle_rad, trans_m, rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    t = rng.normal(size=3)
    t = t / np.linalg.norm(t) * trans_m
    return (q * DualQuat.from_rot_trans(axis, angle_rad, t)).canonicalized()


class TestProjection:
    def test_projection_restores_constraints(self, rng):
        for _ in range(40):
            v = rng.normal(size=8) * 2
            if abs(np.linalg.norm(v[:4])) < 1e-6:
                continue
            p = project_feasible(v)
            assert np.max(np.abs(eval_g(p, ConstraintMode.FULL_3D))) < 1e-14

    def test_zero_real_part_rejected(self):
        v = np.array([0, 0, 0, 0, 1.0, 0, 0, 0])
        with pytest.raises(DegenerateInit):
            project_feasible(v)


class TestSolveLocal:
    def test_zero_cost_returns_identity(self):
        sol = solve_local(np.zeros((8, 8)), ConstraintMode.FULL_3D)
        assert sol.converged
        assert sol.cost == 0.0
        assert sol.q_hat.is_close(DualQuat.identity(), atol=1e-12)

    def test_recovers_truth_from_nearby_init(self, rng):
        pairs, q_t = make_dataset(seed=11, n_pairs=2, noise=0.0)
        acc = accumulate_pairs(pairs)
        init = perturbed(q_t, np.deg2rad(5.0), 0.05, rng)
        sol = solve_local(acc.normalized_q, ConstraintMode.FULL_3D, init.vec())
        assert sol.converged
        err = calib_error(sol.q_hat, q_t)
        assert err.eps_r < 1e-6
        assert err.eps_t < 1e-6

    def test_kkt_conditions_at_exit(self, rng):
        pairs, _ = make_dataset(seed=12, n_pairs=60, noise=0.05)
        acc = accumulate_pairs(pairs)
        sol = solve_local(acc.normalized_q, ConstraintMode.FULL_3D)
        assert sol.converged
        assert sol.kkt_residual < 1e-10
        assert np.max(np.abs(eval_g(sol.q_hat.vec(), ConstraintMode.FULL_3D))) < 1e-10

    def test_planar_mode_exact_planarity(self):
        rig = planar_rig(n_steps=40, seed=13)
        g_a = plane_alignment_dq(rig.plane_a)
        g_b = plane_alignment_dq(rig.plane_b)
        acc = accumulate_pairs(rig.pairs, mode=ConstraintMode.PLANAR,
                               align_a=g_a, align_b=g_b)
        q_tp = (g_a * rig.true_calib * g_b.conjugate()).canonicalized()
        sol = solve_local(acc.normalized_q, ConstraintMode.PLANAR, q_tp.vec())
        assert sol.converged
        v = sol.q_hat.vec()
        assert v[1] == 0.0 and v[2] == 0.0
        err = calib_error(sol.q_hat, q_tp)
        assert err.eps_r < 1e-6
        assert err.eps_t < 1e-6

    def test_descent_from_projected_init(self, rng):
        # from any init, saddles included on the way, the safeguarded
        # Newton iteration never ends above its starting cost
        pairs, _ = make_dataset(seed=14, n_pairs=30, noise=0.1)
        acc = accumulate_pairs(pairs)
        Q = acc.normalized_q
        for _ in range(100):
            init = random_unit_dq(rng).vec()
            q0 = project_feasible(init)
            sol = solve_local(Q, ConstraintMode.FULL_3D, init)
            assert sol.converged
            assert sol.cost <= q0 @ Q @ q0 + 1e-12

    def test_cold_start_reaches_certified_global_optimum(self):
        # without an init the solver starts from the better of the identity
        # and the spectral guess; wherever the result certifies it is the
        # global solver's estimate
        certified = 0
        for k in range(40):
            pairs, _ = make_dataset(seed=300 + k, n_pairs=(5, 20, 80, 200)[k % 4],
                                    noise=(0.0, 0.01, 0.05, 0.1)[k // 10])
            acc = accumulate_pairs(pairs)
            Q = acc.normalized_q
            sol = solve_local(Q, ConstraintMode.FULL_3D)
            assert sol.converged
            if certify(Q, sol.q_hat, ConstraintMode.FULL_3D).is_global:
                certified += 1
                err = calib_error(sol.q_hat, solve_global(acc).q_hat)
                assert max(err.eps_r, err.eps_t) < 1e-6
        assert certified >= 36

    def test_deterministic(self, rng):
        pairs, _ = make_dataset(seed=15, n_pairs=40, noise=0.08)
        acc = accumulate_pairs(pairs)
        init = random_unit_dq(rng).vec()
        a = solve_local(acc.normalized_q, ConstraintMode.FULL_3D, init)
        b = solve_local(acc.normalized_q, ConstraintMode.FULL_3D, init)
        assert np.array_equal(a.q_hat.vec(), b.q_hat.vec())
        assert a.cost == b.cost and a.iterations == b.iterations

    def test_warm_start_is_never_slower(self):
        # growing an accumulator by one low-noise pair: warm start from the
        # previous solution needs no more iterations than a cold start
        cold_counts, warm_counts = [], []
        for seed in range(100):
            pairs, q_t = make_dataset(seed=200 + seed, n_pairs=21, noise=0.02)
            acc = accumulate_pairs(pairs[:-1])
            prev = solve_local(acc.normalized_q, ConstraintMode.FULL_3D,
                               q_t.vec())
            acc.add(pairs[-1])
            warm = solve_local(acc.normalized_q, ConstraintMode.FULL_3D,
                               prev.q_hat.vec())
            cold = solve_local(acc.normalized_q, ConstraintMode.FULL_3D)
            warm_counts.append(warm.iterations)
            cold_counts.append(cold.iterations)
        assert np.median(warm_counts) <= np.median(cold_counts)


class TestClosedFormKernels:
    """The closed-form multipliers and tangent basis against the lstsq and
    complete-QR forms they replace (conftest's oracles)."""

    @settings(max_examples=200, deadline=None)
    @given(q=near_feasible_points(), seed=st.integers(0, 2**32 - 1))
    @example(*ILL_CONDITIONED_DRAWS[0])
    @example(*ILL_CONDITIONED_DRAWS[1])
    def test_kernels_match_lstsq_and_qr_oracles(self, q, seed):
        # multipliers and gradients to the forward-error bound of the 2x2
        # normal equations, relative to the data's scale; Newton steps to
        # that of the restricted Hessian
        Q = random_cost(seed)
        norm = np.linalg.norm
        # a certificate fits the multipliers at points up to 1e-6 off the
        # manifold
        lam = np.array(fit_multipliers(q, Q @ q)[:2])
        ref = np.array(lstsq_fit_multipliers(q, Q @ q))
        tol = forward_tol(normal_matrix_cond(q), norm(ref) + norm(Q))
        assert norm(lam - ref) <= tol
        # the Newton iteration only ever sees projected points
        p = project_feasible(q)
        lam, grad, res = _stationarity(Q, p)
        lam_ref, grad_ref, res_ref = lstsq_stationarity(Q, p)
        kappa = normal_matrix_cond(p)
        tol = forward_tol(kappa, norm(lam_ref) + norm(Q))
        assert norm(lam - lam_ref) <= tol
        tol = forward_tol(kappa, norm(grad_ref) + norm(Q))
        assert np.max(np.abs(grad - grad_ref)) <= tol
        assert abs(res - res_ref) <= tol
        N, N_ref = _tangent_basis(p), qr_tangent_basis(p)
        assert norm(N.T @ N - np.eye(6)) <= 1e-12
        assert norm(grad_g(p) @ N) <= 1e-12
        assert norm(N @ N.T - N_ref @ N_ref.T) <= 1e-12
        kappa = restricted_hessian_cond(Q, p, lam_ref)
        for exact in (False, True):
            step = _newton_direction(Q, p, lam, grad, exact)
            step_ref = qr_newton_direction(Q, p, lam_ref, grad_ref, exact)
            assert norm(step - step_ref) <= forward_tol(kappa, norm(step_ref))

    def test_cold_solves_match_oracle_kernels(self, monkeypatch):
        # 160 cold solves and their certificates: the closed forms change
        # no iteration count, convergence flag or verdict, and move the
        # estimate, the multipliers and the gap only at rounding level
        costs = []
        for seed in range(1000, 1040):
            for noise in (0.0, 0.01, 0.05, 0.1):
                pairs, _ = make_dataset(seed=seed, noise=noise,
                                        n_pairs=(5, 30, 60)[seed % 3])
                costs.append(accumulate_pairs(pairs).normalized_q)
        results = {}
        for oracle in (False, True):
            with monkeypatch.context() as m:
                if oracle:
                    use_oracle_kernels(m)
                sols = [solve_local(Q, ConstraintMode.FULL_3D) for Q in costs]
                results[oracle] = [
                    (sol, certify(Q, sol.q_hat, ConstraintMode.FULL_3D))
                    for Q, sol in zip(costs, sols)]
        for (sol, cert), (ref, ref_cert) in zip(results[False], results[True]):
            assert (sol.iterations, sol.converged) == (ref.iterations, ref.converged)
            assert np.max(np.abs(sol.q_hat.vec() - ref.q_hat.vec())) <= 1e-12
            assert np.max(np.abs(sol.lam - ref.lam)) <= 1e-12
            assert abs(cert.gap - ref_cert.gap) <= 1e-14
            assert ((cert.is_global, cert.null_dim, cert.diagnostic)
                    == (ref_cert.is_global, ref_cert.null_dim, ref_cert.diagnostic))
