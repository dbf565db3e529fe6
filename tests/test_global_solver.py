import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcalib.constraints import ConstraintMode, assemble_Z, eval_g
from dqcalib.cost import CostAccumulator, MotionPair
from dqcalib.dualquat import DualQuat
from dqcalib.errors import EmptyData, NonUniqueSolution
from dqcalib.global_solver import recover_primal, solve_dual, solve_global
from dqcalib.local_solver import solve_local
from dqcalib.metrics import calib_error
from dqcalib.planar import GroundPlane, plane_alignment_dq
from dqcalib.sim import (SimConfig, planar_rig, random_unit_dq,
                         sensor_pair_motions, simulate_pairs)

from conftest import (accumulate_pairs, make_dataset, make_study_dataset,
                      random_cost)


def oracle_dual_lambda1(Q, xtol=1e-9):
    """Brute-force reference for the optimal dual value (2-multiplier case).

    Independent route: scipy bounded scalar minimization for the inner
    maximization over lam_2 plus a grid scan and Brent root refinement on
    the outer feasibility boundary in lam_1.  A lam_1 counts as feasible
    when phi(lam_1) >= -tau, tau = 1e-12 (1 + |Q|_2): on noise-free costs
    the dual optimum is 0 and rounding puts phi(0) near -1e-17.
    """
    from scipy.optimize import brentq, minimize_scalar

    bound = 4.0 * (1.0 + np.linalg.norm(Q, 2))
    tau = 1e-12 * (1.0 + np.linalg.norm(Q, 2))

    def phi(l1):
        res = minimize_scalar(
            lambda l2: -np.linalg.eigvalsh(assemble_Z(Q, [l1, l2]))[0],
            bounds=(-bound, bound), method="bounded",
            options={"xatol": 1e-12})
        return tau - res.fun  # phi(l1) + tau

    ub = float(Q[0, 0])  # identity is feasible: cost = Q[0,0]
    if ub <= xtol:
        return 0.0
    grid = np.linspace(0.0, ub, 40)
    feas = [phi(g) >= 0.0 for g in grid]
    if all(feas):
        return ub
    k = max(i for i, f in enumerate(feas) if f)
    return brentq(phi, grid[k], grid[k + 1], xtol=xtol)


def oracle_planar(Q):
    """Brute-force reference for the planar optimum: (cost, q8).

    Independent route: the yaw angle theta is scanned on a grid and refined
    by scipy bounded scalar minimization; for each theta the in-plane
    translation part (q6, q7) comes from a least-squares solve on a square
    root of Q.
    """
    from scipy.optimize import minimize_scalar

    w, U = np.linalg.eigh(Q)
    R = np.sqrt(np.clip(w, 0.0, None))[:, None] * U.T  # Q = R^T R

    def point(theta):
        r = np.array([np.cos(0.5 * theta), np.sin(0.5 * theta)])
        s = np.linalg.lstsq(R[:, [5, 6]], -R[:, [0, 3]] @ r, rcond=None)[0]
        q = np.zeros(8)
        q[[0, 3]] = r
        q[[5, 6]] = s
        return q

    def cost(theta):
        q = point(theta)
        return q @ Q @ q

    grid = np.linspace(0.0, 2.0 * np.pi, 721)
    k = int(np.argmin([cost(t) for t in grid]))
    res = minimize_scalar(cost, bounds=(grid[max(k - 1, 0)], grid[min(k + 1, 720)]),
                          method="bounded", options={"xatol": 1e-12})
    return cost(res.x), point(res.x)


def planar_acc(rig):
    return accumulate_pairs(rig.pairs, mode=ConstraintMode.PLANAR,
                            align_a=plane_alignment_dq(rig.plane_a),
                            align_b=plane_alignment_dq(rig.plane_b))


def in_plane_translation_stream(n=12):
    # rotation-free motions in the ground plane: the calibration's in-plane
    # translation is unobservable
    steps = [DualQuat.from_translation([1.0, 0.2 * (i % 3), 0.0]) for i in range(n)]
    return [MotionPair(q_a=s, q_b=s, timestamp=0.1 * (i + 1))
            for i, s in enumerate(steps)]


FLAT_GROUND = GroundPlane(normal=[0.0, 0.0, 1.0], distance=1.0)


@st.composite
def dual_costs(draw):
    """A random positive definite cost or a simulated calibration cost,
    noise-free (dual optimum 0) or noisy."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return random_cost(seed)
    noise = draw(st.sampled_from([0.0, 0.01, 0.05, 0.1]))
    pairs, _ = make_dataset(seed=seed, n_pairs=draw(st.integers(2, 60)),
                            noise=noise)
    return accumulate_pairs(pairs).normalized_q


def kinked_cost(k):
    """Q with diagonal blocks A = diag(2, 2, 4, 4), B = diag(1 + k, k - 1,
    0, 0) and C = I: S(lam_2) is diagonal, and phi = min(2 - (lam_2 + k +
    1)^2, 2 - (lam_2 + k - 1)^2, 4 - lam_2^2) peaks at lam_2 = -k, where
    the two smallest eigenvalues tie at 1 and the slope jumps from 2 to -2."""
    Q = np.diag([2.0, 2.0, 4.0, 4.0, 1.0, 1.0, 1.0, 1.0])
    Q[[0, 1], [4, 5]] = Q[[4, 5], [0, 1]] = [1.0 + k, k - 1.0]
    return Q


class TestSolveDual:
    @settings(max_examples=50, deadline=None)
    @given(Q=dual_costs())
    def test_lambda1_matches_brute_force_oracle_property(self, Q):
        lam = solve_dual(Q)
        assert abs(lam[0] - oracle_dual_lambda1(Q)) < 1e-6

    @pytest.mark.parametrize("k,start", [(0.25, 0.0), (0.25, -0.25),
                                         (0.25, 3.0), (-0.6, -5.0),
                                         (-0.6, 0.6)])
    def test_kink_at_the_maximizer(self, k, start):
        # the search bisects across the slope's jump (a start at -0.25 sits
        # on the tie, where the curvature is undefined) and must reach the
        # scan's maximum without a RuntimeWarning
        Q = kinked_cost(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = solve_dual(Q, start)
        assert abs(lam[0] - oracle_dual_lambda1(Q)) < 1e-6
        assert abs(lam[0] - 1.0) < 1e-9
        assert abs(lam[1] + k) < 1e-9

    def test_zero_cost_matrix(self):
        lam = solve_dual(np.zeros((8, 8)))
        assert np.allclose(lam, [0.0, 0.0], atol=1e-9)

    def test_noise_free_dual_value_is_zero(self):
        pairs, _ = make_dataset(seed=21, n_pairs=10)
        Q = accumulate_pairs(pairs).normalized_q
        lam = solve_dual(Q)
        assert abs(lam[0]) < 1e-9
        assert np.linalg.eigvalsh(assemble_Z(Q, lam))[0] >= -1e-9

    @pytest.mark.parametrize("seed,noise,n", [
        (31, 0.05, 50), (32, 0.1, 80), (33, 0.02, 30), (34, 0.08, 120),
        *[(seed, 0.0, 8) for seed in range(10)]])
    def test_matches_brute_force_oracle(self, seed, noise, n):
        pairs, _ = make_dataset(seed=seed, n_pairs=n, noise=noise)
        Q = accumulate_pairs(pairs).normalized_q
        lam = solve_dual(Q)
        assert abs(lam[0] - oracle_dual_lambda1(Q)) < 1e-6

    def test_feasibility_of_returned_multipliers(self):
        pairs, _ = make_dataset(seed=35, n_pairs=60, noise=0.1)
        Q = accumulate_pairs(pairs).normalized_q
        lam = solve_dual(Q)
        Z = assemble_Z(Q, lam)
        min_eig = np.linalg.eigvalsh(Z)[0]
        assert min_eig >= -1e-9 * (1 + np.linalg.norm(Z))

    @pytest.mark.parametrize("seed", [23, 5, 888])
    def test_bound_correction_reaches_rounding_level(self, seed):
        # unobservable planar data in 3D mode, where the dual search ends
        # with Z's smallest eigenvalue near -1e-12 and the null vector has a
        # large dual part; lowering lam_1 must lift it to rounding level
        pairs = planar_rig(seed=seed, noise_level=0.001).pairs
        Q = accumulate_pairs(pairs).normalized_q
        lam = solve_dual(Q)
        min_eig = np.linalg.eigvalsh(assemble_Z(Q, lam))[0]
        assert min_eig >= -1e-15 * (1 + np.linalg.norm(Q, ord="fro"))

    def test_eigendecomposition_count_is_pinned(self, monkeypatch):
        # a whole solve_global in one pass: one 4x4 eigh of the dual block,
        # one 4x4 eigh per slope evaluation of the Newton search (the bound
        # reuses the last one), one 8x8 eigh of Z that gives the bound, the
        # estimate and the verdict, and the verdict's eigh of the null
        # space's real parts; no eigvalsh.  The pin is the maximum measured
        # over these 40 datasets
        # (12 with a bracketing regula falsi search, 16 when the primal
        # recovery also decomposed C, S and Z again)
        calls = [0]
        for name in ("eigh", "eigvalsh"):
            kernel = getattr(np.linalg, name)

            def counted(*args, _kernel=kernel, **kwargs):
                calls[0] += 1
                return _kernel(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        counts = []
        for seed in range(1000, 1040):
            pairs, _ = make_dataset(seed=seed, n_pairs=(5, 30, 60)[seed % 3],
                                    noise=(0.0, 0.01, 0.05, 0.1)[seed % 4])
            acc = accumulate_pairs(pairs)
            calls[0] = 0
            solve_global(acc)
            counts.append(calls[0])
        assert max(counts) <= 8

    @pytest.mark.parametrize("factor", [0.5, 1.5])
    def test_warm_start_returns_the_cold_solution(self, factor):
        # a search started away from the optimal lam_2 ends at the same
        # root to the search's 1e-12 tolerance (on a 5-pair set a lam_2
        # shift of 1.4e-13 moves q_hat by 1.0e-9)
        for seed in range(1000, 1040):
            pairs, _ = make_dataset(seed=seed, n_pairs=(5, 30, 60)[seed % 3],
                                    noise=(0.0, 0.01, 0.05, 0.1)[seed % 4])
            acc = accumulate_pairs(pairs)
            cold = solve_global(acc)
            warm = solve_global(acc, lam2_start=factor * cold.lam[1])
            assert ((warm.is_global, warm.null_dim, warm.degenerate,
                     warm.diagnostic) == (cold.is_global, cold.null_dim,
                                          cold.degenerate, cold.diagnostic))
            assert np.max(np.abs(warm.q_hat.vec() - cold.q_hat.vec())) <= 1e-9


class TestRecoverPrimal:
    def test_diagonal_gap_case(self):
        Q = np.diag([0.0] + [1.0] * 7)
        q8, null_dim = recover_primal(Q, solve_dual(Q))
        assert null_dim == 1
        assert np.allclose(q8, [1, 0, 0, 0, 0, 0, 0, 0], atol=1e-12)

    def test_noise_free_recovery(self):
        pairs, q_t = make_dataset(seed=22, n_pairs=8)
        Q = accumulate_pairs(pairs).normalized_q
        lam = solve_dual(Q)
        q8, null_dim = recover_primal(Q, lam)
        assert null_dim == 2  # truth plus the structural pure-dual direction
        err = calib_error(type(q_t).from_vec(q8), q_t)
        assert err.eps_r < 1e-6
        assert err.eps_t < 1e-6
        assert np.max(np.abs(eval_g(q8, ConstraintMode.FULL_3D))) < 1e-6

    def test_parallel_axes_raise_non_unique(self, rng):
        # planar body motion without planar constraints is unobservable
        rig = planar_rig(n_steps=30, seed=23)
        acc = accumulate_pairs(rig.pairs)  # full-3D accumulation
        with pytest.raises(NonUniqueSolution) as exc_info:
            solve_global(acc)
        assert exc_info.value.basis is not None
        assert exc_info.value.null_dim >= 3


class TestSolveGlobal:
    def test_empty_accumulator(self):
        with pytest.raises(EmptyData):
            solve_global(CostAccumulator())

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1e-6])
    def test_bad_gap_threshold(self, threshold):
        pairs, _ = make_dataset(seed=24, n_pairs=5)
        with pytest.raises(ValueError, match="gap threshold"):
            solve_global(accumulate_pairs(pairs), threshold)

    def test_noise_free_two_pairs(self):
        pairs, q_t = make_dataset(seed=24, n_pairs=2)
        sol = solve_global(accumulate_pairs(pairs))
        assert sol.gap < 1e-10
        assert sol.gap >= -1e-9
        assert sol.is_global
        assert sol.provenance == "global"
        err = calib_error(sol.q_hat, q_t)
        assert err.eps_r < 1e-6 and err.eps_t < 1e-6

    def test_planar_mode_noise_free(self):
        rig = planar_rig(n_steps=40, seed=25)
        g_a = plane_alignment_dq(rig.plane_a)
        g_b = plane_alignment_dq(rig.plane_b)
        acc = accumulate_pairs(rig.pairs, mode=ConstraintMode.PLANAR,
                               align_a=g_a, align_b=g_b)
        sol = solve_global(acc)
        assert sol.is_global
        q_tp = (g_a * rig.true_calib * g_b.conjugate()).canonicalized()
        err = calib_error(sol.q_hat, q_tp)
        assert err.eps_r < 1e-6 and err.eps_t < 1e-6

    def test_weak_duality_against_local_solutions(self, rng):
        for seed in (41, 42, 43):
            pairs, _ = make_dataset(seed=seed, n_pairs=50, noise=0.1)
            acc = accumulate_pairs(pairs)
            sol = solve_global(acc)
            local = solve_local(acc.normalized_q, ConstraintMode.FULL_3D,
                                random_unit_dq(rng).vec())
            assert sol.dual_value <= local.cost + 1e-9

    def test_certificate_soundness_by_sampling(self, rng):
        pairs, _ = make_dataset(seed=44, n_pairs=80, noise=0.1)
        acc = accumulate_pairs(pairs)
        sol = solve_global(acc)
        assert sol.is_global
        Q = acc.normalized_q
        best = np.inf
        for _ in range(10_000):
            v = random_unit_dq(rng, max_translation=2.0).vec()
            best = min(best, v @ Q @ v)
        assert best >= sol.primal_cost - sol.gap - 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_bound_is_sound_on_study_datasets(self, seed):
        pairs, _ = make_study_dataset(seed=seed)
        acc = accumulate_pairs(pairs)
        sol = solve_global(acc)
        Q = acc.normalized_q
        assert sol.gap >= -1e-12
        min_eig = np.linalg.eigvalsh(assemble_Z(Q, sol.lam))[0]
        assert min_eig >= -1e-12 * (1 + np.linalg.norm(Q, ord="fro"))

    def test_error_decreases_with_more_data(self):
        errs = []
        for n in (20, 200):
            pairs, q_t = make_dataset(seed=45, n_pairs=n, noise=0.1)
            sol = solve_global(accumulate_pairs(pairs))
            errs.append(calib_error(sol.q_hat, q_t).eps_t)
        assert errs[1] < errs[0]

    def test_gap_nonnegative_within_tolerance(self):
        for seed in (46, 47):
            pairs, _ = make_dataset(seed=seed, n_pairs=60, noise=0.05)
            sol = solve_global(accumulate_pairs(pairs))
            assert sol.gap >= -1e-9


class TestRotationExact:
    # exact rotations make C, the dual block of Q, singular along the true
    # rotation; Q >= 0 then leaves lam_2 = 0 as the only admissible value
    @pytest.mark.parametrize("seed", range(12))
    def test_certified_at_the_best_local_cost(self, seed):
        pairs, _ = simulate_pairs(SimConfig(n_steps=40, noise_level=(0.05, 0.0),
                                            seed=seed))
        acc = accumulate_pairs(pairs)
        Q = acc.normalized_q
        sol = solve_global(acc)
        assert sol.is_global
        assert sol.lam[1] == 0.0
        min_eig = np.linalg.eigvalsh(assemble_Z(Q, sol.lam))[0]
        assert min_eig >= -1e-15 * (1 + np.linalg.norm(Q, ord="fro"))
        rng = np.random.default_rng(seed)
        best = min(solve_local(Q, ConstraintMode.FULL_3D,
                               random_unit_dq(rng).vec()).cost
                   for _ in range(30))
        assert sol.primal_cost <= best + 1e-12


class TestPlanar:
    @pytest.mark.parametrize("i", range(24))
    def test_matches_yaw_scan_oracle(self, i):
        rig = planar_rig(n_steps=80, seed=300 + i, noise_level=0.01 * (i % 6))
        acc = planar_acc(rig)
        sol = solve_global(acc)
        assert sol.is_global
        ref_cost, ref_q = oracle_planar(acc.normalized_q)
        assert abs(sol.primal_cost - ref_cost) < 1e-9
        assert abs(sol.dual_value - ref_cost) < 1e-9
        err = calib_error(sol.q_hat, DualQuat.from_vec(ref_q))
        assert err.eps_r < 1e-6 and err.eps_t < 1e-6

    def test_certificate_soundness_by_sampling(self, rng):
        rig = planar_rig(n_steps=80, seed=44, noise_level=0.1)
        acc = planar_acc(rig)
        sol = solve_global(acc)
        assert sol.is_global
        Q = acc.normalized_q
        best = np.inf
        for _ in range(10_000):
            t = rng.uniform(-2.0, 2.0, size=2)
            v = DualQuat.from_rot_trans([0, 0, 1], rng.uniform(0, 2 * np.pi),
                                        [t[0], t[1], 0.0]).vec()
            best = min(best, v @ Q @ v)
        assert best >= sol.primal_cost - sol.gap - 1e-8

    def test_rotation_free_stream_raises_non_unique(self):
        align = plane_alignment_dq(FLAT_GROUND)
        acc = accumulate_pairs(in_plane_translation_stream(),
                               mode=ConstraintMode.PLANAR,
                               align_a=align, align_b=align)
        with pytest.raises(NonUniqueSolution) as exc_info:
            solve_global(acc)
        basis = exc_info.value.basis
        assert basis.shape[0] == 8 and basis.shape[1] >= 1
        assert exc_info.value.null_dim == basis.shape[1]
