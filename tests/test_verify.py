import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqcalib.constraints import (NULL_TOL, ConstraintMode, assemble_Z,
                                 fit_multipliers, solve_planar)
from dqcalib.cost import CostAccumulator
from dqcalib.dualquat import DualQuat
from dqcalib.errors import InfeasiblePoint
from dqcalib.global_solver import dual_bound, nullspace_verdict, solve_global
from dqcalib.local_solver import solve_local
from dqcalib.planar import plane_alignment_dq
from dqcalib.sim import (SimConfig, planar_rig, random_unit_dq, simulate_pairs,
                         simulate_rows)
from dqcalib.verify import certify

from conftest import (ILL_CONDITIONED_DRAWS, accumulate_pairs, forward_tol,
                      make_dataset, make_study_dataset, near_feasible_points,
                      normal_matrix_cond, random_cost, use_oracle_kernels)


def yaw_perturbed(q, deg):
    delta = DualQuat.from_rot_trans([0, 0, 1], np.deg2rad(deg), [0, 0, 0])
    return (q * delta).canonicalized()


def translation_perturbed(q, meters, direction):
    direction = np.asarray(direction, float)
    direction = direction / np.linalg.norm(direction)
    return (q * DualQuat.from_translation(meters * direction)).canonicalized()


class TestCertify:
    def test_noise_free_truth_certifies(self):
        pairs, q_t = make_dataset(seed=61, n_pairs=20)
        Q = accumulate_pairs(pairs).normalized_q
        cert = certify(Q, q_t, ConstraintMode.FULL_3D)
        assert cert.gap < 1e-10
        assert cert.is_global

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1e-6])
    def test_bad_gap_threshold(self, threshold):
        pairs, q_t = make_dataset(seed=61, n_pairs=20)
        Q = accumulate_pairs(pairs).normalized_q
        with pytest.raises(ValueError, match="gap threshold"):
            certify(Q, q_t, ConstraintMode.FULL_3D, threshold)

    def test_zero_cost_certifies_anything_feasible(self, rng):
        Q = CostAccumulator().normalized_q
        q = random_unit_dq(rng)
        cert = certify(Q, q, ConstraintMode.FULL_3D)
        assert cert.gap == 0.0
        assert cert.is_global

    def test_small_yaw_perturbation_flips_certificate(self):
        # vehicle-scale rig: 0.1 degree of yaw moves the cost well past the
        # gap threshold
        pairs, _ = make_study_dataset(seed=62, n_pairs=100, noise=0.05)
        acc = accumulate_pairs(pairs)
        sol = solve_global(acc)
        assert certify(acc.normalized_q, sol.q_hat, ConstraintMode.FULL_3D).is_global
        bad = yaw_perturbed(sol.q_hat, 0.1)
        cert = certify(acc.normalized_q, bad, ConstraintMode.FULL_3D)
        assert not cert.is_global

    def test_small_translation_perturbation_flips_certificate(self):
        pairs, _ = make_study_dataset(seed=63, n_pairs=100, noise=0.05)
        acc = accumulate_pairs(pairs)
        sol = solve_global(acc)
        bad = translation_perturbed(sol.q_hat, 0.1, [1, 1, 1])
        assert not certify(acc.normalized_q, bad, ConstraintMode.FULL_3D).is_global

    def test_infeasible_candidate_rejected(self, rng):
        pairs, _ = make_dataset(seed=64, n_pairs=10)
        Q = accumulate_pairs(pairs).normalized_q
        v = random_unit_dq(rng).vec()
        v[0] += 0.01  # break normalization beyond the feasibility tolerance
        with pytest.raises(InfeasiblePoint):
            certify(Q, v, ConstraintMode.FULL_3D)

    def test_monotone_falsification(self, rng):
        # the falsification measure |gap| grows with the geodesic distance
        # from the optimum (the gap is nonnegative up to rounding, so |gap|
        # only guards its rounding-level values at the smallest distances);
        # checked over the small-perturbation band where falsification matters
        pairs, _ = make_dataset(seed=65, n_pairs=120, noise=0.05)
        acc = accumulate_pairs(pairs)
        sol = solve_global(acc)
        Q = acc.normalized_q
        magnitudes = np.geomspace(1e-4, 0.1, 10)
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            tdir = rng.normal(size=3)
            tdir /= np.linalg.norm(tdir)
            gaps = []
            for m in magnitudes:
                delta = DualQuat.from_rot_trans(axis, m, 0.5 * m * tdir)
                cand = (sol.q_hat * delta).canonicalized()
                gaps.append(certify(Q, cand, ConstraintMode.FULL_3D).gap)
            measure = np.abs(gaps)
            assert np.all(np.diff(measure) >= -(1e-9 + 0.01 * measure[:-1]))

    def test_gap_independent_of_dataset_duplication(self, rng):
        pairs, _ = make_dataset(seed=66, n_pairs=40, noise=0.05)
        q = random_unit_dq(rng)
        cert1 = certify(accumulate_pairs(pairs).normalized_q, q,
                        ConstraintMode.FULL_3D)
        cert2 = certify(accumulate_pairs(pairs * 3).normalized_q, q,
                        ConstraintMode.FULL_3D)
        assert abs(cert1.gap - cert2.gap) < 1e-12

    def test_consistency_with_global_solver(self):
        for seed, noise in ((67, 0.0), (68, 0.05), (69, 0.1)):
            pairs, _ = make_dataset(seed=seed, n_pairs=60, noise=noise)
            acc = accumulate_pairs(pairs)
            sol = solve_global(acc)
            if sol.is_global:
                cert = certify(acc.normalized_q, sol.q_hat, ConstraintMode.FULL_3D)
                assert cert.is_global
                assert abs(cert.gap - sol.gap) < 1e-8

    def test_planar_mode_certification(self):
        rig = planar_rig(n_steps=50, seed=70, noise_level=0.05)
        g_a = plane_alignment_dq(rig.plane_a)
        g_b = plane_alignment_dq(rig.plane_b)
        acc = accumulate_pairs(rig.pairs, mode=ConstraintMode.PLANAR,
                               align_a=g_a, align_b=g_b)
        sol = solve_global(acc)
        cert = certify(acc.normalized_q, sol.q_hat, ConstraintMode.PLANAR)
        assert cert.is_global

    def test_planar_tilt_rejected_on_linear_scale(self):
        # a pure tilt of 1e-4 (about 0.01 degrees) is far outside feas_tol
        # even though its square is not
        rig = planar_rig(n_steps=20, seed=72)
        acc = accumulate_pairs(rig.pairs, mode=ConstraintMode.PLANAR,
                               align_a=plane_alignment_dq(rig.plane_a),
                               align_b=plane_alignment_dq(rig.plane_b))
        real = np.array([0.8, 1e-4, 0.0, 0.6])
        tilted = DualQuat(real / np.linalg.norm(real), np.zeros(4))
        with pytest.raises(InfeasiblePoint):
            certify(acc.normalized_q, tilted, ConstraintMode.PLANAR)

    def test_options_respected(self):
        pairs, _ = make_dataset(seed=71, n_pairs=60, noise=0.05)
        acc = accumulate_pairs(pairs)
        sol = solve_global(acc)
        Q = acc.normalized_q
        assert certify(Q, sol.q_hat, ConstraintMode.FULL_3D).is_global
        # a 0.1 degree yaw error fails the default threshold; a threshold
        # above its gap certifies it, and one at its gap does not
        bad = yaw_perturbed(sol.q_hat, 0.1)
        cert = certify(Q, bad, ConstraintMode.FULL_3D)
        assert not cert.is_global
        assert certify(Q, bad, ConstraintMode.FULL_3D, 2.0 * cert.gap).is_global
        assert not certify(Q, bad, ConstraintMode.FULL_3D, cert.gap).is_global

    def test_uncertified_candidate_has_no_verdict(self):
        # the truth of a noisy 50-pair set is well off its optimum (gap
        # 0.0056); the null space at the bound says nothing about it
        rows, truth = simulate_rows(SimConfig(n_steps=50, noise_level=0.05, seed=7))
        acc = CostAccumulator().add_batch(rows)
        cert = certify(acc.normalized_q, truth, ConstraintMode.FULL_3D)
        assert not cert.is_global and cert.gap > 1e-3
        assert (cert.null_dim, cert.degenerate, cert.diagnostic) == (None, False, None)
        rig = planar_rig(n_steps=60, seed=3, noise_level=0.05)
        g_a = plane_alignment_dq(rig.plane_a)
        g_b = plane_alignment_dq(rig.plane_b)
        acc = accumulate_pairs(rig.pairs, mode=ConstraintMode.PLANAR,
                               align_a=g_a, align_b=g_b)
        q_tp = (g_a * rig.true_calib * g_b.conjugate()).canonicalized()
        cert = certify(acc.normalized_q, q_tp, ConstraintMode.PLANAR)
        assert not cert.is_global
        assert (cert.null_dim, cert.degenerate, cert.diagnostic) == (None, False, None)


@functools.cache
def singular_dual_block_cost(i):
    """A normalized 3D cost whose dual block C is singular: exact
    rotations with translation noise (i < 4), noise-free pairs (i = 4, 5),
    or planar motion accumulated in 3D mode (i = 6, 7)."""
    if i < 4:
        pairs, _ = simulate_pairs(SimConfig(n_steps=40, seed=i,
                                            noise_level=(0.05, 0.0)))
    elif i < 6:
        pairs, _ = make_dataset(seed=i, n_pairs=20)
    else:
        pairs = planar_rig(n_steps=30, seed=i).pairs
    return accumulate_pairs(pairs).normalized_q


class TestSoundness:
    @settings(max_examples=200, deadline=None)
    @given(q=near_feasible_points(), seed=st.integers(0, 2**32 - 1),
           singular=st.one_of(st.none(), st.integers(0, 7)))
    def test_bound_is_dual_feasible(self, q, seed, singular):
        # whatever the candidate, the reported multipliers keep Z PSD up to
        # rounding, so lam_1 is a lower bound on the cost of every
        # feasible point; also when C is singular and the fitted lam_2 is
        # not admissible
        Q = random_cost(seed) if singular is None else (
            singular_dual_block_cost(singular))
        cert = certify(Q, q, ConstraintMode.FULL_3D)
        assert cert.lam[0] >= 0.0
        min_eig = np.linalg.eigvalsh(assemble_Z(Q, cert.lam))[0]
        assert min_eig >= -1e-15 * (1 + np.linalg.norm(Q, ord="fro"))


class TestClosedFormFit:
    @settings(max_examples=200, deadline=None)
    @given(q=near_feasible_points(), seed=st.integers(0, 2**32 - 1))
    @example(*ILL_CONDITIONED_DRAWS[0])
    @example(*ILL_CONDITIONED_DRAWS[1])
    def test_certificate_matches_lstsq_fit(self, q, seed):
        # the 2x2 normal equations give the SVD least-squares multipliers
        # at every point the feasibility tolerance admits, so the evidence
        # and the verdict are the oracle's, to the normal equations'
        # forward-error bound relative to the data's scale
        Q = random_cost(seed)
        cert = certify(Q, q, ConstraintMode.FULL_3D)
        with pytest.MonkeyPatch.context() as m:
            use_oracle_kernels(m)
            ref = certify(Q, q, ConstraintMode.FULL_3D)
        scale = np.linalg.norm(ref.lam) + np.linalg.norm(Q)
        kappa = normal_matrix_cond(q)
        assert np.linalg.norm(cert.lam - ref.lam) <= forward_tol(kappa, scale)
        assert (abs(cert.gap - ref.gap)
                <= forward_tol(kappa, scale + abs(ref.gap)))
        assert type(cert.gap) is float
        assert ((cert.is_global, cert.null_dim, cert.diagnostic)
                == (ref.is_global, ref.null_dim, ref.diagnostic))

    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 40])
    def test_one_null_threshold(self, n_pairs):
        # the certificate's null_dim and diagnostic are the degeneracy
        # verdict's on Z at the reduced-dual bound of the fitted lam_2, and
        # null_dim counts the eigenvalues below NULL_TOL * max(1, |trace Q|);
        # one pair is a continuum
        pairs, _ = make_dataset(seed=73, n_pairs=n_pairs, noise=0.05)
        Q = accumulate_pairs(pairs).normalized_q
        q8 = solve_local(Q, ConstraintMode.FULL_3D).q_hat.vec()
        cert = certify(Q, q8, ConstraintMode.FULL_3D)
        lam = dual_bound(Q, fit_multipliers(q8, Q @ q8)[1])[0]
        assert np.array_equal(cert.lam, lam if lam[0] > 0 else np.zeros(2))
        Z = assemble_Z(Q, lam)
        V, diagnostic = nullspace_verdict(Q, *np.linalg.eigh(Z))
        assert (cert.null_dim, cert.diagnostic) == (V.shape[1], diagnostic)
        thresh = NULL_TOL * max(1.0, abs(float(np.trace(Q))))
        assert cert.null_dim == int(np.sum(np.linalg.eigvalsh(Z) < thresh))
        assert (cert.diagnostic is not None) == (n_pairs == 1)

    def test_planar_degeneracy_comes_from_the_reduced_solve(self):
        from test_global_solver import FLAT_GROUND, in_plane_translation_stream

        g = plane_alignment_dq(FLAT_GROUND)
        acc = accumulate_pairs(in_plane_translation_stream(),
                               mode=ConstraintMode.PLANAR, align_a=g, align_b=g)
        Q = acc.normalized_q
        q8, _, degeneracy = solve_planar(Q)
        cert = certify(Q, q8, ConstraintMode.PLANAR)
        assert cert.null_dim == degeneracy.null_dim
        assert cert.diagnostic == str(degeneracy)
