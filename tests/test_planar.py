import tracemalloc

import numpy as np
import pytest

from dqcalib.dualquat import DualQuat, dq_mul_rows
from dqcalib.errors import DegenerateInput, NotUnit
from dqcalib.io import PairArrays
from dqcalib.planar import (INLIER_THRESHOLD, RANSAC_ITERATIONS, GroundPlane,
                            _hypotheses, _inlier_counts, _minimal_samples,
                            fit_ground_plane, lift_calibration,
                            plane_alignment_dq, project_motion,
                            transform_plane)
from dqcalib.sim import planar_rig, random_unit_dq

EZ = np.array([0.0, 0.0, 1.0])


def sample_plane_points(plane, rng, n=100, extent=5.0):
    """Points on the plane n.x + d = 0."""
    n_vec = plane.normal
    basis = np.linalg.svd(np.outer(n_vec, n_vec) - np.eye(3))[0][:, :2]
    coords = rng.uniform(-extent, extent, (n, 2))
    origin = -plane.distance * n_vec
    return origin + coords @ basis.T


class TestAlignment:
    def test_already_aligned_plane_gives_identity(self):
        q = plane_alignment_dq(GroundPlane(normal=EZ, distance=0.0))
        assert q.is_close(DualQuat.identity(), atol=1e-15)

    def test_offset_plane_gives_pure_translation(self):
        q = plane_alignment_dq(GroundPlane(normal=EZ, distance=1.5))
        assert np.allclose(q.real, [1, 0, 0, 0])
        assert np.allclose(q.translation(), [0, 0, 1.5])

    def test_vertical_plane_mapped_onto_xy(self, rng):
        plane = GroundPlane(normal=np.array([1.0, 0.0, 0.0]), distance=0.0)
        q = plane_alignment_dq(plane)
        pts = sample_plane_points(plane, rng)
        mapped = np.array([q.transform_point(p) for p in pts])
        assert np.max(np.abs(mapped[:, 2])) < 1e-9

    def test_random_planes_mapped_onto_xy(self, rng):
        for _ in range(20):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            plane = GroundPlane(normal=n, distance=rng.uniform(0, 3))
            q = plane_alignment_dq(plane)
            pts = sample_plane_points(plane, rng, n=25)
            mapped = np.array([q.transform_point(p) for p in pts])
            assert np.max(np.abs(mapped[:, 2])) < 1e-9

    def test_antipodal_normal_handled(self, rng):
        plane = GroundPlane(normal=-EZ, distance=2.0)
        q = plane_alignment_dq(plane)
        pts = sample_plane_points(plane, rng, n=10)
        mapped = np.array([q.transform_point(p) for p in pts])
        assert np.max(np.abs(mapped[:, 2])) < 1e-9


def random_rows(rng, n=20):
    return np.array([random_unit_dq(rng).vec() for _ in range(n)])


def close_up_to_sign(a, b, atol):
    return np.all(np.minimum(np.abs(a - b).max(axis=1),
                             np.abs(a + b).max(axis=1)) <= atol)


class TestProjectMotion:
    def test_identity_alignment_is_noop(self, rng):
        q = random_rows(rng)
        assert close_up_to_sign(project_motion(q, DualQuat.identity()), q, 1e-15)

    def test_planar_motion_in_tilted_plane_projects_cleanly(self, rng):
        from dqcalib.constraints import ConstraintMode, eval_g

        rig = planar_rig(n_steps=20, seed=2)
        rows = PairArrays.from_pairs(rig.pairs)
        for q, plane in ((rows.q_a, rig.plane_a), (rows.q_b, rig.plane_b)):
            for proj in project_motion(q, plane_alignment_dq(plane)):
                assert np.max(np.abs(eval_g(proj, ConstraintMode.PLANAR))) < 1e-9

    def test_project_then_inverse_recovers(self, rng):
        q = random_rows(rng)
        g = random_unit_dq(rng)
        back = project_motion(project_motion(q, g), g.conjugate())
        assert close_up_to_sign(back, q, 1e-12)

    def test_conjugation_is_group_homomorphism(self, rng):
        p, q = random_rows(rng), random_rows(rng)
        g = random_unit_dq(rng)
        lhs = project_motion(dq_mul_rows(p, q), g)
        rhs = dq_mul_rows(project_motion(p, g), project_motion(q, g))
        assert close_up_to_sign(lhs, rhs, 1e-10)

    def test_non_unit_input_rejected(self, rng):
        q = random_rows(rng, n=3)
        q[1, 0] += 1e-6
        with pytest.raises(NotUnit) as err:
            project_motion(q, random_unit_dq(rng))
        assert err.value.row == 1
        with pytest.raises(NotUnit):
            project_motion(q[:1], DualQuat.from_vec(q[1]))


class TestLiftCalibration:
    def test_identity_planar_with_equal_alignments(self, rng):
        g = random_unit_dq(rng)
        lifted = lift_calibration(DualQuat.identity(), g, g)
        assert lifted.is_close(DualQuat.identity(), atol=1e-12)

    def test_identity_planes_pass_through(self, rng):
        q_tp = random_unit_dq(rng)
        e = DualQuat.identity()
        assert lift_calibration(q_tp, e, e).is_close(q_tp, atol=1e-15)

    def test_project_lift_round_trip(self, rng):
        rig = planar_rig(n_steps=10, seed=3)
        g_a = plane_alignment_dq(rig.plane_a)
        g_b = plane_alignment_dq(rig.plane_b)
        q_tp = (g_a * rig.true_calib * g_b.conjugate()).canonicalized()
        lifted = lift_calibration(q_tp, g_a, g_b)
        assert lifted.is_close(rig.true_calib, atol=1e-12)

    def test_projected_calibration_is_planar(self, rng):
        from dqcalib.constraints import ConstraintMode, eval_g

        rig = planar_rig(n_steps=10, seed=6)
        g_a = plane_alignment_dq(rig.plane_a)
        g_b = plane_alignment_dq(rig.plane_b)
        q_tp = (g_a * rig.true_calib * g_b.conjugate()).canonicalized()
        assert np.max(np.abs(eval_g(q_tp.vec(), ConstraintMode.PLANAR))) < 1e-9


class TestTransformPlane:
    def test_identity_frame(self):
        plane = GroundPlane(normal=EZ, distance=1.0)
        out = transform_plane(plane, DualQuat.identity())
        assert np.allclose(out.normal, plane.normal)
        assert out.distance == plane.distance

    def test_points_stay_on_plane(self, rng):
        plane = GroundPlane(normal=EZ, distance=1.3)
        frame = random_unit_dq(rng)
        moved = transform_plane(plane, frame)
        pts = sample_plane_points(plane, rng, n=20)
        # map plane points into the new frame: x_new = frame^-1(x_old)
        inv = frame.conjugate()
        for p in pts:
            assert abs(moved.signed_distance(inv.transform_point(p))) < 1e-9


class TestRansac:
    def test_exact_horizontal_plane(self, rng):
        pts = np.column_stack([rng.uniform(-5, 5, 100),
                               rng.uniform(-5, 5, 100),
                               np.full(100, 2.0)])
        plane = fit_ground_plane(pts, 0)
        assert np.allclose(np.abs(plane.normal), EZ, atol=1e-9)
        assert abs(plane.distance - 2.0) < 1e-9
        assert np.max(np.abs(plane.signed_distance(pts))) < 1e-9

    def test_outlier_contamination(self, rng):
        n_in, n_out = 140, 60
        true_normal = np.array([0.1, -0.2, 1.0])
        true_normal /= np.linalg.norm(true_normal)
        plane = GroundPlane(normal=true_normal, distance=1.2)
        inliers = sample_plane_points(plane, rng, n=n_in)
        inliers += rng.normal(0, 0.005, inliers.shape)
        outliers = rng.uniform(-5, 5, (n_out, 3))
        pts = np.vstack([inliers, outliers])
        fit = fit_ground_plane(pts, 1)
        angle = np.arccos(np.clip(abs(fit.normal @ true_normal), -1, 1))
        assert np.degrees(angle) < 0.5

    def test_three_points_exact(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 1]])
        plane = fit_ground_plane(pts, 0)
        assert np.max(np.abs(plane.signed_distance(pts))) < 1e-12

    def test_collinear_points_rejected(self):
        pts = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInput):
            fit_ground_plane(pts, 0)

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateInput):
            fit_ground_plane(np.zeros((2, 3)), 0)

    def test_deterministic_by_seed(self, rng):
        pts = np.vstack([sample_plane_points(
            GroundPlane(normal=EZ, distance=1.0), rng, n=60),
            rng.uniform(-3, 3, (20, 3))])
        a = fit_ground_plane(pts, 42)
        b = fit_ground_plane(pts, 42)
        assert np.array_equal(a.normal, b.normal)
        assert a.distance == b.distance


def test_fitted_plane_feeds_alignment(rng):
    # fit from a synthetic cloud, then check alignment maps the cloud to z=0
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    plane = GroundPlane(normal=n, distance=1.7)
    pts = sample_plane_points(plane, rng, n=80)
    fit = fit_ground_plane(pts, 3)
    q = plane_alignment_dq(fit)
    mapped = np.array([q.transform_point(p) for p in pts])
    assert np.max(np.abs(mapped[:, 2])) < 1e-8


def oracle_fit_ground_plane(points, seed):
    """The per-hypothesis loop the batched kernel replaced, kept as its
    oracle and scoring the kernel's samples.

    Returns the plane, the inlier count of every non-degenerate sample and
    the position of the chosen one among them.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n_pts = points.shape[0]
    if n_pts < 3 or points.shape[1] != 3:
        raise DegenerateInput("plane fitting needs at least 3 xyz points")
    centered = points - points.mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-9) < 2:
        raise DegenerateInput("all points are collinear")
    samples = _minimal_samples(n_pts, RANSAC_ITERATIONS,
                               np.random.default_rng(seed))
    counts, best, best_mask = [], None, None
    for idx in samples:
        p0, p1, p2 = points[idx]
        cross = np.cross(p1 - p0, p2 - p0)
        norm = np.linalg.norm(cross)
        if norm < 1e-12:
            continue
        normal = cross / norm
        offset = -float(normal @ p0)
        dist = np.abs(points @ normal + offset)
        mask = dist <= INLIER_THRESHOLD
        counts.append(int(mask.sum()))
        if best is None or counts[-1] > counts[best]:
            best, best_mask = len(counts) - 1, mask
    if best is None:
        raise DegenerateInput("no non-collinear minimal sample found")
    inliers = points[best_mask]
    centroid = inliers.mean(axis=0)
    _, _, vt = np.linalg.svd(inliers - centroid, full_matrices=False)
    normal = vt[-1]
    distance = -float(normal @ centroid)
    if distance < 0:
        normal, distance = -normal, -distance
    return GroundPlane(normal=normal, distance=distance), counts, best


def _contaminated_cloud(rng, n_in=140, n_out=60, noise=0.005):
    normal = np.array([0.1, -0.2, 1.0])
    plane = GroundPlane(normal=normal / np.linalg.norm(normal), distance=1.2)
    inliers = sample_plane_points(plane, rng, n=n_in)
    inliers += rng.normal(0, noise, inliers.shape)
    return np.vstack([inliers, rng.uniform(-5, 5, (n_out, 3))])


def _near_degenerate_cloud(rng):
    """Points on the x axis but two lifted 1e-6 off it: most samples are
    exactly collinear and dropped."""
    pts = np.zeros((50, 3))
    pts[:, 0] = rng.uniform(0, 1, 50)
    pts[[7, 31], 1] = 1e-6
    return pts


def _two_plane_cloud(rng):
    """Two parallel planes with 30 points each: samples on either one tie
    on the highest count, so the tie rule decides the plane."""
    return np.vstack([sample_plane_points(GroundPlane(normal=EZ, distance=d),
                                          rng, n=30) for d in (1.0, 2.0)])


CLOUDS = {
    "clean": lambda rng: sample_plane_points(
        GroundPlane(normal=EZ, distance=1.3), rng, n=60),
    "two_planes": _two_plane_cloud,
    "contaminated": _contaminated_cloud,
    "heavily_contaminated": lambda rng: _contaminated_cloud(rng, 40, 160, 0.02),
    "near_degenerate": _near_degenerate_cloud,
}


class TestRansacKernel:
    @pytest.mark.parametrize("cloud", sorted(CLOUDS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_oracle(self, cloud, seed):
        pts = CLOUDS[cloud](np.random.default_rng(seed))
        plane, counts, best = oracle_fit_ground_plane(pts, seed)
        samples = _minimal_samples(len(pts), RANSAC_ITERATIONS,
                                   np.random.default_rng(seed))
        normals, offsets = _hypotheses(pts, samples)
        got = _inlier_counts(pts, normals, offsets, INLIER_THRESHOLD)
        assert got.tolist() == counts
        assert int(np.argmax(got)) == best
        fit = fit_ground_plane(pts, seed)
        assert np.array_equal(fit.normal, plane.normal)
        assert fit.distance == plane.distance

    def test_tie_goes_to_the_first_sample(self):
        split = 0
        for seed in range(10):
            pts = _two_plane_cloud(np.random.default_rng(seed))
            samples = _minimal_samples(len(pts), RANSAC_ITERATIONS,
                                       np.random.default_rng(seed))
            normals, offsets = _hypotheses(pts, samples)
            counts = _inlier_counts(pts, normals, offsets, INLIER_THRESHOLD)
            tied = np.abs(offsets[counts == counts.max()])
            split += tied[0] != tied[-1]
            fit = fit_ground_plane(pts, seed)
            oracle = oracle_fit_ground_plane(pts, seed)[0]
            assert fit.distance == oracle.distance
            assert abs(fit.distance - tied[0]) < 1e-12
        # the first and the last tied sample lie on different planes
        assert split > 0

    def test_near_degenerate_cloud_drops_collinear_samples(self):
        pts = _near_degenerate_cloud(np.random.default_rng(0))
        samples = _minimal_samples(len(pts), 200, np.random.default_rng(0))
        normals, _ = _hypotheses(pts, samples)
        assert 0 < len(normals) < 200

    def test_collinear_cloud_has_no_hypothesis(self):
        pts = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
        samples = _minimal_samples(len(pts), 200, np.random.default_rng(0))
        normals, offsets = _hypotheses(pts, samples)
        assert normals.shape == (0, 3) and offsets.shape == (0,)
        for fit in (fit_ground_plane, oracle_fit_ground_plane):
            with pytest.raises(DegenerateInput):
                fit(pts, 0)

    def test_counts_do_not_depend_on_block_size(self, monkeypatch):
        pts = _contaminated_cloud(np.random.default_rng(5), 700, 300)
        samples = _minimal_samples(len(pts), 200, np.random.default_rng(5))
        normals, offsets = _hypotheses(pts, samples)
        whole = _inlier_counts(pts, normals, offsets, 0.05)
        monkeypatch.setattr("dqcalib.planar.SCORE_BLOCK_ROWS", 7)
        assert np.array_equal(_inlier_counts(pts, normals, offsets, 0.05), whole)

    @pytest.mark.parametrize("n_pts", [4, 5, 60, 10**5])
    def test_samples_are_distinct_in_range_and_seeded(self, n_pts):
        samples = _minimal_samples(n_pts, 5000, np.random.default_rng(n_pts))
        assert samples.shape == (5000, 3)
        assert samples.min() >= 0 and samples.max() < n_pts
        s = np.sort(samples, axis=1)
        assert np.all(s[:, 0] < s[:, 1]) and np.all(s[:, 1] < s[:, 2])
        again = _minimal_samples(n_pts, 5000, np.random.default_rng(n_pts))
        assert np.array_equal(samples, again)
        other = _minimal_samples(n_pts, 5000, np.random.default_rng(n_pts + 1))
        assert not np.array_equal(samples, other)

    def test_samples_are_uniform_over_ordered_triples(self):
        samples = _minimal_samples(4, 24000, np.random.default_rng(9))
        _, freq = np.unique(samples, axis=0, return_counts=True)
        # 24 ordered triples, 1000 expected each; sd about 31
        assert len(freq) == 24
        assert freq.min() > 850 and freq.max() < 1150

    def test_three_point_cloud_has_its_single_sample(self):
        samples = _minimal_samples(3, 200, np.random.default_rng(0))
        assert samples.tolist() == [[0, 1, 2]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad, rng):
        pts = sample_plane_points(GroundPlane(normal=EZ, distance=1.0), rng, n=20)
        pts[4, 1] = bad
        with pytest.raises(DegenerateInput):
            fit_ground_plane(pts, 0)

    def test_peak_memory_not_above_loop(self):
        rng = np.random.default_rng(11)
        pts = _contaminated_cloud(rng, 900_000, 100_000)
        peaks = []
        for fit in (oracle_fit_ground_plane, fit_ground_plane):
            tracemalloc.start()
            fit(pts, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        loop_peak, kernel_peak = peaks
        assert kernel_peak <= loop_peak
