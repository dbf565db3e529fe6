import numpy as np
import pytest

from dqcalib.constraints import ConstraintMode
from dqcalib.cost import MotionPair
from dqcalib.dualquat import DualQuat
from dqcalib.errors import NonMonotonicTime
from dqcalib.global_solver import solve_global
from dqcalib.metrics import calib_error
from dqcalib.online import OnlineCalibrator, OnlineConfig, replay
from dqcalib.planar import plane_alignment_dq
from dqcalib.sim import planar_rig, random_unit_dq
from dqcalib.verify import certify

from conftest import accumulate_pairs, make_dataset, use_oracle_kernels
from test_global_solver import FLAT_GROUND, in_plane_translation_stream


def planar_config(rig, **kw):
    return OnlineConfig(mode=ConstraintMode.PLANAR, plane_a=rig.plane_a,
                        plane_b=rig.plane_b, **kw)


class TestUpdate:
    def test_first_update_uses_global_solver(self):
        rig = planar_rig(n_steps=5, seed=80)
        calib = OnlineCalibrator(planar_config(rig))
        sol = calib.update(rig.pairs[0])
        assert sol.provenance == "global"
        # one pair leaves the yaw unobservable: flagged, not raised
        assert sol.degenerate

    def test_monotonic_time_enforced(self):
        rig = planar_rig(n_steps=5, seed=81)
        calib = OnlineCalibrator(planar_config(rig))
        calib.update(rig.pairs[1])
        with pytest.raises(NonMonotonicTime):
            calib.update(rig.pairs[0])

    def test_provenance_switches_after_window(self):
        rig = planar_rig(n_steps=40, seed=82, rate=10.0)
        sols = replay(rig.pairs, planar_config(rig, t_no_fail=1.0))
        provs = [s.provenance for s in sols]
        # exactly one switch from global to local on clean data
        switch = provs.index("local")
        assert all(p == "global" for p in provs[:switch])
        assert all(p == "local" for p in provs[switch:])
        times = [p.timestamp for p in rig.pairs]
        assert times[switch] - times[0] > 1.0

    def test_zero_window_goes_local_from_second_step(self):
        rig = planar_rig(n_steps=10, seed=83)
        sols = replay(rig.pairs, planar_config(rig, t_no_fail=0.0))
        assert sols[0].provenance == "global"
        assert all(s.provenance == "local" for s in sols[1:]
                   if s.is_global)

    def test_lifted_solution_matches_truth(self):
        rig = planar_rig(n_steps=50, seed=84)
        sols = replay(rig.pairs, planar_config(rig, t_no_fail=1.0))
        final = sols[-1]
        assert final.q_hat_planar is not None
        assert final.plane_derived == ("z", "roll", "pitch")
        err = calib_error(final.q_hat, rig.true_calib)
        assert err.eps_r < 1e-6
        assert err.eps_t < 1e-6

    def test_full_3d_mode_without_planes(self):
        pairs, q_t = make_dataset(seed=85, n_pairs=30)
        sols = replay(pairs, OnlineConfig(t_no_fail=0.5))
        final = sols[-1]
        assert final.q_hat_planar is None
        err = calib_error(final.q_hat, q_t)
        assert err.eps_r < 1e-6 and err.eps_t < 1e-6


class TestStreamInvariants:
    def test_no_uncertified_local_emissions(self):
        rig = planar_rig(n_steps=60, seed=86, noise_level=0.03)
        cfg = planar_config(rig, t_no_fail=1.0)
        sols = replay(rig.pairs, cfg)
        for s in sols:
            if s.provenance == "local":
                assert s.is_global
                assert s.gap < cfg.gap_threshold

    def test_emitted_certified_solutions_pass_independent_certify(self):
        rig = planar_rig(n_steps=40, seed=87, noise_level=0.02)
        cfg = planar_config(rig, t_no_fail=1.0)
        calib = OnlineCalibrator(cfg)
        g_a = plane_alignment_dq(rig.plane_a)
        g_b = plane_alignment_dq(rig.plane_b)
        for pair in rig.pairs:
            sol = calib.update(pair)
            if sol.is_global:
                q_planar = sol.q_hat_planar
                cert = certify(calib.acc.normalized_q, q_planar,
                               ConstraintMode.PLANAR, cfg.gap_threshold)
                assert cert.is_global

    def test_matches_batch_accumulation(self):
        rig = planar_rig(n_steps=30, seed=88, noise_level=0.05)
        cfg = planar_config(rig, t_no_fail=0.5)
        calib = OnlineCalibrator(cfg)
        for pair in rig.pairs:
            calib.update(pair)
        g_a = plane_alignment_dq(rig.plane_a)
        g_b = plane_alignment_dq(rig.plane_b)
        batch = accumulate_pairs(rig.pairs, mode=ConstraintMode.PLANAR,
                                 align_a=g_a, align_b=g_b)
        assert np.max(np.abs(calib.acc.normalized_q - batch.normalized_q)) < 1e-12

    def test_final_solution_equals_batch_solve(self):
        rig = planar_rig(n_steps=50, seed=89)
        sols = replay(rig.pairs, planar_config(rig, t_no_fail=1.0))
        batch = solve_global(_batch_acc(rig))
        err = calib_error(sols[-1].q_hat_planar, batch.q_hat)
        assert err.eps_r < 1e-6 and err.eps_t < 1e-6

    def test_pure_translation_stream_flagged_degenerate(self):
        step = DualQuat.from_translation([1.0, 0.2, 0.0])
        pairs = [MotionPair(q_a=step, q_b=step, timestamp=0.1 * (i + 1))
                 for i in range(12)]
        sols = replay(pairs, OnlineConfig(t_no_fail=0.3))
        assert all(s.degenerate for s in sols)
        assert all(not s.is_global or s.provenance == "local" for s in sols)

    def test_empty_stream(self):
        assert replay([], OnlineConfig()) == []

    def test_planar_rotation_free_stream_flagged_degenerate(self):
        cfg = OnlineConfig(mode=ConstraintMode.PLANAR, plane_a=FLAT_GROUND,
                           plane_b=FLAT_GROUND, t_no_fail=0.3)
        sols = replay(in_plane_translation_stream(), cfg)
        assert all(s.degenerate for s in sols)
        assert all("translation" in s.diagnostic for s in sols)

    def test_outlier_reopens_global_window(self, monkeypatch):
        # a heavily weighted conflicting pair jumps the optimum; a fast
        # solve that misses it (simulated by a 1-degree yaw error on that
        # step) must fail its certificate, stamp the error time, and hand
        # over to the global solver for the no-fail window
        import dataclasses

        import dqcalib.online

        real_solve_local = dqcalib.online.solve_local
        miss = [False]

        def solve_local(Q, mode, init=None):
            sol = real_solve_local(Q, mode, init)
            if not miss[0]:
                return sol
            delta = DualQuat.from_rot_trans([0, 0, 1], np.deg2rad(1.0), [0, 0, 0])
            q = (sol.q_hat * delta).canonicalized()
            return dataclasses.replace(sol, q_hat=q, cost=float(q.vec() @ Q @ q.vec()))

        monkeypatch.setattr(dqcalib.online, "solve_local", solve_local)
        rig = planar_rig(n_steps=60, seed=90, rate=10.0)
        other = planar_rig(n_steps=60, seed=91)
        calib = OnlineCalibrator(planar_config(rig, t_no_fail=0.5))
        provs = []
        for i, pair in enumerate(rig.pairs):
            miss[0] = i == 40
            if i == 40:
                outlier = dataclasses.replace(other.pairs[5],
                                              timestamp=pair.timestamp,
                                              eta=500.0)
                sol = calib.update(outlier)
            else:
                sol = calib.update(pair)
            provs.append(sol.provenance)
        assert provs[39] == "local"  # steady state before the outlier
        assert provs[40] == "global"  # window reopened by the failed check
        assert calib.t_last_local_error >= rig.pairs[40].timestamp
        assert provs[46] == "local"  # recovers once the window passes

    def test_warm_started_solves_take_few_newton_iterations(self, monkeypatch):
        # a 300-step 3D replay at 5 % noise: each fast solve starts from the
        # previous step's optimum, which one new pair barely moves
        import dqcalib.online
        from dqcalib.sim import SimConfig, simulate_pairs

        real_solve_local = dqcalib.online.solve_local
        iterations = []

        def solve_local(Q, mode, init=None):
            sol = real_solve_local(Q, mode, init)
            if init is not None:
                iterations.append(sol.iterations)
            return sol

        monkeypatch.setattr(dqcalib.online, "solve_local", solve_local)
        pairs, _ = simulate_pairs(SimConfig(n_steps=300, noise_level=0.05,
                                            seed=33))
        sols = replay(pairs, OnlineConfig(t_no_fail=5.0))
        assert len(iterations) == 299
        assert np.median(iterations) <= 5
        assert sols[-1].is_global

    @pytest.mark.parametrize("seed", [33, 101, 302])
    def test_replay_matches_lstsq_and_qr_kernels(self, seed, monkeypatch):
        # every fast solve and certificate of a 300-step replay at 5 % noise
        # is repeated on the same inputs through the lstsq/QR oracles, and
        # the whole replay is repeated on them.  The one-pair step 0 is a
        # continuum of calibrations, where 30-100 iterations amplify
        # rounding: there both must be degenerate with the same diagnostic
        import dqcalib.online
        from dqcalib.sim import SimConfig, simulate_pairs

        pairs, _ = simulate_pairs(SimConfig(n_steps=300, noise_level=0.05,
                                            seed=seed))
        steps = []

        def with_oracle(func):
            def both(*args):
                result = func(*args)
                with monkeypatch.context() as m:
                    use_oracle_kernels(m)
                    steps.append((result, func(*args)))
                return result
            return both

        with monkeypatch.context() as m:
            m.setattr(dqcalib.online, "solve_local",
                      with_oracle(dqcalib.online.solve_local))
            m.setattr(dqcalib.online, "certify",
                      with_oracle(dqcalib.online.certify))
            sols = replay(pairs, OnlineConfig(t_no_fail=5.0))
        with monkeypatch.context() as m:
            use_oracle_kernels(m)
            refs = replay(pairs, OnlineConfig(t_no_fail=5.0))

        assert len(steps) == 2 * len(pairs)
        for (local, ref), (cert, ref_cert) in zip(steps[2::2], steps[3::2]):
            assert (local.iterations, local.converged) == (ref.iterations,
                                                           ref.converged)
            assert np.max(np.abs(local.q_hat.vec() - ref.q_hat.vec())) <= 1e-12
            assert ((cert.is_global, cert.null_dim, cert.diagnostic)
                    == (ref_cert.is_global, ref_cert.null_dim, ref_cert.diagnostic))

        def verdict(s):
            return s.provenance, s.is_global, s.null_dim, s.diagnostic
        assert [verdict(s) for s in sols[1:]] == [verdict(s) for s in refs[1:]]
        assert sols[0].degenerate and refs[0].degenerate
        assert sols[0].diagnostic == refs[0].diagnostic
        assert all(type(s.gap) is float for s in sols)

    def test_linalg_kernels_per_local_step_are_pinned(self, monkeypatch):
        # the 300-step replay of the warm-start test: a warm fast solve
        # takes one 6x6 eigh per Newton iteration and nothing else, a 3D
        # certificate the reduced dual's two 4x4 eigh (of the dual block
        # and of the Schur complement) and one 8x8 eigh of Z at the bound
        # (plus the verdict's eigh of the null space's real parts, 1x1 on a
        # unique optimum), its record included; no lstsq, QR or eigvalsh
        # anywhere on a fast step
        import dqcalib.online
        from dqcalib.sim import SimConfig, simulate_pairs

        calls = []
        for name in ("eigh", "eigvalsh", "lstsq", "qr", "solve", "svd"):
            kernel = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _kernel=kernel, **kwargs):
                calls.append((_name, np.shape(a)))
                return _kernel(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        per_call = {"solve_local": [], "certify": []}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                start = len(calls)
                result = func(*args, **kwargs)
                per_call[name].append((result, calls[start:]))
                return result
            return wrapper
        for name in per_call:
            monkeypatch.setattr(dqcalib.online, name,
                                counting(name, getattr(dqcalib.online, name)))
        pairs, _ = simulate_pairs(SimConfig(n_steps=300, noise_level=0.05,
                                            seed=33))
        sols = replay(pairs, OnlineConfig(t_no_fail=5.0))

        assert len(per_call["solve_local"]) == len(per_call["certify"]) == 300
        for sol, kernels in per_call["solve_local"][1:]:
            assert kernels == [("eigh", (6, 6))] * sol.iterations
        for cert, kernels in per_call["certify"]:
            assert kernels[:3] == [("eigh", (4, 4)), ("eigh", (4, 4)),
                                   ("eigh", (8, 8))]
            assert kernels[3:] == [("eigh", (cert.null_dim,) * 2)]
        assert sum(s.provenance == "local" for s in sols) >= 249

    def test_default_step_is_one_warm_global_solve(self, monkeypatch):
        # the default replay neither fast-solves nor certifies; a step's
        # kernels are the global solve's: one 4x4 eigh of the dual block,
        # one 4x4 eigh per slope evaluation of the dual search, one 8x8
        # eigh of Z at the bound and the verdict's eigh of the null space's
        # real parts, and a warm Newton search takes few slope evaluations
        import dqcalib.global_solver
        import dqcalib.online
        from dqcalib.sim import SimConfig, simulate_pairs

        calls = []
        for name in ("eigh", "eigvalsh", "lstsq", "qr", "solve", "svd"):
            kernel = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _kernel=kernel, **kwargs):
                calls.append((_name, np.shape(a)))
                return _kernel(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)

        def not_called(*args, **kwargs):
            raise AssertionError("the default step ran the fast path")
        monkeypatch.setattr(dqcalib.online, "solve_local", not_called)
        monkeypatch.setattr(dqcalib.online, "certify", not_called)

        real_root = dqcalib.global_solver._slope_root
        evaluations = []

        def counting_root(f, x0):
            evaluations.append(0)

            def counted_f(x):
                evaluations[-1] += 1
                return f(x)
            return real_root(counted_f, x0)
        monkeypatch.setattr(dqcalib.global_solver, "_slope_root",
                            counting_root)

        pairs, _ = simulate_pairs(SimConfig(n_steps=300, noise_level=0.05,
                                            seed=33))
        calib = OnlineCalibrator()
        for pair in pairs:
            start = len(calls)
            sol = calib.update(pair)
            n = evaluations[-1]
            assert calls[start:] == ([("eigh", (4, 4))] * (1 + n)
                                     + [("eigh", (8, 8)),
                                        ("eigh", (sol.null_dim,) * 2)])
        assert len(evaluations) == 300
        assert np.median(evaluations[1:]) <= 3

    @pytest.mark.parametrize("seed", [33, 101, 302])
    def test_default_verdicts_match_the_window_policy(self, seed):
        from dqcalib.sim import SimConfig, simulate_pairs

        pairs, _ = simulate_pairs(SimConfig(n_steps=300, noise_level=0.05,
                                            seed=seed))
        sols = replay(pairs)
        refs = replay(pairs, OnlineConfig(t_no_fail=5.0))

        def verdict(s):
            return s.is_global, s.null_dim, s.degenerate, s.diagnostic
        assert [verdict(s) for s in sols] == [verdict(s) for s in refs]
        assert all(s.provenance == "global" for s in sols)
        assert sum(not s.is_global for s in sols) == 1  # the one-pair step
        for sol, ref in zip(sols, refs):
            if sol.is_global and ref.is_global:
                diff = sol.q_hat.vec() - ref.q_hat.vec()
                assert np.max(np.abs(diff)) <= 1e-8

    def test_unconverged_fast_solve_reopens_global_window(self, monkeypatch):
        # a fast solve that runs out of iterations is a local error even
        # when its iterate certifies: it is never returned as the estimate
        import dataclasses

        import dqcalib.online

        real_solve_local = dqcalib.online.solve_local
        unconverged = [False]

        def solve_local(Q, mode, init=None):
            sol = real_solve_local(Q, mode, init)
            return dataclasses.replace(sol, converged=not unconverged[0])

        monkeypatch.setattr(dqcalib.online, "solve_local", solve_local)
        rig = planar_rig(n_steps=60, seed=90, rate=10.0)
        calib = OnlineCalibrator(planar_config(rig, t_no_fail=0.5))
        provs = []
        for i, pair in enumerate(rig.pairs):
            unconverged[0] = i == 40
            sol = calib.update(pair)
            provs.append(sol.provenance)
            if i == 40:
                assert sol.is_global  # the iterate itself certifies
        assert provs[39] == "local"
        assert provs[40] == "global"
        assert calib.t_last_local_error == rig.pairs[40].timestamp
        assert provs[46] == "local"


def _batch_acc(rig):
    g_a = plane_alignment_dq(rig.plane_a)
    g_b = plane_alignment_dq(rig.plane_b)
    return accumulate_pairs(rig.pairs, mode=ConstraintMode.PLANAR,
                            align_a=g_a, align_b=g_b)


@pytest.mark.parametrize("field,bad", [("t_no_fail", np.nan),
                                       ("t_no_fail", -1.0),
                                       ("gap_threshold", np.nan),
                                       ("gap_threshold", np.inf),
                                       ("gap_threshold", -1e-6)])
def test_bad_threshold_rejected(field, bad):
    # a NaN window would run the fast path on every step
    with pytest.raises(ValueError, match="must be"):
        OnlineConfig(**{field: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_timestamp_rejected(bad):
    import dataclasses

    rig = planar_rig(n_steps=5, seed=81)
    # a pair cannot carry a non-finite timestamp, so none reaches the clock
    with pytest.raises(ValueError):
        dataclasses.replace(rig.pairs[1], timestamp=bad)
    at = [dataclasses.replace(p, timestamp=t)
          for p, t in zip(rig.pairs, (0.1, 0.05, 0.2))]
    calib = OnlineCalibrator(planar_config(rig))
    calib.update(at[0])
    with pytest.raises(NonMonotonicTime):
        calib.update(at[1])
    assert calib.update(at[2]).q_hat is not None
