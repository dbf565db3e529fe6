import json
import sys
import warnings

import numpy as np
import pytest

from dqcalib.cli import main
from dqcalib.dualquat import (DualQuat, canonicalized_rows, dq_mul_rows,
                              normalized_rows)
from dqcalib.io import (STUDY_CSV_HEADER, Trajectory, load_pairs_jsonl,
                        load_trajectory, pair_streams, save_pair_rows_jsonl,
                        save_pairs_jsonl, save_trajectory, sclerp)
from dqcalib.planar import GroundPlane
from dqcalib.sim import (SimConfig, generate_path, planar_rig,
                         sample_study_calibration, simulate_rows)

from conftest import make_dataset


@pytest.fixture
def sim_pairs_file(tmp_path):
    pairs, q_t = make_dataset(seed=101, n_pairs=25)
    path = tmp_path / "pairs.jsonl"
    save_pairs_jsonl(pairs, path)
    return path, q_t


def q8_arg(q):
    return ",".join(repr(float(v)) for v in q.vec())


def count_calls(monkeypatch, *names):
    """Wrap the named ``dqcalib.cli`` functions; returns the list each call
    appends its name to."""
    import dqcalib.cli

    calls = []
    for name in names:
        def counted(*args, _name=name, _func=getattr(dqcalib.cli, name),
                    **kwargs):
            calls.append(_name)
            return _func(*args, **kwargs)
        monkeypatch.setattr(dqcalib.cli, name, counted)
    return calls


def write_plane_cloud(path, plane: GroundPlane, rng, n=60):
    basis = np.linalg.svd(np.outer(plane.normal, plane.normal) - np.eye(3))[0][:, :2]
    coords = rng.uniform(-4, 4, (n, 2))
    pts = -plane.distance * plane.normal + coords @ basis.T
    path.write_text("\n".join(" ".join(f"{v:.17g}" for v in row)
                              for row in pts))


class TestCalibrate:
    def test_both_solvers_agree_noise_free(self, sim_pairs_file, capsys):
        path, q_t = sim_pairs_file
        rc = main(["--output", "json", "calibrate", "--pairs", str(path),
                   "--solver", "both", "--repeat", "1",
                   "--gt", q8_arg(q_t)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["global"]["is_global"] is True
        assert out["global"]["gap"] < 1e-9
        assert out["global"]["eps_r_deg"] < 1e-4
        assert out["global"]["eps_t_m"] < 1e-6
        agree = out["solver_agreement"]
        assert agree["eps_r_deg"] < 1e-4 and agree["eps_t_m"] < 1e-6
        # the fast entry says how its Newton iteration ended
        assert out["fast"]["converged"] is True
        assert 0 <= out["fast"]["iterations"] <= 100

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["calibrate", "--pairs", str(tmp_path / "nope.jsonl")])
        assert rc == 2

    def test_text_output(self, sim_pairs_file, capsys):
        path, _ = sim_pairs_file
        rc = main(["calibrate", "--pairs", str(path), "--repeat", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n_pairs: 25" in out

    def test_gt_pose_alternative(self, tmp_path, capsys):
        from dqcalib.sim import SimConfig, simulate_pairs

        truth = DualQuat.from_rot_trans([0, 0, 1], np.deg2rad(30), [1, 2, 0.5])
        pairs, _ = simulate_pairs(SimConfig(n_steps=20, true_calib=truth))
        path = tmp_path / "p.jsonl"
        save_pairs_jsonl(pairs, path)
        rc = main(["--output", "json", "calibrate", "--pairs", str(path),
                   "--repeat", "1", "--gt-pose", "1,2,0.5,0,0,1,30"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["global"]["eps_r_deg"] < 1e-6
        assert out["global"]["eps_t_m"] < 1e-6

    @pytest.mark.parametrize("command", ["calibrate", "online"])
    def test_gt_pose_zero_axis_exits_2(self, sim_pairs_file, capsys, command):
        path, _ = sim_pairs_file
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main([command, "--pairs", str(path), "--gt-pose",
                       "1,2,0.5,0,0,0,30"])
        assert rc == 2
        assert "axis (0, 0, 0) has zero length" in capsys.readouterr().err

    def test_bad_gt_pose_fails_before_the_load(self, sim_pairs_file, capsys,
                                               monkeypatch):
        path, _ = sim_pairs_file
        calls = count_calls(monkeypatch, "load_pairs_jsonl", "solve_global")
        rc = main(["calibrate", "--pairs", str(path), "--gt-pose", "1,2,0.5"])
        assert rc == 2
        assert "expected tx,ty,tz" in capsys.readouterr().err
        # a nan or inf angle and a nan translation, and online prints no
        # CSV header first
        for command in ("calibrate", "online"):
            for pose in ("0,0,0,0,0,1,nan", "0,0,0,0,0,1,inf", "nan,0,0,0,0,1,30"):
                rc = main([command, "--pairs", str(path), "--gt-pose", pose])
                assert rc == 2
                out, err = capsys.readouterr()
                assert "--gt-pose values must be finite" in err
                assert out == ""
        assert calls == []

    def test_degenerate_data_exits_3(self, tmp_path, capsys):
        rig = planar_rig(n_steps=20, seed=102)
        path = tmp_path / "planar_pairs.jsonl"
        save_pairs_jsonl(rig.pairs, path)
        rc = main(["calibrate", "--pairs", str(path), "--repeat", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "null-space" in err

    def test_fast_solver_with_bad_init_reports_non_global(self, tmp_path,
                                                          capsys):
        # a genuine non-global stationary point of this dataset (a saddle
        # of cost 0.0122, reached from a half-turn-flipped truth) passed as
        # the init: the fast solver stays on it, the certificate must say
        # so and the reported gap must bound the cost excess
        pairs, _ = make_dataset(seed=107, n_pairs=30)
        path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(pairs, path)
        saddle = ("0.7171630923591591,0.11695364313756998,-0.6854818681743055,"
                  "-0.04597339142332608,0.08637632969183076,0.0020197761466425974,"
                  "0.09247453331852025,-0.026264757357314317")
        rc = main(["--output", "json", "calibrate", "--pairs", str(path),
                   "--solver", "fast", "--repeat", "1", "--init", saddle])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fast"]["converged"] is True
        assert out["fast"]["is_global"] is False
        assert out["fast"]["gap"] > 1e-3

    def test_fast_solver_reports_the_degeneracy_verdict(self, tmp_path,
                                                        capsys):
        # planar motion in 3D mode: the global solver exits 3, and the fast
        # entry certifies the zero-cost optimum but names the continuum
        rig = planar_rig(n_steps=30, seed=106)
        path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(rig.pairs, path)
        rc = main(["--output", "json", "calibrate", "--pairs", str(path),
                   "--solver", "fast", "--repeat", "1"])
        assert rc == 0
        fast = json.loads(capsys.readouterr().out)["fast"]
        assert fast["is_global"] is True
        assert fast["null_dim"] == 3
        assert fast["degenerate"] is True
        assert fast["diagnostic"] == "feasible set in null space is a continuum"

    def test_both_entries_report_the_verdict(self, sim_pairs_file, capsys):
        path, _ = sim_pairs_file
        rc = main(["--output", "json", "calibrate", "--pairs", str(path),
                   "--solver", "both", "--repeat", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        for name in ("global", "fast"):
            # noise-free data: the truth plus the structural pure-dual
            # direction
            assert out[name]["null_dim"] == 2
            assert out[name]["degenerate"] is False
            assert out[name]["diagnostic"] is None

    def test_planar_pipeline_with_plane_clouds(self, tmp_path, capsys, rng):
        rig = planar_rig(n_steps=40, seed=103)
        pairs_path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(rig.pairs, pairs_path)
        pa, pb = tmp_path / "a.xyz", tmp_path / "b.xyz"
        write_plane_cloud(pa, rig.plane_a, rng)
        write_plane_cloud(pb, rig.plane_b, rng)
        rc = main(["--output", "json", "--mode", "planar", "calibrate",
                   "--pairs", str(pairs_path), "--plane-a", str(pa),
                   "--plane-b", str(pb), "--repeat", "1",
                   "--gt", q8_arg(rig.true_calib)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["global"]["is_global"] is True
        assert out["global"]["eps_r_deg"] < 1e-5
        assert out["global"]["eps_t_m"] < 1e-6

    def test_5000_pairs_are_normalized_once(self, tmp_path, capsys,
                                            monkeypatch):
        # each of a 5000-pair file's two motion columns makes one
        # normalized_rows pass, in the pair record's constructor
        rows, truth = simulate_rows(SimConfig(n_steps=5000, noise_level=0.05,
                                              seed=5))
        path = tmp_path / "pairs.jsonl"
        save_pair_rows_jsonl(rows, path)
        passes = []

        def counted(v):
            passes.append(len(v))
            return normalized_rows(v)

        for name, module in list(sys.modules.items()):
            if (name.startswith("dqcalib")
                    and getattr(module, "normalized_rows", None) is not None):
                monkeypatch.setattr(module, "normalized_rows", counted)
        rc = main(["--output", "json", "calibrate", "--pairs", str(path),
                   "--solver", "both", "--repeat", "1", "--gt", q8_arg(truth)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["global"]["is_global"]
        assert passes == [5000, 5000]


class TestCertifyCommand:
    def test_global_solution_certifies(self, sim_pairs_file, capsys):
        path, q_t = sim_pairs_file
        rc = main(["--output", "json", "certify", "--pairs", str(path),
                   "--candidate", q8_arg(q_t)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        # noise-free data: the truth plus the structural pure-dual direction
        assert out == {"gap": out["gap"], "is_global": True, "null_dim": 2,
                       "diagnostic": None}
        assert out["gap"] < 1e-10

    def test_degenerate_candidate_names_its_diagnostic(self, tmp_path, capsys):
        # planar motion in 3D mode: the truth has zero cost, but the
        # translation along the common rotation axis is unobservable
        rig = planar_rig(n_steps=30, seed=106)
        path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(rig.pairs, path)
        rc = main(["--output", "json", "certify", "--pairs", str(path),
                   "--candidate", q8_arg(rig.true_calib)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_global"] is True
        assert out["diagnostic"] == "feasible set in null space is a continuum"

    def test_perturbed_candidate_rejected(self, tmp_path, capsys):
        from conftest import make_study_dataset

        pairs, q_t = make_study_dataset(seed=104, n_pairs=80, noise=0.02)
        path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(pairs, path)
        shifted = (q_t * DualQuat.from_translation([0.1, 0, 0])).canonicalized()
        rc = main(["--output", "json", "certify", "--pairs", str(path),
                   "--candidate", q8_arg(shifted)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_global"] is False

    def test_non_unit_candidate_exits_3(self, sim_pairs_file, capsys):
        path, _ = sim_pairs_file
        rc = main(["certify", "--pairs", str(path),
                   "--candidate", "1.1,0,0,0,0,0,0,0"])
        assert rc == 3


class TestOnlineCommand:
    def test_replay_trace_columns(self, tmp_path, capsys):
        rig = planar_rig(n_steps=15, seed=105)
        path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(rig.pairs, path)
        rc = main(["online", "--pairs", str(path), "--t-no-fail", "0.3",
                   "--gt", q8_arg(rig.true_calib)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,eps_r_deg,eps_t_m,gap,provenance,is_global,time_ms"
        assert len(lines) == 16
        final = lines[-1].split(",")
        assert final[4] in ("local", "global")

    @pytest.fixture
    def stream_file(self, tmp_path):
        # 8 s of 3D motion at 10 Hz: longer than a 5 s no-fail window
        from dqcalib.sim import SimConfig, simulate_pairs

        pairs, _ = simulate_pairs(SimConfig(n_steps=80, noise_level=0.02,
                                            seed=107))
        path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(pairs, path)
        return path

    @staticmethod
    def provenances(out):
        return [line.split(",")[4] for line in out.strip().splitlines()[1:]]

    def test_default_is_global_at_every_step(self, stream_file, capsys):
        assert main(["online", "--pairs", str(stream_file)]) == 0
        provs = self.provenances(capsys.readouterr().out)
        assert len(provs) == 80
        assert set(provs) == {"global"}

    def test_finite_window_hands_over_to_the_fast_solver(self, stream_file,
                                                         capsys):
        rc = main(["online", "--pairs", str(stream_file), "--t-no-fail", "5"])
        assert rc == 0
        provs = self.provenances(capsys.readouterr().out)
        assert provs[0] == "global"
        assert "local" in provs[50:]

    def test_pair_file_without_pairs_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n  \n")
        rc = main(["online", "--pairs", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no pairs in input file" in captured.err

    def test_non_monotone_timestamps_exit_2(self, tmp_path, capsys):
        pairs, _ = make_dataset(seed=106, n_pairs=4)
        import dataclasses
        pairs[2] = dataclasses.replace(pairs[2], timestamp=pairs[0].timestamp)
        path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(pairs, path)
        rc = main(["online", "--pairs", str(path)])
        assert rc == 2


class TestSimulateAndStudy:
    def test_simulate_deterministic(self, tmp_path, capsys):
        cfg = {"n_steps": 12, "seed": 5, "noise_level": 0.05}
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        sidecar = json.loads((tmp_path / "a.jsonl.gt.json").read_text())
        assert len(sidecar["true_calib"]) == 8
        assert len(load_pairs_jsonl(out1)) == 12

    def test_simulate_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({"n_steps": 5, "bogus": 1}))
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.jsonl")]) == 2

    @pytest.mark.parametrize("bad", [
        {"noise_level": float("nan")}, {"noise_level": [float("nan"), 0.01]},
        {"noise_level": float("inf")}, {"n_steps": 5.0}, {"seed": 1.5},
        {"rate": 0}], ids=lambda bad: "-".join(map(str, *bad.items())))
    def test_simulate_rejects_bad_values(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "sim.json"
        # json writes NaN and Infinity as the bare words json.load reads
        cfg_path.write_text(json.dumps({"n_steps": 5, "seed": 1, **bad}))
        out = tmp_path / "x.jsonl"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        assert next(iter(bad)) in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_writes_the_oracle_pairs(self, tmp_path):
        from conftest import oracle_simulate_pairs
        from dqcalib.sim import SimConfig

        cfg = {"n_steps": 40, "seed": 8, "noise_level": [0.02, 0.01],
               "surface": {"kind": "flat"}, "rate": 20.0}
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "pairs.jsonl"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        pairs, truth = oracle_simulate_pairs(SimConfig(
            **{**cfg, "noise_level": tuple(cfg["noise_level"])}))
        save_pairs_jsonl(pairs, tmp_path / "oracle.jsonl")
        assert out.read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
        sidecar = json.loads((tmp_path / "pairs.jsonl.gt.json").read_text())
        assert sidecar["true_calib"] == list(truth.vec())

    def test_study_row_count_and_header(self, tmp_path):
        cfg = {"noise_levels": [0.02, 0.1], "sizes": [10, 20], "seeds": 2}
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "study.csv"
        assert main(["study", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == STUDY_CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 2


class TestParserAndDispatch:
    def test_parser_built_once(self, sim_pairs_file, monkeypatch, capsys):
        import dqcalib.cli as cli

        built = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or original())
        cli._parser.cache_clear()
        path, _ = sim_pairs_file
        for _ in range(2):
            assert main(["calibrate", "--pairs", str(path), "--repeat", "1"]) == 0
        assert len(built) == 1

    def test_rebound_command_is_the_one_that_runs(self, sim_pairs_file,
                                                   monkeypatch):
        import dqcalib.cli as cli

        path, _ = sim_pairs_file
        assert main(["calibrate", "--pairs", str(path), "--repeat", "1"]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_calibrate",
                            lambda args: seen.append(args.pairs) or 42)
        assert main(["calibrate", "--pairs", str(path)]) == 42
        assert seen == [str(path)]


class TestNonFiniteInput:
    def test_nan_motion_names_its_line(self, sim_pairs_file, capsys):
        path, _ = sim_pairs_file
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["qa"][0] = float("nan")
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        rc = main(["calibrate", "--pairs", str(path), "--repeat", "1"])
        assert rc == 2
        assert "line 3: non-finite component" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["calibrate", "certify", "online"])
    def test_bad_weight_exits_2(self, sim_pairs_file, capsys, command):
        path, _ = sim_pairs_file
        lines = path.read_text().splitlines()
        rec = json.loads(lines[4])
        rec["w"] = [1, 1, 1, 1, 1, 1, 1, -1]
        lines[4] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        extra = {"calibrate": ["--repeat", "1"], "online": [],
                 "certify": ["--candidate", "1,0,0,0,0,0,0,0"]}[command]
        rc = main([command, "--pairs", str(path), *extra])
        assert rc == 2
        assert ("line 5: residual weights must be finite and nonnegative"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", [
        ["calibrate", "--repeat", "1"],
        ["calibrate", "--solver", "fast", "--repeat", "1"],
        ["certify", "--candidate", "1,0,0,0,0,0,0,0"],
        ["online"]], ids=["calibrate", "calibrate-fast", "certify", "online"])
    def test_bad_gap_threshold_exits_2(self, sim_pairs_file, capsys,
                                       monkeypatch, command, threshold):
        # NaN or a negative threshold would certify nothing, inf anything;
        # it is rejected before the file is loaded or any solver runs
        path, _ = sim_pairs_file
        calls = count_calls(monkeypatch, "load_pairs_jsonl", "solve_global",
                            "solve_local")
        rc = main(["--gap-threshold", threshold, command[0], "--pairs",
                   str(path), *command[1:]])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "gap threshold must be finite and nonnegative" in out.err
        assert calls == []

    def test_nan_no_fail_window_exits_2(self, sim_pairs_file, tmp_path,
                                        capsys, monkeypatch):
        # NaN or a negative window is rejected before the pair file or the
        # ground-plane clouds are loaded
        path, _ = sim_pairs_file
        cloud = tmp_path / "ground.xyz"
        write_plane_cloud(cloud, GroundPlane(normal=[0, 0, 1], distance=1.0),
                          np.random.default_rng(0))
        calls = count_calls(monkeypatch, "load_pairs_jsonl",
                            "load_point_cloud")
        for window, shown in (("nan", "nan"), ("-1", "-1.0")):
            rc = main(["online", "--pairs", str(path), "--t-no-fail", window,
                       "--plane-a", str(cloud), "--plane-b", str(cloud)])
            assert rc == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert f"t_no_fail must be nonnegative, got {shown}" in out.err
        assert calls == []

    @pytest.mark.parametrize("flag", ["--plane-a", "--plane-b"])
    @pytest.mark.parametrize("command", [["calibrate", "--repeat", "1"],
                                         ["online"]],
                             ids=["calibrate", "online"])
    def test_one_plane_flag_exits_2(self, sim_pairs_file, tmp_path, capsys,
                                    monkeypatch, command, flag):
        # ground planes come for both sensors or for neither; one alone
        # fails before any file is read
        path, _ = sim_pairs_file
        cloud = tmp_path / "ground.xyz"
        write_plane_cloud(cloud, GroundPlane(normal=[0, 0, 1], distance=1.0),
                          np.random.default_rng(0))
        calls = count_calls(monkeypatch, "load_pairs_jsonl",
                            "load_point_cloud")
        rc = main([command[0], "--pairs", str(path), flag, str(cloud),
                   *command[1:]])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "ground planes must be given for both sensors" in out.err
        assert calls == []

    @pytest.mark.parametrize("command, shown", [
        (["calibrate", "--solver", "both", "--init", "1,2,3"],
         "expected 8 comma-separated floats, got 3"),
        (["certify", "--candidate", "1,2"],
         "expected 8 comma-separated floats, got 2"),
        (["calibrate", "--repeat", "0"], "--repeat must be at least 1, got 0"),
        (["calibrate", "--repeat", "-3"],
         "--repeat must be at least 1, got -3")],
        ids=["init", "candidate", "repeat-0", "repeat-negative"])
    def test_bad_option_value_fails_before_the_load(
            self, sim_pairs_file, capsys, monkeypatch, command, shown):
        path, _ = sim_pairs_file
        calls = count_calls(monkeypatch, "load_pairs_jsonl")
        rc = main([command[0], "--pairs", str(path), *command[1:]])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"error: {shown}" in out.err
        assert calls == []

    @pytest.mark.parametrize("command, shown", [
        (["calibrate", "--gt", "2,0,0,0,0,0,0,0"],
         "--gt: real-part norm 2.0 too far from 1"),
        (["calibrate", "--solver", "fast", "--init", "2,0,0,0,0,0,0,0"],
         "--init: real-part norm 2.0 too far from 1"),
        (["online", "--gt", "nan,0,0,0,0,0,0,0"],
         "--gt: non-finite component")],
        ids=["calibrate-gt", "calibrate-init", "online-gt"])
    def test_non_unit_option_value_exits_2(self, sim_pairs_file, capsys,
                                           monkeypatch, command, shown):
        # a ground truth or an init that is no unit dual quaternion is a bad
        # option value, not an infeasible candidate (that stays exit 3)
        path, _ = sim_pairs_file
        calls = count_calls(monkeypatch, "load_pairs_jsonl")
        rc = main([command[0], "--pairs", str(path), *command[1:]])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {shown}" in err
        assert "infeasible candidate" not in err
        assert calls == []

    def test_nan_plane_point_names_its_line(self, tmp_path, capsys, rng):
        rig = planar_rig(n_steps=10, seed=104)
        pairs_path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(rig.pairs, pairs_path)
        pa, pb = tmp_path / "a.xyz", tmp_path / "b.xyz"
        write_plane_cloud(pa, rig.plane_a, rng)
        write_plane_cloud(pb, rig.plane_b, rng)
        pb.write_text("nan 2 0\n" + pb.read_text())
        rc = main(["--mode", "planar", "calibrate", "--pairs", str(pairs_path),
                   "--plane-a", str(pa), "--plane-b", str(pb), "--repeat", "1"])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err


class TestTrajectoryRoundTrip:
    """Poses of sensor A and of B = A * truth, written as TUM and KITTI
    trajectory files, loaded, paired, written as a pair file and calibrated
    by the CLI.  The poses are exact, so both solvers recover the truth to
    well within 1e-6 rad and 1e-6 m."""

    @staticmethod
    def calibrate(pairs, truth, tmp_path, capsys):
        path = tmp_path / "pairs.jsonl"
        save_pair_rows_jsonl(pairs, path)
        rc = main(["--output", "json", "calibrate", "--pairs", str(path),
                   "--solver", "both", "--repeat", "1", "--gt", q8_arg(truth)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        for solver in ("fast", "global"):
            assert np.radians(out[solver]["eps_r_deg"]) < 1e-6
            assert out[solver]["eps_t_m"] < 1e-6
        assert out["global"]["is_global"] is True

    @staticmethod
    def mounted(poses, truth):
        return canonicalized_rows(dq_mul_rows(
            poses, np.broadcast_to(truth.vec(), poses.shape)))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("fmt_a, fmt_b", [("tum", "kitti_pose"),
                                              ("kitti_pose", "tum")])
    def test_shared_timestamps(self, tmp_path, capsys, seed, fmt_a, fmt_b):
        # KITTI stamps pose i at i / rate, as generate_path does
        a = generate_path(SimConfig(n_steps=60, seed=seed))
        truth = sample_study_calibration(np.random.default_rng(seed))
        b = Trajectory(a.times, self.mounted(a.poses, truth))
        for traj, fmt, name in ((a, fmt_a, "a.txt"), (b, fmt_b, "b.txt")):
            save_trajectory(traj, tmp_path / name, fmt=fmt)
        pairs, dropped = pair_streams(load_trajectory(tmp_path / "a.txt", fmt_a),
                                      load_trajectory(tmp_path / "b.txt", fmt_b))
        assert (len(pairs), dropped) == (60, 0)
        self.calibrate(pairs, truth, tmp_path, capsys)

    @pytest.mark.parametrize("seed", range(3))
    def test_offset_timestamps_on_constant_twist_steps(self, tmp_path, capsys,
                                                       seed):
        # each step of A (and so of B) is a constant twist between the
        # simulated poses; A is stamped 0.37 of a step later than B, and
        # screw interpolation of B at A's times is then exact
        knots = generate_path(SimConfig(n_steps=60, seed=seed))
        truth = sample_study_calibration(np.random.default_rng(seed))
        a = Trajectory(knots.times[:-1] + 0.037,
                       sclerp(knots.poses[:-1], knots.poses[1:], np.full(60, 0.37)))
        b = Trajectory(knots.times, self.mounted(knots.poses, truth))
        save_trajectory(a, tmp_path / "a.txt", fmt="tum")
        save_trajectory(b, tmp_path / "b.txt", fmt="kitti_pose")
        pairs, dropped = pair_streams(load_trajectory(tmp_path / "a.txt", "tum"),
                                      load_trajectory(tmp_path / "b.txt",
                                                      "kitti_pose"))
        assert (len(pairs), dropped) == (59, 0)
        self.calibrate(pairs, truth, tmp_path, capsys)
