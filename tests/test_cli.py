"""Command-line interface: exit codes, determinism, report contents."""

import json

import numpy as np
import pytest

from circleqm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_specfun_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "specfun")
        assert code == 0
        assert "FAIL" not in out
        assert "theta-imaginary-transformation" in out

    def test_tolerance_override_forces_failure(self, capsys):
        code, out, _ = run(capsys, "verify", "specfun", "--tol", "1e-30")
        assert code == 1
        assert "FAIL" in out

    def test_rows_carry_identity_and_tolerance(self, capsys):
        _, out, _ = run(capsys, "verify", "e2")
        header = out.splitlines()[0]
        assert header == "suite,check_id,identity,residual,tolerance,pass"
        assert any("transporter-round-trip" in line for line in out.splitlines())


class TestTable:
    def test_ratio_table_reference_rows(self, capsys):
        code, out, _ = run(capsys, "table", "mincs-g")
        assert code == 0
        rows = {float(line.split(",")[0]): [float(v) for v in line.split(",")[1:]]
                for line in out.splitlines()[1:] if not line.startswith("#")}
        assert abs(rows[2.0][0] - 0.6977) < 5e-4
        assert abs(rows[2.0][1] - 0.3489) < 5e-4
        assert abs(rows[2.0][2] - 0.1644) < 5e-4
        assert rows[0.0][0] == 0.0
        assert abs(rows[0.0][1] - 0.5) < 1e-12
        assert abs(rows[0.0][2] - 0.5) < 1e-12

    def test_transition_rows_sum_to_one(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"epsilon": 1.0, "delta": 0.3, "theta": 1.0, "l": 0.7}))
        code, out, _ = run(capsys, "table", "transition", str(cfg))
        assert code == 0
        total = sum(float(line.split(",")[1]) for line in out.splitlines()[1:])
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_kj_table_saturated_everywhere(self, capsys):
        code, out, _ = run(capsys, "table", "kj")
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.endswith("true")

    def test_unknown_table_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "nonsense"])


class TestState:
    def test_wz_mean_u_real_positive_at_center(self, capsys, tmp_path):
        eps, delta = 1.0, 0.3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "wz", "epsilon": eps,
                                   "delta": delta, "theta": 0.0,
                                   "l": eps * delta}))
        code, out, _ = run(capsys, "state", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert float(doc["mean_u_re"]) > 0
        assert float(doc["mean_u_im"]) == pytest.approx(0.0, abs=1e-15)

    def test_min_family_record(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "min", "alpha": 0.0, "l": 0.3,
                                   "gamma": 0.0, "s": 1.0}))
        code, out, _ = run(capsys, "state", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert float(doc["mean_c"]) == 0.0
        assert float(doc["mean_l"]) == pytest.approx(0.3)

    def test_missing_family_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.0}))
        code, _, err = run(capsys, "state", str(cfg))
        assert code == 2
        assert "family" in err

    def test_missing_key_named_in_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "min", "alpha": 0.0, "l": 0.3,
                                   "gamma": 0.0}))
        code, _, err = run(capsys, "state", str(cfg))
        assert code == 2
        assert "'s'" in err

    def test_density_csv(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "wz", "epsilon": 1.0,
                                   "delta": 0.2, "theta": 1.0, "l": 0.5}))
        dens = tmp_path / "density.csv"
        code, _, _ = run(capsys, "state", str(cfg), "--density-out", str(dens))
        assert code == 0
        lines = dens.read_text().splitlines()
        assert lines[0] == "phi,density"
        vals = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.mean(vals) == pytest.approx(1.0, abs=1e-8)

    def test_csv_format(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "min", "alpha": 0.1, "l": 0.3,
                                   "gamma": 0.2, "s": 1.0}))
        code, out, _ = run(capsys, "state", str(cfg), "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "key,value"


class TestOverlap:
    def test_identical_min_states(self, capsys, tmp_path):
        p = {"alpha": 0.4, "l": 1.0, "gamma": 0.5, "s": 0.8}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "min", "first": p, "second": p}))
        code, out, _ = run(capsys, "overlap", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert float(doc["value_re"]) == pytest.approx(1.0, abs=1e-12)
        assert float(doc["value_im"]) == pytest.approx(0.0, abs=1e-12)
        assert doc["valid"] == "true"

    def test_wz_overlap(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "wz", "epsilon": 1.0, "delta": 0.2,
            "first": {"theta": 0.3, "l": 0.5},
            "second": {"theta": 0.3, "l": 0.5}}))
        code, out, _ = run(capsys, "overlap", str(cfg))
        assert code == 0
        doc = json.loads(out)
        from circleqm.zakcs import PhasePoint, WZParams, w_norm_sq
        from circleqm.circlespace import Sector
        ref = w_norm_sq(WZParams(1.0, Sector(0.2)), PhasePoint(0.3, 0.5))
        assert float(doc["value_re"]) == pytest.approx(ref, rel=1e-12)


class TestConfigValues:
    @pytest.mark.parametrize("doc,word", [
        ({"family": "wz", "epsilon": -1.0, "delta": 0.2, "theta": 0.3,
          "l": 0.5}, "epsilon"),
        ({"family": "wz", "epsilon": 1.0, "delta": 1.5, "theta": 0.3,
          "l": 0.5}, "delta"),
        ({"family": "wz", "epsilon": 1.0, "delta": 0.2, "theta": "nan",
          "l": 0.5}, "theta"),
    ])
    def test_rejected_value_exits_two(self, capsys, tmp_path, doc, word):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "state", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:")
        assert word in err


class TestEvolve:
    def test_single_zero_time_row_matches_state(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "min", "alpha": 0.0, "l": 0.0,
                                   "gamma": 0.0, "s": 1.0, "epsilon": 1.0,
                                   "t_grid": [0.0]}))
        code, out, _ = run(capsys, "evolve", str(cfg))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("t,")
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == 0.0
        assert row[-1] == pytest.approx(1.0, abs=1e-12)  # fidelity

    def test_missing_t_grid_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "min", "alpha": 0.0, "l": 0.0,
                                   "gamma": 0.0, "s": 1.0}))
        code, _, err = run(capsys, "evolve", str(cfg))
        assert code == 2
        assert "t_grid" in err


class TestKernel:
    def test_emits_samples(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1.0, "delta": 0.0, "t": 0.7,
                                   "eta": 1e-6, "n_points": 16}))
        code, out, _ = run(capsys, "kernel", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "dphi,re_k,im_k"
        assert len(out.splitlines()) == 17

    def test_nonpositive_eta_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1.0, "delta": 0.0, "t": 0.7,
                                   "eta": 0.0}))
        code, _, err = run(capsys, "kernel", str(cfg))
        assert code == 2
        assert "eta" in err


class TestDeterminism:
    def test_identical_config_identical_bytes(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "wz", "epsilon": 1.0,
                                   "delta": 0.2, "theta": 0.9, "l": 0.4}))
        _, out1, _ = run(capsys, "state", str(cfg))
        _, out2, _ = run(capsys, "state", str(cfg))
        assert out1 == out2

    def test_invalid_json_exit_two(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "state", str(cfg))
        assert code == 2
        assert "JSON" in err
