"""Command-line interface: exit codes, determinism, report contents."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circleqm import circlespace, evolve, ladder, mincs, verify, zakcs
from circleqm.circlespace import Params, Sector
from circleqm.cli import _build_parser, _float_table, _parse, _table, main

SRC = Path(__file__).resolve().parent.parent / "src"


def _fmt(x) -> str:
    """The printing rule, one value at a time: 17 significant digits."""
    return format(float(x), ".17g")


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

    @pytest.mark.parametrize("tol", ["inf", "nan", "-inf", "0", "-1e-3",
                                     "1e400"])
    def test_tolerance_must_be_finite_positive(self, capsys, tol):
        # inf would pass every row and nan fail every one
        code, out, err = run(capsys, "verify", "specfun", f"--tol={tol}")
        assert code == 2 and out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_bessel_sum_rule_headroom(self):
        rows = {row.check_id: row for row in verify.run(["specfun"])}
        assert rows["bessel-squared-sum"].residual < 1e-13

    def test_rows_carry_identity_and_tolerance(self, capsys):
        _, out, _ = run(capsys, "verify", "e2")
        header = out.splitlines()[0]
        assert header == "suite,check_id,identity,residual,tolerance,pass"
        assert any("transporter-round-trip" in line for line in out.splitlines())

    def test_every_row_has_tenfold_headroom(self):
        # each oracle's own error sits at least 10x inside its tolerance
        rows = verify.run(verify.SUITES)
        assert len(rows) == 25
        for row in rows:
            assert abs(row.residual) <= row.tolerance / 10, row.check_id

    @pytest.mark.parametrize("suite", ("all",) + verify.SUITES)
    def test_prints_the_library_rows(self, capsys, suite):
        # the command prints verify.run's rows at 17 digits; --tol changes
        # only the tolerance and pass columns
        rows = verify.run(verify.SUITES if suite == "all" else [suite])
        for extra, override in (([], None), (["--tol", "1e-30"], 1e-30)):
            expected = ["suite,check_id,identity,residual,tolerance,pass"]
            n_fail = 0
            for row in rows:
                tol = row.tolerance if override is None else override
                ok = row.residual < tol
                n_fail += not ok
                expected.append(f'{row.suite},{row.check_id},"{row.identity}",'
                                f'{row.residual:.17g},{tol:.17g},'
                                + ("pass" if ok else "FAIL"))
            expected.append(f"# {n_fail} failing of {len(rows)} checks")
            code, out, _ = run(capsys, "verify", suite, *extra)
            assert out.splitlines() == expected
            assert code == (1 if n_fail else 0)


class TestInProcess:
    def test_parser_built_once_and_left_unchanged(self):
        built = _build_parser()
        assert _build_parser() is built
        parser, _ = built
        first = parser.parse_args(["state", "-", "--density-out", "d.csv"])
        second = parser.parse_args(["verify", "all"])
        assert first is not second
        assert first.density_out == "d.csv" and not hasattr(second, "density_out")
        assert parser.parse_args(["state", "-"]).density_out is None

    def test_calls_match_fresh_processes(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "wz", "epsilon": 0.7,
                                   "delta": 0.2, "theta": 0.9, "l": 0.4}))
        kcfg = tmp_path / "kernel.json"
        kcfg.write_text(json.dumps({"t": 0.5, "eta": 1e-3, "n_points": 4}))
        # the usage errors: a bad --format choice, and --tol where only
        # verify takes it
        calls = [["state", str(cfg)], ["state", "--format", "xml", str(cfg)],
                 ["verify", "specfun", "--tol", "1e-3"],
                 ["kernel", str(kcfg), "--tol", "1e-3"], ["state", str(cfg)]]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        with contextlib.ExitStack() as stack:
            # the fresh processes run while the in-process calls do
            procs = [stack.enter_context(subprocess.Popen(
                [sys.executable, "-m", "circleqm.cli", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env)) for argv in calls]
            stack.callback(lambda: [proc.kill() for proc in procs])
            in_process = []
            for argv in calls:
                try:
                    code = main(list(argv))
                except SystemExit as exc:   # argparse usage error
                    code = exc.code
                captured = capsys.readouterr()
                in_process.append((code, captured.out, captured.err))
            for argv, proc, mine in zip(calls, procs, in_process):
                stdout, stderr = proc.communicate(timeout=120)
                assert mine == (proc.returncode, stdout, stderr), argv
        codes = [code for code, _, _ in in_process]
        assert codes == [0, 2, 0, 2, 0] and captured.out


# argv of every kind: help, no or an unknown subcommand, usage errors in a
# subcommand's parser and left-over arguments, "--", abbreviated, "="-joined
# and repeated options, and valid calls of every subcommand
_ARGV_CASES = [
    [], ["-h"], ["-h", "state"], ["state", "-h"], ["nonsense"],
    ["state", "-", "--format", "xml"], ["kernel", "-", "--tol", "1e-3"],
    ["verify", "specfun", "--tol", "x"], ["table", "mincs-g", "a", "b"],
    ["--", "state", "-"], ["state", "--", "-"], ["state", "-", "--fo", "csv"],
    ["state", "--format=csv", "-"],
    ["state", "-", "--format", "json", "--format", "csv"],
    ["kernel", "--out"], ["--help"], ["verify"], ["verify", "all"],
    ["verify", "nope"], ["verify", "e2", "--tol", "1e-3", "--out", "o.csv"],
    ["table"], ["table", "kj", "-"], ["table", "nope"], ["state"],
    ["state", "-", "--density-out", "d.csv"],
    ["state", "-", "--density", "d.csv"],
    ["overlap", "-", "--format", "csv", "--out", "o.json"],
    ["evolve", "-", "extra"], ["kernel", "-", "--out=o.csv"],
    ["Kernel", "-"], ["--format", "json", "state", "-"], ["state", "-", "-x"],
]


class TestDispatch:
    """`main` parses a call once, with the parser of the subcommand it
    names; the top-level parser's nested parse is the reference."""

    @pytest.mark.parametrize("argv", _ARGV_CASES, ids=" ".join)
    def test_same_as_the_nested_parse(self, capsys, argv):
        parser, _ = _build_parser()
        try:
            nested = parser.parse_args(argv)
        except SystemExit as exc:
            nested = exc.code, capsys.readouterr()
        if isinstance(nested, argparse.Namespace):
            assert vars(_parse(argv)) == vars(nested)
            return
        # help and usage errors: the same exit code and the same bytes
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert (exc.value.code, capsys.readouterr()) == nested

    def test_one_parse_per_call(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            json.dumps({"t": 0.5, "eta": 1e-3, "n_points": 4})))
        target = argparse.ArgumentParser.parse_known_args.__code__
        calls = []

        def hook(frame, event, arg):
            if event == "call" and frame.f_code is target:
                calls.append(frame.f_locals["self"].prog)

        sys.setprofile(hook)
        try:
            code = main(["kernel", "-"])
        finally:
            sys.setprofile(None)
        assert code == 0 and capsys.readouterr().out
        assert calls == ["circleqm kernel"]


_STARTUP_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[1] == "preload":
    import scipy.special

def heavy():
    return [m for m in ("scipy", "numpy.polynomial") if m in sys.modules]

loaded = []
import circleqm
loaded.append(heavy())
from circleqm import cli
loaded.append(heavy())
sys.stdin = io.StringIO(json.dumps({"t": 0.5, "eta": 1e-3, "n_points": 8}))
kernel = io.StringIO()
with contextlib.redirect_stdout(kernel):
    code = cli.main(["kernel", "-"])
loaded.append(heavy())

import numpy as np
from circleqm import mincs, specfun
j = specfun.bessel_j(np.arange(-3, 4), 1.5 - 0.7j)
j2 = specfun.bessel_j(2, 0.3 + 0.1j)
g = specfun.g_ratio(2.5)
ga = specfun.g_ratio(np.array([0.0, 1e-9, 0.7, 30.0]))
state = mincs.min_state(mincs.MinUncParams(0.4, 1.3, 0.8, 1.7))
ell = specfun.elliptic_suite(0.3, specfun.ThetaNome.from_q(0.1))
values = ([j.tobytes().hex(), j2.real.hex(), j2.imag.hex(), state.n_lo,
           state.coeffs.tobytes().hex()]
          + [float(v).hex() for v in (g.r1, g.r2, g.g)]
          + [v.tobytes().hex() for v in (ga.r1, ga.r2, ga.g)]
          + [float(v).hex() for v in vars(ell).values()])
print(json.dumps({"loaded": loaded, "code": code, "kernel": kernel.getvalue(),
                  "values": values, "special": "scipy.special" in sys.modules}))
"""


class TestStartup:
    def test_scipy_special_loaded_on_first_use(self):
        # a fresh import of the package or the CLI, and a kernel call,
        # import no scipy and no numpy.polynomial; the first Bessel or
        # elliptic call loads scipy.special and computes the bits of a
        # process that imported it first
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        runs = {}
        for mode in ("fresh", "preload"):
            proc = subprocess.run(
                [sys.executable, "-c", _STARTUP_SCRIPT, mode], env=env,
                capture_output=True, text=True, timeout=120, check=True)
            runs[mode] = json.loads(proc.stdout)
        fresh, preload = runs["fresh"], runs["preload"]
        assert fresh["loaded"] == [[], [], []]
        assert fresh["code"] == 0 and fresh["kernel"].count("\n") == 9
        assert fresh["special"] and preload["loaded"][0]
        assert fresh["kernel"] == preload["kernel"]
        assert fresh["values"] == preload["values"]


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

    def test_ratio_table_is_the_scalar_rows(self, capsys):
        # one array call gives the bytes of a per-point loop
        from circleqm.cli import _RATIO_TABLE_X
        from circleqm.specfun import g_ratio
        xs = list(_RATIO_TABLE_X)
        xs += [x for x in np.linspace(0.0, 20.0, 81) if x not in xs]
        rows = [",".join(map(_fmt, (x, g_ratio(x).r1, g_ratio(x).r2,
                                    g_ratio(x).g))) for x in xs]
        code, out, _ = run(capsys, "table", "mincs-g")
        assert code == 0
        assert out == "\n".join(["x,i1_over_i0,i1_over_x_i0,g"] + rows) + "\n"

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

    @pytest.mark.parametrize("argv", [["state"], ["table", "transition"],
                                      ["evolve"]])
    def test_window_past_the_size_budget_exits_two(self, capsys, tmp_path,
                                                    argv):
        # epsilon = 1e-16: a w_state window of 1.6e9 coefficients
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "wz", "epsilon": 1e-16,
                                   "delta": 0.2, "theta": 0.3, "l": 0.5,
                                   "t_grid": [0.0, 1.0]}))
        code, out, err = run(capsys, *argv, str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,doc", [
        (["kernel"], {"t": True, "eta": 1e-3}),
        (["kernel"], {"t": "0.5", "eta": 1e-3}),
        (["evolve"], {"delta": 0.3, "n_lo": 0, "coeffs": [[1, 0]],
                      "t_grid": [0, True]}),
        (["state"], {"family": "wz", "epsilon": "1.0", "delta": 0.2,
                     "theta": 0.3, "l": 0.5}),
        (["evolve"], {"delta": False, "n_lo": 0, "coeffs": [[1, 0]],
                      "t_grid": [0, 1]}),
        (["evolve"], {"delta": "0.3", "n_lo": 0, "coeffs": [[1, 0]],
                      "t_grid": [0, 1]}),
    ], ids=["bool", "string", "grid-bool", "wz-string", "raw-delta-bool",
            "raw-delta-string"])
    def test_boolean_or_string_is_not_a_number(self, capsys, tmp_path, argv,
                                               doc):
        # each ran at the number it converts to (t = 1, t = 0.5, delta = 0)
        # and exited 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,doc", [
        (["state"], {"family": "min", "alpha": 0.4, "l": 1e300,
                     "gamma": 0.5, "s": 0.8}),
        (["overlap"], {"family": "min",
                       "first": {"alpha": 0, "l": 0, "gamma": 1e200, "s": 0.8},
                       "second": {"alpha": 1, "l": 3, "gamma": 1e200,
                                  "s": 0.8}}),
    ], ids=["state-l", "overlap-gamma"])
    def test_min_family_past_double_range_exits_two(self, capsys, tmp_path,
                                                    argv, doc):
        # both exited 1 with an OverflowError traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_min_window_past_the_size_budget_exits_two(self, capsys,
                                                        tmp_path):
        # gamma = 1e8: a min_state window of about 2.7e8 Bessel orders
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "min", "alpha": 0.0, "l": 0.0,
                                   "gamma": 1e8, "s": 0.0,
                                   "t_grid": [0.0, 1.0]}))
        code, out, err = run(capsys, "evolve", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error:") and "sigma" in err


class TestKJRange:
    @pytest.mark.parametrize("doc", [
        # an OverflowError traceback and exit 1
        {"epsilon": 1.0, "delta": 0.3, "theta_grid": [0.0],
         "l_grid": [360.0]},
        # inf printed for var_k, var_j and the commutator, exit 0
        {"epsilon": 100.76144908265663, "delta": 0.2513955956006695,
         "theta_grid": [4.349168623261793], "l_grid": [256.39213088114764]},
    ])
    def test_out_of_range_record_exits_two(self, capsys, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "table", "kj", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and "finite double" in err
        assert len(err.splitlines()) == 1


class TestGridValues:
    @pytest.mark.parametrize("argv,doc,word", [
        (["table", "kj"], {"theta_grid": ["nan"]}, "theta_grid"),
        (["table", "kj"], {"theta_grid": 3}, "theta_grid"),
        (["table", "kj"], {"l_grid": [None]}, "l_grid"),
        (["evolve"], {"family": "wz", "epsilon": 1.0, "delta": 0.2,
                      "theta": 0.3, "l": 0.5, "t_grid": [None]}, "t_grid"),
        (["evolve"], {"family": "wz", "epsilon": 1.0, "delta": 0.2,
                      "theta": 0.3, "l": 0.5, "t_grid": [0.5, 1e300]}, "2^52"),
        (["kernel"], {"t": 1e17, "eta": 0.01}, "2^52"),
        # integer keys: 0 raised ZeroDivisionError, a negative count printed
        # the header only, a fraction or a boolean was truncated
        (["kernel"], {"t": 0.5, "eta": 0.01, "n_points": 0}, "n_points"),
        (["kernel"], {"t": 0.5, "eta": 0.01, "n_points": -3}, "n_points"),
        (["kernel"], {"t": 0.5, "eta": 0.01, "n_points": 4.9}, "n_points"),
        (["kernel"], {"t": 0.5, "eta": 0.01, "n_points": True}, "n_points"),
        (["state", "--density-out", os.devnull],
         {"family": "wz", "epsilon": 1.0, "delta": 0.2, "theta": 0.3,
          "l": 0.5, "density_points": 0}, "density_points"),
        (["state", "--density-out", os.devnull],
         {"family": "wz", "epsilon": 1.0, "delta": 0.2, "theta": 0.3,
          "l": 0.5, "density_points": -2}, "density_points"),
        (["state", "--density-out", os.devnull],
         {"family": "wz", "epsilon": 1.0, "delta": 0.2, "theta": 0.3,
          "l": 0.5, "density_points": 2.5}, "density_points"),
        (["evolve"], {"delta": 0.2, "n_lo": 2.7, "coeffs": [[1.0, 0.0]],
                      "t_grid": [0.5]}, "n_lo"),
        (["evolve"], {"delta": 0.2, "n_lo": True, "coeffs": [[1.0, 0.0]],
                      "t_grid": [0.5]}, "n_lo"),
        (["evolve"], {"delta": 0.2, "n_lo": 1e300, "coeffs": [[1.0, 0.0]],
                      "t_grid": [0.5]}, "n_lo"),
        # counts past 2^20: 2^63 printed the header only (np.arange(2**63)
        # is empty), and larger grids would be allocated whole
        (["kernel"], {"t": 0.5, "eta": 0.01, "n_points": 2 ** 63}, "n_points"),
        (["kernel"], {"t": 0.5, "eta": 0.01, "n_points": 2 ** 20 + 1},
         "n_points"),
        (["state", "--density-out", os.devnull],
         {"family": "wz", "epsilon": 1.0, "delta": 0.2, "theta": 0.3,
          "l": 0.5, "density_points": 2 ** 63}, "density_points"),
    ])
    def test_rejected_grid_exits_two(self, capsys, tmp_path, argv, doc, word):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:")
        assert word in err


class TestConfigDocuments:
    WZ = {"family": "wz", "epsilon": 0.7, "delta": 0.2, "theta": 0.9, "l": 0.4}

    @pytest.mark.parametrize("argv,text,word", [
        (["state"], "[1, 2, 3]", "JSON object"),
        (["overlap"], json.dumps({"family": "raw"}), "family"),
        (["overlap"], json.dumps({"family": "wz", "first": 3, "second": {}}),
         "objects"),
        (["evolve"], json.dumps({"delta": 0.2, "n_lo": 0, "coeffs": [[1.0]],
                                 "t_grid": [0.5]}), "malformed state"),
        (["evolve"], json.dumps({"t_grid": [0.5]}), "family"),
    ], ids=["root-list", "overlap-family", "overlap-first", "raw-coeff",
            "evolve-no-state"])
    def test_rejected_document_exits_two(self, capsys, tmp_path, argv, text,
                                         word):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run(capsys, *argv, str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:")
        assert word in err

    def test_unreadable_path_exits_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "state", str(tmp_path / "missing.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("config error: cannot read config")

    def test_stdin_reads_like_a_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.WZ))
        _, from_file, _ = run(capsys, "state", str(cfg))
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(self.WZ)))
        code, from_stdin, _ = run(capsys, "state", "-")
        assert code == 0
        assert from_stdin == from_file

    def test_wz_csv_flattens_leading_order(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.WZ))
        _, out, _ = run(capsys, "state", str(cfg))
        record = json.loads(out)
        code, out, _ = run(capsys, "state", str(cfg), "--format", "csv")
        assert code == 0
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        nested = record.pop("leading_order")
        assert nested
        assert rows == {**record, **{f"leading_order.{k}": v
                                     for k, v in nested.items()}}


class TestRawWindow:
    """The raw coefficient window of `evolve`, {"delta", "n_lo", "coeffs"},
    which the CLI alone reads."""

    RAW = {"delta": 0.25, "n_lo": 0, "coeffs": [[1, 0]], "t_grid": [0.5]}

    @pytest.mark.parametrize("change,word", [
        ({"n_lo": 2.7}, "n_lo"),
        ({"n_lo": True}, "n_lo"),
        # a boolean or a string delta was read as the number it converts to
        ({"delta": False}, "delta"),
        ({"delta": "0.25"}, "delta"),
        # a boolean coefficient was read as 1 or 0, and exit 0
        ({"coeffs": [[True, 0], [0, False]]}, "coeffs"),
        # these exited 2 with a message that named no key
        ({"coeffs": [["1", 0]]}, "coeffs"),
        ({"coeffs": [[None, 0]]}, "coeffs"),
        ({"coeffs": [[1, 0, 0]]}, "coeffs"),
        ({"coeffs": [1, 0]}, "coeffs"),
        ({"coeffs": []}, "coeffs"),
        # a traceback: OverflowError, int too large to convert to float
        ({"coeffs": [[10 ** 400, 0]]}, "coeffs"),
        ({"coeffs": [[0, -10 ** 400]]}, "coeffs"),
        ({"delta": 10 ** 400}, "delta"),
    ], ids=["json-fraction", "json-bool", "json-delta-bool",
            "json-delta-string", "coeff-bool", "coeff-string", "coeff-null",
            "coeff-triple", "coeff-not-pair", "coeffs-empty",
            "coeff-400-digits", "coeff-im-400-digits", "delta-400-digits"])
    def test_refused(self, capsys, tmp_path, change, word):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.RAW, **change}))
        code, out, err = run(capsys, "evolve", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error:") and err.count("\n") == 1
        assert word in err

    def _window_read(self, capsys, tmp_path, monkeypatch, doc):
        """The state that `evolve` of `doc` passes to the library."""
        seen = []

        def spy(params, state, t):
            seen.append(state)
            return moment_series(params, state, t)

        moment_series = evolve.moment_series
        monkeypatch.setattr(evolve, "moment_series", spy)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, "evolve", str(cfg))
        assert code == 0 and err == "" and len(seen) == 1
        return seen[0]

    def test_roundtrip(self, capsys, tmp_path, monkeypatch):
        # a window written as the JSON document the CLI reads comes back
        # with the same bits
        rng = np.random.default_rng(62)
        psi = circlespace.CircleState(
            Sector(0.62), -1, rng.normal(size=4) + 1j * rng.normal(size=4))
        back = self._window_read(capsys, tmp_path, monkeypatch, {
            "delta": psi.sector.delta, "n_lo": psi.n_lo,
            "coeffs": [[c.real, c.imag] for c in psi.coeffs.tolist()],
            "t_grid": [0.0]})
        assert back.sector.delta == psi.sector.delta
        assert back.n_lo == psi.n_lo
        assert back.coeffs.tobytes() == psi.coeffs.tobytes()

    def test_integers_read_as_floats(self, capsys, tmp_path, monkeypatch):
        # integer coefficients, -0.0 and an integral float n_lo
        back = self._window_read(capsys, tmp_path, monkeypatch, {
            "delta": 0, "n_lo": 3.0, "coeffs": [[1, -0.0], [0, 2], [-3, 0.5]],
            "t_grid": [0.0]})
        assert back.n_lo == 3 and type(back.n_lo) is int
        want = np.array([complex(1, -0.0), complex(0, 2), complex(-3, 0.5)])
        assert back.coeffs.tobytes() == want.tobytes()
        assert back.sector.delta == 0.0


def _per_t_rows(state, params, t_grid):
    """The evolve columns from the per-time library calls."""
    state = state.normalized()
    rows = []
    for t in t_grid:
        psi = evolve.propagate(evolve.EvolutionSpec(params, state.sector, t),
                               state)
        c_psi, s_psi, l_psi = (circlespace.apply_operator(op, psi)
                               for op in "CSL")
        means = [circlespace.inner(psi, x).real for x in (c_psi, s_psi, l_psi)]
        second = [circlespace.inner(x, x).real for x in (c_psi, s_psi, l_psi)]
        rows.append([t] + means + [b - m ** 2 for b, m in zip(second, means)]
                    + [circlespace.fidelity(state, psi)])
    return np.array(rows)


class TestEvolve:
    @pytest.mark.parametrize("seed", range(6))
    def test_batched_rows_match_per_time_library_path(self, capsys, tmp_path,
                                                      seed):
        rng = np.random.default_rng(seed)
        t_grid = sorted(float(t) for t in rng.uniform(0, 20, 4 + 7 * seed))
        # one epsilon: a wz config's stiffness is also the flow's
        params = Params(float(rng.uniform(0.1, 2.0)), 1.0)
        delta = float(rng.uniform(0, 1))
        kind = ("min", "wz", "raw")[seed % 3]
        if kind == "min":
            doc = {"family": "min", "alpha": float(rng.uniform(0, 2 * math.pi)),
                   "l": float(rng.integers(-3, 4)), "gamma": float(rng.uniform(-3, 3)),
                   "s": float(rng.uniform(-5, 5))}
            state = mincs.min_state(mincs.MinUncParams(
                doc["alpha"], doc["l"], doc["gamma"], doc["s"]), window_tol=1e-14)
        elif kind == "wz":
            doc = {"family": "wz", "epsilon": params.epsilon,
                   "delta": delta, "theta": float(rng.uniform(0, 2 * math.pi)),
                   "l": float(rng.uniform(-2, 2))}
            wz = zakcs.WZParams(doc["epsilon"], Sector(delta))
            state = zakcs.w_state(wz, zakcs.PhasePoint(doc["theta"], doc["l"]),
                                  window_tol=1e-14)
        else:
            width = 3 + 37 * (seed // 3)
            coeffs = rng.normal(size=width) + 1j * rng.normal(size=width)
            doc = {"delta": delta, "n_lo": int(rng.integers(-20, 5)),
                   "coeffs": [[c.real, c.imag] for c in coeffs]}
            state = circlespace.CircleState(Sector(delta), doc["n_lo"], coeffs)
        doc.update(epsilon=params.epsilon, t_grid=t_grid)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "evolve", str(cfg))
        assert code == 0
        got = np.array([[float(v) for v in line.split(",")]
                        for line in out.splitlines()[1:]])
        ref = _per_t_rows(state, params, t_grid)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("l", [1e3, 1e5 + 0.3, 1e7, -1e7 + 0.7])
    def test_momentum_moments_constant_at_large_l(self, capsys, tmp_path, l):
        # H = (eps/2) L^2 commutes with L: <L> and Var L keep the closed
        # forms at every t, however large <L> is
        doc = {"family": "min", "alpha": 0.0, "l": l, "gamma": 0.5,
               "s": 1.0, "epsilon": 1.0, "t_grid": [0.0, 0.5, 1.0, 3.0]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "evolve", str(cfg))
        assert code == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.splitlines()[1:]])
        ref = mincs.min_expectations(mincs.MinUncParams(0.0, l, 0.5, 1.0))
        assert np.all(np.abs(rows[:, 3] - ref.mean_l)
                      <= 1e-12 * max(1.0, abs(ref.mean_l)))
        assert np.all(np.abs(rows[:, 6] - ref.var_l) <= 1e-12 * ref.var_l)

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

    def test_state_norm_past_double_range_evolves(self, capsys, tmp_path):
        # w_state's squared norm is about e^900 here (ROADMAP item 1): this
        # exited 2 while the norm was read unscaled; the t = 0 row is the
        # closed-form record
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "wz", "epsilon": 0.01,
                                   "delta": 0.3, "theta": 0.5, "l": 3.0,
                                   "t_grid": [0.0, 1.0]}))
        code, out, err = run(capsys, "evolve", str(cfg))
        assert code == 0 and err == ""
        rows = [[float(v) for v in line.split(",")]
                for line in out.splitlines()[1:]]
        assert len(rows) == 2 and all(map(math.isfinite, sum(rows, [])))
        t, mean_c, mean_s, mean_l, var_c, var_s, var_l, fid = rows[0]
        ref = zakcs.w_expectations(zakcs.WZParams(0.01, Sector(0.3)),
                                   zakcs.PhasePoint(0.5, 3.0))
        for got, want in ((mean_c, ref.mean_c), (mean_s, ref.mean_s),
                          (mean_l, ref.mean_l)):
            assert abs(got - want) <= 1e-14 * abs(want)
        for got, want in ((var_c, ref.var_c), (var_s, ref.var_s),
                          (0.01 ** 2 * var_l, ref.var_l_scaled)):
            assert abs(got - want) <= 1e-12 * abs(want)
        assert t == 0.0 and abs(fid - 1.0) <= 4 * 2.0 ** -52

    @pytest.mark.filterwarnings("error")
    def test_raw_window_read_as_given(self, capsys, tmp_path):
        # evolve passes the window to moment_series as built, which
        # normalizes it: 1e60 times a window has that window's rows, with
        # no warning (warnings are errors here), and the zero window exits 2
        coeffs = [[1.0, 0.0], [0.0, 2.0], [0.5, 0.0]]
        rows = []
        for scale in (1.0, 1e60):
            doc = {"delta": 0.3, "n_lo": -1, "epsilon": 0.7,
                   "coeffs": [[scale * re, scale * im] for re, im in coeffs],
                   "t_grid": [0.0, 0.25, 3.0]}
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            code, out, err = run(capsys, "evolve", str(cfg))
            assert code == 0 and err == ""
            rows.append(np.array([[float(v) for v in line.split(",")]
                                  for line in out.splitlines()[1:]]))
        assert rows[0].shape == (3, 8)
        assert np.all(np.abs(rows[1] - rows[0])
                      <= 4 * 2.0 ** -52 * np.maximum(1.0, np.abs(rows[0])))
        doc["coeffs"] = [[0.0, 0.0]] * 3
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "evolve", str(cfg))
        assert code == 2 and out == "" and "zero state" in err

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

    def test_integral_float_count_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 0.7, "eta": 1e-3, "n_points": 16}))
        _, ref, _ = run(capsys, "kernel", str(cfg))
        cfg.write_text(json.dumps({"t": 0.7, "eta": 1e-3, "n_points": 16.0}))
        code, out, _ = run(capsys, "kernel", str(cfg))
        assert code == 0
        assert out == ref and len(out.splitlines()) == 17

    def test_nonpositive_eta_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1.0, "delta": 0.0, "t": 0.7,
                                   "eta": 0.0}))
        code, _, err = run(capsys, "kernel", str(cfg))
        assert code == 2
        assert "eta" in err


    def test_large_time_returns_samples(self, capsys, tmp_path):
        # the flow theta's argument drifts by eps delta t/2 = 1.5e6 rad here;
        # the kernel exited 2 with the term-budget message before theta
        # reduced it by its period
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 1e7, "delta": 0.3, "eta": 0.01}))
        code, out, err = run(capsys, "kernel", str(cfg))
        assert code == 0 and err == ""
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in out.splitlines()[1:]])
        assert rows.shape == (64, 3) and np.all(np.isfinite(rows))

    def test_large_damping_prints_the_spectral_sum(self, capsys, tmp_path):
        # e^{-eps omega eta/2} = e^{-800} is 0 in double: 3.8e-282 came
        # back for the sum's 3.35e-4
        mpmath = pytest.importorskip("mpmath")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 0, "eta": 1600, "delta": 0.9}))
        code, out, _ = run(capsys, "kernel", str(cfg))
        assert code == 0
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in out.splitlines()[1:]])
        with mpmath.workdps(40):
            ref = np.array([complex(mpmath.fsum(
                mpmath.exp(-800 * (n + mpmath.mpf(0.9)) ** 2
                           + 1j * (n + mpmath.mpf(0.9)) * mpmath.mpf(x))
                for n in range(-6, 6))) for x in rows[:, 0]])
        got = rows[:, 1] + 1j * rows[:, 2]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_eta_below_kernel_range_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1.0, "delta": 0.0, "t": 0.7,
                                   "eta": 5e-9}))
        code, out, err = run(capsys, "kernel", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and "eps omega eta" in err


def _csv(header, rows) -> str:
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def _report(record, fmt) -> str:
    """A state or overlap report of a record dict, each value written with
    `_fmt` and nested records copied by `dataclasses.asdict`."""
    def strings(rec):
        out = {}
        for key, val in rec.items():
            if isinstance(val, complex):
                out[key + "_re"], out[key + "_im"] = _fmt(val.real), _fmt(val.imag)
            elif isinstance(val, bool):
                out[key] = "true" if val else "false"
            elif isinstance(val, dict):
                out[key] = strings(val)
            else:
                out[key] = _fmt(val)
        return out

    record = strings(record)
    if fmt == "json":
        return json.dumps(record, sort_keys=True, indent=2) + "\n"
    flat = {}
    for key, val in record.items():
        if isinstance(val, dict):
            flat.update((f"{key}.{k}", v) for k, v in val.items())
        else:
            flat[key] = val
    return _csv("key,value", [[k, flat[k]] for k in sorted(flat)])


class TestFormatting:
    """Every table and report is the library's values written one at a time
    with `_fmt`, byte for byte."""

    WZ = {"epsilon": 0.7, "delta": 0.3, "theta": 2.1, "l": -0.4}
    MIN = {"alpha": 0.9, "l": 1.25, "gamma": -1.3, "s": 2.2}
    EDGES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             0.1, 1.0, 1e16, math.nan, math.inf]

    @staticmethod
    def _run(capsys, tmp_path, doc, *argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, str(cfg))
        assert (code, err) == (0, "")
        return out

    def test_edge_values(self):
        values = self.EDGES + [-x for x in self.EDGES]
        col = np.array(values)
        assert _float_table("x", col) == _csv("x", [[_fmt(x)] for x in values])
        # a 2-D column adds its own columns, row by row
        pairs = np.column_stack((col, col[::-1]))
        assert (_float_table("x,y,z", col, pairs)
                == _csv("x,y,z", [[_fmt(a), _fmt(b), _fmt(c)]
                                  for a, (b, c) in zip(values, pairs)]))
        assert (_table("m,x,flag", "%d,%.17g,%s", len(values),
                       [v for i, x in enumerate(values) for v in (i, x, "ok")])
                == _csv("m,x,flag", [[str(i), _fmt(x), "ok"]
                                     for i, x in enumerate(values)]))

    def test_kernel(self, capsys, tmp_path):
        doc = {"t": 0.37, "eta": 2e-3, "epsilon": 1.3, "delta": 0.6,
               "n_points": 24}
        out = self._run(capsys, tmp_path, doc, "kernel")
        spec = evolve.EvolutionSpec(Params(1.3, 1.0), Sector(0.6), 0.37,
                                    eta=2e-3)
        dphi = -math.pi + np.arange(24) * (2.0 * math.pi / 24)
        vals = evolve.kernel(spec, dphi)
        assert out == _csv("dphi,re_k,im_k", [
            [_fmt(d), _fmt(v.real), _fmt(v.imag)] for d, v in zip(dphi, vals)])

    def test_evolve(self, capsys, tmp_path):
        t_grid = [0.0, 0.25, 3.5, 11.0]
        out = self._run(capsys, tmp_path,
                        {"family": "wz", **self.WZ, "t_grid": t_grid},
                        "evolve")
        params = zakcs.WZParams(0.7, Sector(0.3))
        state = zakcs.w_state(params, zakcs.PhasePoint(2.1, -0.4),
                              window_tol=1e-14)
        rows = evolve.moment_series(Params(0.7, 1.0), state, t_grid)
        assert out == _csv("t,re_c,re_s,mean_l,var_c,var_s,var_l,fidelity", [
            [_fmt(t)] + [_fmt(v) for v in row] for t, row in zip(t_grid, rows)])

    def test_transition_table(self, capsys, tmp_path):
        out = self._run(capsys, tmp_path, self.WZ, "table", "transition")
        params = zakcs.WZParams(0.7, Sector(0.3))
        z = zakcs.PhasePoint(2.1, -0.4)
        ms = zakcs.w_state(params, z, window_tol=1e-14).indices
        probs = zakcs.transition_prob(ms, params, z)
        assert out == _csv("m,probability", [
            [str(m), _fmt(p)] for m, p in zip(ms.tolist(), probs)])

    def test_kj_table(self, capsys, tmp_path):
        thetas, ls = [0.0, 1.7, 4.4], [-1.5, 0.25]
        out = self._run(capsys, tmp_path,
                        {"epsilon": 0.8, "delta": 0.45, "theta_grid": thetas,
                         "l_grid": ls}, "table", "kj")
        ctx = ladder.LadderContext(0.8, Sector(0.45))
        rows = []
        for th in thetas:
            for l_t in ls:
                rep = ladder.kj_report(ctx, zakcs.PhasePoint(th, l_t))
                rows.append([_fmt(v) for v in (
                    th, l_t, rep.mean_k, rep.mean_j, rep.var_k, rep.var_j,
                    rep.commutator_mean.imag)]
                    + ["true" if rep.saturated else "false"])
        assert out == _csv(
            "theta,l,mean_k,mean_j,var_k,var_j,commutator_im,saturated", rows)

    def test_density(self, capsys, tmp_path):
        dens = tmp_path / "density.csv"
        self._run(capsys, tmp_path,
                  {"family": "wz", **self.WZ, "density_points": 40},
                  "state", "--density-out", str(dens))
        params = zakcs.WZParams(0.7, Sector(0.3))
        z = zakcs.PhasePoint(2.1, -0.4)
        phi = 2.1 - math.pi + np.arange(40) * (2.0 * math.pi / 40)
        vals = zakcs.density(params, z, phi)
        assert dens.read_text() == _csv("phi,density", [
            [_fmt(p), _fmt(v)] for p, v in zip(phi, vals)])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_state_reports(self, capsys, tmp_path, fmt):
        out = self._run(capsys, tmp_path, {"family": "min", **self.MIN},
                        "state", "--format", fmt)
        rec = mincs.min_expectations(mincs.MinUncParams(0.9, 1.25, -1.3, 2.2))
        assert out == _report(dataclasses.asdict(rec), fmt)
        out = self._run(capsys, tmp_path, {"family": "wz", **self.WZ},
                        "state", "--format", fmt)
        record = dataclasses.asdict(zakcs.w_expectations(
            zakcs.WZParams(0.7, Sector(0.3)), zakcs.PhasePoint(2.1, -0.4)))
        record["leading_order"] = record.pop("leading")
        assert out == _report(record, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overlap_reports(self, capsys, tmp_path, fmt):
        second = dict(self.MIN, alpha=2.0, l=0.25)
        out = self._run(capsys, tmp_path,
                        {"family": "min", "first": self.MIN, "second": second},
                        "overlap", "--format", fmt)
        res = mincs.min_overlap(mincs.MinUncParams(2.0, 0.25, -1.3, 2.2),
                                mincs.MinUncParams(0.9, 1.25, -1.3, 2.2))
        assert out == _report({"value": res.value, "valid": res.valid}, fmt)
        out = self._run(capsys, tmp_path,
                        {"family": "wz", "epsilon": 0.7, "delta": 0.3,
                         "first": {"theta": 2.1, "l": -0.4},
                         "second": {"theta": 0.5, "l": 0.9}},
                        "overlap", "--format", fmt)
        value = zakcs.w_overlap(zakcs.WZParams(0.7, Sector(0.3)),
                                zakcs.PhasePoint(2.1, -0.4),
                                zakcs.PhasePoint(0.5, 0.9))
        assert out == _report({"value": value}, fmt)


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
