"""The invariant suites as a library: rows, order, refusals, nan residuals."""

import dataclasses
import math

import pytest

from circleqm import evolve, mincs, verify
from circleqm.cli import main


def test_rows_follow_the_requested_suite_order():
    rows = verify.run(["ladder", "e2"])
    assert [row.suite for row in rows] == ["ladder"] * 3 + ["e2"] * 3
    assert all(isinstance(row.residual, float) for row in rows)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rows[0].residual = 0.0


@pytest.mark.parametrize("suites", (["specfun", "theta"], "specfun", ["all"]))
def test_unknown_suite_rejected(suites):
    with pytest.raises(ValueError, match="unknown suites"):
        verify.run(suites)


def test_nan_residual_is_reported_and_fails(monkeypatch, capsys):
    # one nan among a check's residuals must not be dropped by the maximum;
    # the checks reach the library through its module attributes, so the
    # patched function is the one called
    real = mincs.sum_rule_residual
    monkeypatch.setattr(mincs, "sum_rule_residual",
                        lambda sigma: math.nan if sigma == 3.0 - 1.0j else real(sigma))
    rows = {row.check_id: row for row in verify.run(["mincs"])}
    assert math.isnan(rows["bessel-sum-rule"].residual)
    assert main(["verify", "mincs"]) == 1
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ",bessel-sum-rule," in ln][0]
    assert line.endswith(",nan,1e-10,FAIL")


def test_kernel_faces_check_the_production_kernel(monkeypatch):
    # kernel-two-faces writes both faces out from theta's direct series, so
    # a kernel off by 1e-8 fails it (the row compared two kernel forms, and
    # passed with both scaled)
    real = evolve.kernel
    monkeypatch.setattr(evolve, "kernel",
                        lambda spec, dphi: real(spec, dphi) * (1 + 1e-8))
    rows = {row.check_id: row for row in verify.run(["evolve"])}
    row = rows["kernel-two-faces"]
    assert not row.residual < row.tolerance
    assert rows["full-revival"].residual < rows["full-revival"].tolerance
