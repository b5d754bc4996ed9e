"""CLI surface: exit codes, flags as the only settings, deterministic artifacts."""

import ast
import inspect
import json
from pathlib import Path

import pytest

from maassdensity import cli
from maassdensity.besseltransform import dj_residue_sum
from maassdensity.cli import build_parser, main
from maassdensity.weights import make_weight_family


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bessel-int", "--X", "1", "--T", "5", "--bogus"])
    assert exc.value.code == 2


def test_tol_flag_belongs_to_bessel_int(capsys):
    # only bessel-int reads tol; elsewhere the flag is unknown, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["kernels", "--group", "o", "--eta", "0.8", "--tol", "1e-6"])
    assert exc.value.code == 2
    rc = main(["bessel-int", "--X", "1", "--T", "5", "--method", "quadrature",
               "--tol", "1e-6"])
    assert rc == 0
    assert "quadrature" in capsys.readouterr().out


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bessel_int_all_methods(capsys):
    rc = main(["bessel-int", "--X", "1", "--T", "5", "--method", "all"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "quadrature" in out and "residue" in out
    assert "|quadrature - residue|" in out


def test_bessel_int_bad_domain_exits_2(capsys):
    rc = main(["bessel-int", "--X", "-3", "--T", "5"])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_asymptotic_out_of_regime_exits_2():
    rc = main(["bessel-int", "--X", "1", "--T", "21", "--method", "asymptotic"])
    assert rc == 2


def test_kernels_prediction(capsys):
    rc = main(["kernels", "--group", "o", "--eta", "0.8", "--x", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "O prediction" in out
    assert "density at x=0.5" in out
    rc = main(["kernels", "--group", "nosuch", "--eta", "0.8"])
    assert rc == 2


def test_total_mass_output_file_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["total-mass", "--T", "5", "--c-max", "60", "--output", str(p1)]) == 0
    assert main(["total-mass", "--T", "5", "--c-max", "60", "--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_bound_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["bound-scan", "--which", "stationary_A", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "which,X,T,value,bound,ratio"
    assert len(lines) > 1


def test_validate_data_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text(
        "# normalization: hecke-unit\n"
        "t,parity,norm_sq,lambda_2\n"
        "9.5,even,1.0,0.4\n"
    )
    assert main(["validate-data", "--maass-data", str(good)]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "# normalization: hecke-unit\n"
        "t,parity,norm_sq,lambda_2,lambda_3,lambda_6\n"
        "9.5,even,1.0,0.4,0.5,0.9\n"
    )
    assert main(["validate-data", "--maass-data", str(bad)]) == 1
    assert main(["validate-data"]) == 2  # no data source given


def test_trace_verify_needs_data():
    assert main(["trace-verify", "--m", "1", "--n", "1"]) == 2


SAMPLE = str(Path(cli.__file__).parent / "data" / "sample_forms.csv")


def test_trace_verify_passing_identity_writes_its_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["trace-verify", "--maass-data", SAMPLE, "--center", "3", "--width", "1",
               "--c-max", "300", "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["gap"] <= report["combined_budget"]
    assert "gap" in capsys.readouterr().out


def test_trace_verify_failing_identity_reports_on_stderr(capsys):
    # the default Gaussian (centre 8) sees spectrum beyond the three sample forms
    rc = main(["trace-verify", "--maass-data", SAMPLE])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: trace identity fails")
    report = json.loads(err[err.index("\n{") + 1:])
    assert report["pass"] is False


def test_environment_sets_no_parameter(monkeypatch, capsys):
    argv = ["total-mass", "--T", "5", "--c-max", "60"]
    for var in ("MAASS_M", "MAASS_BUMP_HALFWIDTH", "MAASS_TOL", "MAASS_C_MAX"):
        monkeypatch.delenv(var, raising=False)
    assert main(argv) == 0
    want = capsys.readouterr()
    for var, val in (("MAASS_M", "12"), ("MAASS_BUMP_HALFWIDTH", "0.1"),
                     ("MAASS_TOL", "1e-3"), ("MAASS_C_MAX", "7")):
        monkeypatch.setenv(var, val)
    assert main(argv) == 0
    assert capsys.readouterr() == want


def test_config_flag_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 12}))
    with pytest.raises(SystemExit) as exc:
        main(["total-mass", "--T", "5", "--config", str(cfg)])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["density", "--T", "5", "--eta", "0.8"],
    ["converge", "--T-list", "5", "--eta-list", "0.8"],
])
def test_density_c_max_above_its_cap_exits_2(argv, capsys):
    assert build_parser().parse_args(argv).c_max == 500
    assert build_parser().parse_args(argv + ["--c-max", "500"]).c_max == 500
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--c-max", "1000"])
    assert exc.value.code == 2
    assert "c_max <= 500" in capsys.readouterr().err


def test_bessel_int_passes_the_configured_family(capsys):
    assert main(["bessel-int", "--X", "2", "--T", "11", "--method", "residue",
                 "--M", "12"]) == 0
    want = dj_residue_sum(2.0, 11, family=make_weight_family(12)).value
    assert f"residue: D_J(2.0, T=11) = {want!r} " in capsys.readouterr().out
    assert want != dj_residue_sum(2.0, 11).value


def test_invalid_weight_config_exits_2(capsys):
    rc = main(["total-mass", "--T", "5", "--M", "10"])
    assert rc == 2


def _options_read(fn) -> set:
    """Option dests that fn, and the cli helpers it calls, read: args.x and
    getattr(args, "x")."""
    read = set()
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "getattr" and getattr(node.args[0], "id", None) == "args":
                read.add(node.args[1].value)
            elif node.func.id.startswith("_") and callable(getattr(cli, node.func.id, None)):
                read |= _options_read(getattr(cli, node.func.id))
    return read


def test_each_subcommand_registers_the_options_its_handler_reads():
    [subparsers] = [a for a in build_parser()._actions if a.dest == "command"]
    assert len(subparsers.choices) == 9
    for name, sp in subparsers.choices.items():
        registered = {a.dest for a in sp._actions} - {"help"}
        assert registered == _options_read(sp.get_default("func")), name


@pytest.mark.parametrize("argv", [
    ["kernels", "--group", "o", "--eta", "0.8", "--c-max", "5"],
    ["kernels", "--group", "o", "--eta", "0.8", "--M", "12"],
    ["kernels", "--group", "o", "--eta", "0.8", "--bump-halfwidth", "0.1"],
    ["validate-data", "--M", "12"],
    ["bessel-int", "--X", "1", "--T", "5", "--c-max", "5"],
    ["bound-scan", "--which", "small_X", "--c-max", "5"],
])
def test_a_flag_its_subcommand_ignores_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
