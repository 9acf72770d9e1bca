import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import hermitia
from hermitia.cli import _FLAGS, _READS, build_parser, main
from hermitia.hopf import HopfPoint, oracle_vs_pipeline
from hermitia.metric import separable_kahler_torus, write_torus_metric


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _json(capsys, *argv):
    code, out = _run(capsys, *argv)
    return code, json.loads(out)


def test_curvature_annulus_ricci2(capsys):
    code, rep = _json(capsys, "curvature", "--metric", "hopf", "--dim", "2",
                      "--point", "1,0,0,0", "--connection", "chern",
                      "--what", "ricci2")
    assert code == 0
    m = rep["results"][0]["ricci2"]
    got = np.array([[c["re"] + 1j * c["im"] for c in row] for row in m])
    assert np.allclose(got, np.eye(2), atol=1e-10)
    assert rep["version"]
    assert "seed" in rep and "config" in rep


def test_curvature_flat_all_zero(capsys):
    code, rep = _json(capsys, "curvature", "--metric", "flat", "--dim", "3",
                      "--point", "0,0,0,0,0,0", "--what", "all")
    assert code == 0
    t = np.array(json.dumps(rep["results"][0]["tensor"]).count('"re": 0.0'))
    r1 = rep["results"][0]["ricci1"]
    flat = [c for row in r1 for c in row]
    assert all(abs(c["re"]) < 1e-12 and abs(c["im"]) < 1e-12 for c in flat)


def test_curvature_deterministic_sampling(capsys):
    args = ("curvature", "--metric", "normal-form", "--dim", "2", "--sample",
            "5", "--seed", "7", "--what", "scalars")
    code1, rep1 = _json(capsys, *args)
    code2, rep2 = _json(capsys, *args)
    assert code1 == code2 == 0
    assert rep1["results"] == rep2["results"]


def test_check_verdicts(capsys):
    code, rep = _json(capsys, "check", "--metric", "hopf", "--dim", "2",
                      "--sample", "20")
    assert code == 0
    r = rep["results"]
    assert (r["kahler"], r["balanced"], r["skt"]) == (False, False, True)
    code, rep = _json(capsys, "check", "--metric", "hopf", "--dim", "3",
                      "--sample", "20")
    assert rep["results"]["skt"] is False
    code, rep = _json(capsys, "check", "--metric", "flat", "--dim", "2")
    r = rep["results"]
    assert r["kahler"] and r["balanced"] and r["skt"]


def test_verify_appendix_pass(capsys):
    code, rep = _json(capsys, "verify", "--suite", "appendix", "--metric",
                      "hopf", "--dim", "2", "--trials", "5", "--sample", "1",
                      "--tol", "1e-9")
    assert code == 0
    assert rep["results"]["pass"] is True


def test_verify_hopf_oracle(capsys):
    code, rep = _json(capsys, "verify", "--suite", "hopf-oracle", "--dim",
                      "3", "--points", "10")
    assert code == 0
    assert "b1_matches=corrected" in rep["results"]["trace_form_matches"]


def test_verify_failure_exit_code(capsys):
    code, rep = _json(capsys, "verify", "--suite", "hopf-oracle", "--dim",
                      "3", "--points", "5", "--tol", "1e-18")
    assert code == 1
    assert rep["results"]["pass"] is False


def test_verify_hopf_oracle_reads_the_point(capsys):
    code, rep = _json(capsys, "verify", "--suite", "hopf-oracle", "--dim",
                      "2", "--point", "1,0,0.5,0")
    assert code == 0
    want = oracle_vs_pipeline(HopfPoint(2, np.array([1, 0.5])))
    assert rep["results"]["residuals"] == {
        k: v for k, v in want.items() if not isinstance(v, str)}
    assert rep["results"]["trace_form_matches"] == sorted(
        f"{k}={v}" for k, v in want.items() if isinstance(v, str))


def test_verify_hopf_oracle_refuses_a_malformed_point(capsys):
    code = main(["verify", "--suite", "hopf-oracle", "--dim", "2",
                 "--point", "1,2,3"])
    assert code == 2
    assert "4 real components" in capsys.readouterr().err


def test_verify_hopf_oracle_refuses_dim_one(capsys):
    assert main(["verify", "--suite", "hopf-oracle", "--dim", "1"]) == 3
    assert "n >= 2" in capsys.readouterr().err


def test_verify_normal_form_refuses_a_point(capsys):
    # the suite runs at z = 0 alone; a point it would not read is refused
    code = main(["verify", "--suite", "normal-form", "--point", "0,0,0,0"])
    assert code == 2
    assert "normal point" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--suite", "hopf-oracle", "--metric", "random-torus", "--dim", "2",
     "--sample", "1"),
    ("--suite", "normal-form", "--metric-file", "nonexist.json", "--trials",
     "1")])
def test_verify_suites_with_their_own_metrics_refuse_a_metric(capsys, argv):
    # both suites build their metrics; a --metric they would not read is
    # refused, not echoed back in the envelope
    assert main(["verify", *argv]) == 2
    assert "--metric" in capsys.readouterr().err


def test_flow_hopf_ode_fixed_point(capsys):
    code, rep = _json(capsys, "flow", "--hopf-ode", "--dim", "2", "--mu",
                      "0.25", "--c0", "1", "--T", "1")
    assert code == 0
    series = rep["results"]["series"]
    assert all(abs(p["c"] - 1.0) < 1e-12 for p in series)
    assert rep["results"]["extinction_time"] is None


def test_flow_flat_grid(capsys):
    code, rep = _json(capsys, "flow", "--metric", "flat", "--grid", "8",
                      "--mu", "0.1", "--T", "0.01", "--cadence", "100")
    assert code == 0
    assert abs(rep["results"]["final_t"] - 0.01) < 1e-12


def test_flow_metric_file_kahler(capsys):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "kahler.txt")
        write_torus_metric(separable_kahler_torus(2, 5), path)
        code, rep = _json(capsys, "flow", "--metric-file", path, "--grid",
                          "12", "--mu", "0", "--T", "0.002", "--cadence", "5")
    assert code == 0
    assert rep["results"]["max_kahler_defect"] <= 1e-6


def test_usage_errors(capsys):
    code = main(["curvature", "--dim", "2"])  # no metric source
    assert code == 2
    code = main(["nonsense"])
    assert code == 2


@pytest.mark.parametrize("flag, value, word", [
    ("--dt", "0", "dt"), ("--dt", "-1e-4", "dt"), ("--dt", "nan", "dt"),
    ("--dt", "inf", "dt"), ("--T", "inf", "horizon"), ("--T", "nan", "horizon"),
    ("--T", "-1", "horizon")])
def test_flow_rejects_steps_that_never_reach_the_horizon(capsys, flag, value,
                                                         word):
    code = main(["flow", "--metric", "flat", "--grid", "8", flag, value])
    assert code == 2
    assert word in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_flow_rejects_cadence_below_one(capsys, value):
    code = main(["flow", "--metric", "flat", "--grid", "8", "--cadence",
                 value])
    assert code == 2
    assert "cadence" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("curvature", "--metric", "random-torus"),
    ("check", "--metric", "random-torus"),
    ("verify", "--suite", "hopf-oracle"),
    ("verify", "--suite", "appendix", "--metric", "flat"),
    ("verify", "--suite", "normal-form")])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_sample_below_one_is_a_usage_error(capsys, argv, value):
    # over no points, every verdict would hold vacuously
    assert main([*argv, "--sample", value]) == 2
    assert "--sample" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["appendix", "bundle", "hopf-oracle",
                                   "normal-form"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_trials_below_one_is_a_usage_error(capsys, suite, value):
    code = main(["verify", "--suite", suite, "--metric", "flat",
                 "--trials", value])
    assert code == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "inf"),
                                         ("--tol", "-1"), ("--seed", "-1")])
def test_tol_or_seed_out_of_range_is_a_usage_error(capsys, flag, value):
    code = main(["verify", "--suite", "appendix", "--metric", "flat", flag,
                 value])
    assert code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("--hopf-ode", "--mu", "nan", "--T", "1"), "--mu"),
    (("--hopf-ode", "--c0", "inf"), "--c0"),
    (("--hopf-ode", "--T", "-1"), "--T"),
    (("--metric", "random-torus", "--mu", "nan", "--grid", "8"), "--mu")])
def test_flow_number_out_of_range_is_a_usage_error(capsys, argv, flag):
    # a NaN mu ran to a NaN series (exit 0) or was reported as a singular
    # grid metric (exit 3); a negative horizon ran (exit 0)
    assert main(["flow", *argv]) == 2
    assert f"argument {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv, where", [
    (("curvature", "--metric", "hopf", "--point", "1e-150,0,0,0",
      "--what", "ricci2"), "1.e-150"),
    (("check", "--metric", "normal-form", "--point", "1e200,0,0,0"),
     "1.e+200"),
    (("verify", "--suite", "appendix", "--metric", "hopf",
      "--point", "1e-150,0,0,0", "--trials", "2"), "1.e-150")])
def test_point_with_a_non_finite_jet_is_refused(capsys, argv, where):
    # h(z) = 4e300 is finite at 1e-150, but its derivative coefficients
    # overflow (a NaN report, exit 0, or exit 3); at 1e200 the normal form
    # itself overflows (NaN defects, exit 0)
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert "not positive definite, or its jets not finite" in err
    assert where in err


def test_hopf_point_near_the_origin_is_refused_alike(capsys):
    # below |z| ~ 1e-162 the norm underflowed to 0 and the point was called
    # outside the field's domain (exit 3); at 1e-160 h overflows (exit 2)
    seen = []
    for x in ("1e-160", "1e-170"):
        code = main(["curvature", "--metric", "hopf", "--point", f"{x},0,0,0"])
        err = capsys.readouterr().err
        assert f"1.{x[1:]}" in err
        seen.append((code, err.replace(f"1.{x[1:]}", "<x>")))
    assert seen[0] == seen[1]
    assert seen[0][0] == 2 and "jets not finite" in seen[0][1]


def test_grid_flow_refuses_a_metric_that_is_not_periodic(capsys):
    # a polynomial wraps across a jump on [0,1)^{2n}: this ran to an
    # einstein_residual of 1.97 with exit 0
    assert main(["flow", "--metric", "normal-form", "--dim", "1", "--grid",
                 "8", "--T", "0.001"]) == 3
    assert "periodic" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["1,x,0,0", "1,,0,0", "1,nan,0,0",
                                   "inf,0,0,0"])
def test_point_that_is_not_a_number_is_a_usage_error(capsys, point):
    code = main(["curvature", "--metric", "flat", "--point", point])
    assert code == 2
    assert "point components" in capsys.readouterr().err


def _cli(*argv, timeout=60, cwd=None, module="hermitia.cli"):
    """``hermitia`` in a fresh process that is stopped after ``timeout`` s,
    so an input that hangs fails the test."""
    src = str(Path(hermitia.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)


def test_python_dash_m_hermitia_runs_the_cli():
    done = _cli("--version", module="hermitia")
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == hermitia.__version__


def test_an_overflowing_metric_file_prints_only_the_usage_error(tmp_path):
    # three 1e308 modes overflow the Weyl bound and h itself at x = 0
    path = tmp_path / "m.txt"
    path.write_text("dim 1\nfreq -1 0 ; 1e308 0\nfreq 0 0 ; 1e308 0\n"
                    "freq 1 0 ; 1e308 0\n", encoding="utf-8")
    done = _cli("check", "--metric-file", str(path))
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "usage error: metric values overflow at x=[0.0, 0.0]: "
        "h is not finite"]


@pytest.mark.parametrize("command", ["check", "flow"])
@pytest.mark.parametrize("metric, dim", [
    ("random-torus", "0"), ("kahler-torus", "0"),
    ("separable-kahler-torus", "0"), ("separable-kahler-torus", "-1"),
    ("random-torus", "-1")])
def test_dimension_below_one_is_a_usage_error(command, metric, dim):
    done = _cli(command, "--metric", metric, "--dim", dim)
    code, err = done.returncode, done.stderr
    assert code == 2, err[-2000:]
    assert "dimension must be >= 1" in err


@pytest.mark.parametrize("argv, word", [
    (("--steps", "-5"), "--steps"), (("--steps", "-1"), "--steps"),
    (("--steps", "0"), "--steps"), (("--dim", "0"), "--dim")])
def test_hopf_ode_rejects_steps_or_dim_below_one(capsys, argv, word):
    code = main(["flow", "--hopf-ode", *argv])
    assert code == 2
    assert word in capsys.readouterr().err
    assert main(["flow", "--hopf-ode", "--steps", "1"]) == 0


@pytest.mark.parametrize("grid", ["0", "4"])
def test_flow_grid_below_the_stencil_is_a_domain_error(capsys, grid):
    assert main(["flow", "--metric", "random-torus", "--grid", grid]) == 3
    assert "N >= 8" in capsys.readouterr().err


def test_domain_error_exit(capsys):
    code = main(["curvature", "--metric", "hopf", "--dim", "2", "--point",
                 "0,0,0,0"])
    assert code == 3


def test_csv_format(capsys):
    code, out = _run(capsys, "check", "--metric", "flat", "--dim", "2",
                     "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value_or_re,im"


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```[^\n]*\n(.*?)```", readme.read_text(), re.S)
    commands = [line for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("hermitia ")]
    assert commands
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_hermitia_threads_caps_blas_threads():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("thread count needs /proc/self/task")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    src = str(Path(hermitia.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    env["HERMITIA_THREADS"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", "import os, hermitia.cli; "
         "print(len(os.listdir('/proc/self/task')))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert int(done.stdout) == 1


def _readme_cli_lines():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```[^\n]*\n(.*?)```", readme.read_text(), re.S)
    return [line for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("hermitia ")]


@pytest.mark.parametrize("command", _readme_cli_lines())
def test_readme_commands_run(command, tmp_path):
    done = _cli(*shlex.split(command)[1:], timeout=600, cwd=tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("mu, t", [("1e308", "0.02"), ("800", "0.9")])
def test_hopf_ode_refuses_a_scale_factor_that_is_not_finite(capsys, mu, t):
    # exp(mu t) overflowed: exit 0 with "c": Infinity in the envelope and a
    # numpy RuntimeWarning on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["flow", "--hopf-ode", "--dim", "2", f"--mu={mu}",
                     "--T", "1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert f"not finite at t = {t} with --mu {float(mu)!r}" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_report_that_is_not_finite_is_a_domain_error(capsys, monkeypatch,
                                                       fmt, bad):
    """The envelope is strict JSON: a non-finite number anywhere in a
    report is refused with exit 3 and its key path, and nothing is
    printed."""
    from hermitia import cli

    def ricci(t, mj, flavor):
        return np.array([[1.0, 0.0], [complex(0.5, bad), 1.0]])

    monkeypatch.setattr(cli.C, "ricci", ricci)
    code = main(["curvature", "--metric", "hopf", "--dim", "2", "--point",
                 "1,0,0,0", "--what", "ricci2", "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert f"results[0].ricci2[1][0].im is not finite ({bad!r})" in err


@pytest.mark.parametrize("mu", ["1e-12", "-1e-12", "1e-300", "-1e-300",
                                "-1e-320"])
def test_hopf_ode_is_accurate_at_small_mu(capsys, mu):
    # a closed form in k/mu cancels two terms of that size at small |mu| and
    # loses every digit; c must stay within rounding of its Taylor series
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = _json(capsys, "flow", "--hopf-ode", "--dim", "2",
                          f"--mu={mu}", "--T", "1", "--steps", "4")
    assert code == 0
    mu, k = float(mu), 0.25
    for point in rep["results"]["series"]:
        # the Taylor series of c0 + (c0 mu - k) t (exp(mu t) - 1) / (mu t),
        # whose next term is below 1e-36 here
        x = mu * point["t"]
        want = 1.0 + (mu - k) * point["t"] * (1 + x / 2 + x * x / 6)
        assert abs(point["c"] - want) <= 2e-16
    y = mu / k   # t* = (c0 / k) (-log(1 - y) / y), c0 = 1
    want = (1 / k) * (1 + y / 2 + y * y / 3)
    assert abs(rep["results"]["extinction_time"] - want) <= 1e-15
    assert rep["results"]["extinct_within_horizon"] is False


def _subparsers():
    ap = build_parser()
    return next(a for a in ap._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_the_flag_table_and_the_parser_agree():
    for command, sp in _subparsers().items():
        registered = {s for a in sp._actions for s in a.option_strings
                      if s.startswith("--") and s != "--help"}
        read = {"--format"}.union(*(flags for mode, flags in _READS.items()
                                    if mode.split()[0] == command))
        # every flag registered is read by one of the command's modes, and
        # every flag a mode reads is registered
        assert registered == read, command


# a minimal run of each mode, and a value each flag parses (its default
# where it has one: a flag given at its default value is still refused)
_MODE_ARGV = {
    "curvature": ("curvature", "--metric", "flat"),
    "check": ("check", "--metric", "flat"),
    "verify --suite appendix": ("verify", "--suite", "appendix", "--metric",
                                "flat"),
    "verify --suite bundle": ("verify", "--suite", "bundle", "--metric",
                              "flat"),
    "verify --suite hopf-oracle": ("verify", "--suite", "hopf-oracle"),
    "verify --suite normal-form": ("verify", "--suite", "normal-form"),
    "flow": ("flow", "--metric", "flat"),
    "flow --hopf-ode": ("flow", "--hopf-ode"),
}
_FLAG_ARGV = {
    "--metric": ("flat",), "--metric-file": ("metric.txt",), "--dim": ("2",),
    "--point": ("0,0,0,0",), "--sample": ("1",), "--seed": ("0",),
    "--tol": ("1e-9",), "--format": ("json",), "--connection": ("chern",),
    "--what": ("all",), "--positivity": (), "--suite": ("appendix",),
    "--trials": ("10",), "--points": ("3",), "--hopf-ode": (), "--mu": ("0",),
    "--c0": ("1",), "--T": ("0.01",), "--steps": ("50",), "--grid": ("12",),
    "--dt": ("0.001",), "--cadence": ("1",), "--diagnostics-csv": ("d.csv",),
    "--dump": ("dump.txt",),
}


_UNREAD = [(mode, flag) for mode in _MODE_ARGV for flag in _FLAG_ARGV
           if flag not in ("--format", *_READS[mode])]


def test_the_refusal_matrix_covers_every_mode_and_flag():
    assert set(_MODE_ARGV) == set(_READS)
    assert set(_FLAG_ARGV) == set(_FLAGS)


@pytest.mark.parametrize("mode, flag", _UNREAD)
def test_a_flag_the_mode_does_not_read_is_refused(capsys, tmp_path,
                                                  monkeypatch, mode, flag):
    monkeypatch.chdir(tmp_path)
    code = main([*_MODE_ARGV[mode], flag, *_FLAG_ARGV[flag]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert re.search(re.escape(flag) + r"(?![\w-])", err), err
    assert not list(tmp_path.iterdir())


def test_the_refusal_names_every_flag_as_given(capsys):
    code = main(["flow", "--hopf-ode", "--metric", "flat", "--T", "1",
                 "--dump", "x.txt"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "flow --hopf-ode does not read --metric, --dump" in err
    code = main(["verify", "--suite", "normal-form", "--points", "3",
                 "--metric-f", "metric.txt"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "does not read --points, --metric-file" in err


@pytest.mark.parametrize("mode", _MODE_ARGV)
def test_config_echoes_the_flags_the_mode_reads(capsys, monkeypatch, mode):
    from hermitia import cli
    for command in ("curvature", "check", "verify", "flow"):
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: ({}, 0))
    code, rep = _json(capsys, *_MODE_ARGV[mode])
    assert code == 0
    want = {flag[2:].replace("-", "_")
            for flag in ("--format", *_READS[mode])} - {"points"}
    assert set(rep["config"]) == want | {"subcommand"}
    assert rep["seed"] == rep["config"].get("seed")


def _residuals(capsys, *argv):
    code, rep = _json(capsys, "verify", "--suite", "normal-form", *argv)
    assert code == 0
    return rep["results"]["residuals"]


def test_normal_form_reads_the_seed(capsys):
    # the families are built from seeds seed, ..., seed + trials - 1
    two = _residuals(capsys, "--seed", "0", "--trials", "2")
    zero = _residuals(capsys, "--seed", "0", "--trials", "1")
    one = _residuals(capsys, "--seed", "1", "--trials", "1")
    assert two == {k: max(zero[k], one[k]) for k in two}
    assert _residuals(capsys, "--seed", "5", "--trials", "1") != zero


def test_dim_beside_a_metric_file_is_refused_and_the_file_dim_echoed(
        capsys, tmp_path):
    path = tmp_path / "torus3.txt"
    write_torus_metric(separable_kahler_torus(3, 2), str(path))
    code = main(["check", "--metric-file", str(path), "--dim", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "--dim" in err and "--metric-file" in err
    code, rep = _json(capsys, "check", "--metric-file", str(path))
    assert code == 0
    assert rep["config"]["dim"] == 3
    assert len(rep["results"]["points"][0]["point"]) == 6


def _metric_file(tmp_path):
    path = tmp_path / "torus2.txt"
    write_torus_metric(separable_kahler_torus(2, 2), str(path))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("flow", "--metric", "flat", "--grid", "8", "--T", "0.001"),
    ("flow", "--metric", "hopf"),
    ("flow", "--metric-file", "{file}", "--grid", "8", "--T", "0.001"),
    ("curvature", "--metric", "hopf", "--point", "1,0,0,0"),
    ("curvature", "--metric-file", "{file}", "--point", "0.1,0,0.2,0"),
    ("check", "--metric", "flat", "--point", "0,0,0,0"),
    ("verify", "--suite", "hopf-oracle", "--point", "1,0,0.5,0")])
def test_a_seed_the_run_draws_nothing_from_is_refused(capsys, tmp_path,
                                                      argv):
    # the report echoed the seed, and every seed gave the same results
    argv = [a.format(file=_metric_file(tmp_path)) for a in argv]
    code = main([*argv, "--seed", "5"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "--seed" in err


@pytest.mark.parametrize("argv", [
    ("curvature", "--metric", "normal-form", "--point", "0,0,0,0"),
    ("curvature", "--metric", "hopf", "--sample", "2"),
    ("check", "--metric", "flat", "--point", "0,0,0,0", "--positivity"),
    ("verify", "--suite", "hopf-oracle", "--sample", "2"),
    ("verify", "--suite", "appendix", "--metric", "flat", "--point",
     "0,0,0,0", "--trials", "1"),
    ("flow", "--metric", "random-torus", "--grid", "8", "--T", "0.001")])
def test_a_seed_the_run_draws_from_is_read(capsys, argv):
    code, rep = _json(capsys, *argv, "--seed", "5")
    assert code == 0 and rep["seed"] == 5
