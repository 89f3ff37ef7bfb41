import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from halfspace_qed import energy
from halfspace_qed.cli import main
from halfspace_qed.config import (
    DEFAULT_TOLERANCES,
    ConfigError,
    load_config,
    spec_from_config,
)
from halfspace_qed.spectral import QuadratureError
from halfspace_qed.report import (
    all_passed,
    from_json,
    make_check,
    to_csv,
    to_json,
    write_atomic,
)


def test_make_check_modes():
    r = make_check("demo", {"n": 2.0}, 1.0, 1.0 + 1e-9, tol=1e-6, mode="abs")
    assert r.passed and r.abs_err == pytest.approx(1e-9)
    r = make_check("demo", {}, 100.0, 101.0, tol=1e-4, mode="rel")
    assert not r.passed and r.rel_err == pytest.approx(1.0 / 101.0)
    with pytest.raises(ValueError):
        make_check("demo", {}, 0.0, 0.0, tol=1.0, mode="almost")


def test_pass_iff_declared_mode_error_below_tol():
    r = make_check("demo", {}, 1e6, 1e6 + 1.0, tol=1e-5, mode="rel")
    assert r.passed  # rel err 1e-6 although abs err is 1.0
    r = make_check("demo", {}, 1e6, 1e6 + 1.0, tol=1e-5, mode="abs")
    assert not r.passed


def test_json_empty_report():
    assert to_json([]) == "[]\n"
    assert from_json("[]") == []


def test_json_round_trip_identical():
    reports = [
        make_check("alpha", {"n": 2.0, "seed": 42}, 0.123456789012345678, 0.0, 1e-6, "abs", 17),
        make_check("beta", {"label": "x"}, -1.5e-11, -1.5e-11, 1e-12, "rel", 3),
    ]
    text = to_json(reports)
    back = from_json(text)
    assert [r.check_name for r in back] == ["alpha", "beta"]
    for a, b in zip(reports, back):
        assert a.lhs == b.lhs and a.rhs == b.rhs
        assert a.abs_err == b.abs_err and a.rel_err == b.rel_err
        assert a.tol == b.tol and a.passed == b.passed and a.runtime_ms == b.runtime_ms
    # re-export reproduces identical bytes
    assert to_json(back) == text


def test_json_field_names_and_pass_key():
    r = make_check("gamma", {"n": 1.5}, 1.0, 2.0, 0.5, "rel", 5)
    obj = json.loads(to_json([r]))[0]
    assert sorted(obj.keys()) == sorted(
        ["check_name", "params", "lhs", "rhs", "abs_err", "rel_err", "tol", "pass", "runtime_ms"]
    )
    assert obj["pass"] is True


def test_csv_format():
    r = make_check("gamma", {"n": 1.5}, 1.0, 1.0, 0.5, "abs", 5)
    text = to_csv([r])
    lines = text.splitlines()
    assert lines[0] == "check_name,param_summary,lhs,rhs,abs_err,rel_err,tol,pass,runtime_ms"
    assert lines[1].startswith("gamma,mode=abs;n=1.5,1,1,0,0,0.5,true,5")
    assert text.endswith("\n") and "\r" not in text


def test_atomic_write_and_export(tmp_path):
    target = tmp_path / "out.json"
    reports = [make_check("a", {}, 0.0, 0.0, 1.0, "abs")]
    write_atomic(str(target), to_json(reports))
    assert from_json(target.read_text())[0].check_name == "a"
    write_atomic(str(target), to_csv(reports))
    assert target.read_text().startswith("check_name,")
    # a write that fails keeps the old file whole
    with pytest.raises(TypeError):
        write_atomic(str(target), None)
    assert target.read_text() == to_csv(reports)
    # no stray temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_all_passed():
    good = make_check("a", {}, 0.0, 0.0, 1.0, "abs")
    bad = make_check("b", {}, 0.0, 1.0, 1e-6, "abs")
    assert all_passed([good]) and not all_passed([good, bad])


def test_config_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nquad.abs_tol = 1e-13  # trailing comment\n\n")
    cfg = load_config(str(cfg_file))
    assert cfg == {"quad.abs_tol": "1e-13"}
    spec = spec_from_config(cfg)
    assert spec.abs_tol == 1e-13
    assert spec.rel_tol == 1e-9  # default preserved
    cfg_file.write_text("quad.rel_tol = 1e-11\n")
    spec = spec_from_config(load_config(str(cfg_file)))
    assert spec.rel_tol == 1e-11 and spec.abs_tol == 1e-12  # default preserved


def test_config_error_has_line_number(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("quad.abs_tol = 1e-13\nnot a pair\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(cfg_file))
    assert ":2:" in str(err.value)


@pytest.mark.parametrize("line, key", [
    ("quad.abs_tl = 1e-13", "quad.abs_tl"),
    ("tol.fresnell = 1e-10", "tol.fresnell"),
    # check bounds are constants and the seed is a verify flag, so these
    # retired keys are unknown ones whatever their value
    ("tol.fresnel = inf", "tol.fresnel"),
    ("tol.fresnel = nan", "tol.fresnel"),
    ("tol.fresnel = -1", "tol.fresnel"),
    ("tol.energy = 0", "tol.energy"),
    ("tol.energy = tight", "tol.energy"),
    ("seed = 1.5", "seed"),
    ("seed = -3", "seed"),
    ("quad.abs_tol = inf", "quad.abs_tol"),
    ("quad.rel_tol = 10", "quad.rel_tol"),  # no decade of the damped decay to keep
    ("quad.trunc_decades = 0", "quad.trunc_decades"),  # a retired key is an unknown one
    ("quad.max_periods = 4", "quad.max_periods"),  # a retired key is an unknown one
])
def test_cli_rejects_bad_config_naming_the_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"quad.abs_tol = 1e-12\n{line}\n")
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "fresnel", "--config", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["quad.max_periods", "quad.accel_order", "quad.trunc_decades",
                                 "seed", "tol.energy", "tol.energy.image"])
def test_cli_rejects_the_retired_engine_keys(tmp_path, capsys, key):
    # the engine has no half-period cap, acceleration order or truncation
    # left to set, the seed is the verify --seed flag and every check bound
    # is a constant of DEFAULT_TOLERANCES
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"quad.abs_tol = 1e-12\n{key} = 64\n")
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "fresnel", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


KNOWN_KEYS = {"quad.abs_tol", "quad.rel_tol"}


@settings(max_examples=50, deadline=None)
@given(key=st.text("abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=20)
       .filter(lambda k: k not in KNOWN_KEYS))
def test_load_config_rejects_unknown_keys_by_name(key):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "unknown.cfg"
        path.write_text(f"quad.abs_tol = 1e-12\n{key} = 1\n")
        with pytest.raises(ConfigError, match=re.escape(f":2: unknown config key {key!r}")):
            load_config(str(path))


@settings(max_examples=50, deadline=None)
@given(key=st.text("abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=20)
       .filter(lambda k: k not in KNOWN_KEYS))
def test_settings_reject_unknown_keys_by_name(key):
    # a misspelt key passed as a dict through the Python API must not fall
    # back to the defaults
    with pytest.raises(ConfigError, match=re.escape(f"unknown config key {key!r}")):
        spec_from_config({"quad.abs_tol": "1e-12", key: "1"})
    with pytest.raises(ConfigError, match=re.escape("'tol.fresnell'")):
        spec_from_config({"tol.fresnell": "1e-3", "quad.abs_tl": "1"})


@settings(max_examples=50, deadline=None)
@given(tol_key=st.sampled_from(sorted(DEFAULT_TOLERANCES)),
       bad_tol=st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf]))
def test_settings_reject_bad_tolerances_and_seed(tol_key, bad_tol):
    # no config sets a check bound or the seed, bad value or good
    for key in (tol_key, "seed"):
        for value in (repr(bad_tol), "1e-3", "7"):
            with pytest.raises(ConfigError, match=re.escape(f"unknown config key {key!r}")):
                spec_from_config({key: value})
    for key, value in (("quad.abs_tol", "inf"), ("quad.abs_tol", "x"), ("quad.trunc_decades", "0"),
                       ("quad.rel_tol", "10"), ("quad.rel_tol", "1.5")):
        with pytest.raises(ConfigError, match=re.escape(key)):
            spec_from_config({key: value})


def test_cli_fresnel_table(tmp_path, capsys):
    out = tmp_path / "fresnel.csv"
    assert main(["fresnel", "--n", "1.5", "--pol", "TM", "--kpar", "0.5,1.0",
                 "--kz", "1.0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("pol,kpar,kz_re")
    assert len(lines) == 3


def test_cli_modes_eval(capsys):
    assert main(["modes", "eval", "--n", "2.0", "--side", "R", "--pol", "TM",
                 "--kpar", "1.0", "--klong", "0.8", "--steps", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "z,fx_re,fx_im,fy_re,fy_im,fz_re,fz_im"
    assert len(lines) == 6


def test_cli_modes_eval_evanescent(capsys):
    assert main(["modes", "eval", "--n", "2.0", "--side", "R", "--pol", "TM",
                 "--kpar", "1.0", "--klong", "0.5j", "--steps", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_cli_modes_eval_left_incidence(capsys):
    assert main(["modes", "eval", "--n", "2.0", "--side", "L", "--pol", "TE",
                 "--kpar", "1.0", "--klong", "1.2", "--steps", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_cli_greens_region_mismatch_is_an_error(capsys):
    code = main(["greens", "eval", "--n", "2.0", "--variant", "transmitted",
                 "--source", "0,0,1", "--start", "0.5,0,0.2", "--stop", "0.5,0,2",
                 "--steps", "3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_greens_eval(capsys):
    assert main(["greens", "eval", "--n", "2.0", "--variant", "full",
                 "--source", "0,0,1", "--start", "0.5,0,0.2", "--stop", "0.5,0,2",
                 "--steps", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("x,y,z,G,T_xx")
    assert len(lines) == 5


@pytest.mark.parametrize(
    "kind", ["generalized_delta", "gauge_difference", "true_coulomb", "perfect_reflector"])
def test_cli_kernel_verify(tmp_path, capsys, kind):
    # the perfect reflector is the large-n limit, so it is checked at a large index
    n = "10.0" if kind == "perfect_reflector" else "2.0"
    points = tmp_path / "points.csv"
    points.write_text("x,y,z,xp,yp,zp\n0.4,-0.2,0.8,0.1,0.3,0.5\n")
    out = tmp_path / "kernel.json"
    code = main(["kernel", "verify", "--kind", kind, "--n", n,
                 "--points", str(points), "--out", str(out)])
    assert code == 0
    reports = from_json(out.read_text())
    assert len(reports) == 1 and reports[0].passed
    assert reports[0].params["kind"] == kind and reports[0].lhs < 1e-6
    assert "seed" not in reports[0].params  # nothing is sampled


def test_cli_kernel_verify_bad_header(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text("a,b,c\n0.4,-0.2,0.8,0.1,0.3,0.5\n")
    assert main(["kernel", "verify", "--kind", "true_coulomb", "--n", "2.0",
                 "--points", str(points)]) == 2
    captured = capsys.readouterr()
    assert f"error: {points}:1: expected header x,y,z,xp,yp,zp" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind, body, where", [
    ("true_coulomb", "", ": no point pairs"),
    ("true_coulomb", "\n", ": no point pairs"),
    ("true_coulomb", "0.4,-0.2,0.8,0.1,0.3\n", ":2: expected 6 values, got 5"),
    ("true_coulomb", "0.4,-0.2,0.8,0.1,0.3,0.5\n\n0.4,-0.2,0.8,0.1,0.3,0.5,1\n",
     ":4: expected 6 values, got 7"),
    ("true_coulomb", "0.4,-0.2,0.8,0.1,0.3,abc\n", ":2: could not convert string to float: 'abc'"),
    ("true_coulomb", "0.4,-0.2,0.8,0.1,0.3,-0.5\n",
     ":2: the source point must lie outside the dielectric"),
    ("perfect_reflector", "0.4,-0.2,0.8,0.1,0.3,0.5\n0.4,-0.2,-0.8,0.1,0.3,0.5\n",
     ":3: the perfect-reflector kernel lives in z >= 0, got z = -0.8"),
], ids=["empty", "blank-line", "short", "long", "non-numeric", "source-inside",
        "reflector-below"])
def test_cli_kernel_verify_rejects_bad_points_naming_the_line(tmp_path, capsys, kind, body, where):
    # a points file with no pair, or a row that is not one (of the kind: the
    # mirror form lives above the interface), is bad input (exit 2), never a
    # pass over nothing or a failed check (exit 1)
    points = tmp_path / "points.csv"
    points.write_text("x,y,z,xp,yp,zp\n" + body)
    out = tmp_path / "kernel.json"
    assert main(["kernel", "verify", "--kind", kind, "--n", "2.0",
                 "--points", str(points), "--out", str(out)]) == 2
    assert f"error: {points}{where}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_kernel_verify_takes_no_seed(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text("x,y,z,xp,yp,zp\n0.4,-0.2,0.8,0.1,0.3,0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "verify", "--kind", "true_coulomb", "--n", "2.0",
              "--points", str(points), "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_cli_energy_shift_and_sweep(tmp_path, capsys):
    assert main(["energy", "shift", "--n", "2.0", "--z0", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expected_ratio"] == 0.375
    assert abs(payload["ratio"] - 0.375) < 1e-4
    out = tmp_path / "sweep.csv"
    assert main(["energy", "sweep", "--n-grid", "1.5,2.0", "--z0-grid", "1.0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,z0,q,delta_e")
    assert len(lines) == 3


@pytest.mark.parametrize("argv, name", [
    (["energy", "shift", "--n", "2", "--z0", "1", "--q", "1e200"], "q"),
    (["energy", "shift", "--n", "2", "--z0", "0"], "z0"),
    (["energy", "sweep", "--n-grid", "2", "--z0-grid", "1,-1"], "z0"),
    (["energy", "shift", "--n", "2", "--q", "1e150", "--z0", "1e-100"], "q and z0"),
    (["energy", "shift", "--n", "1e200", "--z0", "1"], "refractive index"),
])
def test_cli_energy_rejects_inputs_off_the_engine_range(capsys, argv, name):
    # exit 2 naming the parameter: no traceback, and no -inf energies or nan
    # ratio with exit 0 (an n with n**2 = inf died in an OverflowError)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {name} must" in captured.err and captured.out == ""


def test_cli_energy_takes_any_height_with_a_finite_scale(capsys):
    # any finite z0 > 0 whose q^2/z0 is finite, here 1e-20
    assert main(["energy", "shift", "--n", "2", "--q", "1e-160", "--z0", "1e-300"]) == 0
    out = capsys.readouterr().out
    assert "ratio" in out and "nan" not in out and "inf" not in out


@pytest.mark.parametrize("argv", [
    ["energy", "shift", "--n", "2", "--z0", "1"],
    ["energy", "sweep", "--n-grid", "2", "--z0-grid", "1"],
])
def test_cli_reports_an_integral_that_misses_its_tolerance(monkeypatch, capsys, argv):
    # a QuadratureError (energy shift --n 1e153 overflows the travelling body)
    # is an error line and exit 1, not a traceback
    def stalled(*args):
        raise QuadratureError("cut integral stalled at error 1e-3 after 800 panels")

    monkeypatch.setattr(energy, "cut_segment_integral", stalled)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cut integral stalled at error 1e-3 after 800 panels\n"
    assert captured.out == ""


def test_cli_overflowing_integrand_is_one_error_line(tmp_path):
    # kernel verify at n = 1e153 overflows in the s contour's body: the run
    # prints the QuadratureError of the non-finite panel alone, with no numpy
    # RuntimeWarning before it.  energy shift at that n, whose body overflowed
    # the same way, is rejected at its boundary, naming n
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    points = tmp_path / "points.csv"
    points.write_text("x,y,z,xp,yp,zp\n0.3,0.1,0.6,0.0,0.0,0.7\n")
    run = subprocess.run([sys.executable, "-m", "halfspace_qed", "kernel", "verify", "--kind",
                          "generalized_delta", "--n", "1e153", "--points", str(points)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 1
    assert run.stdout == ""
    assert re.fullmatch(r"error: non-finite integrand on the panel \[[^\n]*\]\n", run.stderr)
    run = subprocess.run([sys.executable, "-m", "halfspace_qed", "energy", "shift", "--n", "1e153",
                          "--z0", "1"], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 2
    assert run.stdout == ""
    assert re.fullmatch(r"error: n must be at most 1\.1247e\+151, [^\n]*got n=1e\+153\n",
                        run.stderr)


def test_cli_energy_sweep_at_zero_charge(capsys):
    assert main(["energy", "sweep", "--q", "0", "--n-grid", "2", "--z0-grid", "1"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[3]) == 0.0 and float(row[4]) == 0.0  # delta_e and v_es
    assert abs(float(row[5]) - 0.375) < 1e-4  # the ratio of the unit-charge sums


@pytest.mark.parametrize("argv, flag", [
    (["fresnel", "--n", "2", "--kpar", "1:2"], "--kpar"),
    (["fresnel", "--n", "2", "--kz", "0.2:2:0"], "--kz"),
    (["energy", "sweep", "--n-grid", "1.5,abc"], "--n-grid"),
    (["energy", "sweep", "--z0-grid", "1:2:x"], "--z0-grid"),
    (["fresnel", "--n", "2", "--kpar", "nan"], "--kpar"),
    (["energy", "sweep", "--z0-grid", "0.5:inf:3"], "--z0-grid"),
])
def test_cli_bad_grid_is_a_usage_error_naming_the_flag(capsys, argv, flag):
    # a grid is parsed by argparse: exit 2 with the flag named, before any work
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


MODES = ["modes", "eval", "--n", "2"]
GREENS = ["greens", "eval", "--n", "2", "--source", "0,0,1", "--start", "0,0,0.5",
          "--stop", "0,0,2"]


@pytest.mark.parametrize("argv, flag", [
    (MODES + ["--kpar", "nan", "--klong", "0.5"], "--kpar"),
    (MODES + ["--kpar", "1", "--klong", "abc"], "--klong"),
    (MODES + ["--kpar", "1", "--klong", "inf+1j"], "--klong"),
    (MODES + ["--kpar", "1", "--klong", "0.5", "--x", "inf"], "--x"),
    (MODES + ["--kpar", "1", "--klong", "0.5", "--y", "abc"], "--y"),
    (MODES + ["--kpar", "1", "--klong", "0.5", "--zmin", "nan"], "--zmin"),
    (MODES + ["--kpar", "1", "--klong", "0.5", "--zmax", "-inf"], "--zmax"),
    (MODES + ["--kpar", "1", "--klong", "0.5", "--steps", "-1"], "--steps"),
    (MODES + ["--kpar", "1", "--klong", "0.5", "--steps", "2.5"], "--steps"),
    (GREENS + ["--steps", "0"], "--steps"),
    (GREENS + ["--stop", "0,0"], "--stop"),
    (GREENS + ["--stop", "0,nan,1"], "--stop"),
    (["verify", "--suite", "fresnel", "--seed", "-1"], "--seed"),
    (["verify", "--suite", "fresnel", "--seed", "1.5"], "--seed"),
])
def test_cli_bad_scalar_is_a_usage_error_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fresnel", "--n", "2"],
    MODES + ["--kpar", "1", "--klong", "0.5"],
    GREENS,
], ids=["fresnel", "modes-eval", "greens-eval"])
def test_cli_tables_take_no_config(tmp_path, capsys, argv):
    # the closed-form tables run no quadrature, so they have no settings to read
    cfg = tmp_path / "run.cfg"
    cfg.write_text("quad.abs_tol = 1e-12\n")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(cfg)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("klong", ["5j", "-0.5j", "1+0.5j", "-0.5", "0"])
def test_cli_rejects_right_labels_off_the_label_set(capsys, klong):
    # right-incident labels are kz > 0 or i t; at n = 2, |k_par| = 1 the
    # evanescent segment is 0 < t <= Gamma = sqrt(3)/2
    assert main(MODES + ["--kpar", "1", f"--klong={klong}"]) == 2
    captured = capsys.readouterr()
    assert "--klong" in captured.err and "Gamma" in captured.err
    assert captured.out == ""
    assert main(MODES + ["--kpar", "1", f"--klong={math.sqrt(3.0) / 2.0}j", "--steps", "2"]) == 0


def test_cli_verify_suite(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "fresnel", "--out", str(out)]) == 0
    reports = from_json(out.read_text())
    assert len(reports) >= 3
    assert all(r.passed for r in reports)
    assert all(r.params.get("seed") == 42 for r in reports)
    # seeded determinism: identical runs give identical numbers
    out2 = tmp_path / "report2.json"
    assert main(["verify", "--suite", "fresnel", "--out", str(out2)]) == 0
    a = from_json(out.read_text())
    b = from_json(out2.read_text())
    for ra, rb in zip(a, b):
        assert ra.lhs == rb.lhs and ra.abs_err == rb.abs_err


def test_cli_verify_seed_flag(tmp_path):
    out = tmp_path / "seeded.json"
    assert main(["verify", "--suite", "fresnel", "--seed", "7", "--out", str(out)]) == 0
    reports = from_json(out.read_text())
    assert all(r.params.get("seed") == 7 for r in reports)


def test_cli_verify_seed_recorded_in_nonsampled_suite(tmp_path):
    out = tmp_path / "modes.json"
    assert main(["verify", "--suite", "modes", "--out", str(out)]) == 0
    assert all(r.params.get("seed") == 42 for r in from_json(out.read_text()))


def test_cli_verify_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", "fresnel", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check_name,param_summary,lhs,rhs,abs_err,rel_err,tol,pass,runtime_ms"
    assert len(lines) == 4
    assert all(line.split(",")[7] == "true" for line in lines[1:])


def test_cli_failing_check_fails_the_run(tmp_path, monkeypatch):
    # the suites read their bounds from DEFAULT_TOLERANCES when they run, and
    # a single failing row makes verify exit 1
    monkeypatch.setitem(DEFAULT_TOLERANCES, "tol.fresnel", 1e-30)
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "fresnel", "--out", str(out)]) == 1
    reports = from_json(out.read_text())
    assert all(r.tol == 1e-30 for r in reports) and any(not r.passed for r in reports)


def test_cli_error_paths(capsys):
    assert main(["verify", "--suite", "fresnel", "--config", "/nonexistent.cfg"]) == 2
    assert "error:" in capsys.readouterr().err
