import ast
import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sudler
from sudler import calibration
from sudler.calibration import load_fixtures, save_fixtures
from sudler.cli import SUITES, _parse_grid, main
from sudler.serialize import load_json, table_from_dict, table_to_dict

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sudler.__file__)))


def _python(args):
    """Run a fresh interpreter on this checkout's sources; returns the process."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def test_closed_stdout_gives_no_traceback():
    # A reader that is gone before the first write, as in `sudler ... | head -0`.
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sudler.cli", "verify", "--suite", "constants"],
            stdout=w, stderr=subprocess.PIPE, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": SRC},
        )
    finally:
        os.close(w)
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


def test_verify_constants_stdout(capsys):
    rc = main(["verify", "--suite", "constants"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Vol(4_1)" in out
    assert "PASS" in out


def test_scan_prints_argmax_digits(capsys, tmp_path):
    out = tmp_path / "scan.json"
    rc = main(["scan", "--alpha", "[0;(6)]", "--K", "3", "--c", "2",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "[5, 5, 5]" in text
    doc = load_json(str(out))
    assert doc["schema_version"] == 1
    assert doc["sums"]["2.0"].startswith("0x")


def test_cf_table_roundtrip(tmp_path):
    out = tmp_path / "table.json"
    rc = main(["cf", "--alpha", "[0;2,(1,4)]", "--K", "6", "--out", str(out)])
    assert rc == 0
    doc = load_json(str(out))
    assert table_to_dict(table_from_dict(doc)) == doc


def test_cf_document_with_altered_theta_is_rejected(tmp_path):
    out = tmp_path / "table.json"
    assert main(["cf", "--alpha", "[0;2,(1,4)]", "--K", "6", "--out", str(out)]) == 0
    doc = load_json(str(out))
    doc["theta"][3] = doc["theta"][4]
    with pytest.raises(sudler.SudlerError, match="theta"):
        table_from_dict(doc)


def _readme_command_lines():
    readme = os.path.join(os.path.dirname(SRC), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("sudler ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    lines = _readme_command_lines()
    assert len(lines) == 9
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        assert "Traceback" not in capsys.readouterr().err, line


def test_ostrowski_command(capsys):
    rc = main(["ostrowski", "--alpha", "[0;(2)]", "--K", "3", "--N", "8"])
    assert rc == 0
    assert "[1, 1, 1]" in capsys.readouterr().out


def test_cotangent_csv(tmp_path):
    out = tmp_path / "v.csv"
    rc = main(["cotangent", "--alpha", "[0;(15)]", "--k", "4",
               "--grid", "-0.9:0.9:0.3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "x,direct,main_term,residual"
    assert len(lines) == 2 + 7


def test_limitfn_csv_columns(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["limitfn", "--alpha", "[0;(15)]", "--k", "4",
               "--grid", "-1:1:0.5", "--closed-form", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "x,empirical,closed_form,two_sin"
    assert len(lines) == 2 + 5  # -1, -0.5, 0, 0.5, 1


def test_bad_grid_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["limitfn", "--alpha", "[0;(15)]", "--k", "4", "--grid", "1:0:0.1"])
    assert exc.value.code == 2


def test_bad_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_figures_fig1_columns(tmp_path):
    rc = main(["figures", "--which", "fig1", "--grid", "-1:1:0.25",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "fig1.csv").read_text().splitlines()
    assert lines[1] == "x,a5,a15,a50,two_sin"
    assert len(lines) == 2 + 9


def test_figures_fig3_residual_column(tmp_path, fixtures):
    rc = main(["figures", "--which", "fig3", "--grid", "-0.9:0.9:0.1",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    assert lines[1] == "x,empirical,closed_form,residual"
    resids = [abs(float(row.split(",")[3])) for row in lines[2:]]
    assert max(resids) <= fixtures["limit_curve"]["a15_k4_sup"]


def test_missing_fixtures_directs_to_calibrate(capsys, tmp_path):
    rc = main(["verify", "--suite", "theorem3", "--alpha", "[0;(30)]",
               "--K", "3", "--fixtures", str(tmp_path / "none.json")])
    assert rc == 1
    assert "calibrate" in capsys.readouterr().err


def test_fixture_serialization_deterministic(tmp_path):
    fx = load_fixtures()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_fixtures(fx, str(p1))
    save_fixtures(fx, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert load_fixtures(str(p1)) == fx


def test_calibration_entries_deterministic():
    # component calibrations are pure; two runs agree exactly
    from sudler.calibration import LAW_FITS, _fit_law, _vk_envelopes

    assert _vk_envelopes() == _vk_envelopes()
    theorem3 = next(row for row in LAW_FITS if row[0] == "theorem3")
    assert _fit_law(*theorem3) == _fit_law(*theorem3)


def test_calibrated_theorem_constants_match_fixtures(fixtures):
    # calibrate() fits each law through the report code that verify runs; its
    # theorem constants stay close to the frozen ones, and it writes exactly
    # the file's groups and keys.
    fitted = calibration.calibrate()
    assert fitted.keys() == fixtures.keys()
    for group, entries in fixtures.items():
        if isinstance(entries, dict):
            assert fitted[group].keys() == entries.keys(), group
    for law in ("theorem1", "theorem2", "theorem3"):
        for name, value in fixtures[law].items():
            assert fitted[law][name] == pytest.approx(value, rel=1e-8), (law, name)


def test_fixture_schema(fixtures):
    for key in ("vk_envelope", "vk_star_envelope", "limit_curve", "theorem1",
                "theorem2", "theorem3", "un_residual"):
        assert key in fixtures


def test_sudler_bits_env_is_ignored(monkeypatch, tmp_path):
    # The working precision is fixed; the variable of earlier versions is ignored.
    paths = tmp_path / "default.json", tmp_path / "env.json"
    assert main(["cf", "--alpha", "golden", "--K", "4", "--out", str(paths[0])]) == 0
    monkeypatch.setenv("SUDLER_BITS", "64")
    assert main(["cf", "--alpha", "golden", "--K", "4", "--out", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_rational_depth_error_exits_1(capsys):
    rc = main(["cf", "--alpha", "[0;2,3]", "--K", "5"])
    assert rc == 1
    assert "convergent" in capsys.readouterr().err


def test_theorem_suite_rational_depth_names_k_plus_1(capsys):
    # [0;2,3] has convergents to k = 2; the theorem suites need one more.
    assert main(["verify", "--suite", "theorem1", "--alpha", "[0;2,3]", "--K", "2"]) == 1
    err = capsys.readouterr().err
    assert "only up to k=2; the theorem suites build the table to K + 1 = 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec, K, seed", [("[0;(10)]", "4", "0"), ("[0;(7)]", "5", "3")])
def test_theorem1_samples_distinct_n(capsys, spec, K, seed):
    # Above q_K = 4096 the suite checks 512 seeded N, each once.
    assert main(["verify", "--suite", "theorem1", "--alpha", spec, "--K", K,
                 "--seed", seed]) == 0
    labels = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("N=")]
    assert len(labels) == len(set(labels)) == 512


def test_theorem1_beyond_scan_budget_exits_1(capsys):
    # q_25 > 2^63: refused by the scan's budget check before any N is sampled.
    assert main(["verify", "--suite", "theorem1", "--alpha", "[0;(10)]", "--K", "25"]) == 1
    err = capsys.readouterr().err
    assert "exceeds scan budget 10000000" in err and "Traceback" not in err


def test_theorem3_beyond_scan_budget_exits_1(capsys):
    # N* = 979,960,269,728 at K = 12: refused before the direct product.
    assert main(["verify", "--suite", "theorem3", "--alpha", "[0;(10)]", "--K", "12"]) == 1
    err = capsys.readouterr().err
    assert "exceeds scan budget" in err and "Traceback" not in err


@pytest.mark.parametrize("suite", ["theorem1", "theorem2", "theorem3"])
@pytest.mark.parametrize("K", ["0", "-1"])
def test_theorem_suite_k_below_1_names_flag(capsys, suite, K):
    assert main(["verify", "--suite", suite, "--alpha", "[0;(10)]", f"--K={K}"]) == 1
    assert capsys.readouterr().err == f"error: --K must be >= 1, got {K}\n"


def _imported_modules(node):
    # Dotted names an import statement may bind, with relative imports read
    # from inside the package (which is flat).
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ("sudler" if node.level else "", node.module)))
        return [base, *(f"{base}.{alias.name}" for alias in node.names)]
    return []


def test_only_cli_imports_cli():
    # One import direction: cli -> laws -> kernels.  No other module of the
    # package imports cli, at module level or inside a function.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(sudler.__file__).parent.glob("*.py")) if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if "sudler.cli" in _imported_modules(node)
    ]
    assert offenders == []


def test_verify_report_json(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "theorem2", "--alpha", "[0;(30)]", "--K", "3",
               "--c", "0.5,2,64", "--out", str(out)])
    assert rc == 0
    doc = load_json(str(out))
    assert doc["pass"] is True
    assert len(doc["reports"]) == 3
    assert all(r["pass"] for r in doc["reports"])
    assert (doc["alpha"], doc["K"]) == ("[0;(30)]", 3)


@pytest.mark.parametrize("suite", ["constants", "limits"])
def test_verify_report_json_fixed_suites_record_no_alpha(tmp_path, suite):
    # These suites read neither --alpha nor --K, so the report records neither.
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--alpha", "[0;(7)]", "--K", "2",
                 "--out", str(out)]) == 0
    doc = load_json(str(out))
    assert (doc["suite"], doc["alpha"], doc["K"]) == (suite, None, None)


@pytest.mark.parametrize("text, count, last", [
    ("-0.95:0.95:0.25", 8, 0.8),
    ("-0.9:0.9:0.05", 37, 0.9),
    ("-1:1:0.005", 401, 1.0),
])
def test_grid_stays_within_hi(text, count, last):
    grid = _parse_grid(text)
    assert len(grid) == count
    assert grid[-1] == pytest.approx(last, abs=1e-12)


@pytest.mark.parametrize("text, zero", [
    ("-1:1:0.005", True),
    ("-0.9:0.9:0.05", True),
    ("-0.95:0.95:0.25", False),
])
def test_grid_points_are_exact(text, zero):
    # lo, and 0 where it lies on the grid, are exact, and no point passes hi
    lo, hi, _ = (float(p) for p in text.split(":"))
    grid = _parse_grid(text)
    assert grid[0] == lo
    assert max(grid) <= hi
    assert (0.0 in grid) is zero


@pytest.mark.parametrize("argv", [
    ["scan", "--alpha", "[0;(6)]", "--K", "3", "--c", "abc"],
    ["verify", "--suite", "theorem2", "--c", "abc"],
    ["limitfn", "--alpha", "[0;(15)]", "--k", "3", "--grid", "0:1e15:1"],
    ["cotangent", "--alpha", "[0;(15)]", "--k", "3", "--grid", "0:1e15:1"],
    ["figures", "--which", "fig1", "--out", "figs", "--grid", "0:1e300:1e-300"],
    # q_3 = 8,040 > 4,096, so theorem1 would draw a seeded sample
    ["verify", "--suite", "theorem1", "--alpha", "[0;(20)]", "--K", "3", "--seed", "-1"],
], ids=["scan-bad-c", "verify-bad-c", "limitfn-huge-grid", "cotangent-huge-grid",
        "figures-overflowing-grid", "verify-negative-seed"])
def test_bad_argument_exits_2_without_traceback(argv):
    proc = _python(["-m", "sudler.cli", *argv])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize("a", [20, 30])
def test_verify_decomp_large_digits(a, capsys):
    # q_3 = 8,040 and 27,060: one decompose per N took 5.1 s and about a
    # minute; the one-pass walk takes well under a second.
    rc = main(["verify", "--suite", "decomp", "--alpha", f"[0;({a})]", "--K", "3"])
    out, err = capsys.readouterr()
    assert rc == 0, out + err
    assert "Traceback" not in err
    assert out.startswith("decomposition identity N<q_3:") and "PASS" in out


def test_verify_decomp_honours_k(capsys):
    # --K is not capped at 5: golden at K = 9 walks every N < q_9 = 55.
    rc = main(["verify", "--suite", "decomp", "--alpha", "golden", "--K", "9"])
    out, err = capsys.readouterr()
    assert rc == 0, out + err
    assert out.startswith("decomposition identity N<q_9:") and "PASS" in out


@pytest.mark.parametrize("argv", [
    ["cf", "--alpha", "golden", "--K", "3"],
    ["ostrowski", "--alpha", "golden", "--K", "4", "--N", "3"],
    ["scan", "--alpha", "[0;(5)]", "--K", "3"],
    ["cotangent", "--alpha", "[0;(15)]", "--k", "3", "--grid", "0:0.5:0.25"],
    ["verify", "--suite", "decomp", "--alpha", "[0;(5)]", "--K", "2"],
    ["calibrate"],
], ids=["cf", "ostrowski", "scan", "cotangent", "verify", "calibrate"])
def test_unwritable_out_exits_1(argv, tmp_path, capsys, monkeypatch):
    # A full calibration takes too long here; its fixtures go through the same write.
    monkeypatch.setattr(calibration, "calibrate", lambda out_path: save_fixtures({}, out_path))
    assert main([*argv, "--out", str(tmp_path / "missing" / "x.json")]) == 1
    assert "error: [Errno 2]" in capsys.readouterr().err


def test_figures_out_that_is_a_file_exits_1(tmp_path, capsys):
    path = tmp_path / "fig.csv"
    path.write_text("")
    assert main(["figures", "--which", "fig3", "--grid", "0:0.5:0.25", "--out", str(path)]) == 1
    assert "error: [Errno 17]" in capsys.readouterr().err


def test_fixtures_without_limit_curve_exit_1(tmp_path):
    path = tmp_path / "fixtures.json"
    fx = load_fixtures()
    del fx["limit_curve"]
    save_fixtures(fx, str(path))
    proc = _python(["-m", "sudler.cli", "verify", "--suite", "limits",
                    "--fixtures", str(path)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "limit_curve" in proc.stderr


def test_package_imports_without_scipy():
    proc = _python(["-c", "import sudler, sudler.cli, sys; assert not any("
                          "m.split('.')[0] == 'scipy' for m in sys.modules)"])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("content", ["{not json", None], ids=["not-json", "directory"])
def test_unreadable_fixtures_exit_1(tmp_path, content):
    path = tmp_path  # a directory unless content is given
    if content is not None:
        path = tmp_path / "bad.json"
        path.write_text(content)
    proc = _python(["-m", "sudler.cli", "verify", "--suite", "theorem3",
                    "--alpha", "[0;(30)]", "--fixtures", str(path)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "cannot read calibration fixtures" in proc.stderr


@pytest.mark.parametrize("flag", [["--parallelism", "0"], ["--top", "-1"]],
                         ids=["parallelism-0", "top-negative"])
def test_bad_scan_argument_exits_1(flag):
    proc = _python(["-m", "sudler.cli", "scan", "--alpha", "[0;(6)]", "--K", "3", *flag])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["scan", "--alpha", "[0;(6)]", "--K", "3", "--c", "nan,inf"],
    ["scan", "--alpha", "[0;(6)]", "--K", "3", "--c", "2,inf"],
    ["verify", "--suite", "theorem2", "--alpha", "[0;(6)]", "--K", "3", "--c", "nan"],
    ["verify", "--suite", "theorem2", "--alpha", "[0;(6)]", "--K", "3", "--c", "inf"],
], ids=["scan-nan-inf", "scan-inf", "verify-nan", "verify-inf"])
def test_non_finite_norm_exponent_exits_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "error: " in captured.err and "finite" in captured.err
    assert "nan" not in captured.out


# Argument vectors for the fuzz test below.  Digits and K stay small so that
# every run is quick; integer parts reach past 2^63, where p_k no longer fits
# int64.  [0;(20)] has q_3 = 8,040 > 4,096, where `verify --suite theorem1`
# takes its seeded sample (the explicit example below always runs it).
_INTS = st.integers(-2, 5).map(str) | st.sampled_from(["40", "abc", ""])
_ALPHAS = st.one_of(
    st.sampled_from(["golden", "[0;2,(1,4)]", "[0;2,3]", "rule:powers-of-two",
                     "[0;(", "[0;0]", "pi", "[0;1]", "[0;2,1]", "[1;3,4,1]",
                     "[0;(20)]"]),
    st.builds("[{};({})]".format, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 6)),
)
_GRIDS = st.sampled_from(["-0.9:0.9:0.45", "0.3:0.3:1", "0:1:0.5", "-1.5:1.5:1.5",
                          "-2:2:2", "1:0:1", "0:1:0", "a:b:c", "0:inf:1",
                          "0:1e15:1", "0:1e300:1e-300"])
_COMMON = st.tuples(st.just("--alpha"), _ALPHAS)


def _argv(*parts):
    return st.tuples(*parts).map(
        lambda t: [str(tok) for part in t
                   for tok in (part if isinstance(part, (tuple, list)) else (part,))])


def _opt(flag, values):
    return st.just(()) | values.map(lambda v: (flag, v))


_ARGVS = st.one_of(
    _argv(st.just("cf"), _COMMON, st.just("--K"), _INTS),
    _argv(st.just("ostrowski"), _COMMON, st.just("--K"), _INTS,
          st.just("--N"), st.integers(-3, 10 ** 6)),
    _argv(st.just("scan"), _COMMON, st.just("--K"), _INTS,
          _opt("--c", st.sampled_from(["2", "0.5,64", "-1", "0", "abc", "inf", "nan"])),
          _opt("--parallelism", st.integers(-1, 2)), _opt("--top", st.integers(-1, 4)),
          _opt("--budget", st.integers(0, 5000))),
    _argv(st.just("cotangent"), _COMMON, st.just("--k"), _INTS,
          st.just("--grid"), _GRIDS, _opt("--starred", st.just(""))),
    _argv(st.just("limitfn"), _COMMON, st.just("--k"), _INTS, st.just("--grid"), _GRIDS,
          _opt("--closed-form", st.just("")), _opt("--budget", st.integers(0, 5000))),
    _argv(st.just("figures"), st.just("--which"),
          st.sampled_from(["fig1", "fig2", "fig3", "fig4"]), st.just("--grid"), _GRIDS),
    _argv(st.just("verify"), _COMMON, st.just("--suite"),
          st.sampled_from((*SUITES, "nope")), st.just("--K"), st.integers(-1, 3),
          _opt("--c", st.sampled_from(["2", "-1", "abc", "nan", "inf"])),
          _opt("--seed", st.integers(-3, 3))),
    st.sampled_from([[], ["--version"], ["calibrate", "--out"], ["calibrate", "--bogus"]]),
).map(lambda argv: [tok for tok in argv if tok != ""])


@given(argv=_ARGVS)
@example(argv=["cotangent", "--alpha", "[100000000000000;(15)]", "--k", "5",
               "--grid", "0.3:0.3:1"])
@example(argv=["verify", "--suite", "theorem1", "--alpha", "[0;(20)]", "--K", "3",
               "--seed", "2"])
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exits_cleanly(argv, tmp_path_factory):
    # Every subcommand, and calibrate's parser (a full calibration takes too
    # long to fuzz): exit 0, 1 or 2 with a message, never a traceback.
    if argv[:1] == ["figures"]:
        argv = argv + ["--out", str(tmp_path_factory.getbasetemp() / "fuzz-figures")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --version
            rc = exc.code
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    assert rc != 0 or "nan" not in out.getvalue(), argv
