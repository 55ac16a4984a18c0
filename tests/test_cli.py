"""Tests for the command line front door: verbs, artifacts, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import idlaws
from idlaws.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


# -- eval --------------------------------------------------------------------------


def test_eval_gaussian_csv(tmp_path, capsys) -> None:
    out = tmp_path / "eval.csv"
    code, stdout, _ = run(
        ["eval", "--catalog", "gaussian:0,1", "--t-max", "10", "--points", "201",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert str(out) in stdout
    header, rows = read_csv(out)
    assert header == ["t", "re", "im", "log_re", "log_im"]
    assert rows.shape == (201, 5)
    t = rows[:, 0]
    assert np.max(np.abs(rows[:, 3] - (-t * t / 2.0))) < 1e-9


def test_eval_requires_law_source(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--t-max", "5"])
    assert exc.value.code == 2


# -- convert -----------------------------------------------------------------------


def test_convert_poisson_to_kolmogorov(tmp_path, capsys) -> None:
    out = tmp_path / "conv.json"
    code, _, _ = run(
        ["convert", "--catalog", "poisson:1,1", "--to", "kolmogorov", "--out", str(out)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["version"]
    assert doc["config"]["to"] == "kolmogorov"
    law = doc["law"]
    assert law["form"] == "kolmogorov"
    assert law["gamma"] == pytest.approx(1.0)
    assert law["measures"]["K"]["atoms"] == [[1.0, 1.0]]


def test_convert_cauchy_infinite_variance(capsys) -> None:
    code, stdout, _ = run(
        ["convert", "--catalog", "cauchy:1", "--to", "kolmogorov"], capsys
    )
    assert code == 2
    err = json.loads(stdout)
    assert err["error"]["code"] == "InfiniteVariance"


# -- invert ------------------------------------------------------------------------


def test_invert_poisson_report(tmp_path, capsys) -> None:
    out = tmp_path / "inv.json"
    code, _, _ = run(
        ["invert", "--catalog", "poisson:1,1", "--t-span", "80", "--out", str(out)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    atoms = doc["recovered"]["atoms"]
    assert len(atoms) == 1
    loc, mass = atoms[0]
    assert abs(loc - 1.0) < 0.01
    assert abs(mass - 0.5) < 2e-3
    assert doc["window"]["taper_span"] >= 80.0
    assert doc["window"]["k_sign"] == -1
    assert doc["config"]["t_span"] == 80.0
    assert len(doc["k_samples"]["u"]) == len(doc["k_samples"]["k"])


def test_invert_insufficient_span_reports_the_span_in_full(tmp_path, capsys) -> None:
    """At step 0.003 Delta spans 39.998...; to 3 digits that read as 40."""
    argv = ["invert", "--catalog", "poisson:1,1", "--t-span", "40", "--t-step", "0.003"]
    code, stdout, _ = run(argv + ["--out", str(tmp_path / "inv.json")], capsys)
    assert code == 2
    message = json.loads(stdout)["error"]["message"]
    span = float(message.split("[0, ")[1].split("]")[0])
    assert 39.99 < span < 40.0
    assert not (tmp_path / "inv.json").exists()


# -- verify-id ---------------------------------------------------------------------


def test_verify_id_gaussian(tmp_path, capsys) -> None:
    out = tmp_path / "v.json"
    code, _, _ = run(
        ["verify-id", "--catalog", "gaussian:0,1", "--out", str(out)], capsys
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["roots_checked"] == [2, 3, 5]


def test_verify_id_gaussian_past_cf_underflow(tmp_path, capsys) -> None:
    """exp(-t^2/2) is 0.0 in float64 beyond |t| ~ 38.6; that is no zero of the CF."""
    out = tmp_path / "v.json"
    argv = ["verify-id", "--catalog", "gaussian:0,1", "--t-max", "40", "--points", "8001"]
    code, _, _ = run(argv + ["--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True, doc["reason"]
    assert doc["zero_location"] is None


# -- approx-cp ---------------------------------------------------------------------


def test_approx_cp_cauchy(tmp_path, capsys) -> None:
    out = tmp_path / "a.json"
    code, _, _ = run(
        ["approx-cp", "--catalog", "cauchy:1", "--epsilons", "0.5,0.1,0.02",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    errs = [e["sup_error"] for e in doc["entries"]]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05


def test_approx_cp_rejects_increasing_epsilons(capsys) -> None:
    code, stdout, _ = run(
        ["approx-cp", "--catalog", "cauchy:1", "--epsilons", "0.1,0.5"], capsys
    )
    assert code == 2
    assert json.loads(stdout)["error"]["code"] == "ValueError"


# -- simulate ----------------------------------------------------------------------


def test_simulate_paths_csv(tmp_path, capsys) -> None:
    out = tmp_path / "p.csv"
    argv = ["simulate", "--catalog", "poisson:1,1", "--seed", "4", "--horizon", "2",
            "--steps", "10", "--paths", "3", "--out", str(out)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["path_id", "time", "value"]
    assert rows.shape == (33, 3)
    # unit-jump law: per-path values non-decreasing
    for pid in range(3):
        vals = rows[rows[:, 0] == pid][:, 2]
        assert np.all(np.diff(vals) >= 0)
    first = out.read_bytes()
    run(argv, capsys)
    assert out.read_bytes() == first


def test_simulate_emits_empirical_cf(tmp_path, capsys) -> None:
    out = tmp_path / "p.csv"
    cf_out = tmp_path / "cf.csv"
    code, _, _ = run(
        ["simulate", "--catalog", "gaussian:0,1", "--seed", "1", "--horizon", "1",
         "--steps", "4", "--paths", "50", "--out", str(out),
         "--cf-out", str(cf_out), "--cf-points", "21"],
        capsys,
    )
    assert code == 0
    header, rows = read_csv(cf_out)
    assert header == ["t", "re", "im", "half_width"]
    assert rows.shape == (21, 4)
    mid = rows[10]
    assert mid[0] == 0.0 and mid[1] == 1.0 and mid[2] == 0.0


@pytest.mark.parametrize("points", ["101", "100"])
def test_simulate_cf_t_is_an_exact_mirror(tmp_path, capsys, points) -> None:
    """The CF CSV's t column comes from symmetric_grid: t == -t[::-1] bit for
    bit (np.linspace(-5, 5, 101) is off the mirror by up to 8.9e-16)."""
    cf_out = tmp_path / "cf.csv"
    code, _, _ = run(
        ["simulate", "--catalog", "poisson:1,1", "--steps", "2", "--paths", "5",
         "--out", str(tmp_path / "p.csv"), "--cf-out", str(cf_out), "--cf-points", points],
        capsys,
    )
    assert code == 0
    t = read_csv(cf_out)[1][:, 0]
    assert t.size == int(points)
    assert np.array_equal(t, -t[::-1])


def test_drift_only_simulation_exact(tmp_path, capsys) -> None:
    out = tmp_path / "p.csv"
    code, _, _ = run(
        ["simulate", "--catalog", "gaussian:1,0", "--horizon", "2", "--steps", "4",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    _, rows = read_csv(out)
    assert np.allclose(rows[:, 2], rows[:, 1], atol=1e-15)  # X(t) = t


# -- law files and defaults ---------------------------------------------------------


def test_law_file_compound_poisson(tmp_path, capsys) -> None:
    law_file = tmp_path / "law.json"
    law_file.write_text(
        json.dumps({"compound_poisson": {"rate": 2.0, "jumps": [[-1.0, 0.5], [1.0, 0.5]]}})
    )
    out = tmp_path / "eval.csv"
    code, _, _ = run(
        ["eval", "--law", str(law_file), "--t-max", "5", "--points", "101",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    _, rows = read_csv(out)
    # symmetric jumps: exponent 2(cos t - 1), purely real
    t = rows[:, 0]
    assert np.max(np.abs(rows[:, 3] - 2.0 * (np.cos(t) - 1.0))) < 1e-9
    assert np.max(np.abs(rows[:, 4])) < 1e-12


def test_law_file_lk_form_roundtrip(tmp_path, capsys) -> None:
    law_file = tmp_path / "law.json"
    law_file.write_text(
        json.dumps(
            {"form": "lk", "gamma": 0.5,
             "measures": {"G": {"atoms": [[1.0, 0.5]],
                                "grid": {"edges": [], "values": []}}}}
        )
    )
    out = tmp_path / "eval.csv"
    code, _, _ = run(
        ["eval", "--law", str(law_file), "--t-max", "5", "--points", "101",
         "--out", str(out)],
        capsys,
    )
    assert code == 0


def test_convert_artifact_feeds_back_as_law_file(tmp_path, capsys) -> None:
    # convert output nests the law under "law"; --law must unwrap it
    converted = tmp_path / "converted.json"
    code, _, _ = run(
        ["convert", "--catalog", "poisson:1,1", "--to", "kolmogorov",
         "--out", str(converted)],
        capsys,
    )
    assert code == 0
    out = tmp_path / "eval.csv"
    code, _, _ = run(
        ["eval", "--law", str(converted), "--t-max", "5", "--points", "101",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    header, rows = read_csv(out)
    t = rows[:, 0]
    # log CF of unit-rate unit-jump Poisson: cos t - 1 + i sin t
    assert np.max(np.abs(rows[:, 3] - (np.cos(t) - 1.0))) < 1e-9
    assert np.max(np.abs(rows[:, 4] - np.sin(t))) < 1e-9


def test_overflowing_law_file_is_domain_error(tmp_path, capsys) -> None:
    # a finite density of 1e308 on [0, 1]: its log CF overflows for most t
    law_file = tmp_path / "law.json"
    law_file.write_text(
        json.dumps(
            {"form": "lk", "gamma": 0.0,
             "measures": {"G": {"atoms": [],
                                "grid": {"edges": [0.0, 1.0], "values": [1e308]}}}}
        )
    )
    out = tmp_path / "eval.csv"
    code, stdout, _ = run(
        ["eval", "--law", str(law_file), "--out", str(out)], capsys
    )
    assert code == 2
    assert json.loads(stdout)["error"]["code"] == "NonFiniteLogCF"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--t-step", ["invert", "--catalog", "poisson:1,1", "--t-step", "0"]),
        ("--t-max", ["approx-cp", "--catalog", "cauchy:1", "--epsilons", "0.5", "--t-max", "inf"]),
        ("--horizon", ["simulate", "--catalog", "cauchy:1", "--horizon", "inf"]),
        ("--paths", ["simulate", "--catalog", "poisson:1,1", "--paths", "0", "--cf-out", "CF"]),
        ("--t-max", ["eval", "--catalog", "gaussian:0,1", "--t-max", "nan"]),
        ("--steps", ["simulate", "--catalog", "poisson:1,1", "--steps", "-1"]),
    ],
)
def test_bad_numeric_option_fails_before_any_write(flag, argv, tmp_path, capsys) -> None:
    out, cf_out = tmp_path / "out", tmp_path / "cf.csv"
    argv = [str(cf_out) if a == "CF" else a for a in argv] + ["--out", str(out)]
    code, stdout, stderr = run(argv, capsys)
    assert code == 2
    error = json.loads(stdout)["error"]
    assert error["code"] == "BadOption" and flag in error["message"]
    assert stderr == ""
    assert not out.exists() and not cf_out.exists()


def test_simulate_failure_after_the_paths_stream_writes_nothing(tmp_path, capsys, monkeypatch) -> None:
    out, cf_out = tmp_path / "p.csv", tmp_path / "cf.csv"
    argv = ["simulate", "--catalog", "poisson:1,1", "--epsilon", "0.5", "--steps", "5000",
            "--paths", "3", "--out", str(out), "--cf-out", str(cf_out)]
    streamed = []

    def fail(*args, **kwargs):
        # by now the paths, 15 blocks of rows, are in a temporary file beside --out
        streamed.extend(path.read_text() for path in tmp_path.iterdir())
        raise ValueError("the empirical CF failed")

    monkeypatch.setattr(idlaws.simulate, "empirical_cf", fail)
    code, stdout, _ = run(argv, capsys)
    assert code == 2 and json.loads(stdout)["error"]["message"] == "the empirical CF failed"
    assert len(streamed) == 1 and streamed[0].count("\n") == 1 + 3 * 5001
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    code, stdout, _ = run(argv, capsys)
    assert code == 0 and stdout.split() == [str(out), str(cf_out)]
    assert sorted(tmp_path.iterdir()) == [cf_out, out]
    assert out.read_text() == streamed[0]


def test_simulate_too_many_steps_fails_before_drawing(tmp_path, capsys) -> None:
    # one path owns 2^20 interval streams; 2^20 + 1 steps is refused up front
    out, cf_out = tmp_path / "paths.csv", tmp_path / "cf.csv"
    argv = ["simulate", "--catalog", "poisson:1,1", "--horizon", "1", "--steps", "1048577",
            "--out", str(out), "--cf-out", str(cf_out)]
    start = time.perf_counter()
    code, stdout, stderr = run(argv, capsys)
    assert time.perf_counter() - start < 10.0
    assert code == 2
    assert "2^20" in json.loads(stdout)["error"]["message"]
    assert stderr == ""
    assert not out.exists() and not cf_out.exists()


def test_missing_law_file_is_io_error(capsys) -> None:
    code, _, stderr = run(["eval", "--law", "/nonexistent/law.json"], capsys)
    assert code == 1
    assert json.loads(stderr)["error"]["code"] == "IOError"


@pytest.mark.parametrize("verb", [["eval"], ["convert", "--to", "levy"]])
def test_out_that_cannot_be_replaced_is_io_error_and_leaves_no_temporary(verb, tmp_path, capsys) -> None:
    # every verb writes through one temporary file that is renamed onto --out,
    # here a directory, which the rename refuses
    out = tmp_path / "artifact"
    out.mkdir()
    code, stdout, stderr = run([*verb, "--catalog", "poisson:1,1", "--out", str(out)], capsys)
    assert code == 1 and stdout == ""
    assert json.loads(stderr)["error"]["code"] == "IOError"
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


def test_unknown_catalog_is_domain_error(capsys) -> None:
    code, stdout, _ = run(["eval", "--catalog", "nosuch:1"], capsys)
    assert code == 2
    assert json.loads(stdout)["error"]["code"] == "BadParameter"


def test_output_dir_env_default(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.setenv("IDLAWS_OUTPUT_DIR", str(tmp_path))
    code, stdout, _ = run(
        ["eval", "--catalog", "gaussian:0,1", "--t-max", "5", "--points", "11"],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "eval.csv").exists()


def _child_stdout(code: str) -> str:
    """Stdout of a child Python running code on the same idlaws as this test run."""
    src = str(Path(idlaws.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return done.stdout.strip()


def test_cli_import_leaves_out_scipy() -> None:
    # scipy is a test oracle only; importing it would cost every CLI start ~1 s
    code = (
        "import idlaws.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _child_stdout(code) == "[]"


# what every process that imports idlaws.cli loads of the package
CLI_MODULES = ["idlaws", "idlaws.canonical", "idlaws.cli", "idlaws.measure"]
PRINT_IDLAWS_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'idlaws'))"
# a small call of each verb, and the modules it loads beyond CLI_MODULES
VERB_MODULES = [
    (["convert", "--catalog", "poisson:1,1", "--to", "levy"], []),
    (["eval", "--catalog", "poisson:1,1", "--points", "21"], ["divisibility"]),
    (["verify-id", "--catalog", "gaussian:0,1", "--points", "21"], ["divisibility"]),
    (["invert", "--catalog", "poisson:1,1", "--t-step", "0.05"], ["divisibility", "khinchin"]),
    (
        ["approx-cp", "--catalog", "poisson:1,1", "--epsilons", "0.5", "--points", "21"],
        [],
    ),
    (
        ["simulate", "--catalog", "poisson:1,1", "--epsilon", "0.5", "--steps", "2"],
        ["simulate"],
    ),
]


def test_package_and_cli_imports_load_no_verb_module() -> None:
    assert _child_stdout(f"import idlaws, sys; {PRINT_IDLAWS_MODULES}") == "['idlaws']"
    assert _child_stdout(f"import idlaws.cli, sys; {PRINT_IDLAWS_MODULES}") == str(CLI_MODULES)


@pytest.mark.parametrize("argv, modules", VERB_MODULES, ids=[v[0][0] for v in VERB_MODULES])
def test_each_verb_loads_only_its_modules(argv, modules, tmp_path) -> None:
    argv = argv + ["--out", str(tmp_path / "artifact")]
    if argv[0] == "simulate":
        argv += ["--cf-out", str(tmp_path / "cf.csv")]
    code = f"import sys; from idlaws.cli import main; print(main({argv!r})); {PRINT_IDLAWS_MODULES}"
    expected = sorted(CLI_MODULES + [f"idlaws.{m}" for m in modules])
    assert _child_stdout(code).split("\n")[-2:] == ["0", str(expected)]


def test_cli_runs_leave_out_numpy_ma(tmp_path) -> None:
    # np.unique, np.union1d and np.median import numpy.ma, about 15 ms a process;
    # numpy.polynomial, which measure._legendre no longer reads, another 4 ms
    argvs = [
        ["verify-id", "--catalog", "gaussian:0,1"],
        ["eval", "--catalog", "cauchy:1", "--points", "21"],
        ["approx-cp", "--catalog", "cauchy:1", "--epsilons", "0.5", "--points", "21"],
        ["invert", "--catalog", "poisson:1,1"],
        ["convert", "--catalog", "poisson:1,1", "--to", "levy"],
        ["simulate", "--catalog", "poisson:1,1", "--epsilon", "0.5", "--steps", "20",
         "--paths", "2", "--cf-out", str(tmp_path / "cf.csv")],
    ]
    out = str(tmp_path / "out")
    code = (
        "import sys; from idlaws.cli import main; "
        f"codes = [main(argv + ['--out', {out!r}]) for argv in {argvs!r}]; "
        "print(codes, 'numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)"
    )
    assert _child_stdout(code).split("\n")[-1] == "[0, 0, 0, 0, 0, 0] False False"
