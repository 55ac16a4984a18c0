"""Tests for the command line front door: verbs, artifacts, exit codes."""

import json

import numpy as np
import pytest

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
    assert doc["config"]["t_span"] == 80.0
    assert len(doc["k_samples"]["u"]) == len(doc["k_samples"]["k"])


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


def test_missing_law_file_is_io_error(capsys) -> None:
    code, _, stderr = run(["eval", "--law", "/nonexistent/law.json"], capsys)
    assert code == 1
    assert json.loads(stderr)["error"]["code"] == "IOError"


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
