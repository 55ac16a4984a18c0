"""Malformed input to the command line: each case exits 2 with a structured
error and writes no artifact.

Every case runs through cli.main in this process. The oversized ones, and an
option whose grid would overflow, must be refused before any grid or path is
built, so the functions that would build one fail the test if they are
reached. They are replaced on the module whose binding each verb calls. Every
verb module is imported here, before any test patches one: a module first
imported during a patch would bind the stub for the rest of the session.
"""

import json
import sys

import pytest

from idlaws import cli, divisibility, khinchin, simulate


def lk(**G):
    """A general-form law file whose measure G has the given keys."""
    return {"form": "lk", "gamma": 0.0, "measures": {"G": G}}


# (case id, law file content, the field its error must name): law-file numbers
# must be JSON numbers, and atoms [location, mass] pairs
NOT_NUMBERS = [
    ("gamma-bool", {**lk(), "gamma": True}, "gamma"),
    ("gamma-string", {**lk(), "gamma": "1"}, "gamma"),
    ("atom-mass-string", lk(atoms=[[1.0, "0.5"]]), "mass"),
    ("edge-string", lk(grid={"edges": [0, "1"], "values": [1]}), "edge"),
    ("value-bool", lk(grid={"edges": [0, 1], "values": [True]}), "value"),
    ("rate-string", {"compound_poisson": {"rate": "1.5", "jumps": [[1, 1]]}}, "rate"),
    (
        "sigma2-string",
        {"form": "levy", "gamma": 0.0, "sigma2": "1", "measures": {"M": {}, "N": {}}},
        "sigma2",
    ),
    ("tail-dropped-string", lk(atoms=[[1.0, 0.5]], tail_dropped="0.1"), "tail_dropped"),
    ("atom-triple", lk(atoms=[[1.0, 0.5, 2.0]]), "[location, mass] pairs"),
    ("jump-triple", {"compound_poisson": {"rate": 1.5, "jumps": [[1, 1, 1]]}}, "[location, mass]"),
]

OVER = cli.MAX_SIZE + 1  # odd, so only the size limit refuses it
HUGE = "9" * 400  # an int that no float can hold

# (case id, argv after the verb's law source, law file content (bytes are
# written as they are) or None, early: True for the cases the option checks
# must refuse before anything is built)
CASES = [
    ("nan-mass", ["eval"], lk(atoms=[[1.0, float("nan")]]), False),
    ("inf-value", ["eval"], lk(grid={"edges": [0, 1], "values": [float("inf")]}), False),
    ("negative-mass", ["eval"], lk(atoms=[[1.0, -0.5]]), False),
    ("overflowing-mass", ["eval"], lk(atoms=[[1.0, 1e308], [2.0, 1e308]]), False),
    ("decreasing-edges", ["eval"], lk(grid={"edges": [0, 2, 1], "values": [1, 1]}), False),
    ("2-d-edges", ["convert", "--to", "levy"], lk(grid={"edges": [[0, 1]], "values": [1]}), False),
    (
        "overlapping-grids",
        ["convert", "--to", "lk"],
        {"form": "levy", "gamma": 0.0, "measures": {
            "M": {"grid": {"edges": [-2, -1, 1], "values": [1, 0]}},
            "N": {"grid": {"edges": [-1, 1, 2], "values": [0, 1]}},
        }},
        False,
    ),
    (
        "nan-sigma2",
        ["convert", "--to", "lk"],
        {"form": "levy", "gamma": 0.0, "sigma2": float("nan"), "measures": {"M": {}, "N": {}}},
        False,
    ),
    ("top-level-list", ["eval"], [1, 2], False),
    ("top-level-string", ["eval"], "compound_poisson", False),
    ("wrapped-law-list", ["eval"], {"law": [1]}, False),
    ("measures-list", ["eval"], {**lk(), "measures": [1]}, False),
    ("measure-list", ["eval"], {**lk(), "measures": {"G": [1]}}, False),
    ("grid-string", ["eval"], lk(grid="abc"), False),
    *[(case, ["convert", "--to", "lk"], law, False) for case, law, _ in NOT_NUMBERS],
    ("eval-even-points", ["eval", "--points", "200"], None, False),
    ("verify-even-points", ["verify-id", "--points", "200"], None, False),
    ("inf-epsilon", ["approx-cp", "--epsilons", "inf"], None, False),
    ("huge-root", ["verify-id", "--roots", HUGE], None, False),
    ("cf-overflow", ["simulate", "--catalog", "poisson:1,1", "--cf-t-max", "5e307"], None, False),
    ("deep-nesting", ["eval"], b"[" * 100_000, False),
    ("negative-seed", ["simulate", "--catalog", "poisson:1,1", "--seed", "-1"], None, False),
    ("seed-2^128", ["simulate", "--catalog", "poisson:1,1", "--seed", str(1 << 128)], None, False),
    ("cf-span-overflow", ["simulate", "--catalog", "poisson:1,1", "--cf-t-max", "1e308"], None, True),
    ("huge-points", ["eval", "--points", HUGE], None, True),
    ("eval-points", ["eval", "--points", str(OVER)], None, True),
    ("eval-points-1e9", ["eval", "--points", "1000000001"], None, True),
    ("verify-points", ["verify-id", "--points", str(OVER)], None, True),
    ("approx-cp-points", ["approx-cp", "--epsilons", "0.5", "--points", str(OVER)], None, True),
    ("invert-step", ["invert", "--t-step", "1e-8"], None, True),
    ("invert-span", ["invert", "--t-span", "1e308", "--t-step", "1e-300"], None, True),
    ("cf-points", ["simulate", "--cf-points", str(OVER)], None, True),
    ("cf-points-1e9", ["simulate", "--cf-points", "1000000000"], None, True),
    ("steps", ["simulate", "--steps", str(cli.MAX_SIZE)], None, True),
    ("path-rows", ["simulate", "--paths", "41944", "--steps", "100"], None, True),
    ("jumps", ["simulate", "--catalog", "cauchy:1", "--epsilon", "1e-9"], None, True),
]


def _refuse(*args, **kwargs):
    raise AssertionError("a grid or path was built before the option checks")


def _refuse_builders(monkeypatch) -> None:
    """Make every function that builds a grid or paths for a verb fail the test."""
    for module, name in (
        (divisibility, "build_log_cf_grid"),
        (cli, "symmetric_grid"),
        (simulate, "sample_paths"),
    ):
        monkeypatch.setattr(module, name, _refuse)


@pytest.fixture(autouse=True)
def no_stub_outlives_its_test():
    # set up before monkeypatch, so this runs after its patches are undone
    yield
    leaks = [
        f"{module}.{name}"
        for module, mod in list(sys.modules.items())
        if module == "idlaws" or module.startswith("idlaws.")
        for name, value in list(vars(mod).items())
        if value is _refuse
    ]
    assert leaks == []


@pytest.mark.parametrize(
    "argv",
    [
        ["eval"],
        ["verify-id"],
        ["invert"],
        ["approx-cp", "--epsilons", "0.5"],
        ["simulate", "--epsilon", "0.5", "--steps", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_refused_builders_are_the_ones_a_valid_call_reaches(argv, tmp_path, monkeypatch) -> None:
    # without this, a patch that missed the binding a verb calls would let
    # every early case pass whether or not its option check ran first
    _refuse_builders(monkeypatch)
    argv = argv + ["--catalog", "poisson:1,1", "--out", str(tmp_path / "artifact")]
    with pytest.raises(AssertionError, match="before the option checks"):
        cli.main(argv)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, law, early", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_input_exits_2_and_writes_nothing(
    argv, law, early, tmp_path, capsys, monkeypatch
) -> None:
    if early:
        _refuse_builders(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    argv = list(argv)
    if law is not None:
        path = tmp_path / "law.json"
        path.write_bytes(law if isinstance(law, bytes) else json.dumps(law).encode())
        argv += ["--law", str(path)]
    elif "--catalog" not in argv:
        argv += ["--catalog", "gaussian:0,1"]
    argv += ["--out", str(out / "artifact")]
    if argv[0] == "simulate":
        argv += ["--cf-out", str(out / "cf.csv")]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert set(error) == {"code", "message"} and error["message"]
    if early:
        assert error["code"] == "BadOption"
    assert captured.err == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("seed", [-1, 1 << 128])
def test_seed_is_refused_before_the_truncation(seed, tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.setattr(simulate, "truncate_cp", _refuse)
    argv = ["simulate", "--catalog", "poisson:1,1", "--seed", str(seed), "--out", str(tmp_path / "p")]
    assert cli.main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "ValueError" and "[0, 2^128)" in error["message"]
    assert list(tmp_path.iterdir()) == []


def convert(law, tmp_path) -> int:
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    return cli.main(["convert", "--law", str(path), "--to", "lk", "--out", str(tmp_path / "lk.json")])


@pytest.mark.parametrize("law, field", [c[1:] for c in NOT_NUMBERS], ids=[c[0] for c in NOT_NUMBERS])
def test_a_law_file_value_that_is_not_a_number_names_its_field(law, field, tmp_path, capsys) -> None:
    assert convert(law, tmp_path) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "ValueError" and field in error["message"]


def test_int_law_file_numbers_stay_accepted(tmp_path) -> None:
    assert convert({"compound_poisson": {"rate": 2, "jumps": [[-2, 1]]}}, tmp_path) == 0
    law = lk(atoms=[[-2, 1]], grid={"edges": [1, 2], "values": [3]})
    assert convert({**law, "gamma": 1}, tmp_path) == 0
