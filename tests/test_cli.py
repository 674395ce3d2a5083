import json

import pytest

from voachar.cli import main
from voachar.qseries import TruncSeries


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_char_theorem2_example(capsys):
    code, out, _ = run_cli(
        capsys, "char", "--n", "1", "--d", "2", "--trunc", "3", "--method", "theorem2"
    )
    assert code == 0
    assert "theorem2: 1,0,3,4" in out


def test_char_all_methods_agree(capsys):
    code, out, _ = run_cli(
        capsys, "char", "--n", "1", "--d", "1", "--trunc", "4", "--method", "all"
    )
    assert code == 0
    assert "equal: true" in out


def test_simplicity_example(capsys):
    code, out, _ = run_cli(capsys, "simplicity", "--r", "2", "--d", "1", "--N", "2")
    assert code == 1
    assert "(1,2)" in out and "(2,2)" in out
    assert "reducible-consistent" in out

    code, out, _ = run_cli(capsys, "simplicity", "--r", "1/2", "--d", "2", "--N", "5")
    assert code == 0
    assert "simple-consistent" in out


def test_denom_check_text(capsys):
    code, out, _ = run_cli(capsys, "denom-check", "--n", "1")
    assert code == 0
    assert "equal: true" in out
    assert "1/2" in out  # the e^{+-1/2 eps} terms


def test_branching_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "branching",
        "--n",
        "1",
        "--lam",
        "0",
        "--trunc",
        "6",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    series = TruncSeries.from_record(payload["product"])
    assert series.coeffs == [1, 0, 1, 1, 2, 2, 4]
    assert payload["product"] == series.to_record()


def test_determinism(capsys):
    args = ("char", "--n", "1", "--d", "2", "--trunc", "4", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_tensor_table(capsys):
    code, out, _ = run_cli(
        capsys, "tensor", "--n", "1", "--weights", "1;1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert {"mu": "0", "m": "1"} in payload["multiplicities"]
    assert {"mu": "2", "m": "1"} in payload["multiplicities"]


def test_griess_cli(capsys):
    code, out, _ = run_cli(
        capsys, "griess", "--r", "5/2", "--x", "0,1,1,0", "--y", "0,1,1,0"
    )
    assert code == 0
    assert "equal: true" in out
    assert "griess: 1,0; 0,1" in out


def test_bracket_cli(capsys):
    code, out, _ = run_cli(
        capsys, "bracket", "--r", "3", "--x", "L[1,1](1,1)", "--y", "L[1,1](-1,-1)"
    )
    assert code == 0
    assert "central: 3/2" in out  # (r/4) * 1 * 1 * (1+1)
    assert "2 * L[1,1](-1,1)" in out


def test_virasoro_cli(capsys):
    code, out, _ = run_cli(capsys, "virasoro", "--n", "1", "--d", "1", "--format", "csv")
    assert code == 0
    assert "central_charge,-2" in out


def test_generation_cli(capsys):
    code, out, _ = run_cli(capsys, "generation", "--n", "1", "--d", "2", "--maxlevel", "2")
    assert code == 0
    assert "generated: true" in out


def test_fock_invariants_cli(capsys):
    code, out, _ = run_cli(
        capsys, "fock-invariants", "--n", "1", "--d", "2", "--maxlevel", "3"
    )
    assert code == 0
    assert "fock: 1,0,3,4" in out
    assert "equal: true" in out


def test_cap_violation_names_cap(capsys):
    code, _, err = run_cli(
        capsys, "denom-check", "--n", "3", "--weyl-cap", "10"
    )
    assert code == 2
    assert "weyl" in err


def test_parse_error_reports(capsys):
    code, _, err = run_cli(capsys, "bracket", "--r", "3", "--x", "L[0,1](1,1)", "--y", "L[1,1](1,1)")
    assert code == 2
    assert "basis indices" in err


def test_csv_series(capsys):
    code, out, _ = run_cli(
        capsys,
        "char",
        "--n",
        "1",
        "--d",
        "2",
        "--trunc",
        "2",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "power,coefficient"
    assert lines[1] == "0,1"
    assert lines[3] == "2,3"


@pytest.mark.parametrize(
    "argv,option",
    [
        ("simplicity --r 2 --d 0 --N 2", "--d"),
        ("simplicity --r 2 --d 1 --N 0", "--N"),
        ("char --n 1 --d 0 --trunc 2 --method fock", "--d"),
        ("char --n 1 --d 1 --trunc -1", "--trunc"),
        ("virasoro --n 0 --d 1", "--n"),
        ("generation --n 1 --d 1 --maxlevel -1", "--maxlevel"),
        ("fock-invariants --n 1 --d 1 --maxlevel -1", "--maxlevel"),
        ("branching --n 1 --lam 0 --trunc x", "--trunc"),
    ],
)
def test_out_of_range_ints_exit_2_naming_option(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err


def test_tensor_rejects_weights_of_wrong_rank(capsys):
    code, out, err = run_cli(capsys, "tensor", "--n", "3", "--weights", "0,1;0,1")
    assert code == 2
    assert out == ""
    assert "--n is 3" in err


def test_matrix_must_be_square(capsys):
    code, _, err = run_cli(capsys, "griess", "--r", "1", "--x", "1,0,0", "--y", "1,0,0")
    assert code == 2
    assert "square" in err
