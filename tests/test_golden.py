"""Byte-exact CLI output for the README examples, and the mismatch reports.

Each README example runs in text, json and csv; its stdout must equal
``tests/golden/<case>.<format>`` byte for byte, with the exit code listed
here.  The mismatch tests break one route on purpose and check that the
comparison commands exit 1 and name the differing powers.
"""

import json
from pathlib import Path

import pytest

from voachar import branching, characters
from voachar.cli import main
from voachar.qseries import TruncSeries

GOLDEN = Path(__file__).parent / "golden"

# (case, argv, exit code): the README CLI examples.
CASES = [
    ("char-theorem2", "char --n 1 --d 2 --trunc 3 --method theorem2", 0),
    ("char-all", "char --n 1 --d 1 --trunc 6 --method all", 0),
    ("branching", "branching --n 2 --lam 0,1 --trunc 10", 0),
    ("denom-check", "denom-check --n 3", 0),
    ("tensor", "tensor --n 2 --weights 0,1;0,1", 0),
    ("griess", "griess --r 5/2 --x 0,1,1,0 --y 1,0,0,-1", 0),
    ("bracket", "bracket --r -2 --x L[1,2](3,-1) --y L[2,2](-3,1)", 0),
    ("simplicity", "simplicity --r 2 --d 1 --N 2", 1),
    ("fock-invariants", "fock-invariants --n 1 --d 2 --maxlevel 4", 0),
    ("virasoro", "virasoro --n 2 --d 1", 0),
    ("generation", "generation --n 1 --d 2 --maxlevel 4", 0),
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("case,argv,code", CASES, ids=[c[0] for c in CASES])
def test_readme_example_bytes(capsys, case, argv, code, fmt):
    assert main(argv.split() + ["--format", fmt]) == code
    expected = (GOLDEN / f"{case}.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def _wrong_at_q3(route):
    """Wrap a series-returning route so its q^3 coefficient is off by one."""

    def broken(*args, **kwargs):
        series = route(*args, **kwargs)
        return series + TruncSeries.monomial(3, series.trunc)

    return broken


@pytest.mark.parametrize(
    "module,route,argv",
    [
        (branching, "branching_weylsum", "branching --n 1 --lam 1 --trunc 4"),
        (characters, "invariant_series_oracle", "char --n 1 --d 1 --trunc 4 --method all"),
        (characters, "theorem2_character", "fock-invariants --n 1 --d 1 --maxlevel 4"),
    ],
    ids=["branching", "char-all", "fock-invariants"],
)
def test_mismatch_reports_diff_powers(monkeypatch, capsys, module, route, argv):
    monkeypatch.setattr(module, route, _wrong_at_q3(getattr(module, route)))
    assert main(argv.split() + ["--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is False
    assert payload["diff_powers"] == [3]

    assert main(argv.split()) == 1
    out = capsys.readouterr().out
    assert "equal: false\ndiff at powers: 3\n" in out
