"""The CLI's outputs on the shipped configs match the files stored in ``tests/golden/``.

Text cells and the row structure must match exactly and numbers to
``golden_outputs.REL_TOL``.  With ``TRUTHQUAD_GOLDEN_EXACT=1`` every output must
match its stored bytes, which holds on the machine that wrote them.
``--jobs`` 1 and 2 are checked against the same files.
"""
import json
import os

import pytest

from golden_outputs import (
    CONFIGS,
    GOLDEN_DIR,
    cases,
    csv_mismatches,
    json_mismatches,
    mc_output,
    truth_outputs,
)

EXACT = os.environ.get("TRUTHQUAD_GOLDEN_EXACT") == "1"
CASES = cases()


def check(stored: str, got: str) -> None:
    want = (GOLDEN_DIR / stored).read_text()
    if EXACT:
        assert got == want, f"{stored} differs from its stored bytes"
    elif stored.endswith(".json"):
        assert json_mismatches(json.loads(got), json.loads(want)) == []
    else:
        assert csv_mismatches(got, want) == []


@pytest.mark.parametrize("name", CONFIGS)
def test_truth_outputs(tmp_path, name):
    for stored, text in truth_outputs(name, tmp_path).items():
        check(stored, text)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("stored,name,args", CASES, ids=[c[0] for c in CASES])
def test_monte_carlo_outputs(tmp_path, stored, name, args, jobs):
    check(stored, mc_output(name, args, jobs, tmp_path))


def test_every_stored_file_is_checked():
    stored = {p.relative_to(GOLDEN_DIR).as_posix() for p in GOLDEN_DIR.rglob("*") if p.is_file()}
    truths = {f"truth/{name}.{ext}" for name in CONFIGS for ext in ("json", "csv")}
    assert stored == truths | {c[0] for c in CASES}


def test_the_comparison_catches_a_moved_value():
    want = (GOLDEN_DIR / "compare" / "confounding_normal.csv").read_text()
    header, row, *rest = want.split("\n")
    cells = row.split(",")

    def with_cell(i, value):
        return "\n".join([header, ",".join([*cells[:i], value, *cells[i + 1:]]), *rest])

    quad = float(cells[2])
    assert csv_mismatches(with_cell(2, repr(quad * (1 + 1e-12))), want) == []
    assert csv_mismatches(with_cell(2, repr(quad * (1 + 1e-6))), want) != []
    assert csv_mismatches(with_cell(11, "False"), want) != []
    assert csv_mismatches(with_cell(1, "p9"), want) != []
    assert csv_mismatches(want + "\nextra", want) != []
    truth = json.loads((GOLDEN_DIR / "truth" / "hr_mediation.json").read_text())
    moved = json.loads(json.dumps(truth))
    moved["series"]["NDE"][3] *= 1 + 1e-6
    assert json_mismatches(truth, truth) == [] and json_mismatches(moved, truth) != []
