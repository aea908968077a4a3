"""Golden CLI outputs: the commands, how their outputs are masked, and how they are compared.

Every shipped config is run through ``truth`` (JSON and CSV), ``compare`` and
``mc``, and each confounding config also through ``mc --method
potential_outcome_sim``.  The Monte Carlo commands run at seed 101 with
N = 3000 draws and 6 repetitions.  Wall-clock columns are blanked before an
output is stored or compared.  The stored files live in ``tests/golden/``.

Regenerate them from this checkout's source with::

    PYTHONPATH=src python tests/golden_outputs.py

A change that moves a stored value must regenerate the files and say which
values moved, by how much and why.
"""
from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from truthquad.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SEED = "101"
N_SAMPLES = 3000
N_REPS = 6

#: CSV columns that hold wall-clock seconds.
TIMING_COLUMNS = {"seconds", "mc_seconds_per_rep"}

#: Numbers agree when within this relative distance (or this absolute one, for values near 0).
#: Last-bit identity across machines is not promised: eigvalsh and matmul depend on the BLAS
#: build, and a z-score divides a difference of two close numbers by a small standard error.
REL_TOL = 1e-9
ABS_TOL = 1e-12

CONFIGS = sorted(path.stem for path in CONFIG_DIR.glob("*.json"))


def cases() -> list[tuple[str, str, list[str]]]:
    """(stored file name, config name, CLI arguments after ``--config``) for every Monte Carlo output."""
    out = []
    for name in CONFIGS:
        out.append((f"compare/{name}.csv", name, ["compare", "--seed", SEED]))
        out.append((f"mc/{name}.csv", name, ["mc", "--seed", SEED]))
        if json.loads((CONFIG_DIR / f"{name}.json").read_text())["scenario"]["kind"] == "confounding":
            out.append((f"mc/{name}.potential_outcome_sim.csv", name,
                        ["mc", "--method", "potential_outcome_sim", "--seed", SEED]))
    return out


def small_config(name: str, directory: Path) -> str:
    """The shipped config ``name`` with N and the repetition count cut down, written into ``directory``."""
    obj = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    obj["method"].update(n_samples=N_SAMPLES, n_reps=N_REPS)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def mask_timing(csv_text: str) -> str:
    """The CSV with its wall-clock cells blanked."""
    lines = csv_text.split("\n")
    drop = [i for i, h in enumerate(lines[0].split(",")) if h in TIMING_COLUMNS]
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        for i in drop:
            if i < len(cells):
                cells[i] = ""
        out.append(",".join(cells))
    return "\n".join(out)


def _invoke(args: list[str]) -> str:
    result = CliRunner().invoke(main, args)
    if result.exit_code != 0:
        raise RuntimeError(f"truthquad {' '.join(args)} exited {result.exit_code}: {result.output}")
    return result.output


def truth_outputs(name: str, directory: Path) -> dict[str, str]:
    """{stored file name: output} of ``truth`` on the shipped config ``name``, JSON and CSV."""
    csv_path = directory / f"{name}.truth.csv"
    text = _invoke(["truth", "--config", str(CONFIG_DIR / f"{name}.json"), "--out-csv", str(csv_path)])
    return {f"truth/{name}.json": text, f"truth/{name}.csv": csv_path.read_text()}


def mc_output(name: str, args: list[str], jobs: int, directory: Path) -> str:
    """The masked output of one Monte Carlo command on the cut-down config ``name``."""
    return mask_timing(_invoke([args[0], "--config", small_config(name, directory), *args[1:],
                                "--jobs", str(jobs)]))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def csv_mismatches(got: str, want: str) -> list[str]:
    """Cells that differ: text exactly, numbers beyond the pinned tolerance; rows and cells must line up.

    A ``compare`` row whose Monte Carlo standard error is below ``ABS_TOL`` (the
    identity-link CDE, which every draw reproduces up to rounding) has a
    z-score that is rounding noise over rounding noise, so that cell is not
    compared.
    """
    got_rows, want_rows = got.split("\n"), want.split("\n")
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} lines, expected {len(want_rows)}"]
    header = want_rows[0].split(",")
    noise = (header.index("mc_se"), header.index("z_score")) if "z_score" in header else None
    problems = []
    for r, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        g_cells, w_cells = g_row.split(","), w_row.split(",")
        if len(g_cells) != len(w_cells):
            problems.append(f"line {r}: {len(g_cells)} cells, expected {len(w_cells)}")
            continue
        for c, (g, w) in enumerate(zip(g_cells, w_cells)):
            if r and noise and c == noise[1] and abs(float(w_cells[noise[0]])) < ABS_TOL:
                continue
            gn, wn = _number(g), _number(w)
            if (g != w) if gn is None or wn is None else not _close(gn, wn):
                problems.append(f"line {r} cell {c}: {g!r}, expected {w!r}")
    return problems


def json_mismatches(got, want, path: str = "$") -> list[str]:
    """Values that differ between two parsed JSON documents, under the same rule as ``csv_mismatches``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path}: keys {list(got) if isinstance(got, dict) else got!r}, expected {list(want)}"]
        return [p for key in want for p in json_mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} is not a list of {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in json_mismatches(g, w, f"{path}[{i}]")]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want))
    if (not _close(float(got), float(want))) if numbers else got != want:
        return [f"{path}: {got!r}, expected {want!r}"]
    return []


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        outputs = {}
        for name in CONFIGS:
            outputs.update(truth_outputs(name, directory))
        for stored, name, args in cases():
            outputs[stored] = mc_output(name, args, 1, directory)
            if mc_output(name, args, 2, directory) != outputs[stored]:
                raise RuntimeError(f"{stored}: --jobs 2 output differs from --jobs 1")
    for stored, text in outputs.items():
        target = GOLDEN_DIR / stored
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    print(f"wrote {len(outputs)} files under {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
