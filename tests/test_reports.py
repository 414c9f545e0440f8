"""The four CLI reports on their default configs, pinned.

``data/default_reports.json`` holds ``report.json`` and every CSV of the
default ``gallery``, ``identity``, ``spectrum --svg`` and ``bounds --r-table``
runs, the CSVs line by line.  Ints, bools, strings and ``None`` (an empty CSV
cell) must match exactly, and each float to 1e-12 of max(1, |expected|); each
float of an identity row to 1e-12 of the row's scale
max(|d2_area|, |d2_energy|, 1).  A change that moves a report regenerates the
file, and says why, with

    PYTHONPATH=src python tests/test_reports.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from cmcindex import cli

DATA = Path(__file__).parent / "data" / "default_reports.json"
COMMANDS = {
    "gallery": ["gallery"],
    "identity": ["identity"],
    "spectrum": ["spectrum", "--svg"],
    "bounds": ["bounds", "--r-table"],
}
RTOL = 1e-12


def _run(name: str, out: Path) -> dict:
    """Exit code checked; report.json parsed and every CSV as its lines."""
    assert cli.main(COMMANDS[name] + ["--out", str(out)]) == 0
    files = {"report.json": json.loads((out / "report.json").read_text())}
    for path in sorted(out.glob("*.csv")):
        files[path.name] = path.read_text().splitlines()
    return files


def _cell(text: str):
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _assert_close(actual, expected, scale: float, where: str) -> None:
    assert type(actual) is type(expected), where
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_close(actual[key], expected[key], scale, f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, scale, f"{where}[{i}]")
    elif isinstance(expected, float):
        if math.isnan(expected):
            assert math.isnan(actual), where
        else:
            tol = RTOL * max(scale, abs(expected))
            assert abs(actual - expected) <= tol, f"{where}: {actual!r} != {expected!r}"
    else:
        assert actual == expected, where


def _assert_csv(name: str, actual: list[str], expected: list[str]) -> None:
    assert len(actual) == len(expected), name
    header = expected[0].split(",")
    assert actual[0].split(",") == header, name
    for i, (a, e) in enumerate(zip(actual[1:], expected[1:]), start=1):
        got, want = ([_cell(c) for c in line.split(",")] for line in (a, e))
        assert len(got) == len(want) == len(header), f"{name}:{i}"
        scale = 1.0
        if name == "identity.csv":
            row = dict(zip(header, want))
            scale = max(abs(row["d2_area"]), abs(row["d2_energy"]), 1.0)
        for column, g, w in zip(header, got, want):
            _assert_close(g, w, scale, f"{name}:{i}.{column}")


@pytest.mark.parametrize("name", list(COMMANDS))
def test_default_report_matches_pinned(tmp_path, name):
    expected = json.loads(DATA.read_text())[name]
    actual = _run(name, tmp_path / name)
    assert sorted(actual) == sorted(expected)
    _assert_close(actual["report.json"], expected["report.json"], 1.0, "report.json")
    for file in expected:
        if file.endswith(".csv"):
            _assert_csv(file, actual[file], expected[file])


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data = {name: _run(name, Path(tmp) / name) for name in COMMANDS}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)


if __name__ == "__main__":
    main()
