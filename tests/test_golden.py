"""Golden reports: the deterministic section of four runs, byte for byte.

Each golden file under tests/golden/ is the deterministic section of one
run's JSON report, dumped with sorted keys. A change that alters a
verdict, a witness, a `checked` count or a quantifier stat shows up as a
diff of these files. To rewrite them after an intended change, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from finmon.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    "suite-mutants": ["--suite", "mutants"],
    "suite-reader": ["--suite", "reader"],
    "config-systems": ["--config", str(ROOT / "configs" / "systems.json")],
    "config-dp": ["--config", str(ROOT / "configs" / "dp.json")],
}


def deterministic_section(args: list[str], out: Path) -> str:
    main(args + ["--format", "json", "--out", str(out)])
    report = json.loads(out.read_text())
    return json.dumps(report["deterministic"], sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_deterministic_section_matches_golden(name, tmp_path):
    got = deterministic_section(RUNS[name], tmp_path / "report.json")
    want = (GOLDEN / f"{name}.json").read_text()
    assert got == want


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in sorted(RUNS.items()):
            text = deterministic_section(args, Path(tmp) / "report.json")
            (GOLDEN / f"{name}.json").write_text(text)
            print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
