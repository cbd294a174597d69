"""The flag surface: one table in ``repro.config``, documented once."""

from __future__ import annotations

import re
from pathlib import Path

from repro import config

ROOT = Path(__file__).resolve().parent.parent
VARIABLE = re.compile(r"REPRO_[A-Z]+(?:_[A-Z]+)*")


def test_flag_table_is_the_documented_one_and_nothing_reads_another_variable():
    docs = (ROOT / "docs" / "architecture.md").read_text()
    section = docs.split("## Configuration flags", 1)[1].split("\n## ", 1)[0]
    documented = {
        VARIABLE.search(line).group(0)
        for line in section.splitlines()
        if line.startswith("| `REPRO_")
    }
    assert set(config.FLAGS) == documented
    assert len(config.FLAGS) == 7
    scanned = [ROOT / "Makefile"] + [
        path
        for directory in ("src", "tests", ".github")
        for path in (ROOT / directory).rglob("*")
        if path.suffix in (".py", ".yml", ".md")
    ]
    strays = {
        (str(path.relative_to(ROOT)), name)
        for path in scanned
        for name in VARIABLE.findall(path.read_text())
        if name not in config.FLAGS
    }
    assert not strays
