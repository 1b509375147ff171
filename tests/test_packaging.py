"""Tier-1 check: the declared Python floor is the one CI tests."""

import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _version(text):
    return tuple(int(part) for part in text.split("."))


def test_requires_python_floor_is_the_lowest_ci_python():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    floor = re.fullmatch(r">=\s*([\d.]+)", project["requires-python"])
    assert floor, project["requires-python"]
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", ci)
    assert matrix, "no python-version matrix in ci.yml"
    tested = [_version(v.strip(" \"'")) for v in matrix.group(1).split(",")]
    assert _version(floor.group(1)) == min(tested)
