"""The README's statement of the package size matches ``src/ncdb``."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_line_counts():
    text = " ".join((ROOT / "README.md").read_text().split())
    m = re.search(r"The package is ([\d,]+) lines of Python in (\d+) modules under `src/ncdb` \((.*?)\)\.", text)
    assert m, "README no longer states the package size"
    stated = {name: int(n) for name, n in re.findall(r"`(\w+)` (\d+)", m.group(3))}
    counted = {p.stem: p.read_text().count("\n") for p in (ROOT / "src" / "ncdb").glob("*.py")}
    assert stated == counted
    assert int(m.group(1).replace(",", "")) == sum(counted.values())
    assert int(m.group(2)) == len(counted) - 1  # __init__ is listed but not counted as a module
