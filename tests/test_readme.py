"""The README's library example runs and prints the values it promises,
and its configuration table matches the parser's key table."""
import math
import re
from pathlib import Path

import pytest

from sshquench import config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_example(capsys):
    section = README.read_text().split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # the exact purity route and the closed form, both 2.0 at the Neel peak
    assert float(printed[0]) == pytest.approx(2.0, abs=1e-9)
    assert float(printed[1]) == pytest.approx(2.0, abs=1e-9)


def _config_table() -> dict[str, str]:
    """Default cell of each key in the README's configuration table."""
    section = README.read_text().split("## Configuration format", 1)[1]
    table = {}
    for row in section.split("\n## ", 1)[0].splitlines():
        if row.startswith("| `"):
            keys, defaults = (cell.strip() for cell in row.strip("|").split("|")[:2])
            cells = [cell.strip().strip("`") for cell in defaults.split(",")]
            table.update(zip(re.findall(r"`([^`]+)`", keys), cells, strict=True))
    return table


def test_config_table_matches_key_table():
    table = _config_table()
    assert sorted(table) == sorted(config._KEYS)
    for key, cell in table.items():
        default = config._KEYS[key][0]
        if cell == "required":
            assert key in config._REQUIRED_KEYS, key
        elif cell == "-":
            assert default is None and key not in config._REQUIRED_KEYS, key
        elif cell == "pi/4":
            assert float(default) == math.pi / 4, key
        else:
            assert cell == default, key
