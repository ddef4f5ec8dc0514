"""The README's library example runs and prints the values it promises."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_example(capsys):
    section = README.read_text().split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # the exact purity route and the closed form, both 2.0 at the Neel peak
    assert float(printed[0]) == pytest.approx(2.0, abs=1e-9)
    assert float(printed[1]) == pytest.approx(2.0, abs=1e-9)
