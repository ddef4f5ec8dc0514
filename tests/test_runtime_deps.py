"""The package runs on the standard library and numpy alone.

Every top-level import of ``src/sshquench/*.py`` must be relative, from the
standard library, or numpy; test-only packages (pytest, hypothesis, scipy)
stay out of the runtime.
"""
import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sshquench"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _top_level_imports(path: Path):
    """(line, module) of each absolute import at module level."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    foreign = [
        f"{path.name}:{line}: {module}"
        for line, module in _top_level_imports(path)
        if module.split(".")[0] not in ALLOWED
    ]
    assert not foreign, "non-runtime imports: " + ", ".join(foreign)
