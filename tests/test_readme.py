"""The README's citations resolve.

The README quotes a measured figure only together with the test that
pins it, by its ``test_*`` name, or with the golden case that pins it,
written ``tests/golden/<case>``. A renamed or deleted test or case would
leave the figure unpinned, so every such name must exist under ``tests/``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from test_golden import CASES

TESTS = Path(__file__).parent
README = (TESTS.parent / "README.md").read_text(encoding="utf-8")


def _test_names() -> set[str]:
    # the test modules and the test functions in them
    names = set()
    for path in TESTS.glob("test_*.py"):
        names.add(path.stem)
        names.update(node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"))
    return names


def test_every_test_the_readme_cites_exists() -> None:
    cited = set(re.findall(r"\btest_\w+", README))
    assert cited
    assert sorted(cited - _test_names()) == []


def test_every_golden_case_the_readme_cites_exists() -> None:
    cited = set(re.findall(r"tests/golden/(\w+)", README))
    assert cited
    assert sorted(cited - set(CASES)) == []
    assert all((TESTS / "golden" / f"{case}.out").is_file() for case in cited)
