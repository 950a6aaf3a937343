"""The sources parse under the oldest Python that ``pyproject.toml``
accepts (``requires-python``), checked with this interpreter's parser."""

import ast
from pathlib import Path

import pytest

FLOOR = (3, 10)
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "carebench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_the_floor_parser_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=FLOOR)


@pytest.mark.parametrize("path", SOURCES,
                         ids=[path.relative_to(ROOT).as_posix()
                              for path in SOURCES])
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=FLOOR)
