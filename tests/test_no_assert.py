"""No ``assert`` statement in the package.

``python -O`` strips assert statements, so a check written as one would
silently stop running there.  Every internal invariant of
``src/contactbetti`` raises ``AssertionError`` explicitly instead, and
the CLI reports it under ``-O`` as it does without.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "contactbetti"


def test_package_has_no_assert_statement():
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(),
                                            filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
