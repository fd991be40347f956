"""Module layering: the static analysis, normalization and the push never
call the validator; only the entry points do."""

import ast
from pathlib import Path

import uneval

PACKAGE_DIR = Path(uneval.__file__).parent

#: The modules allowed to import the validator: the public API and the two
#: commands that validate instances.
VALIDATOR_IMPORTERS = {"__init__.py", "cli.py", "difftest.py"}


def _imports_validator(tree: ast.AST) -> bool:
    """Whether any import in ``tree``, at module level or inside a
    function, names the validator module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level and module == "validator":
                return True
            if not node.level and module == "uneval.validator":
                return True
            if module in ("", "uneval") and any(a.name == "validator" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "uneval.validator" for a in node.names):
                return True
    return False


def test_only_entry_points_import_the_validator():
    importers = {
        path.name
        for path in PACKAGE_DIR.glob("*.py")
        if _imports_validator(ast.parse(path.read_text(), filename=str(path)))
    }
    assert importers == VALIDATOR_IMPORTERS

