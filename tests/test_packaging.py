"""Every third-party module the package imports is a declared dependency."""

import ast
import pathlib
import re
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _imported_top_levels():
    for path in (ROOT / "src" / "servesim").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from (alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield node.module.split(".")[0]


def test_every_third_party_import_is_a_dependency():
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower()
                for r in requirements}
    third_party = (set(_imported_top_levels()) - set(sys.stdlib_module_names)
                   - {"servesim"})
    assert {"numpy", "orjson"} <= third_party <= declared
