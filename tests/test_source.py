"""Every function, class and method in the package is named somewhere in
the package or the benchmark besides its definition, not only in tests;
and only the model reads a game's restriction set."""

import ast
import re
from collections import Counter
from pathlib import Path

import auditgames

PACKAGE = Path(auditgames.__file__).resolve().parent
BENCHMARK = PACKAGE.parents[1] / "benchmark"

# Oracles the acceptance criteria import from the package.
TEST_ORACLES = {
    "polytopes_equivalent",  # criterion 02
    "count_roots",           # criterion 12
    "hyperbolic_to_soc",     # criterion 11
}


def test_no_definition_is_named_only_in_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    texts = [path.read_text(encoding="utf-8")
             for path in sources + sorted(BENCHMARK.glob("*.py"))]
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    defined = Counter(
        node.name
        for text in texts[:len(sources)] for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)))
    unused = {name for name, count in defined.items()
              if words[name] <= count and not name.startswith("__")}
    assert unused == TEST_ORACLES


def test_only_the_model_reads_restrictions():
    # every other module reads the audit graph the model derives from them
    readers = {
        path.name for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "restrictions"}
    assert readers == {"model.py"}
