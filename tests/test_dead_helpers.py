"""Every function, method and property of ``src/pnma`` has a caller.

A name counts as used when it appears anywhere in ``src/``, ``scripts/`` or
``perfbench/`` as a ``Name``, an ``Attribute`` or an identifier string (the
tracer names what it wraps in strings).  Tests do not count: code that only
a test calls is dead, unless the list below keeps it and says why.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "scripts", "perfbench")

# kept with no caller outside the tests, each for the reason given
KEPT = {
    "analysis.read_eval_report": "the acceptance suite reads evaluate's reports with it "
                                 "(ROADMAP keep list)",
    "checkpoint.is_encoder_param": "the acceptance suite's freeze contract names the encoder "
                                   "tensors with it (ROADMAP keep list)",
    "crf.gold_path_score": "criterion 2's CRF oracle (ROADMAP keep list)",
    "crf.crf_log_likelihood": "criterion 2's CRF oracle (ROADMAP keep list)",
    "crf.viterbi_decode": "criterion 2's CRF oracle (ROADMAP keep list)",
    "numeric.finite_difference_check": "criterion 1's gradient oracle: the tests check every "
                                       "backward pass with it",
    "encoder.LstmCache.c_prev": "the test oracle's view of the cached cell states, in the "
                                "(B, n, d) layout the reference recurrence uses",
}


def definitions(source: str):
    """(qualified name, bare name) of each module-level function and of each
    method or property of a module-level class; dunder methods are called
    implicitly and left out."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def references(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def unreferenced(modules: dict[str, str], callers: list[str]) -> set[str]:
    """Qualified names, prefixed by their module, that no caller source names."""
    used = set().union(*map(references, callers))
    return {f"{module}.{qualified}" for module, source in modules.items()
            for qualified, name in definitions(source) if name not in used}


def test_every_helper_has_a_caller():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((REPO / "src" / "pnma").glob("*.py"))}
    callers = [p.read_text(encoding="utf-8")
               for d in CALLER_DIRS for p in sorted((REPO / d).rglob("*.py"))]
    dead = unreferenced(modules, callers)
    assert dead - KEPT.keys() == set(), "no caller in src/, scripts/ or perfbench/"
    assert KEPT.keys() - dead == set(), "kept, but now has a caller: drop it from KEPT"


def test_scan_sees_each_kind_of_reference():
    module = (
        "def called(): pass\n"
        "def attribute(): pass\n"
        "def named_in_a_string(): pass\n"
        "def dead(): pass\n"
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def unused(self): pass\n"
    )
    caller = "called()\nimport m\nm.attribute()\nTRACED = {'named_in_a_string': None}\nb.size\n"
    assert unreferenced({"m": module}, [caller]) == {"m.dead", "m.Box.unused"}
