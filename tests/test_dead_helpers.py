"""Every function, method and property of ``src/pnma`` has a caller, and the
K-NN retrieval has one call site.

A function counts as used when its name appears anywhere in ``src/``,
``scripts/`` or ``perfbench/`` as a ``Name``, an ``Attribute`` or an
identifier string (the tracer names what it wraps in strings); a method or
property only when a caller names it as an ``Attribute``, so that a local
variable or a string of the same name does not keep it.  The strings of an
``__all__`` list re-export names and do not use them.  Tests do not count:
code that only a test calls is dead, unless the list below keeps it and says
why.

The defaulted parameters of ``src/pnma`` are pinned the same way: a default
is a second way to call a function, so one is added or removed on purpose,
and in ``DEFAULTED`` first.

Only ``memory``, which defines ``knn_entry_ids``, and ``inference``, whose
``encode_and_retrieve`` is every other module's way to it, may name it: a
module that retrieves on its own would no longer retrieve as ``predict``
does.  Likewise only ``neighborhood``, which defines ``NeighborhoodWorkspace``,
and the two callers that own one, ``training`` (a training call) and
``inference`` (a tagging pass), may name it: the kernels take their caller's
workspace and make none of their own.
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
    "cli._Parser.error": "argparse calls it on a usage problem",
}


def definitions(source: str):
    """(qualified name, bare name, is a member) of each module-level function
    and of each method or property of a module-level class; dunder methods
    are called implicitly and left out."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, True


def references(source: str) -> tuple[set[str], set[str]]:
    """(every name a caller source uses, the names it uses as attributes)."""
    tree = ast.parse(source)
    exported = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for n in ast.walk(node.value)}
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            names.add(node.value)
    return names | attributes, attributes


def unreferenced(modules: dict[str, str], callers: list[str]) -> set[str]:
    """Qualified names, prefixed by their module, that no caller source uses."""
    refs = [references(c) for c in callers]
    used = set().union(*(names for names, _ in refs))
    as_attribute = set().union(*(attributes for _, attributes in refs))
    return {f"{module}.{qualified}" for module, source in modules.items()
            for qualified, name, member in definitions(source)
            if name not in (as_attribute if member else used)}


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
        "def only_reexported(): pass\n"
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def unused(self): pass\n"
        "    @property\n"
        "    def local(self): return 2\n"
        "    @property\n"
        "    def f(self): return 3\n"
    )
    caller = "called()\nimport m\nm.attribute()\nTRACED = {'named_in_a_string': None}\nb.size\n"
    # a local variable or a string that shares a member's name does not use it
    shadows = "local = 1\ndirection = 'f'\n"
    reexport = "from .m import only_reexported\n__all__ = ['only_reexported']\n"
    assert unreferenced({"m": module}, [caller, shadows, reexport]) == {
        "m.dead", "m.only_reexported", "m.Box.unused", "m.Box.local", "m.Box.f"}


# each function's defaulted parameters, by qualified name
DEFAULTED = {
    "analysis.span_prf": "scheme",
    "analysis.rank_distribution": "exclude_self external threads",
    "analysis.confusion_diff": "top_n_labels",
    "analysis.disagreement_report": "neighborhood_counts",
    "analysis.neighborhood_label_counts": "external threads",
    "analysis.neighbor_dump": "context_window external",
    "config.load_run_config": "overrides",
    "crf.init_crf_params": "dtype",
    "dataio.build_vocab": "min_frequency",
    "dataio.TokenTable.build": "external",
    "encoder.init_encoder_params": "dtype external_dim",
    "encoder.embed_tokens": "external_vectors",
    "encoder.encode_batch": "dropout_embed dropout_layer drop_rng external_vectors want_cache "
                            "lengths",
    "encoder.encode_rows": "threads",
    "inference.tag_rows": "nbr memory ids dists workspace",
    "inference.predict_base_corpus": "external",
    "inference.predict_pnma_corpus": "external threads",
    "memory.build_memory": "seed source_digest external",
    "memory.knn_entry_ids": "exclude threads distances",
    "memory.knn_query": "exclude threads",
    "neighborhood.init_neighborhood_params": "mode dtype",
    "numeric.make_rng": "stream",
    "numeric.softmax": "axis",
    "numeric.finite_difference_check": "step",
    "training.train_base": "external",
    "training.train_pnma": "external",
}


def defaulted_parameters(source: str, module: str) -> dict[str, list[str]]:
    """Each function's defaulted parameters, positional then keyword-only, by
    qualified name (``module.Class.method``, nested functions included)."""
    out: dict[str, list[str]] = {}

    def visit(node, qualified):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, qualified)
                continue
            name = f"{qualified}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                a = child.args
                positional = a.posonlyargs + a.args
                params = [p.arg for p in positional[len(positional) - len(a.defaults):]]
                params += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                if params:
                    out[name] = params
            visit(child, name)

    visit(ast.parse(source), module)
    return out


def test_defaulted_parameter_inventory():
    found = {}
    for p in sorted((REPO / "src" / "pnma").glob("*.py")):
        found.update(defaulted_parameters(p.read_text(encoding="utf-8"), p.stem))
    assert found == {name: params.split() for name, params in DEFAULTED.items()}
    assert sum(map(len, found.values())) == 47


def test_inventory_reads_every_kind_of_default():
    source = (
        "def f(a, b=1, *, c, d=2): pass\n"
        "def g(a, /, b=1): pass\n"
        "def none(a, *args, **kw): pass\n"
        "class C:\n"
        "    def m(self, x=None):\n"
        "        def inner(y=3): pass\n"
    )
    assert defaulted_parameters(source, "m") == {
        "m.f": ["b", "d"], "m.g": ["b"], "m.C.m": ["x"], "m.C.m.inner": ["y"]}


# the modules that may name the K-NN retrieval
RETRIEVAL_MODULES = {"memory", "inference"}


# the modules that may name the neighborhood workspace: its definition, and
# the owners of a training call and of a tagging pass
WORKSPACE_MODULES = {"neighborhood", "training", "inference"}


def names(source: str, name: str) -> bool:
    """Whether a source calls, imports or otherwise names ``name``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.alias) and node.name == name:
            return True
    return False


def names_knn_entry_ids(source: str) -> bool:
    """Whether a source calls, imports or otherwise names ``knn_entry_ids``."""
    return names(source, "knn_entry_ids")


def test_one_retrieval_site():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((REPO / "src" / "pnma").glob("*.py"))}
    naming = {module for module, source in modules.items() if names_knn_entry_ids(source)}
    assert naming == RETRIEVAL_MODULES, "retrieve through inference.encode_and_retrieve"


def constructing_functions(source: str, module: str, name: str) -> set[str]:
    """Qualified names of the functions of ``source`` that call ``name(...)``."""
    found = set()

    def visit(node, qualified):
        for child in ast.iter_child_nodes(node):
            inner = qualified
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{qualified}.{child.name}"
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == name):
                found.add(qualified)
            visit(child, inner)

    visit(ast.parse(source), module)
    return found


def test_workspace_owners():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((REPO / "src" / "pnma").glob("*.py"))}
    naming = {module for module, source in modules.items()
              if names(source, "NeighborhoodWorkspace")}
    assert naming == WORKSPACE_MODULES, (
        "a kernel takes its caller's workspace: only a training call and a tagging pass "
        "make one")
    makers = set().union(*(constructing_functions(source, module, "NeighborhoodWorkspace")
                           for module, source in modules.items()))
    assert makers == {"training.train_pnma", "inference.tag_rows"}


def test_workspace_scan_sees_each_kind_of_reference():
    source = ("from .neighborhood import NeighborhoodWorkspace\n"
              "def kernel(ws=None):\n"
              "    ws = NeighborhoodWorkspace() if ws is None else ws\n"
              "class Owner:\n"
              "    def run(self):\n"
              "        return [NeighborhoodWorkspace()]\n")
    assert names(source, "NeighborhoodWorkspace")
    assert not names("'NeighborhoodWorkspace'\n", "NeighborhoodWorkspace")
    assert constructing_functions(source, "m", "NeighborhoodWorkspace") == {
        "m.kernel", "m.Owner.run"}


def test_retrieval_scan_sees_each_kind_of_reference():
    for source in ("from .memory import knn_entry_ids\n", "ids = knn_entry_ids(q, m, 3)\n",
                   "from . import memory\nmemory.knn_entry_ids(q, m, 3)\n",
                   "retrieve = knn_entry_ids\n"):
        assert names_knn_entry_ids(source), source
    assert not names_knn_entry_ids("knn_query(q, m, 3)\n'knn_entry_ids'\n")
