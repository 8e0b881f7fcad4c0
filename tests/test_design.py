"""Design rules of the package that its behaviour does not show."""

import ast
import importlib.util
import inspect
import pathlib

from groversim.verification import CHECK_IDS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "groversim"

#: Names kept although no code in the package uses them: the package version.
UNUSED_ON_PURPOSE = {"__version__"}


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


def _registered_as_command(node):
    # `@cli.command()` hands the function to the click group: that is its use
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in getattr(node, "decorator_list", ())
    )


def test_every_top_level_name_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name, definition in _top_level_names(tree):
            if name in UNUSED_ON_PURPOSE or _registered_as_command(definition):
                continue
            own = {id(node) for node in ast.walk(definition)}
            used = any(
                id(node) not in own
                and (
                    (isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                )
                for other in trees.values()
                for node in ast.walk(other)
            )
            if not used:
                unused.append(f"{module}:{name}")
    assert unused == []


#: Names the benchmark tracer still wraps or reports although they were
#: deleted from the package or moved to another module; their per-layer rows
#: read 0 until they go.
DELETED_FROM_SRC = {
    "grover._simulate_matrix", "linalg.matrix_pow", "states.evolve", "states.n_hadamard",
    "grover.state_after_iterations", "grover._simulate_kernel", "states.make_qstate",
    "grover.closed_form_state", "linalg.matmul",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _imported_elsewhere(layers, span):
    # the tracer wraps a function where another groversim module imported it
    layer, _, name = span.partition(".")
    home = importlib.import_module(f"groversim.{layer}")
    fn = vars(home).get(name)
    if not inspect.isfunction(fn) or fn.__module__ != home.__name__:
        return False
    return any(
        vars(importlib.import_module(f"groversim.{other}")).get(name) is fn
        for other in layers
        if other != layer
    )


def test_every_tracer_hook_names_a_function_of_the_package():
    # a rename in src/ would otherwise turn a per-layer row into a silent 0
    tracer = _load_tracer()
    hooks = {
        span: f"{layer}.{attr}"
        for layer, names in tracer.OWN_NAMESPACE.items()
        for attr, span in names.items()
    }
    hooks["cli.main"] = "cli.main"
    unresolved = set()
    for hook in hooks.values():
        layer, _, attr = hook.partition(".")
        if not hasattr(importlib.import_module(f"groversim.{layer}"), attr):
            unresolved.add(hook)
    for metric, _unit in tracer.PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field not in tracer._SPAN_FIELDS and field != "peak_mb":
            continue  # a count or a maximum, not a span
        check_id = span.removeprefix("verification.run_check.")
        if check_id != span:
            assert check_id in CHECK_IDS
            span = "verification.run_check"
        if span not in hooks and not _imported_elsewhere(tracer.LAYERS, span):
            unresolved.add(span)
    assert unresolved == DELETED_FROM_SRC


def _calls_by_scope(node, scope):
    # (dotted name of the innermost enclosing module, class or function, call)
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Call):
            yield inner, child
        yield from _calls_by_scope(child, inner)


def test_qstate_is_built_only_inside_adopt_qstate():
    # every state then passes the norm gate; a new builder cannot skip it
    builders = set()
    for path in sorted(SRC.glob("*.py")):
        for scope, call in _calls_by_scope(ast.parse(path.read_text()), path.stem):
            func = call.func
            if getattr(func, "id", None) == "QState" or getattr(func, "attr", None) == "QState":
                builders.add(scope)
    assert builders == {"linalg.adopt_qstate"}


def _run_at_import(node):
    # every node Python runs when the module loads: all but function bodies
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _run_at_import(child)


def test_only_the_dense_modules_import_numpy_at_module_level():
    # the other modules import it inside the function that uses it, so the
    # commands that hold no vector start without numpy
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in _run_at_import(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [(node.module or "").partition(".")[0]]
            else:
                continue
            if "numpy" in roots:
                importers.add(path.stem)
    assert importers == {"linalg", "verification"}
