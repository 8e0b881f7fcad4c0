"""Design rules of the package that its behaviour does not show."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "groversim"

#: Names kept although no code in the package uses them: the paper's Grover
#: step, whose unitarity the tests check, and the package version.
UNUSED_ON_PURPOSE = {"grover_operator", "__version__"}


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
