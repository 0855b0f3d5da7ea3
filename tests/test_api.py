import ast
from pathlib import Path

import critcurves

PACKAGE = Path(critcurves.__file__).parent

# the brute-force routes and the query modules they check
MOVED = {
    "orbit": {"scan_witness"},
    "chains": {"residue_cover", "FareyPointTests", "farey_point_tests"},
    "triples": {"concurrency_oracle"},
}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _imported(tree: ast.Module) -> set[str]:
    """Every package module the source imports, as a bare name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("critcurves.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == "critcurves":
                if module in ("", "critcurves"):
                    found.update(alias.name for alias in node.names)
                else:
                    found.add(module)
            else:
                found.add(module.removeprefix("critcurves."))
    return found


def _bound_at_top(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_all_names_resolve_once():
    names = critcurves.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(critcurves, name)]
    assert missing == []


def test_only_verify_imports_the_oracles():
    from critcurves import oracles

    importers = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        if path.stem != "oracles" and "oracles" in _imported(_tree(path.stem))
    )
    assert importers == ["verify"]
    moved = set().union(*MOVED.values())
    for module in MOVED:
        assert not _bound_at_top(_tree(module)) & moved, module
    assert moved <= _bound_at_top(_tree("oracles"))
    assert all(callable(getattr(oracles, name)) for name in moved)
    assert not moved & set(critcurves.__all__)
    # the oracles share no private helper with the code they check
    for node in ast.walk(_tree("oracles")):
        if isinstance(node, ast.ImportFrom) and node.module == "triples":
            assert not [alias.name for alias in node.names if alias.name.startswith("_")]
