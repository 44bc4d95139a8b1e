"""The curated package surface stays importable and usable."""

import ast
from pathlib import Path

import stabilitylab as sl


def test_public_api_round_trip():
    word = sl.word_from_string("ab", 2)
    gens = sl.alt_marking(2)
    assert sl.word_eval(word, gens).degree == 5
    assert sl.marked_nu(sl.alt_oracle(2), sl.az_oracle(), 4).value >= 0
    irs = sl.irs_of_gset(sl.trivial_gset(2, 3), 1)
    assert sum(irs.masses.values()) == 1
    sub = sl.fibonacci()
    assert sl.cylinder(sub, "a").complement() == sl.cylinder(sub, "b")
    assert sl.identity_element(sub).is_identity


def test_version():
    assert sl.__version__


def test_invariant_error_is_a_runtime_error():
    assert issubclass(sl.InvariantError, RuntimeError)
    assert not issubclass(sl.InvariantError, sl.ResourceLimitError)


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # python -O strips assert, and a raised AssertionError reads as a failed
    # check, so library invariants raise InvariantError; the shared oracles
    # are not a test module, whose asserts pytest rewrites to survive -O
    found = []
    paths = sorted(Path(sl.__file__).parent.rglob("*.py"))
    for path in paths + [Path(__file__).with_name("oracles.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Raise) and node.exc is not None
                    and _raises_assertion_error(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_caps_are_module_constants_read_at_call_time():
    # a default argument or a copy imported into another module is bound once,
    # so patching the cap's own module constant would not move that limit
    found = []
    for path in sorted(Path(sl.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [
                    a for a in (args.vararg, args.kwarg) if a is not None]
                found += [f"{path.name}:{node.lineno} parameter {a.arg}"
                          for a in params if a.arg.endswith("cap")]
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("stabilitylab")):
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.endswith("_CAP")]
    assert found == []


def test_library_has_no_unused_imports():
    # a deleted function can leave its imports behind; __init__.py imports
    # to re-export, so it is skipped
    found = []
    for path in sorted(Path(sl.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names
                          if (alias.asname or alias.name.split(".")[0]) not in used]
    assert found == []
