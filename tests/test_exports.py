"""Every name a gbgroove module exports is read by package code, `scripts/` or
`perfbench/` (a name or attribute load; an import alone does not count).  A
name only the tests call belongs in the tests.  The benchmark's tracer finds
every name it wraps."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "gbgroove").glob("*.py"))
USERS = [*MODULES, *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def _exports(path: Path) -> set[str]:
    return {elt.value for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
            for elt in node.value.elts}


def _reads() -> set[str]:
    nodes = [n for path in USERS for n in ast.walk(ast.parse(path.read_text()))]
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


@pytest.mark.parametrize("module", MODULES, ids=[m.stem for m in MODULES])
def test_every_export_is_used(module):
    unused = sorted(_exports(module) - _reads())
    assert not unused, f"{module.name} exports names nothing uses: {unused}"


def _bindings() -> dict:
    """Every attribute of every loaded gbgroove module, and `advance`."""
    from gbgroove.oracle import GrooveOperator
    got = {(k, attr): value for k, module in list(sys.modules.items())
           if k == "gbgroove" or k.startswith("gbgroove.")
           for attr, value in vars(module).items()}
    return got | {("GrooveOperator", "advance"): GrooveOperator.advance}


def test_tracer_finds_every_name_it_wraps(monkeypatch):
    """perfbench/spans.py looks the functions it wraps up by name: install
    wraps each, and uninstall puts every attribute back.  A name the tracer
    needs that the package dropped fails here, not only in a traced run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    # every module install imports is loaded before the snapshot
    from gbgroove import cli, composite, layers, oracle, outer, specfun  # noqa: F401

    before = _bindings()
    undo = spans.install(spans.Recorder())
    try:
        for name in spans.SPECFUN:
            assert inspect.unwrap(getattr(specfun, name)) is before["gbgroove.specfun", name]
            assert getattr(specfun, name) is not before["gbgroove.specfun", name]
    finally:
        spans.uninstall(undo)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
