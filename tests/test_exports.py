"""Every name a gbgroove module exports is read by package code, `scripts/` or
`perfbench/` (a name or attribute load; an import alone does not count), or
is on the allow-list below.  A name only the tests call belongs in the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "gbgroove").glob("*.py"))
USERS = [*MODULES, *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]

# exported though nothing above reads them: the engine's one-point faces,
# which perfbench/spans.py looks up by name (ROADMAP item 4), and HypArgs,
# hyp_pFq's argument type.  Nothing else waits here: the helpers only the
# tests call are defined in tests/conftest.py
KEPT = {
    "hyp_pFq", "hyp_pFq_derivative", "hyp_series_derivative", "HypArgs",
}


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
    unused = sorted(_exports(module) - _reads() - KEPT)
    assert not unused, f"{module.name} exports names nothing uses: {unused}"


def test_allow_list_names_exports():
    missing = KEPT - set().union(*map(_exports, MODULES))
    assert not missing, sorted(missing)
