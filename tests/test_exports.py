"""Every public name has a caller outside the tests, or is pinned here.

A name in ``handkit.__all__`` that nothing in ``src/``, ``scripts/`` or
``handbench/`` uses (its own definition and ``__init__.py`` aside) is API
that only the tests exercise.  The few that stay on purpose are pinned
below; a new one, such as a single-pose wrapper over ``fk_forward``, fails
here until it gains a caller or is pinned by a deliberate edit.
"""

import ast
import inspect
from pathlib import Path

import handkit

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays public without a caller outside the tests
TEST_ONLY = {
    "from_mano_arrays": "the converter for user-supplied MANO arrays, which "
                        "the repository does not ship",
    "fscore": "one threshold's F-score; the benchmark traces it by name, and "
              "evaluate counts all thresholds in one pass",
    "is_feasible": "the feasibility predicate that pairs with clamp",
    "marginalize": "the 2D-to-1D heatmap reduction the lixel tests pin",
    "swap_fingers": "the finger swap augment_library applies row-wise",
}


def _sources():
    for folder in ("src", "scripts", "handbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name != "__init__.py" or path.parent.name != "handkit":
                yield path, ast.parse(path.read_text())


def _used_names() -> set[tuple[str, str]]:
    """(home module, name) pairs that some source file uses: a load of the
    name in its own module, an import of it, or an attribute read through
    the package or its module."""
    used = set()
    for path, tree in _sources():
        own = path.stem if path.parent.name == "handkit" else None
        modules = {"handkit": None}   # local name -> handkit module (None: the package)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (
                    node.module or "").startswith("handkit")):
                home = (node.module or "").rpartition(".")[2] or None
                if home == "handkit":
                    home = None
                for alias in node.names:
                    used.add((home, alias.name))
                    if home is None:
                        modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("handkit"):
                        modules[alias.asname or alias.name] = (
                            alias.name.rpartition(".")[2] if "." in alias.name else None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
                used.add((own, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                used.add((modules[node.value.id], node.attr))
    return used


def test_public_names_without_a_caller_are_pinned():
    used = _used_names()
    unused = []
    for name in handkit.__all__:
        value = getattr(handkit, name)
        if inspect.ismodule(value):
            continue
        home = value.__module__.rpartition(".")[2]
        if not ({(home, name), (None, name)} & used):
            unused.append(name)
    assert sorted(unused) == sorted(TEST_ONLY)
