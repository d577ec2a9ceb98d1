"""Every public name and every option has a caller outside the tests, or is
pinned here.

A name in ``handkit.__all__`` that nothing in ``src/``, ``scripts/`` or
``handbench/`` uses (its own definition and ``__init__.py`` aside) is API
that only the tests exercise.  Likewise a defaulted parameter of a function
or method in ``src/handkit``, or a defaulted dataclass field, that no call
there passes is an option only the tests set.  The few that stay on purpose
are pinned below; a new one, such as a single-pose wrapper over
``fk_forward`` or a camera target, fails here until it gains a caller or is
pinned by a deliberate edit.
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

# option -> why it stays without a caller outside the tests
TEST_ONLY_OPTIONS = {
    "cli.main(argv)": "the in-process entry the tests drive; the console "
                      "script passes nothing and argparse reads sys.argv",
    "hand_model.from_mano_arrays(posedirs)": "MANO's optional pose blend "
                                             "shapes, in user-supplied arrays",
    "hand_model.from_mano_arrays(tip_vertices)": "the tips are vertices of "
                                                 "MANO's mesh; another mesh "
                                                 "names its own",
    "hand_model.from_mano_arrays(unit)": "MANO ships meters; arrays already "
                                         "in millimeters pass 'mm'",
    "ik_net.MlpIk(dtype)": "criterion 5 checks gradients on a float64 net",
    "ik_optim.FitConfig.convergence_tol": "the early stop ROADMAP item 1 builds "
                                          "its stop reasons on",
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



def _options():
    """(label, callee name, position, name) of every defaulted parameter of a
    function or method in ``src/handkit`` and every defaulted dataclass
    field.  A constructor's callee is its class; a method's positions skip
    ``self``; a keyword-only parameter has no position."""
    for path in sorted((ROOT / "src" / "handkit").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {child: node for node in ast.walk(tree)
                 for child in ast.iter_child_nodes(node) if isinstance(node, ast.ClassDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                for i, f in enumerate(fields):
                    if f.value is not None:
                        yield (f"{path.stem}.{node.name}.{f.target.id}", node.name, i,
                               f.target.id)
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = owner.get(node)
            label = path.stem + (f".{cls.name}" if cls else "") + (
                "" if node.name == "__init__" else f".{node.name}")
            callee = cls.name if node.name == "__init__" else node.name
            args = node.args.posonlyargs + node.args.args
            skip = int(cls is not None and not any(
                "staticmethod" in ast.unparse(d) for d in node.decorator_list))
            for i in range(len(args) - len(node.args.defaults), len(args)):
                yield f"{label}({args[i].arg})", callee, i - skip, args[i].arg
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield f"{label}({arg.arg})", callee, None, arg.arg


def _passed() -> dict[str, set]:
    """Callee name -> the positions and keywords some call passes; "*" when a
    call unpacks ``*args`` or ``**kwargs``, which may pass anything."""
    passed = {}
    for _, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                got = passed.setdefault(name, set())
                got.update("*" if isinstance(a, ast.Starred) else i
                           for i, a in enumerate(node.args))
                got.update(k.arg or "*" for k in node.keywords)
    return passed


def test_options_without_a_caller_are_pinned():
    passed = _passed()
    unused = [label for label, callee, position, name in _options()
              if not {"*", name, position} & passed.get(callee, set())]
    assert sorted(unused) == sorted(TEST_ONLY_OPTIONS)
