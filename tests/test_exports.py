"""Every public name and every option has a caller outside the tests, or is
pinned here.

A public top-level function, class or constant of a ``src/handkit`` module
that nothing in ``src/``, ``scripts/`` or ``handbench/`` uses (its own
definition and ``__init__.py`` aside) is API that only the tests exercise;
so is a public method or property of a public class whose name no attribute
read there names.
Likewise a defaulted parameter of a function or method in ``src/handkit``,
or a defaulted dataclass field, that no call there passes is an option only
the tests set.  The few that stay on purpose are pinned below; a new one,
such as a single-pose wrapper over ``fk_forward`` or a camera target, fails
here until it gains a caller or is pinned by a deliberate edit.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# module.name -> why it stays public without a caller outside the tests
TEST_ONLY = {
    "hand_model.from_mano_arrays": "the converter for user-supplied MANO "
                                   "arrays, which the repository does not ship",
    "metrics.fscore": "one threshold's F-score; the benchmark traces it by "
                      "name, and evaluate counts all thresholds in one pass",
    "bio_dof.is_feasible": "the feasibility predicate on one BioPose; fit and "
                           "predict clip their (B, 23) arrays in place instead",
    "lixel.marginalize": "the 2D-to-1D heatmap reduction the lixel tests pin",
    "synth.SAMPLES_PER_CAMERA": "the paper's 32 draws per camera, which "
                                "criterion 1 checks against the grid size",
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
}


def _sources():
    for folder in ("src", "scripts", "handbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name != "__init__.py" or path.parent.name != "handkit":
                yield path, ast.parse(path.read_text())


def _used_names() -> set[tuple[str, str]]:
    """(home module, name) pairs that some source file uses: a load of the
    name in its own module, an import of it, or an attribute read through
    the package or its module; and ("attribute", name) for any attribute
    read, which is how a method is reached."""
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
            elif isinstance(node, ast.Attribute):
                used.add(("attribute", node.attr))
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    used.add((modules[node.value.id], node.attr))
    return used


def _public_names():
    """(module, name) of every public top-level function, class and constant
    of ``src/handkit``, and (module, class.method) of every public method
    and property of a public class."""
    for path in sorted((ROOT / "src" / "handkit").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from ((path.stem, f"{node.name}.{f.name}") for f in node.body
                            if isinstance(f, ast.FunctionDef)
                            and not f.name.startswith("_"))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((path.stem, name) for name in names if not name.startswith("_"))


def test_public_names_without_a_caller_are_pinned():
    used = _used_names()
    unused = [f"{home}.{name}" for home, name in _public_names()
              if not ({("attribute", name.partition(".")[2])} if "." in name
                      else {(home, name), (None, name)}) & used]
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
