"""Option census: which settable options of the system does a caller set?

An *option* is a defaulted or keyword-only parameter of a public function
or method, or a defaulted dataclass field, in ``repro.core``,
``repro.serving``, ``repro.index``, ``repro.snapshot`` and the classes
``repro.__all__`` exports from elsewhere. Calls under ``src``,
``benchmarks`` and ``examples`` (test modules excluded) set options by
keyword, position or ``*``/``**``, resolved by name: ``f()`` to functions
and classes named ``f``, ``C.m()`` to class ``C`` (and its aliases, such
as ``Seekers.SC``), ``x.m()`` to every ``m``, ``cls()`` to the enclosing
class and ``super().__init__()`` to its bases. Standard library only::

    python tests/tools/option_census.py [--max-options N] [--max-unset M]

prints every option, ``set`` or ``UNSET``, then both counts, and exits 1
when a count exceeds its limit (the CI ratchet).
"""

import argparse
import ast
import sys
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SURFACE = ("src/repro/core", "src/repro/serving", "src/repro/index", "src/repro/snapshot.py")
CALLERS = ("src", "benchmarks", "examples")

Fn = namedtuple("Fn", "key params options")  # key: (path, qualname); params bind positions
Cls = namedtuple("Cls", "bases methods aliases")  # methods["__init__"]: what a call binds


def _files(root, top):
    return sorted((root / top).rglob("*.py")) if (root / top).is_dir() else [root / top]


def _names(nodes):
    return [ast.unparse(node).split("(")[0].rsplit(".", 1)[-1] for node in nodes]


def _function(key, node, bound):
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    return Fn(key, positional[bound:], defaulted + [a.arg for a in args.kwonlyargs])


def _fields(key, node):
    params, options = [], []
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and "ClassVar" not in ast.unparse(item.annotation):
            value = ast.unparse(item.value) if item.value else None
            params.append(item.target.id)
            if value and (not value.startswith("field(") or "default" in value):
                options.append(item.target.id)
    return Fn(key, params, options)


class Surface:
    def __init__(self, root):
        self.functions, self.methods, self.classes, self.all = {}, {}, {}, []
        surface = [p for top in SURFACE for p in _files(root, top)]
        tree = ast.parse((root / "src/repro/__init__.py").read_text())
        exported = next(ast.literal_eval(n.value) for n in tree.body
                        if isinstance(n, ast.Assign) and n.targets[0].id == "__all__")
        for path in sorted((root / "src/repro").rglob("*.py")):
            for node in ast.parse(path.read_text()).body:
                name = getattr(node, "name", "_")
                if not name.startswith("_") and (path in surface or name in exported):
                    self._add(str(path.relative_to(root)), node)

    def _add(self, path, node):
        if isinstance(node, ast.FunctionDef):
            self._register(self.functions, _function((path, node.name), node, 0))
        if not isinstance(node, ast.ClassDef):
            return
        cls = self.classes[node.name] = Cls(_names(node.bases), {}, {})
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and (
                item.name == "__init__" or not item.name.startswith("_")
            ):
                bound = 0 if "staticmethod" in _names(item.decorator_list) else 1
                method = _function((path, f"{node.name}.{item.name}"), item, bound)
                cls.methods[item.name] = self._register(self.methods, method)
            elif isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
                cls.aliases[item.targets[0].id] = item.value.id
        if "dataclass" in _names(node.decorator_list) and "__init__" not in cls.methods:
            cls.methods["__init__"] = self._register({}, _fields((path, node.name), node))

    def _register(self, table, function):
        self.all.append(function)
        table.setdefault(function.key[1].rsplit(".", 1)[-1], []).append(function)
        return function

    def member(self, name, attr="__init__", seen=()):
        """What ``name.attr(...)`` binds, or a call of class *name* when
        *attr* is ``__init__``; inherited from the nearest base."""
        cls = self.classes.get(name)
        if cls is None or name in seen:
            return []
        if attr in cls.aliases:
            return self.member(cls.aliases[attr])
        if attr in cls.methods:
            return [cls.methods[attr]]
        return [f for b in cls.bases for f in self.member(b, attr, seen + (name,))]


class Calls(ast.NodeVisitor):
    """Adds every option a call sets to *found*."""

    def __init__(self, surface, found):
        self.surface, self.found, self.classes = surface, found, [None]

    def visit_ClassDef(self, node):
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def _targets(self, func):
        surface, owner = self.surface, self.classes[-1]
        if isinstance(func, ast.Name):
            if func.id == "cls" and owner:
                return surface.member(owner.name)
            return surface.functions.get(func.id, []) + surface.member(func.id)
        if not isinstance(func, ast.Attribute):
            return []
        if func.attr == "__init__" and ast.unparse(func.value) == "super()":
            bases = _names(owner.bases) if owner else []
            return [f for base in bases for f in surface.member(base)]
        if isinstance(func.value, ast.Name) and func.value.id in surface.classes:
            return surface.member(func.value.id, func.attr)
        return (surface.methods.get(func.attr, []) + surface.functions.get(func.attr, [])
                + surface.member(func.attr))

    def visit_Call(self, call):
        starred = [isinstance(a, ast.Starred) for a in call.args] + [True]
        bound = starred.index(True)  # positions bound before any *args
        keywords = {k.arg for k in call.keywords}  # None: a **kwargs
        for function in self._targets(call.func):
            for option in function.options:
                at = function.params.index(option) if option in function.params else None
                by_position = at is not None and (at < bound or bound < len(call.args))
                if option in keywords or by_position or None in keywords:
                    self.found.add((*function.key, option))
        self.generic_visit(call)


def census(root=ROOT):
    """Every option ``(path, qualname, parameter)``, and the set of those
    a non-test caller sets."""
    surface = Surface(root)
    found = set()
    for path in (p for top in CALLERS for p in _files(root, top)):
        relative = path.relative_to(root)
        if "tests" not in relative.parts and not path.name.startswith(("test_", "conftest")):
            Calls(surface, found).visit(ast.parse(path.read_text()))
    return [(*f.key, option) for f in surface.all for option in f.options], found


def main(argv=None):
    parser = argparse.ArgumentParser(description="Count the system's options and their callers.")
    parser.add_argument("--max-options", type=int, help="fail above this many options")
    parser.add_argument("--max-unset", type=int, help="fail above this many never-set options")
    args = parser.parse_args(argv)
    options, found = census()
    for path, qualname, option in options:
        mark = "set  " if (path, qualname, option) in found else "UNSET"
        print(f"{mark} {path}: {qualname}({option}=)")
    unset = len(set(options) - found)
    print(f"options: {len(options)}  never set outside tests: {unset}")
    limits = ((len(options), args.max_options), (unset, args.max_unset))
    return int(any(limit is not None and count > limit for count, limit in limits))


if __name__ == "__main__":
    sys.exit(main())
