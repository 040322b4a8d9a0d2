"""No leftovers in the package source, found with the stdlib `ast` module.

Core claims:
  * Every module-level name that a module in `src/chowliu` defines (function,
    class or assigned name) is referenced somewhere in `src/`, or listed in an
    `__all__`.
  * Every import in `src/chowliu` binds a name that its module uses, or lists
    in its `__all__`; `from __future__` imports are exempt.
  * Every defaulted parameter of a private function in `src/chowliu` (a name
    with one leading underscore) is passed, by keyword, by position or
    through `*` or `**`, by some call in `src/` or `tests/`. A function whose
    name is also used other than as the callee of a call (passed on, stored)
    may be called under another name, so it is exempt.
  * Every defaulted parameter of a public function or method in `src/chowliu`
    is passed in the same sense, with the same exemption: a setting with one
    value in use is a constant.
  * Every name in an `__all__` of `src/chowliu` has a caller: it is used in
    `src/chowliu` outside its own definition and outside the package's
    re-export in `__init__.py`, is a word of `README.md`, or is used in
    `tests/test_acceptance.py`.  A name that only its own unit tests call is
    not part of the paper's pipeline.  A use as the type argument of an
    `isinstance()` call does not count as a caller.
  * Every public method, staticmethod and property of a class in
    `src/chowliu` has a caller by the same rule: its name is used in
    `src/chowliu` outside its own definition, is a word of `README.md`, or is
    used in `tests/test_acceptance.py`.

A refactor that leaves a helper, a constant, an import, a parameter that
only ever takes its default or a public name without a caller behind fails
here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chowliu"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
TESTS = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(Path(__file__).parent.glob("*.py"))]


def exported(tree) -> set:
    """The strings listed in the module's `__all__`, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def used_names(tree, ignored=frozenset()) -> set:
    """Names a module reads, attributes it looks up and names it imports from
    elsewhere, leaving out the nodes whose id() is in `ignored`."""
    out = set()
    for node in ast.walk(tree):
        if id(node) in ignored:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def defined_names(tree) -> list:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in out if not (name.startswith("__") and name.endswith("__"))]


def test_every_module_level_name_is_used_or_exported():
    referenced = set()
    for tree in MODULES.values():
        referenced |= used_names(tree) | exported(tree)
    unused = [f"{module}: {name}" for module, tree in MODULES.items()
              for name in defined_names(tree) if name not in referenced]
    assert unused == []


def test_every_import_is_used_or_exported():
    unused = []
    for module, tree in MODULES.items():
        loads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        keep = loads | exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in keep:
                        unused.append(f"{module}:{node.lineno}: {bound}")
    assert unused == []


def callee_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def defaulted_parameters(function) -> list:
    """(name, position among a call's arguments or None) of each parameter
    with a default; keyword-only parameters have no position, and a method's
    `self` or `cls` is not among the arguments."""
    args = function.args
    positional = args.posonlyargs + args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    out = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= len(positional) - len(args.defaults)]
    out += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def never_passed(public: bool) -> list:
    """The "module: function.parameter" of each defaulted parameter that no
    call in `src/` or `tests/` passes, among the public functions and methods
    (names without a leading underscore) or among the private functions."""
    trees = list(MODULES.values()) + TESTS
    calls, callees = {}, set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(callee_name(node), []).append(node)
                callees.add(id(node.func))
    escaped = {node.id if isinstance(node, ast.Name) else node.attr
               for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
               and id(node) not in callees}
    never = []
    for module, tree in MODULES.items():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef) or function.name.startswith("_") == public:
                continue
            if function.name.startswith("__") or function.name in escaped:
                continue
            for name, position in defaulted_parameters(function):
                passed = False
                for call in calls.get(function.name, []):
                    keywords = {kw.arg for kw in call.keywords}
                    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
                    by_position = position is not None and (starred or len(call.args) > position)
                    passed |= by_position or name in keywords or None in keywords
                if not passed:
                    never.append(f"{module}: {function.name}.{name}")
    return never


def test_every_defaulted_private_parameter_is_passed():
    assert never_passed(public=False) == []


def test_every_defaulted_public_parameter_is_passed():
    assert never_passed(public=True) == []


# Public names kept without a caller in the package, the README or the
# acceptance checks, each with its reason.
NO_CALLER_NEEDED = {
    "block_product": ("builds the paper's block construction; the Hellinger tensorization tests and "
                      "the check of NonRealizableRecovery's exact truth use it"),
    "__version__": "the package version",
}


def type_arguments(tree) -> set:
    """The id() of every node inside the type argument of an `isinstance()` call."""
    return {id(node) for call in ast.walk(tree)
            if isinstance(call, ast.Call) and callee_name(call) == "isinstance" and len(call.args) == 2
            for node in ast.walk(call.args[1])}


def caller_names(tree) -> set:
    """used_names(tree), without the names used only to check a type."""
    return used_names(tree, type_arguments(tree))


def outside_callers() -> set:
    """The words of README.md and the names used in tests/test_acceptance.py."""
    words = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    return words | caller_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))


def test_every_exported_name_has_a_caller():
    uses = set()
    for module, tree in MODULES.items():
        if module == "__init__.py":
            continue
        for statement in tree.body:
            # A statement that defines a name does not count as its use.
            defines = set(defined_names(ast.Module([statement], [])))
            uses |= caller_names(statement) - defines
    exports = set().union(*(exported(tree) for tree in MODULES.values()))
    assert set(NO_CALLER_NEEDED) <= exports
    no_caller = sorted(exports - uses - outside_callers() - set(NO_CALLER_NEEDED))
    assert no_caller == [], f"public names without a caller: {no_caller}"


def test_every_public_method_has_a_caller():
    outside = outside_callers()
    no_caller = []
    for module, tree in MODULES.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                own = {id(node) for node in ast.walk(method)}
                uses = set().union(*(used_names(other, type_arguments(other) | own) for other in MODULES.values()))
                if method.name not in uses | outside:
                    no_caller.append(f"{module}: {cls.name}.{method.name}")
    assert no_caller == [], f"public methods without a caller: {no_caller}"
