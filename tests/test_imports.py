"""Each public name imports its own module on first use.

Each case runs in a fresh interpreter, so no earlier import in the test
session can hide an eager one: ``import multibridge`` loads only
``multibridge.version``, scoring loads no pipeline layer, and only the
evaluation layer imports numpy. The last seven tests read the source
instead: they check that the export table routes each name to the module
that defines it, that something outside the tests uses every public name,
that each module uses every name it imports, that the exception
hierarchy stays one error type per layer, that no code tells values
apart by object identity, where corpora are built without the per-text
check, and which functions change the disk.
"""

import ast
import builtins
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import multibridge

ROOT = Path(__file__).resolve().parent.parent


def _run(code: str, stdin: str = "") -> subprocess.CompletedProcess:
    # src first, so this checkout's package loads; then the caller's path, so a sitecustomize on it still runs.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, input=stdin,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_pipeline_and_cli_do_not_import_numpy():
    proc = _run(
        """
        import sys
        import multibridge, multibridge.pipeline, multibridge.cli
        assert "numpy" not in sys.modules, "numpy imported with the package"
        assert multibridge.cli.main(["tag", "--src", "bn", "--tgt", "hi"]) == 0
        assert "numpy" not in sys.modules, "numpy imported by the tag subcommand"
        """,
        stdin="a b\n",
    )
    assert proc.stdout == "__src_bn__ __tgt_hi__ a b\n"


def test_evaluation_name_loads_numpy():
    _run(
        """
        import sys
        import multibridge
        assert "numpy" not in sys.modules
        assert multibridge.bleu(["a b c d"], ["a b c d"], "none").value == 100.0
        assert "numpy" in sys.modules
        """
    )


@pytest.mark.parametrize("statement, loaded, absent", [
    ("import multibridge", ["version"], ["logging", "numpy"]),
    ("import multibridge.metrics", ["corpus", "errors", "languages", "metrics", "tokenizers", "version"],
     ["logging"]),
    ("from multibridge import config, pipeline", None, ["numpy"]),
], ids=["package", "metrics", "pipeline"])
def test_import_footprint(statement, loaded, absent):
    # "metrics" is the eval-nway child's path: it loads no pipeline layer.
    proc = _run(
        f"""
        import sys
        {statement}
        print(*sorted(name for name in sys.modules if name.startswith("multibridge.")))
        print(*[name for name in {absent!r} if name in sys.modules])
        """
    )
    modules, present = proc.stdout.splitlines()
    if loaded is not None:
        assert modules.split() == [f"multibridge.{name}" for name in loaded]
    assert present == "", f"{statement!r} imported {present}"


def test_every_layer_module_is_a_package_attribute():
    layers = sorted(path.stem for path in (ROOT / "src" / "multibridge").glob("*.py")
                    if path.stem not in ("__init__", "cli"))
    _run(
        f"""
        import sys
        import multibridge
        for name in {layers!r}:
            assert name in dir(multibridge), name
            assert getattr(multibridge, name) is sys.modules["multibridge." + name], name
        """
    )


def test_every_public_name_resolves():
    _run(
        """
        import multibridge
        assert set(multibridge.__all__) <= set(dir(multibridge))
        namespace = {}
        exec("from multibridge import *", namespace)
        for name in multibridge.__all__:
            assert getattr(multibridge, name) is namespace[name], name
        """
    )


def test_unknown_name_raises_attribute_error():
    _run(
        """
        import multibridge
        try:
            multibridge.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("multibridge.no_such_name resolved")
        """
    )


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every identifier ``tree`` uses: names, attributes, imported names and string constants.

    String constants count because some callers reach a function by name,
    as in ``getattr(module, "name")``. The subtree ``skip`` is left out.
    """
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _defined(tree: ast.Module) -> set[str]:
    """Every name a module-level ``def``, ``class`` or assignment of ``tree`` binds."""
    found: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {target.id for target in targets if isinstance(target, ast.Name)}
    return found


def test_export_table_names_each_defining_module():
    # Routing a name through a module that only re-imports it would load
    # that module's layers too on first use.
    package = ROOT / "src" / "multibridge"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    table = next(ast.literal_eval(node.value) for node in init.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets))
    defined = {module: _defined(ast.parse((package / f"{module}.py").read_text(encoding="utf-8")))
               for module in table}
    misrouted = [f"{module}.{name}" for module, names in table.items() for name in names
                 if name not in defined[module]]
    assert misrouted == [], f"export table entries whose module does not define the name: {misrouted}"


def test_every_public_name_is_used_outside_tests():
    # Each name in multibridge.__all__, and each public module-level def and
    # class in src/multibridge, must be used outside its own definition: in
    # src/ (the __init__.py re-export does not count), demos/, perfbench/ or
    # README.md. A name only tests use is dead surface: delete it.
    package = ROOT / "src" / "multibridge"
    exported = multibridge.__all__
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    definitions = {name: None for name in exported}  # name -> (module, defining node)
    for path, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions[node.name] = (path, node)
    outside = set()
    for directory in ("demos", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            outside |= _references(ast.parse(path.read_text(encoding="utf-8")))
    outside |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    unused = []
    for name, definition in sorted(definitions.items()):
        if name in outside:
            continue
        home, node = definition or (None, None)
        if not any(name in _references(tree, node if path == home else None) for path, tree in modules.items()):
            unused.append(name)
    assert unused == [], f"public names nothing outside tests uses: {unused}"


def test_every_imported_name_is_used():
    # A name a module imports but never uses is what a removed call leaves
    # behind. The one exception is sampling.write_bitext, kept as a module
    # name because perfbench/tracing.py wraps it there (ROADMAP item 3b
    # deletes it). A string constant counts as a use, as the package's
    # __all__ re-exports __version__.
    package = ROOT / "src" / "multibridge"
    unused = []
    for path in sorted(package.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        used |= {node.value for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        unused += [f"{path.stem}.{name}" for node in nodes
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                   for name in [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                   if name not in used]
    assert unused == ["sampling.write_bitext"], f"imported names their module never uses: {unused}"


def _handled(tree: ast.AST) -> set[str]:
    """Every name an ``except`` clause of ``tree`` catches, bare or as a module attribute."""
    return {part.id if isinstance(part, ast.Name) else part.attr
            for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type is not None
            for part in ast.walk(node.type) if isinstance(part, (ast.Name, ast.Attribute))}


def test_every_exception_class_is_a_layer_error():
    # Every exception class in src/multibridge is MultibridgeError or a
    # direct subclass of it: one error type per layer, whose message says
    # what went wrong. A deeper subclass stays only if another module tells
    # it apart in an except clause in src/ or perfbench/; tests and demos
    # do not count, and neither does a re-wrap inside its own module.
    package = ROOT / "src" / "multibridge"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*sorted(package.glob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py"))]}
    classes = {node.name: (path, [base.id if isinstance(base, ast.Name) else base.attr for base in node.bases
                                  if isinstance(base, (ast.Name, ast.Attribute))])
               for path, tree in trees.items() if path.is_relative_to(package)
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return name in classes and any(map(is_exception, classes[name][1]))

    handled = {path: _handled(tree) for path, tree in trees.items()}
    deep = [name for name, (home, bases) in sorted(classes.items())
            if is_exception(name) and name != "MultibridgeError" and bases != ["MultibridgeError"]
            and not any(name in names for path, names in handled.items() if path != home)]
    assert "MultibridgeError" in classes
    assert deep == [], f"exception classes below a layer error that no other module catches: {deep}"


def test_no_code_keys_on_object_identity():
    # Which paths share a column is a naming rule (a-b.src is b-a.tgt), not
    # an inference from which objects happen to be shared: an id() key
    # breaks silently when a copy, a cache or an interned empty tuple
    # changes what is shared.
    package = ROOT / "src" / "multibridge"
    calls = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert calls == [], f"calls of the builtin id(): {calls}"


def test_checked_corpus_constructor_uses():
    # BitextCorpus._checked skips the per-text check, so each use must build
    # from texts an earlier check passed: a mined or sampled selection of
    # checked corpora, or lines _read_lines checked. A new use is a reviewed
    # change to this list.
    package = ROOT / "src" / "multibridge"
    uses = sorted(f"{path.name}:{getattr(top, 'name', '<module>')}" for path in sorted(package.glob("*.py"))
                  for top in ast.parse(path.read_text(encoding="utf-8")).body for node in ast.walk(top)
                  if "_checked" in (getattr(node, "attr", None), getattr(node, "id", None)))
    assert uses == ["corpus.py:load_bitext", "mining.py:mine_pairs_detailed", "sampling.py:sample_fraction"]


#: The calls that change the disk, by name: making and deleting directories and files, links and renames,
#: and pathlib's own writers. str.replace and list.remove share a name, so those two count only as os.<name>.
_DISK = {"mkdir", "makedirs", "rmtree", "rmdir", "unlink", "link", "hardlink_to", "symlink", "symlink_to", "rename",
         "renames", "write_text", "write_bytes", "touch", "copyfile", "copytree", "move"}
_OS_ONLY = {"remove", "replace"}


def _changes_disk(node: ast.AST) -> bool:
    """Whether ``node`` names a call that changes the disk, or is an ``open`` whose mode may write."""
    if isinstance(node, ast.ImportFrom):  # corpus.write_text is the one writer other modules import
        names = _DISK | _OS_ONLY if node.module in ("os", "shutil") else _DISK - {"write_text"}
        return any(alias.name in names for alias in node.names)
    if isinstance(node, ast.Call) and "open" in (getattr(node.func, "attr", None), getattr(node.func, "id", None)):
        if isinstance(node.func, ast.Attribute) and getattr(node.func.value, "id", None) == "os":
            return True  # os.open takes flags, not a mode
        position = 1 if isinstance(node.func, ast.Name) else 0  # open(path, mode) or Path(...).open(mode)
        modes = node.args[position:position + 1] + [k.value for k in node.keywords if k.arg == "mode"]
        return any(not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")) for mode in modes)
    if isinstance(node, ast.Attribute):
        return node.attr in _DISK or node.attr in _OS_ONLY and getattr(node.value, "id", None) == "os"
    return isinstance(node, ast.Name) and node.id in _DISK - {"write_text"}


def test_only_corpus_changes_the_disk():
    # Every directory the toolkit makes or deletes, and every file it writes,
    # links or removes, goes through these five functions, so what a run does
    # to the disk can be counted, or made to fail, in one module.
    package = ROOT / "src" / "multibridge"
    uses = sorted({f"{path.name}:{getattr(top, 'name', '<module>')}" for path in sorted(package.glob("*.py"))
                   for top in ast.parse(path.read_text(encoding="utf-8")).body for node in ast.walk(top)
                   if _changes_disk(node)})
    assert uses == ["corpus.py:clear_dirs", "corpus.py:lock_dir", "corpus.py:new_dir", "corpus.py:write_once",
                    "corpus.py:write_text"]
