"""List the lines of ``src/multibridge`` that no test runs.

    PYTHONPATH=src python tests/linetrace.py [pytest arguments]

Runs pytest in this process (with the given arguments, by default the
whole suite) under a stdlib line tracer, ``sys.settrace``, which turns on
line events only in frames of ``src/multibridge``. Python subprocesses the
tests start are traced too: a ``sitecustomize.py`` placed first on
``PYTHONPATH`` installs the same tracer in each, and each writes its lines
to a shared directory at exit. A test that starts a subprocess with a
``PYTHONPATH`` of its own keeps the inherited entries after its own, so
the subprocess still loads that file; one that drops them is not traced.

Prints each executable line that no process reached as
``path:line: text``, then the count. The executable lines are those the
compiler gives a line number to in any code object of the file; a
function's first line counts as reached when the function is called.
The trace about doubles the suite's time, so tier-1 does not collect this
file (its name does not match ``test_*.py``). Exits with pytest's code.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multibridge"

#: Run in this process and, through ``sitecustomize.py``, in every traced
#: subprocess: ``start(prefix)`` installs the tracer and returns the set of
#: ``(file, line)`` pairs it fills; ``dump`` writes that set to a directory.
TRACER = '''
import os, sys, threading

def start(prefix):
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        hits.add((code.co_filename, code.co_firstlineno))
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    return hits

def dump(hits, out_dir):
    sys.settrace(None)
    with open(os.path.join(out_dir, f"hits-{os.getpid()}.txt"), "w", encoding="utf-8") as out:
        out.writelines(f"{name}\\t{line}\\n" for name, line in hits)
'''


def executable_lines(path: Path) -> set[int]:
    """The line numbers the compiler attaches to code in ``path``, in every nested code object.

    A module's code starts with an instruction at line 0, which no source line holds.
    """
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    with tempfile.TemporaryDirectory(prefix="linetrace-") as scratch:
        site, hits_dir = Path(scratch, "site"), Path(scratch, "hits")
        site.mkdir()
        hits_dir.mkdir()
        (site / "sitecustomize.py").write_text(
            TRACER + f"\nimport atexit\natexit.register(dump, start({prefix!r}), {str(hits_dir)!r})\n",
            encoding="utf-8",
        )
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(site), str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        sys.path.insert(0, str(ROOT / "src"))
        tracer: dict = {}
        exec(TRACER, tracer)
        hits = tracer["start"](prefix)
        import pytest

        code = pytest.main(argv or [str(ROOT / "tests")])
        threading.settrace(None)
        sys.settrace(None)
        for path in hits_dir.iterdir():
            for row in path.read_text(encoding="utf-8").splitlines():
                name, line = row.split("\t")
                hits.add((name, int(line)))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - {line for name, line in hits if name == str(path)}):
            unreached.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print("\n".join(unreached))
    print(f"linetrace: {len(unreached)} unreached lines in {PACKAGE.relative_to(ROOT)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
