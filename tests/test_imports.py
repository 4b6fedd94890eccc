"""numpy is imported by the evaluation layer only, on first use.

Each case runs in a fresh interpreter, so no earlier import in the test
session can hide an eager one.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(code: str, stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
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
