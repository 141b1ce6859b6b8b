"""numpy loads at its first use, so commands that never call it skip its import.

Each check runs in a fresh interpreter: the test process has numpy imported
already (tests/oracles.py uses it), and the lazy module is only made when
twoside is the first to ask for numpy.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from test_cli import CHECK_ALL_JSON_SHA256
from twoside import _lazy
from twoside.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints whether any numpy submodule (numpy.core on 1.x, numpy._core on 2.x)
# was imported by the code in `body`.
PROBE = """\
import contextlib, io, sys
{body}
print(any(m.startswith("numpy.") for m in sys.modules))
"""

RUN_MAIN = """\
import twoside.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        twoside.cli.main({argv!r})
    except SystemExit:
        pass
"""


def fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=120)


def numpy_loaded(body: str) -> bool:
    done = fresh(PROBE.format(body=body))
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode().strip() == "True"


def test_import_and_parser_leave_numpy_unloaded():
    assert not numpy_loaded("import twoside.cli\ntwoside.cli.build_parser()")


@pytest.mark.parametrize("argv", [["list"], ["--help"],
                                  ["check", "sum.squares", "alg.sq_sum"]],
                         ids=" ".join)
def test_commands_without_numpy_leave_it_unloaded(argv):
    assert not numpy_loaded(RUN_MAIN.format(argv=argv))


def test_numpy_suite_loads_numpy():
    assert numpy_loaded(RUN_MAIN.format(argv=["check", "binom.colorings"]))


def test_numpy_suites_write_the_same_bytes_in_a_fresh_process(capsys):
    argv = ["check", "binom.colorings", "divisor.identity", "divisor.bounds",
            "sum.cube_layers", "prob.dice", "--format", "json"]
    assert main(argv) == 0
    in_process = capsys.readouterr().out.encode()
    done = fresh(f"import sys, twoside.cli\n"
                 f"sys.exit(twoside.cli.main({argv!r}))")
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == in_process


def test_check_all_json_pinned_in_a_fresh_process():
    done = fresh("import sys, twoside.cli\n"
                 "sys.exit(twoside.cli.main(['check', 'all', '--format', "
                 "'json']))")
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == CHECK_ALL_JSON_SHA256


def test_missing_numpy_fails_at_import():
    block = """\
import sys

class Block:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, Block())
try:
    import twoside
except ImportError as exc:
    print("ImportError", exc.name)
"""
    done = fresh(block)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == ["ImportError", "numpy"]


def test_helper_returns_an_imported_module():
    assert _lazy.np is numpy is sys.modules["numpy"]
    assert _lazy.lazy_module("numpy") is numpy


def test_helper_refuses_a_module_it_cannot_find():
    with pytest.raises(ModuleNotFoundError):
        _lazy.lazy_module("twoside_no_such_module")
    assert "twoside_no_such_module" not in sys.modules
