"""The public names, and which modules a package import or CLI command loads."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import blockmix

MODULES = sorted(m.name for m in pkgutil.iter_modules(blockmix.__path__, "blockmix."))
SRC = Path(blockmix.__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["blockmix", *MODULES])
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


class TestLazyNamespace:
    def test_every_listed_name_is_in_dir(self):
        assert set(blockmix.__all__) <= set(dir(blockmix))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            blockmix.no_such_name

    def test_submodules_import_from_the_package(self):
        from blockmix import mcem, switch, vem

        assert [m.__name__ for m in (mcem, switch, vem)] == ["blockmix.mcem", "blockmix.switch", "blockmix.vem"]

    def test_name_is_the_submodules_own(self):
        from blockmix import vem

        assert blockmix.vem_fit is vem.vem_fit


# Run in a fresh interpreter: the CLI with the given arguments, then the
# names of every loaded module on stdout's last line.
_RUN_CLI = """
import sys
import blockmix, blockmix.cli
blockmix.cli.build_parser()
code = blockmix.cli.main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""
_ON_DEMAND = {"blockmix.vem", "blockmix.switch", "blockmix.mcem", "blockmix.generate",
              "blockmix.evaluate", "blockmix.results", "multiprocessing", "concurrent.futures"}


@pytest.mark.parametrize("command, needed", [
    (["stats"], set()),
    (["fit", "--method", "switch", "--K", "2"], {"blockmix.switch", "blockmix.results"}),
    (["fit", "--method", "mcem", "--K", "2"], {"blockmix.mcem", "blockmix.results"}),
])
def test_a_command_loads_only_what_it_runs(command, needed, tmp_path):
    # restarts run serially, so no command loads the process pool
    edges = tmp_path / "toy.edges"
    edges.write_text("a b\nb c\nc a\nc d\nd e\ne f\nf d\n")
    argv = [command[0], str(edges), *command[1:]]
    if command[0] == "fit":
        argv += ["--restarts", "1", "--out", str(tmp_path / "fit.json")]
    env = {k: v for k, v in os.environ.items() if k != "BLOCKMIX_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", _RUN_CLI, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    assert set(loaded) & _ON_DEMAND == needed
