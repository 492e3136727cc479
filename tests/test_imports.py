"""What importing the package and running a subcommand load, and the public
names the package serves.

`npkw` and `npkw.cli` import `pwl` and `bellman` only; the policy layer
loads when a subcommand extracts a policy, and the baselines when `compare`
runs.  No start and no subcommand loads `dataclasses` or `inspect`, which
with `ast`, `dis` and `tokenize` would cost each start several
milliseconds.  Each footprint case runs in a fresh interpreter, because
this test process has long since imported every module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import npkw
from npkw.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")
MODEL = ["--theta1", "0.8", "--theta2", "0.2", "--lambda", "20",
         "--horizon", "3"]
CORE = {"npkw", "npkw.pwl", "npkw.bellman"}
CLI = CORE | {"npkw.cli"}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    done = _python("-c", code + "\nimport json, sys\n"
                   "print(json.dumps(list(sys.modules)))")
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _loaded_after(code: str) -> set[str]:
    """The `npkw` modules a fresh interpreter holds after running ``code``."""
    return {m for m in _modules_after(code) if m.split(".")[0] == "npkw"}


def _main(argv: list[str]) -> str:
    """Code that runs ``npkw.cli.main(argv)``, drops its output and
    asserts that it exits 0."""
    return ("import contextlib, io\nfrom npkw.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")


def _loaded_by(argv: list[str]) -> set[str]:
    """The `npkw` modules loaded by ``npkw.cli.main(argv)`` in a fresh
    interpreter; the run must exit 0."""
    return _loaded_after(_main(argv))


def test_importing_the_package_and_the_cli_loads_only_the_core():
    assert _loaded_after("import npkw") == CORE
    assert _loaded_after("import npkw.cli") == CLI


def test_a_package_name_of_the_policy_layer_loads_only_that_layer():
    assert _loaded_after("import npkw\nnpkw.extract_tree") == (
        CORE | {"npkw.policy"})


def test_design_loads_neither_the_policy_layer_nor_the_baselines(tmp_path):
    out = str(tmp_path / "t.json")
    assert _loaded_by(["design", *MODEL, "--out", out]) == CLI


@pytest.mark.parametrize("argv", [
    ["tree", *MODEL],
    ["eval", *MODEL],
    ["verify", *MODEL],
    ["simulate", *MODEL, "--trials", "10"],
], ids=lambda argv: argv[0])
def test_policy_commands_load_the_policy_layer_only(argv):
    assert _loaded_by(argv) == CLI | {"npkw.policy"}


def test_compare_loads_the_baselines_only(tmp_path):
    argv = ["compare", *MODEL, "--grid", "0.5", "--out", str(tmp_path / "c")]
    assert _loaded_by(argv) == CLI | {"npkw.baselines"}


HEAVY = {"dataclasses", "inspect"}


def test_no_start_and_no_subcommand_loads_dataclasses_or_inspect(tmp_path):
    # against a bare interpreter, so that a `site` which loads more passes
    bare = _modules_after("")
    table = str(tmp_path / "t.json")
    runs = {"import": "import npkw.cli",
            "design": _main(["design", *MODEL, "--out", table])}
    for argv in (["tree", "--table", table], ["eval", "--table", table],
                 ["verify", "--table", table],
                 ["simulate", "--table", table, "--trials", "10"],
                 ["compare", *MODEL, "--grid", "0.5",
                  "--out", str(tmp_path / "c")]):
        runs[argv[0]] = _main(argv)
    for name, code in runs.items():  # design first: the others read its table
        assert not (_modules_after(code) - bare) & HEAVY, name


# ---------------------------------------------------------------------------
# public names
# ---------------------------------------------------------------------------

MODULES = tuple(importlib.import_module(f"npkw.{name}")
                for name in ("pwl", "bellman", "policy", "baselines"))


def test_every_public_name_is_the_object_its_modules_hold():
    # the public names speak Fraction: the merge record and its integer
    # read-back stay in `npkw.pwl`
    assert not {"SplitMap", "split_at"} & set(npkw.__all__)
    assert not hasattr(npkw, "SplitMap") and not hasattr(npkw, "split_at")
    for name in npkw.__all__:
        value = getattr(npkw, name)
        holders = [module for module in MODULES if name in vars(module)]
        assert holders, name
        assert all(vars(module)[name] is value for module in holders), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_package_names_keep_their_meaning():
    from npkw import pwl
    from npkw.pwl import PwlConcave

    assert isinstance(pwl(0, [(1, 1)]), PwlConcave)
    assert set(npkw.__all__) <= set(dir(npkw))
    with pytest.raises(AttributeError, match="no_such_name"):
        npkw.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        importlib.import_module("npkw.cli").no_such_name


def test_the_cli_runs_as_a_module(tmp_path, capsys):
    table = str(tmp_path / "t.json")
    assert main(["design", *MODEL, "--out", table]) == 0
    capsys.readouterr()
    done = _python("-m", "npkw.cli", "verify", "--table", table)
    assert done.returncode == 0, done.stderr
    assert "verification: PASS" in done.stdout
