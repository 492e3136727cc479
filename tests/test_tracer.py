"""The benchmark's tracer still fits the package.

``benchmark/tracer.py`` times the traced benchmark pass by replacing
functions at the module attributes through which their callers look them
up.  A renamed or moved function makes ``install`` crash, and a caller that
stops going through the wrapped name makes a counter read wrong; both would
surface only in a traced benchmark run.  These tests load the tracer from
its file, unchanged, and run it against the current package.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from npkw import cli

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "benchmark" / "tracer.py"
MODULES = ("baselines", "bellman", "cli", "policy", "pwl")


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("npkw_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    return {
        (name, attr): value
        for name in MODULES
        for attr, value in vars(importlib.import_module(f"npkw.{name}")).items()
        if callable(value)
    }


def test_install_and_remove_restore_every_name(tracer_module):
    # `install` binds the names `cli` loads lazily, and `remove` leaves
    # them bound; bind them first, so that every name must be restored
    for names in cli._LAZY.values():
        for name in names:
            getattr(cli, name)
    before = _attributes()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        wrapped = {key for key, value in _attributes().items()
                   if before.get(key) is not value}
        assert ("bellman", "supconv") in wrapped
        assert ("cli", "backward_recursion") in wrapped
        assert ("policy", "split_at") in wrapped
    finally:
        tracer.remove()
    assert _attributes() == before


def test_traced_design_counts_every_internal_state(tracer_module, tmp_path,
                                                    capsys):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert cli.main(["design", "--theta1", "0.8", "--theta2", "0.2",
                         "--lambda", "20", "--horizon", "6",
                         "--out", str(tmp_path / "t.json")]) == 0
        assert cli.main(["verify", "--table", str(tmp_path / "t.json")]) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    report = tracer.report(1.0)
    counts = {name: report[name]["value"] for name in tracer_module.COUNT_METRICS}
    # 28 count vectors up to depth 6, 21 of them internal; `design` solves
    # once, and `verify` solves again inside the table reader, which the
    # tracer times as a read, not as a recursion.  The model is
    # mirror-symmetric, so each solve merges one state of each of the 12
    # mirror pairs of internal states (1, 1, 2, 2, 3, 3 at depths 0 to 5)
    # and the mirrors reuse the result.  Each merge finds its crossing in
    # its own walk, not through `crossing_point`, and merges without
    # `supconv`: the tracer still wraps both at `npkw.bellman`, and no
    # command calls either
    assert counts["bellman.recursion_calls"] == 1
    assert counts["bellman.states"] == 28
    assert counts["pwl.supconv_calls"] == 0
    assert counts["pwl.crossing_calls"] == 0
    # `verify` extracts the design once: 23 distinct rule nodes (a state's
    # sure stop is one node, however the mass reaches it), and 15 extracted
    # nodes continue and split their mass, over 20 symbol paths; a change
    # in how extraction walks the DAG changes these
    assert counts["pwl.split_at_calls"] == 15
    assert counts["policy.dag_nodes"] == 23
    assert counts["policy.paths"] == 20
    assert report["bellman.table_read_s"]["value"] > 0


# The benchmark's traced pass in a fresh interpreter, in its order: the
# tracer is installed right after `import npkw.cli`, before any subcommand
# has loaded the policy layer or the baselines.
FRESH_TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
import npkw.bellman
import npkw.cli as cli
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
model = ["--theta1", "0.8", "--theta2", "0.2", "--lambda", "20",
         "--horizon", "5"]
table = sys.argv[2] + "/t.json"
tracer = tracer_module.Tracer()
tracer.install()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["design", *model, "--out", table]) == 0
        assert cli.main(["verify", "--table", table]) == 0
        assert cli.main(["compare", *model, "--grid", "0.5",
                         "--out", sys.argv[2] + "/c"]) == 0
finally:
    tracer.remove()
report = tracer.report(1.0)
print(json.dumps({name: report[name]["value"]
                  for name in tracer_module.COUNT_METRICS}))
"""


def test_tracer_installed_before_any_command_counts_the_lazy_layers(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", FRESH_TRACED_RUN, str(TRACER_PATH),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout.splitlines()[-1])
    assert counts["policy.dag_nodes"] > 0
    assert counts["policy.paths"] > 0
    assert counts["baselines.kwt_design_calls"] == 1
