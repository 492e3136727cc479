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
from pathlib import Path

import pytest

from npkw import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
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
    # and the mirrors reuse the result: 24 crossings, not 42.  The solve
    # merges through `merge_scaled`, not `supconv`, which the tracer still
    # wraps at `npkw.bellman.supconv` and which no command calls
    assert counts["bellman.recursion_calls"] == 1
    assert counts["bellman.states"] == 28
    assert counts["pwl.supconv_calls"] == 0
    assert counts["pwl.crossing_calls"] == 24
    assert counts["pwl.split_at_calls"] > 0
    assert counts["policy.dag_nodes"] > 0
    assert report["bellman.table_read_s"]["value"] > 0
