"""End-to-end command-line tests.

Everything runs in-process through ``main(argv)`` so exit codes and output
bytes are asserted directly.  Small horizons keep the heavy recursions out
of these tests — exactness does not depend on the horizon.
"""

import json
import os
import stat
from fractions import Fraction as F

import pytest

from npkw import baselines, cli
from npkw.bellman import backward_recursion, bernoulli_model, cost_table_to_json_str
from npkw.cli import main
from npkw.policy import evaluate, extract_tree
from npkw.pwl import pwl_eval

MODEL9 = ["--theta1", "0.8", "--theta2", "0.2", "--lambda", "20",
          "--horizon", "9"]


@pytest.fixture(scope="module")
def table9(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "t9.json"
    table = backward_recursion(
        bernoulli_model("0.8", "0.2", lam1=20, lam2=20, horizon=9)
    )
    path.write_text(cost_table_to_json_str(table) + "\n")
    return path


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def test_design_writes_table_and_prints_summary(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert main(["design", *MODEL9, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "expected sample size at the saddle (root slope at z0 = 1): 3" in text
    assert "root slope at z0 = 0: 9" in text
    # the written file is exactly the library serialization
    table = backward_recursion(
        bernoulli_model("0.8", "0.2", lam1=20, lam2=20, horizon=9)
    )
    assert out.read_text() == cost_table_to_json_str(table) + "\n"


def test_design_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["design", *MODEL9, "--out", str(a)]) == 0
    assert main(["design", *MODEL9, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["design", "--theta1", "0.8", "--theta2", "0.2", "--lambda", "20",
     "--horizon", "0"],
    ["design", "--theta1", "0.8", "--theta2", "0.2", "--horizon", "3"],
    ["design", "--theta1", "1.5", "--theta2", "0.2", "--lambda", "2",
     "--horizon", "3"],
    ["design", "--theta1", "0.8", "--theta2", "0.2", "--lambda", "-3",
     "--horizon", "3"],
    ["design", "--theta1", "0.8", "--theta2", "0.2", "--pmf1", "0.5,0.5",
     "--pmf2", "0.2,0.8", "--lambda", "2", "--horizon", "3"],
    ["design", "--horizon", "3"],
])
def test_design_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_design_general_pmf_flags(tmp_path, capsys):
    out = tmp_path / "tri.json"
    rc = main([
        "design", "--pmf1", "1/2,1/4,1/4", "--pmf2", "1/6,1/3,1/2",
        "--lambda1", "10", "--lambda2", "14", "--horizon", "4",
        "--out", str(out),
    ])
    assert rc == 0
    assert "alphabet: 3" in capsys.readouterr().out
    assert json.loads(out.read_text())


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------

def test_tree_depth_one_is_root_plus_children(table9, tmp_path, capsys):
    base = tmp_path / "stub"
    assert main(["tree", "--table", str(table9), "--depth", "1",
                 "--out", str(base)]) == 0
    dot = (tmp_path / "stub.dot").read_text()
    nodes = [ln for ln in dot.splitlines() if ln.lstrip().startswith("n")
             and "[label" in ln and "->" not in ln]
    assert len(nodes) == 3
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert dot.count("{") == dot.count("}")


def test_tree_from_table_equals_tree_from_flags(table9, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["tree", "--table", str(table9), "--depth", "3",
                 "--out", str(a)]) == 0
    assert main(["tree", *MODEL9, "--depth", "3", "--out", str(b)]) == 0
    assert (tmp_path / "a.dot").read_bytes() == (tmp_path / "b.dot").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_tree_stdout_without_out_flag(table9, capsys):
    assert main(["tree", "--table", str(table9), "--depth", "2"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_tree_missing_table(tmp_path, capsys):
    assert main(["tree", "--table", str(tmp_path / "no.json")]) == 2
    assert "no such cost table" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_default_probes_equalize(table9, capsys):
    assert main(["eval", "--table", str(table9)]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if " | " in ln][1:]
    assert len(rows) == 3
    assert all(row.split(" | ")[1] == "3" for row in rows)


def test_eval_report_round_trips_in_process(table9, tmp_path, capsys):
    report = tmp_path / "eval.json"
    assert main(["eval", "--table", str(table9), "--probe", "1/4,3/4",
                 "--out", str(report)]) == 0
    payload = json.loads(report.read_text())

    table = backward_recursion(
        bernoulli_model("0.8", "0.2", lam1=20, lam2=20, horizon=9)
    )
    rep = evaluate(extract_tree(table), ["1/4", "3/4"])
    entry = payload["probes"][0]
    assert F(entry["expected_sample_size"]) == rep.expected_sample_size
    assert F(payload["alpha1"]) == rep.alpha1
    got_pmf = [(n, F(v)) for n, v in entry["stop_time_pmf"]]
    assert got_pmf == list(rep.stop_time_pmf)
    assert sum(q for _, q in got_pmf) == 1


def test_eval_degenerate_probe(table9, capsys):
    assert main(["eval", "--table", str(table9), "--probe", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "0,1 | 3 | 3" in out


def test_eval_rejects_non_pmf(table9, capsys):
    assert main(["eval", "--table", str(table9), "--probe", "0.5,0.6"]) == 2
    assert main(["eval", "--table", str(table9), "--probe", "0.5,-0.5,1"]) == 2


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

CMP9 = ["compare", "--theta1", "0.8", "--theta2", "0.2", "--lambda", "20",
        "--horizon", "9"]


def test_compare_single_point_grid(tmp_path):
    assert main([*CMP9, "--grid", "0.5", "--out", str(tmp_path / "c")]) == 0
    lines = (tmp_path / "c_curves.csv").read_text().splitlines()
    assert lines[0] == "theta,expected_sample_size,alpha1,alpha2,test_name"
    assert len(lines) == 4  # one row per baseline
    assert {ln.rsplit(",", 1)[1] for ln in lines[1:]} == {"sprt", "fsst", "kwt"}


def test_compare_sweep_decreasing_with_fsst_line(tmp_path):
    assert main([*CMP9, "--grid", "0.5", "--out", str(tmp_path / "c")]) == 0
    rows = (tmp_path / "c_sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["3", "5", "7", "9"]
    errs = [F(r.split(",")[1]) for r in rows]
    assert errs[0] == F("0.104")
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert {r.split(",")[2] for r in rows} == {"0.104"}


def test_compare_thresholds_table(tmp_path):
    assert main([*CMP9, "--grid", "0.5", "--out", str(tmp_path / "c")]) == 0
    rows = (tmp_path / "c_thresholds.csv").read_text().splitlines()
    assert rows[0] == "test_name,n,lower,upper"
    sprt = [r for r in rows if r.startswith("sprt,")]
    kwt = [r for r in rows if r.startswith("kwt,")]
    fsst = [r for r in rows if r.startswith("fsst,")]
    assert sprt and kwt and fsst
    # SPRT thresholds are constant; the FSST region is the whole cone
    assert len({r.split(",", 2)[2] for r in sprt}) == 1
    first_kwt = kwt[0].split(",")
    assert first_kwt[1] == "0" and first_kwt[2] == first_kwt[3] == "0"


def test_compare_byte_deterministic(tmp_path, capsys):
    assert main([*CMP9, "--grid", "0.3,0.5"]) == 0
    first = capsys.readouterr().out
    assert main([*CMP9, "--grid", "0.3,0.5"]) == 0
    assert capsys.readouterr().out == first


def test_compare_usage_errors(capsys):
    argv = ["compare", "--theta1", "0.8", "--theta2", "0.2",
            "--lambda1", "20", "--lambda2", "10", "--horizon", "9"]
    assert main(argv) == 2  # sweep needs equal penalties
    argv = ["compare", "--pmf1", "1/2,1/4,1/4", "--pmf2", "1/4,1/4,1/2",
            "--lambda", "20", "--horizon", "9"]
    assert main(argv) == 2  # baselines are coin-only
    assert main([*CMP9, "--grid", "0.5:0.9"]) == 2
    assert main([*CMP9, "--grid", "1.5"]) == 2


def test_compare_rejects_bad_input_before_any_solve(monkeypatch, capsys):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("kwt_design ran before the input was checked")

    monkeypatch.setattr(cli, "kwt_design", no_solve)
    monkeypatch.setattr(baselines, "kwt_design", no_solve)
    argv = ["compare", "--theta1", "0.8", "--theta2", "0.2",
            "--lambda1", "20", "--lambda2", "10", "--horizon", "9"]
    assert main(argv) == 2
    assert "lambda1 == lambda2" in capsys.readouterr().err
    argv = ["compare", "--theta1", "0.8", "--theta2", "0.2",
            "--lambda", "20", "--horizon", "2"]
    assert main(argv) == 2
    assert "--horizon >= 3" in capsys.readouterr().err


def test_compare_unmatchable_model_exits_2(tmp_path, capsys):
    # 0.7 vs 0.3: the SPRT's 1e-4 errors sum below what any test stopping
    # by sample 80 reaches, so the matched-error search used to run forever
    argv = ["compare", "--theta1", "0.7", "--theta2", "0.3",
            "--lambda", "20", "--horizon", "9", "--out", str(tmp_path / "c")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "least error sum" in err
    assert list(tmp_path.iterdir()) == []


def test_compare_designs_each_baseline_once(monkeypatch, capsys):
    calls = {"sprt": 0, "fsst": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "sprt_design", counted("sprt", cli.sprt_design))
    monkeypatch.setattr(cli, "fsst_design", counted("fsst", cli.fsst_design))
    assert main([*CMP9, "--grid", "0.5"]) == 0
    assert calls == {"sprt": 1, "fsst": 1}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_and_reports_c(table9, capsys):
    assert main(["verify", "--table", str(table9)]) == 0
    out = capsys.readouterr().out
    assert "c = 3" in out
    assert "verification: PASS" in out


def test_verify_horizon_three_majority_vote(capsys):
    argv = ["verify", "--theta1", "0.8", "--theta2", "0.2",
            "--lambda", "20", "--horizon", "3"]
    assert main(argv) == 0
    assert "c = 3" in capsys.readouterr().out


def test_verify_rejects_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "nope"}')
    assert main(["verify", "--table", str(bad)]) == 1
    assert "corrupt" in capsys.readouterr().err
    bad.write_text("not json at all")
    assert main(["verify", "--table", str(bad)]) == 1


def test_verify_catches_tampered_slice(table9, tmp_path, capsys):
    # bump one continuation-cost slope: extraction promises stop matching
    data = json.loads(table9.read_text())
    root = next(s for s in data["states"] if s["depth"] == 0)
    root["d"]["segments"][-1]["slope"] -= 1
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    rc = main(["verify", "--table", str(bad)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "verification error" in captured.err or "FAIL" in captured.out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_seeded_and_deterministic(table9, capsys):
    argv = ["simulate", "--table", str(table9), "--probe", "0.5,0.5",
            "--trials", "200", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "mean sample size: 589/200" in first
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    argv[-1] = "12"
    assert main(argv) == 0
    assert capsys.readouterr().out != first


def test_simulate_adversarial_strategy(table9, capsys):
    argv = ["simulate", "--table", str(table9), "--strategy", "lfd",
            "--trials", "50", "--seed", "3"]
    assert main(argv) == 0
    assert "strategy: lfd" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_simulate_nonpositive_trials_is_usage_error(table9, trials, capsys):
    # no silent fallback to the default count, no empty "mean" of 0
    rc = main(["simulate", "--table", str(table9), "--trials", trials])
    captured = capsys.readouterr()
    assert rc == 2
    assert "trials" in captured.err and captured.out == ""


def test_outputs_get_the_mode_open_would_give(tmp_path):
    old = os.umask(0o022)
    try:
        assert main(["design", *MODEL9, "--out", str(tmp_path / "t.json")]) == 0
        assert main(["tree", *MODEL9, "--depth", "2",
                     "--out", str(tmp_path / "tree")]) == 0
        os.umask(0o027)
        assert main(["eval", *MODEL9, "--out", str(tmp_path / "e.json")]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"t.json": 0o644, "tree.dot": 0o644, "tree.json": 0o644,
                     "e.json": 0o640}


def test_simulate_bad_strategy_is_usage_error(table9):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--table", str(table9), "--strategy", "bogus"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
