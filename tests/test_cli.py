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


def _check_wrong_length_probes(command, table9, tmp_path, monkeypatch, capsys):
    tern = tmp_path / "tern.json"
    assert main(["design", "--pmf1", "1/2,1/4,1/4", "--pmf2", "1/4,1/4,1/2",
                 "--lambda", "20", "--horizon", "3", "--out", str(tern)]) == 0
    capsys.readouterr()

    def no_extraction(*_args, **_kwargs):
        raise AssertionError("the tree was extracted before the probe was checked")

    monkeypatch.setattr(cli, "extract_tree", no_extraction)
    for table, probes, want in (
        (table9, ["1/2,1/2,0"], "has 3 entries, but the model's alphabet has 2"),
        (tern, ["0.65,0.35"], "has 2 entries, but the model's alphabet has 3"),
        (tern, ["1/3,1/3,1/3", "1/2,1/2"], "probe 1/2,1/2 has 2 entries"),
    ):
        if command == "simulate" and len(probes) > 1:
            continue  # simulate takes one probe
        argv = [command, "--table", str(table)]
        for probe in probes:
            argv += ["--probe", probe]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and want in captured.err
        assert captured.out == ""


def test_eval_rejects_a_probe_of_the_wrong_length_before_extraction(
        table9, tmp_path, monkeypatch, capsys):
    _check_wrong_length_probes("eval", table9, tmp_path, monkeypatch, capsys)


def test_simulate_rejects_a_probe_of_the_wrong_length_before_extraction(
        table9, tmp_path, monkeypatch, capsys):
    _check_wrong_length_probes("simulate", table9, tmp_path, monkeypatch, capsys)


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


@pytest.mark.parametrize("coin, got", [
    (["--theta1", "0.8", "--theta2", "0.6"], "theta1 = 4/5 and theta2 = 3/5"),
    (["--theta1", "0.2", "--theta2", "0.8"], "theta1 = 1/5 and theta2 = 4/5"),
    (["--theta1", "0.4", "--theta2", "0.1"], "theta1 = 2/5 and theta2 = 1/10"),
    (["--theta1", "0.5", "--theta2", "0.2"], "theta1 = 1/2 and theta2 = 1/5"),
    (["--pmf1", "0,1", "--pmf2", "4/5,1/5"], "theta1 = 1 and theta2 = 1/5"),
])
def test_compare_needs_theta2_below_one_half_below_theta1(no_solve, tmp_path,
                                                          capsys, coin, got):
    # the symmetric SPRT and FSST thresholds never reach 1e-4 on such a
    # coin; a sure success under H1 used to end in a math domain error
    argv = ["compare", *coin, "--lambda", "20", "--horizon", "15",
            "--out", str(tmp_path / "c")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: compare needs 0 < theta2 < 1/2 < theta1 < 1, got {got}\n")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_compare_on_a_coin_not_symmetric_about_one_half_exits_2(tmp_path,
                                                                 capsys):
    # 0.7 vs 0.4 used to end in a traceback: the SPRT's threshold search
    # stopped at 21, below the b = 23 that meets 1e-4; now the SPRT is
    # found, and its errors sum below the floor of any test stopping by
    # sample 80
    argv = ["compare", "--theta1", "0.7", "--theta2", "0.4", "--lambda",
            "20", "--horizon", "15", "--out", str(tmp_path / "c")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot match the SPRT's errors: ")
    assert "least error sum" in err
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
    # bump one cost-slice slope: the table no longer solves its model
    data = json.loads(table9.read_text())
    root = next(s for s in data["states"] if s["depth"] == 0)
    root["rho"]["segments"][-1]["slope"] -= 1
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    rc = main(["verify", "--table", str(bad)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "verification error" in captured.err or "FAIL" in captured.out


def _edit_number(rec, field):
    """Add one to a stored number of the record, in place."""
    if field == "slope":
        rec["rho"]["segments"][-1]["slope"] += 1
        return
    if field in ("z1", "z2", "g"):
        holder, key = rec, field
    elif field == "width":
        holder, key = rec["rho"]["segments"][0], "width"
    else:
        holder, key = rec["rho"], field
    holder[key] = str(F(holder[key]) + 1)


@pytest.mark.parametrize("field", ["z1", "z2", "g", "slope", "width",
                                   "value_at_zero", "domain_upper"])
@pytest.mark.parametrize("index", [0, 7, 30, -1])
def test_verify_names_the_state_of_any_edited_number(table9, tmp_path, capsys,
                                                     field, index):
    data = json.loads(table9.read_text())
    rec = data["states"][index]
    _edit_number(rec, field)
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--table", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert f"state {tuple(rec['counts'])}: stored " in captured.err


def test_verify_refuses_a_record_with_a_field_it_does_not_store(
        table9, tmp_path, capsys):
    data = json.loads(table9.read_text())
    data["states"][5]["d"] = None
    bad = tmp_path / "old.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--table", str(bad)]) == 1
    captured = capsys.readouterr()
    counts = tuple(data["states"][5]["counts"])
    assert f"state {counts}: unknown field 'd'" in captured.err
    assert "PASS" not in captured.out


def test_verify_rejects_a_table_whose_header_was_edited(tmp_path, capsys):
    # a horizon-5 table re-labelled lambda = 19 does not solve that model
    table = tmp_path / "t.json"
    assert main(["design", *MODEL9[:-1], "5", "--out", str(table)]) == 0
    capsys.readouterr()
    data = json.loads(table.read_text())
    assert data["model"]["lambda1"] == data["model"]["lambda2"] == "20/1"
    data["model"]["lambda1"] = data["model"]["lambda2"] = "19/1"
    bad = tmp_path / "T19.json"
    bad.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    rc = main(["verify", "--table", str(bad)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "PASS" not in captured.out
    assert "state (0, 0): stored g = 20/1" in captured.err
    assert "19/1" in captured.err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["alternating", "lfd"])
def test_simulate_probe_needs_the_fixed_strategy(table9, strategy, capsys):
    rc = main(["simulate", "--table", str(table9), "--strategy", strategy,
               "--probe", "0.9,0.1", "--trials", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--probe" in captured.err and strategy in captured.err
    assert captured.out == ""


def test_simulate_takes_one_probe(table9, capsys):
    rc = main(["simulate", "--table", str(table9), "--probe", "0.5,0.5",
               "--probe", "0.9,0.1", "--trials", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "one --probe" in captured.err and captured.out == ""


def test_simulate_seeded_and_deterministic(table9, capsys):
    argv = ["simulate", "--table", str(table9), "--probe", "0.5,0.5",
            "--trials", "200", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "mean sample size: 607/200" in first
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    argv[-1] = "12"
    assert main(argv) == 0
    assert capsys.readouterr().out != first


def test_simulate_negative_seed_is_its_own_stream(table9, capsys):
    # string seeding: -7 and 7 seed different streams
    reports = []
    for seed in ("-7", "7"):
        assert main(["simulate", "--table", str(table9), "--probe", "0.5,0.5",
                     "--trials", "200", "--seed", seed]) == 0
        reports.append(capsys.readouterr().out.replace(f"seed: {seed}", ""))
    assert reports[0] != reports[1]


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


@pytest.mark.parametrize("argv", [
    ["design", *MODEL9],
    ["tree", *MODEL9, "--depth", "2"],
    ["eval", *MODEL9],
    ["compare", *MODEL9],
])
def test_out_into_a_missing_directory_fails_before_any_solve(
        argv, tmp_path, monkeypatch, capsys):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(cli, "backward_recursion", no_solve)
    monkeypatch.setattr(cli, "sprt_design", no_solve)
    missing = tmp_path / "nodir"
    assert main([*argv, "--out", str(missing / "x.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no such directory: {missing}\n"
    assert captured.out == "" and not missing.exists()


def _rejects_out_directory(argv, out, directory, tmp_path, monkeypatch,
                           capsys):
    """``argv --out OUT`` exits 2 naming DIRECTORY, an existing directory
    where an output would go, before any solve and writing nothing; OUT and
    DIRECTORY are relative to tmp_path, which None names."""
    def no_solve(*_args, **_kwargs):
        raise AssertionError("solved before the output path was checked")

    for name in ("backward_recursion", "horizon_roots", "sprt_design"):
        monkeypatch.setattr(cli, name, no_solve)
    out = tmp_path / out if out else tmp_path
    directory = tmp_path / directory if directory else tmp_path
    directory.mkdir(exist_ok=True)
    before = os.listdir(tmp_path)
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --out names a directory: {directory}\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == before and os.listdir(directory) == []


@pytest.mark.parametrize("argv", [
    ["design", *MODEL9],
    ["eval", *MODEL9],
])
def test_out_naming_a_directory_fails_before_any_solve(
        argv, tmp_path, monkeypatch, capsys):
    _rejects_out_directory(argv, None, None, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("argv, out, directory", [
    # `tree` writes OUT.dot and OUT.json, `compare` OUT_<table>.csv
    (["tree", *MODEL9, "--depth", "2"], "F", "F.json"),
    (["tree", *MODEL9, "--depth", "2"], "F", "F.dot"),
    (["tree", *MODEL9, "--depth", "2"], "F.dot", "F.json"),
    (["compare", *MODEL9], "C", "C_curves.csv"),
    (["compare", *MODEL9], "C", "C_thresholds.csv"),
    (["compare", *MODEL9], "C", "C_sweep.csv"),
])
def test_suffixed_out_naming_a_directory_fails_before_any_solve(
        argv, out, directory, tmp_path, monkeypatch, capsys):
    _rejects_out_directory(argv, out, directory, tmp_path, monkeypatch, capsys)


def test_out_in_the_working_directory_needs_no_directory(tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["design", *MODEL9, "--out", "t.json"]) == 0
    assert main(["tree", "--table", "t.json", "--depth", "2",
                 "--out", "f"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["f.dot", "f.json", "t.json"]


# ---------------------------------------------------------------------------
# the input stage: every input is checked before any solve
# ---------------------------------------------------------------------------

@pytest.fixture
def no_solve(monkeypatch):
    def fail(*_args, **_kwargs):
        raise AssertionError("solved before the input was checked")

    for name in ("backward_recursion", "cost_table_from_json",
                 "horizon_roots", "sprt_design", "extract_tree"):
        monkeypatch.setattr(cli, name, fail)


@pytest.mark.parametrize("command", ["tree", "eval", "verify", "simulate"])
@pytest.mark.parametrize("flag, value", [
    ("--theta1", "0.9"), ("--theta2", "0.1"), ("--pmf1", "1/2,1/2"),
    ("--pmf2", "1/4,3/4"), ("--lambda", "3"), ("--lambda1", "3"),
    ("--lambda2", "3"), ("--horizon", "7"),
])
def test_table_takes_no_model_flag(table9, no_solve, capsys, command, flag,
                                   value):
    # the table states its model: a flag beside it used to be ignored
    assert main([command, "--table", str(table9), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --table states the model; drop {flag}\n"
    assert captured.out == ""


def test_table_names_every_model_flag_given_beside_it(table9, no_solve,
                                                      capsys):
    assert main(["verify", "--table", str(table9), *MODEL9]) == 2
    assert capsys.readouterr().err == (
        "error: --table states the model; drop --theta1, --theta2, "
        "--lambda, --horizon\n")


@pytest.mark.parametrize("extra", [["--lambda1", "3"], ["--lambda2", "3"],
                                   ["--lambda1", "20", "--lambda2", "20"]])
def test_lambda_excludes_lambda1_and_lambda2(no_solve, tmp_path, capsys,
                                             extra):
    # `--lambda 20 --lambda1 3` used to design lambda1 = 3, lambda2 = 20
    assert main(["design", *MODEL9, *extra,
                 "--out", str(tmp_path / "t.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: give either --lambda or "
                            "--lambda1/--lambda2\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["design"], ["compare"], ["design", *MODEL9],
                                  ["compare", *MODEL9]])
def test_design_and_compare_take_no_table(table9, no_solve, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--table", str(table9)])
    assert exc.value.code == 2


WRONG_LENGTH = "probe 1/3,1/3,1/3 has 3 entries, but the model's alphabet has 2"


@pytest.mark.parametrize("argv, want", [
    (["tree", "--depth", "0"], "depth must be at least 1"),
    (["tree", "--depth", "-3"], "depth must be at least 1"),
    (["eval", "--probe", "1/3,1/3,1/3"], WRONG_LENGTH + " symbols"),
    (["simulate", "--probe", "1/3,1/3,1/3"], WRONG_LENGTH + " symbols"),
])
@pytest.mark.parametrize("model", ["table", "flags"])
def test_bad_options_exit_2_before_any_solve(table9, no_solve, capsys, argv,
                                             want, model):
    source = ["--table", str(table9)] if model == "table" else MODEL9
    assert main([*argv, *source]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {want}\n" and captured.out == ""


@pytest.mark.parametrize("command", ["design", "tree", "eval", "compare"])
def test_an_empty_out_exits_2_before_any_solve(tmp_path, no_solve,
                                               monkeypatch, capsys, command):
    # `design --out ""` used to write cost_table.json, the others stdout
    monkeypatch.chdir(tmp_path)
    assert main([command, *MODEL9, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --out is empty\n" and captured.out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["tree", "eval", "verify", "simulate"])
def test_a_table_that_cannot_be_read_exits_2(tmp_path, no_solve, capsys,
                                             command):
    assert main([command, "--table", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: cannot read cost table {tmp_path}: "
                            "Is a directory\n")
    assert captured.out == ""


@pytest.mark.parametrize("horizon", [2.5, "9", True])
def test_verify_names_a_horizon_that_is_not_an_integer(table9, tmp_path,
                                                       capsys, horizon):
    # int() once read 2.5 as 2 and reported "header gives horizon 2"
    data = json.loads(table9.read_text())
    data["model"]["horizon"] = horizon
    bad = tmp_path / "h.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--table", str(bad)]) == 1
    captured = capsys.readouterr()
    assert f"horizon must be an integer >= 1, not {horizon!r}" in captured.err
    assert captured.out == ""


def test_simulate_bad_strategy_is_usage_error(table9):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--table", str(table9), "--strategy", "bogus"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _parse_outcome(parse, argv, capsys):
    try:
        parse(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "design"], ["bogus"], ["bogus", "design"],
    ["design", "extra"], ["design", "--horizon", "x"], ["design", "--help"],
    ["compare", "--help"], ["simulate", "--strategy", "bogus"],
    ["--bogus", "design"], ["tree", "--depth"],
])
def test_main_parses_as_the_parser_of_every_subcommand(monkeypatch, capsys,
                                                       argv):
    """`main` builds only the subcommand its first argument names, yet its
    usage, help and error text are those of the parser of all six."""
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda commands: built.append(commands) or
                        build(commands))
    got = _parse_outcome(main, argv, capsys)
    want = _parse_outcome(build().parse_args, argv, capsys)
    assert got == want and got[0] is not None
    named = argv[:1] if argv[:1] and argv[0] in cli._COMMANDS else \
        list(cli._COMMANDS)
    assert list(built[0]) == named
