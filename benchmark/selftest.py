"""Self-test of the benchmark's output checks.

Run from the repository root:

    python3 benchmark/selftest.py

It runs every subcommand once on a small binary model (Bernoulli 0.8 vs 0.2,
lambda 20, horizon 7), shows that every check passes on the real outputs,
then feeds each check corrupted copies of them and shows that the check
fails on every one.  Exit code 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
from fractions import Fraction

import checks
import run

FLAGS = ("--theta1", "0.8", "--theta2", "0.2", "--lambda", "20", "--horizon", "7")
MODEL = run._bernoulli("0.8", "0.2", 20, 7)
SEED = 1


def outputs(cli) -> dict:
    """Stdout, stderr, exit code and output files of one call of each command."""
    w = run.Workload(FLAGS, MODEL, "1/2,1/2", 500)
    os.makedirs(run.WORK_DIR, exist_ok=True)
    out = {}
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as work:
        for cmd in run.commands(w, work, SEED):
            run.call(cli, cmd)
            rc, stdout, stderr, _ = cmd.first
            files = []
            for path in cmd.outputs:
                with open(path) as handle:
                    files.append(handle.read())
            out[cmd.name] = (rc, stdout, stderr, files)
    return out


def edit(text: str, change) -> str:
    """``text`` as JSON, with ``change`` applied to the parsed object."""
    obj = json.loads(text)
    change(obj)
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def sub(pattern: str, repl, text: str) -> str:
    new = re.sub(pattern, repl, text, count=1, flags=re.M)
    assert new != text, f"corruption {pattern!r} changed nothing"
    return new


def main() -> int:
    sys.path.insert(0, "src")
    import npkw.bellman as bellman
    import npkw.cli as cli

    out = outputs(cli)
    design_out, table = out["design"][1], out["design"][3][0]
    dot, tree = out["tree"][3]
    report = out["eval"][3][0]
    verify_rc, verify_out = out["verify"][:2]
    sim_out = out["simulate"][1]
    curves, thresholds, sweep = out["compare"][3]

    def design(stdout=design_out, text=table):
        return checks.check_design(MODEL, stdout, text)

    c, root = design()
    checks.check_roundtrip(table, bellman.cost_table_from_json,
                           bellman.cost_table_to_json_str)

    def tree_check(d=dot, t=tree):
        checks.check_tree(d, t, c, run.TREE_DEPTH)

    def eval_check(text=report):
        return checks.check_eval(MODEL, text, c, root)

    pmf, avg = eval_check()

    def verify_check(rc=verify_rc, stdout=verify_out):
        checks.check_verify(rc, stdout, c)

    def sim_check(stdout=sim_out):
        checks.check_simulate(stdout, pmf, 500, SEED, MODEL.horizon)

    def compare_check(cu=curves, th=thresholds, sw=sweep):
        checks.check_compare(MODEL, cu, th, sw, avg)

    tree_check()
    verify_check()
    sim_check()
    compare_check()
    checks.check_rejected(2, "error: compare baselines are defined for binary "
                          "alphabets\n", [])

    def last_record(obj):
        return obj["states"][-1]

    def internal_record(obj):
        return next(r for r in obj["states"] if 0 < r["depth"] < MODEL.horizon)

    def child(obj):
        return next(ch for ch in obj["children"] if ch["children"])

    def probe(i):
        return lambda obj: obj["probes"][i]

    def set_key(get, key, value):
        return lambda obj: get(obj).__setitem__(key, value)

    def move_mass(entry):
        pmf = entry["stop_time_pmf"]
        q0, q1 = Fraction(pmf[0][1]), Fraction(pmf[1][1])
        shift = min(q0, q1) / 2
        pmf[0][1], pmf[1][1] = str(q0 - shift), str(q1 + shift)

    def raise_promise(obj):
        # a weighted child that surely continues keeps p_continue = 1 when
        # both its labels grow, so only the promise from its parent breaks
        stack = [obj]
        while stack:
            node = stack.pop()
            for q, ch in zip(node["lfd"] or (), node["children"] or ()):
                if Fraction(q) > 0 and ch["e_continue"] == ch["e_enter"]:
                    ch["e_enter"] += 1
                    ch["e_continue"] += 1
                    return
                stack.append(ch)
        raise AssertionError("no surely continuing weighted child")

    cases = {
        "design: printed root value": lambda: design(
            stdout=sub(r"(root value at z0 = 1: )(\d+)", lambda m: m[1] + m[2] + "1",
                       design_out)),
        "design: missing record": lambda: design(
            text=edit(table, lambda o: o["states"].pop())),
        "design: horizon g": lambda: design(
            text=edit(table, set_key(last_record, "g", "1/3"))),
        "design: slice above g": lambda: design(text=edit(
            table, lambda o: internal_record(o)["rho"].__setitem__(
                "value_at_zero", str(Fraction(internal_record(o)["g"]) + 1)))),
        "design: header lambda 19": lambda: design(
            text=edit(table, lambda o: o["model"].__setitem__("lambda1", "19/1"))),
        "roundtrip: reformatted table": lambda: checks.check_roundtrip(
            table.replace("\n ", "\n  ", 1), bellman.cost_table_from_json,
            bellman.cost_table_to_json_str),
        "tree: p_continue": lambda: tree_check(
            t=edit(tree, set_key(child, "p_continue", "1/7"))),
        "tree: promise to a weighted child": lambda: tree_check(
            t=edit(tree, raise_promise)),
        "tree: LFD sum": lambda: tree_check(
            t=edit(tree, set_key(child, "lfd", ["1/2", "1/3"]))),
        "tree: cut deeper than asked": lambda: checks.check_tree(
            dot, tree, c, run.TREE_DEPTH - 1),
        "tree: node without e_continue": lambda: tree_check(
            t=edit(tree, lambda o: child(o).pop("e_continue"))),
        "tree: DOT node missing": lambda: tree_check(
            d=sub(r"^  n3 \[label=.*\n", "", dot)),
        "eval: E[tau] of one probe": lambda: eval_check(
            edit(report, set_key(probe(1), "expected_sample_size", str(c + 1)))),
        "eval: mirror law": lambda: eval_check(
            edit(report, lambda o: o.__setitem__("alpha2", "1/1000"))),
        "eval: cost identity": lambda: eval_check(edit(
            report, lambda o: o.update(alpha1="1/1000", alpha2="1/1000"))),
        "eval: PMF mean": lambda: eval_check(
            edit(report, lambda o: move_mass(o["probes"][2]))),
        "eval: PMF sum": lambda: eval_check(edit(
            report, lambda o: o["probes"][0]["stop_time_pmf"][0].__setitem__(1, "0"))),
        "eval: report without alpha1": lambda: eval_check(
            edit(report, lambda o: o.pop("alpha1"))),
        "eval: unparsable PMF entry": lambda: eval_check(edit(
            report, lambda o: o["probes"][1]["stop_time_pmf"][0].__setitem__(1, "x"))),
        "eval: probe order": lambda: eval_check(
            edit(report, lambda o: o["probes"].reverse())),
        "verify: FAIL": lambda: verify_check(
            rc=1, stdout=verify_out.replace("PASS", "FAIL")),
        "verify: other c": lambda: verify_check(
            stdout=sub(r"c = \d+", f"c = {c + 1}", verify_out)),
        "verify: worst path": lambda: verify_check(
            stdout=sub(r"^max path expectation: \S+", f"max path expectation: {c + 1}",
                       verify_out)),
        "simulate: mean": lambda: sim_check(
            sub(r"^mean sample size: \S+", f"mean sample size: {c + 1}", sim_out)),
        "simulate: max": lambda: sim_check(
            sub(r"^max sample size: \d+", f"max sample size: {MODEL.horizon + 1}",
                sim_out)),
        "simulate: no max line": lambda: sim_check(
            sub(r"^max sample size: \d+\n", "", sim_out)),
        "simulate: frequencies": lambda: sim_check(
            sub(r"^H1 frequency: \S+", "H1 frequency: 2", sim_out)),
        "compare: SPRT gambler's ruin": lambda: compare_check(
            cu=sub(r"^0\.5,\d+,", "0.5,50,", curves)),
        "compare: FSST sample size": lambda: compare_check(
            cu=sub(r"^0\.1,\d+,(.*),fsst$", r"0.1,30,\1,fsst", curves)),
        "compare: SPRT error level": lambda: compare_check(
            cu=sub(r"^(0\.05,[^,]+,)[^,]+", r"\g<1>0.0002", curves)),
        "compare: sweep majority vote": lambda: compare_check(
            sw=sub(r"^5,([^,]+),\S+$", r"5,\1,0.2", sweep)),
        "compare: sweep at H": lambda: compare_check(
            sw=sub(r"^7,[^,]+,", "7,0.5,", sweep)),
        "rejection: exit 0": lambda: checks.check_rejected(0, "", []),
        "rejection: wrote a file": lambda: checks.check_rejected(
            2, "binary alphabets", ["C_curves.csv"]),
    }
    missed = []
    for name, case in cases.items():
        try:
            case()
        except checks.CheckError as exc:
            print(f"caught  {name}: {exc}")
        else:
            missed.append(name)
            print(f"MISSED  {name}")
    print(f"selftest: {len(cases) - len(missed)} of {len(cases)} corruptions caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
