"""Per-layer timers and counters for the traced benchmark pass.

The timers are installed from outside the program, for the length of one
traced pass, at the module attributes through which each caller looks a
function up: ``backward_recursion`` calls ``npkw.bellman.supconv``, the
subcommands call ``npkw.cli.extract_tree``, ``cap_min_const`` calls
``npkw.pwl.crossing_point``.  The untraced run never imports this module, so
it runs ``npkw`` unmodified.

A time metric is inclusive and counts only the outermost call of its group,
so a group that calls itself through another wrapped name (``sprt_design``
calling ``sprt_errors``) is not counted twice.  Counters are exact and
depend only on the inputs, except ``policy.sim_steps``, which depends on the
simulation seed.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable

# Every per-layer metric the traced run reports, in report order.
TIME_METRICS = (
    "pwl.supconv_s", "pwl.cap_s", "pwl.crossing_s", "pwl.split_at_s",
    "bellman.recursion_s", "bellman.table_write_s", "bellman.table_read_s",
    "policy.extract_s", "policy.display_s", "policy.eval_base_s",
    "policy.eval_probe_s", "policy.verify_eq_s", "policy.verify_support_s",
    "policy.simulate_s",
    "baselines.kwt_design_s", "baselines.kwt_analyze_s", "baselines.sprt_s",
    "baselines.fsst_s",
    "cli.self_s", "trace.total_s", "trace.bookkeeping_s",
)
COUNT_METRICS = (
    "pwl.supconv_calls", "pwl.crossing_calls", "pwl.split_at_calls",
    "bellman.recursion_calls", "bellman.states", "bellman.slice_segments",
    "bellman.max_den_bits", "policy.dag_nodes", "policy.paths",
    "policy.sim_steps", "baselines.kwt_design_calls",
)


def _table_counters(tracer: "Tracer", table, *_args) -> None:
    tracer.values["bellman.states"] += len(table.states)
    bits = tracer.values["bellman.max_den_bits"]
    for slices in (table.rho, table.d):
        for f in slices.values():
            tracer.values["bellman.slice_segments"] += len(f.segments)
            bits = max(bits, f.value_at_zero.denominator.bit_length(),
                       *(w.denominator.bit_length() for _, w in f.segments))
    for z in table.z0_star.values():
        if z is not None:
            bits = max(bits, z.denominator.bit_length())
    tracer.values["bellman.max_den_bits"] = bits


def _dag_nodes(tracer: "Tracer", root, table, max_depth=None) -> None:
    if max_depth is not None:
        return  # a display cut, not the design
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.children:
            stack.extend(node.children)
    tracer.values["policy.dag_nodes"] += len(seen)


class Tracer:
    """Timers installed on ``npkw`` for one traced pass.

    ``in_layers`` is the time spent inside outermost wrapped calls and
    ``bookkeeping`` the time spent computing counters after a call; a
    command's time minus both is its ``cli.self_s`` share.
    """

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self.in_layers = 0.0
        self.bookkeeping = 0.0
        self._depth = 0
        self._group_depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, Callable]] = []

    def wrap(self, module, name: str, group, calls: str | None = None,
             after: Callable | None = None) -> None:
        """Replace ``module.name`` by a timed call.  ``group`` is the time
        metric, or a function of the call's arguments that names it."""
        original = getattr(module, name)
        values = self.values
        group_depth = self._group_depth

        def timed(*args, **kwargs):
            metric = group if isinstance(group, str) else group(*args, **kwargs)
            if calls is not None:
                values[calls] += 1
            top = self._depth == 0
            self._depth += 1
            group_depth[metric] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                group_depth[metric] -= 1
                if group_depth[metric] == 0:
                    values[metric] += elapsed
                if top:
                    self.in_layers += elapsed
            if after is not None:
                start = time.perf_counter()
                after(self, result, *args, **kwargs)
                self.bookkeeping += time.perf_counter() - start
            return result

        setattr(module, name, timed)
        self._saved.append((module, name, original))

    def install(self) -> None:
        # by module path: the package exports a function named `pwl`
        baselines, bellman, cli, policy, pwl = (
            importlib.import_module(f"npkw.{name}")
            for name in ("baselines", "bellman", "cli", "policy", "pwl"))

        self.wrap(bellman, "supconv", "pwl.supconv_s", "pwl.supconv_calls")
        self.wrap(bellman, "cap_min_const", "pwl.cap_s")
        self.wrap(bellman, "crossing_point", "pwl.crossing_s",
                  "pwl.crossing_calls")
        self.wrap(pwl, "crossing_point", "pwl.crossing_s",
                  "pwl.crossing_calls")
        self.wrap(policy, "split_at", "pwl.split_at_s", "pwl.split_at_calls")

        self.wrap(cli, "backward_recursion", "bellman.recursion_s",
                  "bellman.recursion_calls", after=_table_counters)
        self.wrap(cli, "cost_table_to_json_str", "bellman.table_write_s")
        self.wrap(cli, "cost_table_from_json", "bellman.table_read_s")

        self.wrap(cli, "extract_tree",
                  lambda table, max_depth=None: "policy.extract_s"
                  if max_depth is None else "policy.display_s",
                  after=_dag_nodes)
        self.wrap(cli, "tree_to_dot", "policy.display_s")
        self.wrap(cli, "tree_to_json", "policy.display_s")
        self.wrap(cli, "evaluate", "policy.evaluate_s")
        self.wrap(policy, "_eval_base", "policy.eval_base_s")
        self.wrap(cli, "verify_equalization", "policy.verify_eq_s",
                  after=lambda t, cert, *_a, **_k: t._add("policy.paths", cert.n_paths))
        self.wrap(cli, "verify_lfd_support", "policy.verify_support_s")
        self.wrap(cli, "simulate", "policy.simulate_s",
                  after=lambda t, rep, *_a, **_k: t._add(
                      "policy.sim_steps", rep.mean_sample_size * rep.trials))

        self.wrap(cli, "kwt_design", "baselines.kwt_design_s",
                  "baselines.kwt_design_calls")
        for module in (cli, baselines):
            self.wrap(module, "kwt_analyze", "baselines.kwt_analyze_s")
            self.wrap(module, "fsst_analyze", "baselines.fsst_s")
        self.wrap(cli, "sprt_design", "baselines.sprt_s")
        self.wrap(baselines, "sprt_errors", "baselines.sprt_s")
        self.wrap(baselines, "sprt_analyze", "baselines.sprt_s")
        self.wrap(cli, "fsst_design", "baselines.fsst_s")

    def remove(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _add(self, metric: str, amount) -> None:
        self.values[metric] += int(amount)

    def report(self, total_s: float) -> dict:
        """Every per-layer metric with its unit, for a traced pass whose
        commands took ``total_s`` in all."""
        v = self.values
        v["policy.eval_probe_s"] = v["policy.evaluate_s"] - v["policy.eval_base_s"]
        v["cli.self_s"] = total_s - self.in_layers - self.bookkeeping
        v["trace.total_s"] = total_s
        v["trace.bookkeeping_s"] = self.bookkeeping
        out = {name: {"value": float(v[name]), "unit": "s"}
               for name in TIME_METRICS}
        out.update({name: {"value": int(v[name]), "unit": "count"}
                    for name in COUNT_METRICS})
        return out

