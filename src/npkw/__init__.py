"""Exact design and analysis of nonparametric Kiefer-Weiss sequential tests.

The test designed here minimizes the worst-case expected sample size over
*all* distributions on a finite sample space, subject to error-probability
costs under two simple hypotheses.  Everything is computed in exact rational
arithmetic: the value recursion works on concave piecewise-linear cost
slices with integer slopes, the optimal stopping rule and the least
favorable distribution are extracted from them, and both come with
independently checkable certificates.

Typical flow::

    from npkw import bernoulli_model, backward_recursion, extract_tree, evaluate

    model = bernoulli_model("0.8", "0.2", lam1=20, lam2=20, horizon=21)
    table = backward_recursion(model)     # exact cost slices per state
    tree = extract_tree(table)            # stopping rule + adversary arrows
    report = evaluate(tree, ["1/2", "1/2"])  # exact E[tau], errors, stop PMF

The command-line entry point (``npkw``) wraps the same calls; see the
README for the subcommands.
"""

from npkw.pwl import (
    PwlConcave,
    Rational,
    SuperDiff,
    crossing_point,
    pwl,
    pwl_eval,
    rat,
    slope_left,
    slope_right,
    split_at,
    supconv,
    superdiff,
)
from npkw.bellman import (
    CostTable,
    DesignState,
    NominalModel,
    backward_recursion,
    bernoulli_model,
    cost_table_from_json,
    cost_table_to_json,
    cost_table_to_json_str,
    kwt_truncation_bound,
    kwt_truncation_closed_form,
    make_model,
    model_from_json,
    model_to_json,
    stopping_threshold,
)
from npkw.policy import (
    Decision,
    EqualizationCertificate,
    EvalReport,
    ExtractionError,
    LfdSupportReport,
    PolicyNode,
    SimReport,
    evaluate,
    extract_tree,
    find_node,
    iter_nodes,
    iter_unique_nodes,
    lfd_range,
    max_conditional_remaining,
    simulate,
    tree_to_dot,
    tree_to_json,
    verify_equalization,
    verify_lfd_support,
)
from npkw.baselines import (
    CurveRow,
    FsstDesign,
    KwtDesign,
    SprtAnalysis,
    SprtDesign,
    SprtDesignReport,
    curves_to_csv,
    fsst_analyze,
    fsst_design,
    kwt_analyze,
    kwt_design,
    kwt_matched,
    sample_size_curve,
    sprt_analyze,
    sprt_design,
    sprt_errors,
)

__version__ = "0.1.0"

__all__ = [
    # exact piecewise-linear machinery
    "PwlConcave", "Rational", "SuperDiff", "pwl", "pwl_eval", "rat",
    "superdiff", "slope_left", "slope_right", "crossing_point",
    "supconv", "split_at",
    # model + value recursion
    "NominalModel", "DesignState", "CostTable", "make_model",
    "bernoulli_model", "backward_recursion", "stopping_threshold",
    "kwt_truncation_bound", "kwt_truncation_closed_form",
    "model_to_json", "model_from_json", "cost_table_to_json",
    "cost_table_to_json_str", "cost_table_from_json",
    # extracted design
    "Decision", "PolicyNode", "ExtractionError", "extract_tree",
    "find_node", "iter_nodes", "iter_unique_nodes", "lfd_range",
    "max_conditional_remaining", "evaluate", "EvalReport", "simulate",
    "SimReport", "verify_equalization", "EqualizationCertificate",
    "verify_lfd_support", "LfdSupportReport", "tree_to_dot",
    "tree_to_json",
    # classical baselines
    "SprtDesign", "SprtAnalysis", "SprtDesignReport", "sprt_design",
    "sprt_analyze", "sprt_errors", "FsstDesign", "fsst_design",
    "fsst_analyze", "KwtDesign", "kwt_design", "kwt_analyze",
    "kwt_matched", "CurveRow", "sample_size_curve", "curves_to_csv",
]
