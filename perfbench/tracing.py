"""Fold the spans of traced ops and ``-X importtime`` logs into per-layer metrics.

A span's self time is its duration minus its children's durations.  A layer
is the module a span name starts with (``cli``, ``core``, ``studentt``,
``estimators``, ``divergence``, ``compact``).  Every metric is summed over
the ops of one pass.
"""

from __future__ import annotations

LAYERS = ("cli", "core", "studentt", "estimators", "divergence", "compact")

# Span name -> per-layer metric for its inclusive time, and counts to sum.
TIMED = (
    "cli.ingest_csv", "cli.dumps_report", "core.make_student_t",
    "studentt.sample", "studentt.density_batch", "studentt.decompose",
    "estimators.sufficient_stats", "estimators.estimate_student_t",
    "estimators.residual_regular_malpha", "compact.maximize_l2",
    "divergence.i_alpha", "divergence.kl", "divergence.generalized_log_likelihood",
    "divergence.quad",
)
COUNTED = {
    "cli.ingest_csv": {"rows": "cli.ingest_csv.rows", "bytes": "cli.ingest_csv.bytes"},
    "cli.dumps_report": {"bytes": "cli.dumps_report.bytes"},
    "studentt.sample": {"rows": "studentt.sample.rows"},
    "estimators.sufficient_stats": {"rows": "estimators.sufficient_stats.rows"},
    "compact.maximize_l2": {
        "segments": "compact.segments", "active_entries": "compact.active_entries", "ties": "compact.ties",
    },
    "divergence.quad": {"evals": "divergence.quad.evals", "failed": "divergence.quad.failed"},
}
CALLS = {"core.make_student_t": "core.make_student_t.calls", "divergence.quad": "divergence.quad.calls"}

# Sums of self times may differ from the root span by rounding only.
SELF_SUM_TOL_S = 1e-9


def parse_importtime(text: str) -> tuple:
    """(alphafam seconds, scipy seconds) from a ``python -X importtime`` log.

    Each package's time is the cumulative time of its import lines that are
    not nested inside another import of the same package, so numpy counts
    towards alphafam when alphafam imports it first.
    """
    entries = []  # (depth, module, cumulative us), in log order: children first
    for line in text.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or "imported package" in line:
            continue
        name = fields[2]
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(fields[1])))
    totals = {"alphafam": 0, "scipy": 0}
    ancestors = []  # (depth, top package) of the enclosing imports
    for depth, module, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = module.split(".")[0]
        if package in totals and all(p != package for _, p in ancestors):
            totals[package] += cumulative
        ancestors.append((depth, package))
    return totals["alphafam"] * 1e-6, totals["scipy"] * 1e-6


def self_times(spans: list) -> list:
    """Self time of every span: its duration minus its direct children's."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def check_spans(spans: list):
    """None if the op has one root span, every child lies inside its parent,
    and the self times of all spans add up to the root's duration."""
    if not spans or spans[0]["parent"] != -1 or any(s["parent"] < 0 for s in spans[1:]):
        return "the op does not have exactly one root span"
    for i, s in enumerate(spans[1:], start=1):
        parent = spans[s["parent"]]
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            return f"span {i} {s['name']} is not inside its parent {parent['name']}"
    total, root = sum(self_times(spans)), spans[0]["end"] - spans[0]["start"]
    if abs(total - root) > SELF_SUM_TOL_S:
        return f"self times sum to {total} s, the root span is {root} s"
    return None


def layer_metrics(ops: list) -> dict:
    """Per-layer metrics of one pass from its traced ops.

    ``ops`` holds one dict per op with ``spans`` (the traced_op.py dump),
    ``import_s``/``scipy_s`` from its importtime log, and ``traced_s`` and
    ``untraced_s`` wall times of the two runs of the op.
    """
    out = {f"{name}.s": 0.0 for name in TIMED}
    out.update({metric: 0 for table in COUNTED.values() for metric in table.values()})
    out.update({metric: 0 for metric in CALLS.values()})
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    out.update({"cli.run.self_s": 0.0, "cli.import.s": 0.0, "cli.import.scipy_s": 0.0})
    for op in ops:
        spans = op["spans"]
        for s, own in zip(spans, self_times(spans)):
            name = s["name"]
            out[f"{name.split('.')[0]}.self_s"] += own
            if name == "cli.run":
                out["cli.run.self_s"] += own
            if name in TIMED:
                out[f"{name}.s"] += s["end"] - s["start"]
            for key, metric in COUNTED.get(name, {}).items():
                out[metric] += s["counts"].get(key, 0)
            if name in CALLS:
                out[CALLS[name]] += 1
        out["cli.import.s"] += op["import_s"]
        out["cli.import.scipy_s"] += op["scipy_s"]
    traced = sum(op["traced_s"] for op in ops)
    untraced = sum(op["untraced_s"] for op in ops)
    out.update({"trace.traced_wall_s": traced, "trace.untraced_wall_s": untraced,
                "trace.overhead_ratio": traced / untraced if untraced else 0.0})
    return out


def self_time_table(ops: list) -> list:
    """(span name, summed self seconds) over a pass, largest first."""
    totals = {}
    for op in ops:
        for s, own in zip(op["spans"], self_times(op["spans"])):
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return sorted(totals.items(), key=lambda item: -item[1])
