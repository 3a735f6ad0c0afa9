"""Per-layer metrics from the spans of a traced pass.

Every metric is a per-op mean over the traced pass unless its name says
otherwise:

* ``<layer>.<fn>.calls``: calls per op (an exact count for a given seed);
* ``<layer>.<fn>.self_ms``: self time per op, in ms;
* ``<layer>.<fn>.ms``: mean inclusive duration per call, in ms;
* ``cli.<command>.p50_ms``: median duration of ``cli.main`` calls running that
  subcommand on the worked-example fixtures, where per-call overhead
  dominates, in ms;
* ``matkernel.svd.computed_mn2``: sum of m*n*min(m, n) over the SVDs that ran
  the sweeps, per op;
* ``tensor.construct.computed_mib``: MiB of tensor storage built, per op;
* ``tensorio.bytes_read`` / ``bytes_written``: file bytes per op;
* ``woodbury.identity.ms`` / ``fallback.ms``: mean duration of an
  ``update_pinv`` call that took that path, and ``woodbury.identity_ratio`` the
  share of ``update_pinv`` calls that took the identity path;
* ``inverses.penrose_pass_ratio``: share of the pseudoinverses the ops produced
  that pass the library's own ``verify_penrose`` at its default tolerance.

Each span's time is scaled to reference-host time by its op's probe scale
(see ``hostspeed``).  A layer a workload never calls reports 0.
"""

from __future__ import annotations

import statistics

NS_TO_MS = 1e-6
CLI_COMMANDS = ("pinv", "smw", "solve", "sweep", "verify")
SELF_TIMED = (
    "matkernel.svd", "matkernel.pinv_matrix", "inverses.pinv", "inverses.verify_penrose",
    "tensor.einstein_product",
    "woodbury.decompose_update", "woodbury.check_conditions", "woodbury.smw_pinv",
    "sensitivity.solve", "tensorio.load_tensor", "tensorio.save_tensor", "cli.main",
    "cli.build_parser",
)
COUNTED = (
    "matkernel.svd", "inverses.pinv", "tensor.einstein_product", "tensor.construct",
    "woodbury.decompose_update",
)


def _mean_ns(durations_ns) -> float:
    return statistics.fmean(durations_ns) if durations_ns else 0.0


def per_layer(spans, op_classes, verdicts, op_scales) -> dict:
    """Metrics from the spans of ops with the given classes and host-speed scales."""
    n_ops = len(op_classes)
    calls, self_ns, attr_sum = {}, {}, {}
    update_ns = {"identity": [], "fallback": []}
    measure_ns, cli_ns = [], {cmd: [] for cmd in CLI_COMMANDS}
    for span in spans:
        scale = op_scales[span.op]
        calls[span.name] = calls.get(span.name, 0) + 1
        self_ns[span.name] = self_ns.get(span.name, 0) + span.self_ns * scale
        attrs = span.attrs or {}
        for key in ("computed_mn2", "bytes"):
            if key in attrs:
                attr_key = (span.name, key)
                attr_sum[attr_key] = attr_sum.get(attr_key, 0) + attrs[key]
        if span.name == "woodbury.update_pinv":
            update_ns[attrs["path"]].append(span.duration_ns * scale)
        elif span.name == "sensitivity.measure_error":
            measure_ns.append(span.duration_ns * scale)
        elif span.name == "cli.main" and op_classes[span.op] == f"fixture:{attrs['command']}":
            cli_ns[attrs["command"]].append(span.duration_ns * scale)

    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / n_ops, "count")
    for name in SELF_TIMED:
        metrics[f"{name}.self_ms"] = (self_ns.get(name, 0) * NS_TO_MS / n_ops, "ms")
    metrics["matkernel.svd.computed_mn2"] = (
        attr_sum.get(("matkernel.svd", "computed_mn2"), 0) / n_ops, "count")
    metrics["tensor.construct.computed_mib"] = (
        attr_sum.get(("tensor.construct", "bytes"), 0) / 2**20 / n_ops, "MiB")
    metrics["tensorio.bytes_read"] = (
        attr_sum.get(("tensorio.load_tensor", "bytes"), 0) / n_ops, "bytes")
    metrics["tensorio.bytes_written"] = (
        attr_sum.get(("tensorio.save_tensor", "bytes"), 0) / n_ops, "bytes")
    metrics["inverses.penrose_pass_ratio"] = (
        sum(verdicts) / len(verdicts) if verdicts else 0.0, "ratio")
    n_updates = len(update_ns["identity"]) + len(update_ns["fallback"])
    metrics["woodbury.identity.ms"] = (_mean_ns(update_ns["identity"]) * NS_TO_MS, "ms")
    metrics["woodbury.fallback.ms"] = (_mean_ns(update_ns["fallback"]) * NS_TO_MS, "ms")
    metrics["woodbury.identity_ratio"] = (
        len(update_ns["identity"]) / n_updates if n_updates else 0.0, "ratio")
    metrics["sensitivity.measure_error.ms"] = (_mean_ns(measure_ns) * NS_TO_MS, "ms")
    for cmd, durations in cli_ns.items():
        metrics[f"cli.{cmd}.p50_ms"] = (
            statistics.median(durations) * NS_TO_MS if durations else 0.0, "ms")
    return metrics


#: Metrics that must repeat exactly between two traced runs with one seed.
EXACT = tuple(f"{name}.calls" for name in COUNTED) + (
    "matkernel.svd.computed_mn2", "tensor.construct.computed_mib",
    "tensorio.bytes_read", "tensorio.bytes_written", "woodbury.identity_ratio",
)
