"""Per-layer metrics of a traced run, by name and unit.

Names are ``<module>.<what>`` after the icasc module whose public functions
the spans wrap.  ``_ms_pNN`` is a percentile over every call; ``_calls``
and ``_s`` are per iteration (the median over iterations of the count or
of the summed seconds), so they do not depend on how many iterations fit
in a run.  A metric of a layer the workload never calls reads 0.
"""

from __future__ import annotations

from spans import SpanStats

# Op kinds reported one by one from the step tape; the rest add up in
# ``autodiff.nodes.other``.
NODE_KINDS = ("leaf", "constant", "add", "sub", "mul", "div", "minimum",
              "relu", "exp", "log", "scale", "reduce_sum", "reduce_mean",
              "broadcast_axes", "transpose2d", "matmul", "affine", "conv2d",
              "conv2d_dx", "conv2d_dw", "maxpool2d", "pool_scatter")


def per_layer(stats: SpanStats, census: dict, extra: dict) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``census`` is the tape census of the last final backward; ``extra``
    holds the untraced and traced throughput medians, the tracemalloc peak
    and the trained model's outcome.
    """
    p = stats.percentile_ms
    it = stats.per_iteration
    m = {
        "losses.objective_ms_p50": (p("losses.icasc_objective", 50), "ms"),
        "losses.objective_ms_p90": (p("losses.icasc_objective", 90), "ms"),
        "losses.objective_self_ms_p50": (
            p("losses.icasc_objective", 50, self_time=True), "ms"),
        "autodiff.backward_graph_ms_p50": (p("autodiff.backward_graph", 50), "ms"),
        "autodiff.backward_final_ms_p50": (p("autodiff.backward_final", 50), "ms"),
        "autodiff.backward_final_ms_p90": (p("autodiff.backward_final", 90), "ms"),
        "autodiff.backward_calls": (
            it("autodiff.backward_graph", count=True)
            + it("autodiff.backward_final", count=True), "count"),
        "attention.compute_attention_ms_p50": (
            p("attention.compute_attention", 50), "ms"),
        "attention.compute_attention_calls": (
            it("attention.compute_attention", count=True), "count"),
        "nn.forward_ms_p50": (p("nn.Model.forward", 50), "ms"),
        "nn.forward_ms_p90": (p("nn.Model.forward", 90), "ms"),
        "nn.forward_calls": (it("nn.Model.forward", count=True), "count"),
        "nn.sgd_step_ms_p50": (p("nn.SgdOptimizer.step", 50), "ms"),
        "nn.save_checkpoint_s": (it("nn.save_checkpoint"), "s"),
        "nn.load_checkpoint_s": (it("nn.load_checkpoint"), "s"),
        "training.evaluate_accuracy_s": (it("training.evaluate_accuracy"), "s"),
        "training.self_s": (stats.module_self("training"), "s"),
        "training.step_ms_p50": (p("training.step", 50), "ms"),
        "training.step_residual_ms_p50": (
            p("training.step", 50, self_time=True), "ms"),
        "training.step_residual_share": (stats.share_self("training.step"), "ratio"),
        "training.steps": (it("training.step", count=True), "count"),
        "training.final_test_acc": (extra.get("final_test_acc", 0.0), "ratio"),
        "training.final_skip_rate": (extra.get("final_skip_rate", 0.0), "ratio"),
        "data.batch_wait_ms_p50": (p("data.batch_iter.next", 50), "ms"),
        "data.load_dataset_s": (it("data.load_dataset"), "s"),
        "data.generate_synth_s": (stats.per_setup("data.generate_synth"), "s"),
        "data.write_pgm_s": (it("data.write_pgm"), "s"),
        "metrics.overlap_report_s": (it("metrics.attention_overlap_report"), "s"),
        "metrics.ks_chart_s": (it("metrics.ks_chart"), "s"),
        "metrics.export_heatmap_ms_p50": (p("metrics.export_heatmap", 50), "ms"),
        "metrics.export_heatmap_calls": (
            it("metrics.export_heatmap", count=True), "count"),
        "cli.self_s": (stats.module_self("cli"), "s"),
        "autodiff.tape_nodes": (float(census.get("nodes", 0)), "count"),
        "autodiff.tape_mb": (census.get("bytes", 0) / 2**20, "MB"),
        "autodiff.conv_gflop": (census.get("conv_flops", 0.0) / 1e9, "GFLOP"),
        "autodiff.conv_mb_computed": (census.get("conv_bytes", 0.0) / 2**20, "MB"),
    }
    kinds = dict(census.get("kinds", {}))
    for kind in NODE_KINDS:
        m[f"autodiff.nodes.{kind}"] = (float(kinds.pop(kind, 0)), "count")
    m["autodiff.nodes.other"] = (float(sum(kinds.values())), "count")

    untraced, traced = extra["untraced"], extra["traced"]
    m["mem.tracemalloc_peak_mb"] = (extra["mem_peak_mb"], "MB")
    m["trace.untraced_items_per_s"] = (untraced, "1/s")
    m["trace.traced_items_per_s"] = (traced, "1/s")
    m["trace.overhead_ratio"] = (
        (untraced - traced) / untraced if untraced > 0 else 0.0, "ratio")
    return m
