"""The metric names the benchmark prints, with their units.

Every workload reports the same result metrics: the untraced run prints
END_TO_END, the traced run (--trace 1) PER_LAYER. BENCHMARK.json lists
exactly these. What only one workload can measure is a detail: a
human-readable "detail" line on standard output, not in the result object;
DETAILS and LAYER_DETAILS list them per workload. test_smoke.py checks all
of it against real smoke runs.
"""

END_TO_END = {
    "setup_s": "s",
    "op_median_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tsv.make_fullchip_s": "s",
    "core.superposition.evaluate_s": "s",
    "core.interactive_stage.pairs_near_s": "s",
    "core.interactive_stage.evaluate_s": "s",
    "core.interactive_stage.pair_tile_jobs": "count",
    "core.interactive_stage.ordered_pairs": "count",
    "core.interactive_stage.pair_dup_ratio": "ratio",
    "core.interactive_stage.pair_point_evals": "count",
    "core.interactive_stage.ns_per_pair_point": "ns",
    "trace.overhead.setup_s": "s",
    "trace.overhead.op_median_ms": "ms",
    "trace.overhead.ops_per_s": "1/s",
    "trace.peak_rss_mb": "MB",
}

WORKLOADS = ("fullchip-10k", "service-1k", "variation-1k")

DETAILS = {
    "fullchip-10k": {},
    "service-1k": {
        "eco_p50_ms": "ms", "eco_p95_ms": "ms", "query_p50_ms": "ms",
        "query_p99_ms": "ms", "region_p50_ms": "ms",
    },
    "variation-1k": {"samples_per_s": "1/s"},
}

_SURROGATE = {
    "analytic.surrogate_fit_s": "s",
    "analytic.surrogate.pairs": "count",
    "analytic.surrogate.fallbacks": "count",
    "analytic.surrogate.hit_ratio": "ratio",
}

_INCREMENTAL = {
    "core.incremental_engine.apply_ms_p50": "ms",
    "core.incremental_engine.apply_ms_p95": "ms",
    "core.incremental_engine.dirty_points": "count",
    "core.incremental_engine.stage2_point_updates": "count",
    "core.incremental_engine.added_pairs": "count",
}

LAYER_DETAILS = {
    "fullchip-10k": {
        **_SURROGATE,
        "core.framework_build_s": "s",
        "core.superposition.evaluate_4t_s": "s",
        "core.superposition.scaling_4t": "ratio",
        "core.interactive_stage.evaluate_4t_s": "s",
        "core.interactive_stage.scaling_4t": "ratio",
        "io.checkpoint.write_s": "s",
        "io.checkpoint.writes": "count",
        "io.checkpoint.bytes": "B",
        "core.tiled_evaluator.self_s": "s",
        "core.tiled_evaluator.tile_ms_p50": "ms",
        "core.tiled_evaluator.tile_ms_max": "ms",
    },
    "service-1k": {
        "core.incremental_engine.build_s": "s",
        **_INCREMENTAL,
        "io.journal.append_ms_p50": "ms",
        "server.session_manager.eco_ms_p50": "ms",
        "server.wire.eco_ms_p50": "ms",
        "server.json.region_encode_ms": "ms",
        "server.json.region_bytes": "B",
        "server.session.lock_blocked_frac": "ratio",
        "server.session.blocked_query_p50_ms": "ms",
        "server.stats.journaled": "count",
        "server.stats.duplicates": "count",
        "server.stats.journal_fallbacks": "count",
        "server.stats.frame_errors": "count",
        "trace.overhead.eco_p50_ms": "ms",
        "trace.overhead.eco_p95_ms": "ms",
        "trace.overhead.query_p50_ms": "ms",
        "trace.overhead.query_p99_ms": "ms",
        "trace.overhead.region_p50_ms": "ms",
    },
    "variation-1k": {
        "stats.variation_engine.build_s": "s",
        **_SURROGATE,
        **_INCREMENTAL,
        "stats.accumulate_self_s": "s",
        "numeric.parallel.corner_imbalance": "ratio",
    },
}
