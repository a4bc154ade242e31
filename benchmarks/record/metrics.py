"""The metric names, units and directions (layer = module).

``BENCHMARK.json``'s ``per_layer`` list is this table; the smoke test
asserts the two agree and that a traced run emits every name. Which
end-to-end metric each one should move, on which workload, is tabulated
in the README.
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "search_p50_ms": "ms",
    "lineage_p50_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}

# (name, unit, better)
PER_LAYER = [
    # synth / rdf / reasoning
    ("synth.generate_s", "s", "lower"),
    ("rdf.triples", "count", "lower"),
    ("rdf.name_scan_ms", "ms", "lower"),
    ("rdf.point_lookup_us", "us", "lower"),
    ("reasoning.build_index_s", "s", "lower"),
    ("reasoning.derived_triples", "count", "lower"),
    ("reasoning.dred_refresh_ms", "ms", "lower"),
    # sparql / oracle: the Listing 1 staged replay
    ("sparql.parse_ms", "ms", "lower"),
    ("sparql.plan_cold_ms", "ms", "lower"),
    ("sparql.execute_listing1_ms", "ms", "lower"),
    ("sparql.rows_per_result", "ratio", "lower"),
    ("sparql.prepare_hit_us", "us", "lower"),
    ("sparql.plan_cache_hit_rate", "ratio", "higher"),
    ("oracle.parse_sem_sql_us", "us", "lower"),
    ("oracle.sem_sql_overhead_ms", "ms", "lower"),
    # services / core
    ("services.search_ms", "ms", "lower"),
    ("services.search_hits", "count", "higher"),
    ("services.lineage_us", "us", "lower"),
    ("core.hierarchy_hit_rate", "ratio", "higher"),
    # etl / history: the release staged replay
    ("etl.apply_release_p50_ms", "ms", "lower"),
    ("etl.delta_triples", "count", "lower"),
    ("history.diff_ms", "ms", "lower"),
    # storage
    ("storage.save_snapshot_s", "s", "lower"),
    ("storage.snapshot_bytes", "bytes", "lower"),
    ("storage.attach_ms", "ms", "lower"),
    ("storage.partition_s", "s", "lower"),
    ("storage.write_shards_s", "s", "lower"),
    ("storage.mapped_search_ms", "ms", "lower"),
    ("storage.publish_segment_ms", "ms", "lower"),
    ("storage.segment_bytes", "bytes", "lower"),
    # server: the thread and fork rungs of the layer ladder
    ("server.start_s", "s", "lower"),
    ("server.thread_tax_search_ms", "ms", "lower"),
    ("server.thread_tax_lineage_ms", "ms", "lower"),
    ("server.fork_tax_search_ms", "ms", "lower"),
    ("server.fork_tax_lineage_ms", "ms", "lower"),
    ("server.response_pickle_bytes_search", "bytes", "lower"),
    ("server.response_pickle_bytes_lineage", "bytes", "lower"),
    ("server.publish_ms", "ms", "lower"),
    ("server.queue_high_water", "count", "lower"),
    ("server.rejected", "count", "lower"),
    ("server.requeued", "count", "lower"),
    ("server.worker_restarts", "count", "lower"),
    ("server.degraded_responses", "count", "lower"),
    ("server.sql_p50_ms", "ms", "lower"),
    ("server.query_p50_ms", "ms", "lower"),
    ("server.search_p95_ms", "ms", "lower"),
    ("server.lineage_p95_ms", "ms", "lower"),
    # sharding: the 1-shard and 2-shard rungs
    ("sharding.start_s", "s", "lower"),
    ("sharding.gateway_tax_search_ms", "ms", "lower"),
    ("sharding.gateway_tax_lineage_ms", "ms", "lower"),
    ("sharding.scatter_tax_search_ms", "ms", "lower"),
    ("sharding.scatter_tax_lineage_ms", "ms", "lower"),
    ("sharding.subrequests_per_op", "ratio", "lower"),
    ("sharding.search_p95_ms", "ms", "lower"),
    ("sharding.lineage_p95_ms", "ms", "lower"),
    ("sharding.degraded_responses", "count", "lower"),
    # obs
    ("obs.unsampled_overhead_ratio", "ratio", "lower"),
    # the benchmark's own health
    ("trace.overhead_ratio", "ratio", "lower"),
    ("ladder.listing1_sum_ratio", "ratio", "higher"),
    ("ladder.release_sum_ratio", "ratio", "higher"),
    ("noise.calib_ms", "ms", "lower"),
    ("noise.calib_iqr_ratio", "ratio", "lower"),
    ("noise.round_iqr_ratio", "ratio", "lower"),
    ("raw.setup_s", "s", "lower"),
    ("raw.search_p50_ms", "ms", "lower"),
    ("raw.lineage_p50_ms", "ms", "lower"),
    ("raw.throughput_rps", "1/s", "higher"),
]

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}

TIME_UNITS = ("s", "ms", "us")
