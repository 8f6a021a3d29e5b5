//! The metric registry: every name the benchmark prints, with its unit
//! and direction — and, for the end-to-end metrics, the bound by which a
//! change may worsen it. `BENCHMARK.json` carries the same table (a unit
//! test holds the two together).

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end only; 0 for per-layer metrics, which are not gated).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound,
    }
}

const fn up(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: true,
        bound: 0.0,
    }
}

const fn down(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: false,
        bound: 0.0,
    }
}

pub const WORKLOADS: [&str; 4] = [
    "batch_static",
    "served_point",
    "stream_window",
    "durable_recover",
];

/// Untraced runs print exactly these, on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("search_qps", "1/s", true, 0.25),
    e2e("search_p50_ms", "ms", false, 0.25),
    e2e("search_p95_ms", "ms", false, 0.25),
    e2e("ingest_docs_per_s", "1/s", true, 0.25),
    e2e("recover_s", "s", false, 0.25),
    e2e("disk_bytes_per_doc_byte", "ratio", false, 0.05),
    e2e("rss_peak_mb", "MiB", false, 0.20),
];

/// Traced runs print exactly these, on every workload; a metric that
/// does not apply to a workload reads 0 there (the README's matrix says
/// which).
pub const PER_LAYER: &[Metric] = &[
    // End-to-end numbers that exist on one workload only, or are too
    // coarse to gate (a ladder rung, a recall floor): reported, unbounded.
    down("e2e.search_p99_ms", "ms"),
    up("e2e.slo_rate_rps", "1/s"),
    down("e2e.open_loop_p50_ms", "ms"),
    down("e2e.open_loop_p99_ms", "ms"),
    down("e2e.ingest_visible_p50_ms", "ms"),
    down("e2e.ingest_visible_p99_ms", "ms"),
    up("e2e.recall", "fraction"),
    // text
    down("text.vectorize_us_per_doc", "us"),
    down("text.oov_drop_rate", "fraction"),
    // core.hash
    down("core.hash.q1_us_per_query", "us"),
    down("core.hash.sketch_us_per_doc", "us"),
    // core.query
    down("core.query.q2_us_per_query", "us"),
    down("core.query.q3_us_per_query", "us"),
    down("core.query.collisions_per_query", "count"),
    down("core.query.unique_candidates_per_query", "count"),
    down("core.query.distance_computations_per_query", "count"),
    up("core.query.matches_per_query", "count"),
    up("core.query.candidate_yield", "ratio"),
    down("core.query.point_search_us", "us"),
    up("core.query.batch_speedup", "ratio"),
    // core.table
    down("core.table.bulk_build_s", "s"),
    down("core.table.static_bytes_per_doc", "B"),
    down("core.table.delta_bytes_per_doc", "B"),
    up("core.table.merge_count", "count"),
    down("core.table.merge_build_ms_p50", "ms"),
    down("core.table.merge_publish_ms_max", "ms"),
    down("core.table.merge_yielded_ms_total", "ms"),
    // core.engine
    down("core.engine.bulk_insert_s", "s"),
    down("core.engine.insert_us_per_doc", "us"),
    down("core.engine.insert_stall_p99_ms", "ms"),
    down("core.engine.sealed_generations_max", "count"),
    down("core.engine.retired_pending_purge_max", "count"),
    down("core.engine.window_lag_max", "count"),
    up("core.engine.during_over_quiesced", "ratio"),
    // core.persist
    up("core.persist.journal_overhead", "ratio"),
    down("core.persist.written_bytes_per_doc", "B"),
    down("core.persist.segment_files", "count"),
    down("core.persist.dir_bytes_max", "B"),
    down("core.persist.load_state_s", "s"),
    down("core.persist.rebuild_s", "s"),
    up("core.persist.replay_docs_per_s", "1/s"),
    // core.model
    down("core.model.query_rel_err", "ratio"),
    down("core.model.creation_rel_err", "ratio"),
    // parallel
    down("parallel.dispatch_us", "us"),
    up("parallel.speedup_2t", "ratio"),
    // cluster
    up("cluster.search_qps", "1/s"),
    up("cluster.fanout_ratio", "ratio"),
    down("cluster.point_search_us", "us"),
    // index
    down("index.facade_overhead_us", "us"),
    // server
    down("server.http_parse_us", "us"),
    down("server.json_parse_us", "us"),
    down("server.wire_decode_us", "us"),
    down("server.wire_encode_us", "us"),
    down("server.http_write_us", "us"),
    down("server.ingest_decode_us_per_doc", "us"),
    down("server.handler_p50_ms", "ms"),
    down("server.handler_p99_ms", "ms"),
    down("server.shed_total", "count"),
    down("server.responses_5xx", "count"),
    down("server.queue_wait_us", "us"),
    down("server.residual_us", "us"),
    up("server.attributed_share", "fraction"),
    down("server.request_bytes", "B"),
    down("server.response_bytes", "B"),
    // bench (harness honesty, not the program)
    down("bench.corpus_gen_s", "s"),
    down("bench.generator_late_p99_ms", "ms"),
    down("bench.trace_overhead", "fraction"),
    down("bench.reference_loop_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use plsh::server::Json;

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        obj.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks '{key}'"))
    }

    fn check_list(json: &Json, key: &str, table: &[Metric], bounded: bool) {
        let list = field(json, key).as_arr().unwrap();
        assert_eq!(
            list.len(),
            table.len(),
            "{key}: BENCHMARK.json and the registry differ in length"
        );
        for (entry, m) in list.iter().zip(table) {
            assert_eq!(field(entry, "name").as_str(), Some(m.name));
            assert_eq!(field(entry, "unit").as_str(), Some(m.unit), "{}", m.name);
            let better = if m.higher { "higher" } else { "lower" };
            assert_eq!(field(entry, "better").as_str(), Some(better), "{}", m.name);
            if bounded {
                assert_eq!(field(entry, "bound").as_f64(), Some(m.bound), "{}", m.name);
                assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = plsh::server::json::parse(&text).expect("BENCHMARK.json parses");
        check_list(&json, "end_to_end", END_TO_END, true);
        check_list(&json, "per_layer", PER_LAYER, false);
        let workloads: Vec<&str> = field(&json, "workloads")
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| field(w, "name").as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher));
    }
}
