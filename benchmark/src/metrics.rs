//! The metric catalogue: every name the benchmark prints, with its unit
//! and which way is better. `BENCHMARK.json` at the repository root lists
//! the same names; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// What a user of the system sees, reported by every workload with the
/// harness tracer off.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    higher("sim_cycles_per_s", "cycles/s"),
    higher("sim_instr_per_s", "instr/s"),
    lower("op_ms_mid_kind", "ms"),
    lower("op_ms_slowest_kind", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// Single-layer metrics from the traced run. A layer the workload does
/// not exercise reports 0. Units `count`, `cycles`, `instr`, `bytes`,
/// `share` and `instr/cycle` mark simulated or structural counts that
/// repeat exactly for a fixed seed; the rest are host times or ratios of
/// host times.
pub const PER_LAYER: &[MetricDef] = &[
    lower("workloads.prepare_ms", "ms"),
    lower("workloads.init_memory_ms", "ms"),
    lower("analyze.gate_ms", "ms"),
    lower("sim.new_ms", "ms"),
    lower("sim.run_ms", "ms"),
    lower("sim.run_share_of_op", "ratio"),
    lower("sim.host_ns_per_cycle", "ns/cycle"),
    lower("sim.host_ns_per_instr", "ns/instr"),
    lower("sim.event_over_dense", "ratio"),
    lower("sim.dispatch_ns_per_cycle", "ns/cycle"),
    lower("sim.snapshot_ms", "ms"),
    lower("sim.restore_ms", "ms"),
    lower("sim.cycles_total", "cycles"),
    lower("sim.instructions_total", "instr"),
    lower("sm.cores_ns_per_cycle", "ns/cycle"),
    higher("sm.ipc", "instr/cycle"),
    higher("sm.issue_utilisation", "share"),
    lower("mem.shared_ns_per_cycle", "ns/cycle"),
    higher("mem.l1_hit_ratio", "share"),
    lower("mem.l1_misses", "count"),
    higher("mem.l1_coalesced", "count"),
    higher("mem.sb_combines", "count"),
    lower("mem.lines_invalidated", "count"),
    higher("mem.stash_hits", "count"),
    lower("mem.dma_lines", "count"),
    higher("mem.l2_hit_ratio", "share"),
    lower("mem.l2_read_misses", "count"),
    lower("mem.l2_registrations", "count"),
    lower("mem.l2_recalls", "count"),
    lower("noc.deliver_ns_per_cycle", "ns/cycle"),
    lower("noc.outbox_ns_per_cycle", "ns/cycle"),
    lower("noc.messages", "count"),
    lower("noc.bytes", "bytes"),
    lower("noc.avg_hops", "count"),
    lower("noc.avg_latency_cycles", "cycles"),
    lower("noc.link_queue_cycles", "cycles"),
    higher("core.stall_share.no_stall", "share"),
    lower("core.stall_share.idle", "share"),
    lower("core.stall_share.control", "share"),
    lower("core.stall_share.sync", "share"),
    lower("core.stall_share.mem_data", "share"),
    lower("core.stall_share.mem_struct", "share"),
    lower("core.stall_share.comp_data", "share"),
    lower("core.stall_share.comp_struct", "share"),
    lower("trace.counters_overhead_pct", "%"),
    lower("trace.full_overhead_pct", "%"),
    lower("trace.profile_overhead_pct", "%"),
    higher("trace.events_recorded", "count"),
    lower("trace.events_dropped", "count"),
    lower("blame.overhead_pct", "%"),
    higher("blame.rows", "count"),
    lower("chaos.overhead_pct", "%"),
    higher("chaos.faults_injected", "count"),
    lower("json.result_encode_ms", "ms"),
    lower("json.result_bytes", "bytes"),
    lower("json.snapshot_encode_ms", "ms"),
    lower("json.snapshot_parse_ms", "ms"),
    lower("json.snapshot_bytes", "bytes"),
    lower("json.frame_parse_us_p50", "us"),
    lower("serve.request_parse_us", "us"),
    lower("serve.simulate_ms_p50", "ms"),
    lower("serve.analyze_ms_p50", "ms"),
    lower("serve.blame_ms_p50", "ms"),
    lower("serve.trace_summary_ms_p50", "ms"),
    lower("serve.checkpoint_ms_p50", "ms"),
    lower("serve.resume_ms_p50", "ms"),
    lower("serve.hit_mem_ms_p50", "ms"),
    lower("serve.hit_disk_ms_p50", "ms"),
    lower("serve.overhead_ms_p50", "ms"),
    lower("serve.first_frame_ms_p50", "ms"),
    lower("serve.request_ms_p95", "ms"),
    lower("serve.frames_per_request", "count"),
    lower("serve.response_bytes_p50", "bytes"),
    higher("serve.cache_hit_ratio", "share"),
    lower("serve.disk_cache_overhead_pct", "%"),
    lower("serve.cache_dir_bytes", "bytes"),
    lower("serve.errors", "count"),
    lower("bench.plan_expand_us", "us"),
    lower("bench.merge_insert_us_p50", "us"),
    higher("bench.sweep_units_per_s", "1/s"),
    lower("shard.unit_ms_p50", "ms"),
    lower("shard.overhead_ms_per_unit", "ms"),
    lower("shard.spawn_ms", "ms"),
    lower("shard.journal_append_us_p50", "us"),
    lower("shard.journal_replay_ms", "ms"),
    lower("shard.resume_ms", "ms"),
    lower("shard.artifact_bytes", "bytes"),
    lower("shard.retries", "count"),
    lower("shard.units_failed", "count"),
    lower("check.nondeterministic_ops", "count"),
    lower("check.conservation_failures", "count"),
    lower("check.engine_mismatches", "count"),
    lower("check.restore_mismatches", "count"),
    lower("check.cache_mismatches", "count"),
    lower("check.shard_row_mismatches", "count"),
    lower("harness.trace_overhead_pct", "%"),
    lower("harness.spans", "count"),
];

/// True for units whose values are simulated or structural counts: two
/// runs of one commit with one seed must agree on them exactly.
pub fn repeats_exactly(def: &MetricDef) -> bool {
    matches!(def.unit, "count" | "cycles" | "instr" | "bytes" | "share" | "instr/cycle")
        && !def.name.starts_with("harness.")
}

/// The six workloads, in the order reports list them.
pub const WORKLOADS: &[&str] =
    &["issue-heavy", "memory-heavy", "traced-runs", "serve-cold", "serve-warm", "shard-sweep"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::parse_json;

    fn names(doc: &crate::adapter::Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let want = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    let better = match d.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), want(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), want(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(all[..i].iter().all(|e| e.name != d.name), "duplicate {}", d.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
