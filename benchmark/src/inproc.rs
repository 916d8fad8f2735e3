//! The three in-process workloads: paper-scale scenarios run through the
//! registry and the simulator in this process, one op per scenario run
//! (request → encoded result).

use crate::adapter::{
    run_scenario, straight_cycles, LoopProfile, Mode, OpOutput, Protocol, Scale, Scenario,
    SimCounts,
};
use crate::outcome::{another_pass, repeat_set_up, Outcome, ScenarioRow};
use crate::rss;
use crate::spans::Tracer;
use crate::stats::{self, Rng};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    IssueHeavy,
    MemoryHeavy,
    TracedRuns,
}

impl Kind {
    /// Paper-scale scenarios of the workload. Sizing cuts passes, never
    /// scenarios.
    fn scenarios(self) -> Vec<Scenario> {
        use Protocol::{Denovo, Gpu};
        match self {
            // Nearly every cycle executes: issue, scheduler, ISA exec and
            // stall classification do the work, the skip calendar only
            // costs (the paper's case study 1).
            Kind::IssueHeavy => vec![
                Scenario::new("uts", Gpu),
                Scenario::new("uts", Denovo),
                Scenario::new("utsd", Gpu),
                Scenario::new("utsd", Denovo),
                Scenario::new("gemm-tiled", Gpu),
            ],
            // LSU/L1/MSHR, mesh, L2+DRAM and event skipping do the work
            // (the paper's Figs 6.3/6.4 plus the streaming kernels); the
            // bfs driver adds many short launches.
            Kind::MemoryHeavy => vec![
                Scenario::new("implicit-scratchpad", Gpu).mshr(32),
                Scenario::new("implicit-scratchpad", Gpu).mshr(256),
                Scenario::new("implicit-dma", Gpu).mshr(32),
                Scenario::new("implicit-dma", Gpu).mshr(256),
                Scenario::new("implicit-stash", Gpu).mshr(32),
                Scenario::new("implicit-stash", Gpu).mshr(256),
                Scenario::new("spmv", Gpu),
                Scenario::new("spmv", Denovo),
                Scenario::new("stencil-global", Denovo),
                Scenario::new("reduction", Gpu),
                Scenario::bfs_driver(),
            ],
            // The same simulator used differently: one scenario from each
            // of the other two workloads' families, under every observer
            // and alternative path.
            Kind::TracedRuns => vec![
                Scenario::new("uts", Gpu),
                Scenario::new("utsd", Denovo),
                Scenario::new("implicit-stash", Gpu).mshr(32),
                Scenario::bfs_driver(),
            ],
        }
    }

    fn modes(self) -> &'static [Mode] {
        match self {
            Kind::IssueHeavy | Kind::MemoryHeavy => &[Mode::Plain],
            Kind::TracedRuns => &[
                Mode::Counters,
                Mode::Full,
                Mode::Blame,
                Mode::Chaos,
                Mode::Dense,
                Mode::Checkpoint,
            ],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Op {
    scenario: usize,
    mode: usize,
}

/// Inputs of a run: the op list and, per scenario, what its single
/// launch does straight through, once an op has shown it.
struct State {
    kind: Kind,
    scenarios: Vec<Scenario>,
    ops: Vec<Op>,
    /// Cycles (a checkpoint op pauses at half of them) and result digest
    /// (every mode but fault injection must reproduce it).
    reference: Vec<Option<(u64, String)>>,
}

impl State {
    fn mode(&self, op: Op) -> Mode {
        self.kind.modes()[op.mode]
    }

    fn label(&self, op: Op) -> String {
        let name = self.scenarios[op.scenario].name();
        match self.mode(op) {
            Mode::Plain => name,
            mode => format!("{name}@{}", mode.name()),
        }
    }
}

/// Everything before the first timed op: build the op list and run every
/// op once at small scale, untimed, so code and allocator are warm.
fn set_up(kind: Kind) -> Result<State, String> {
    let scenarios = kind.scenarios();
    let mut ops = Vec::new();
    let mut reference = vec![None; scenarios.len()];
    let mut t = Tracer::new(false);
    for (si, scenario) in scenarios.iter().enumerate() {
        let (small_cycles, _) = straight_cycles(scenario, Scale::Small)?;
        for (mi, &mode) in kind.modes().iter().enumerate() {
            run_scenario(scenario, Scale::Small, mode, small_cycles / 2, &mut t)?;
            ops.push(Op { scenario: si, mode: mi });
        }
        // The driver's checkpoint op pauses the registry's single launch,
        // whose length no other op of the pass reveals.
        if scenario.driver && kind.modes().contains(&Mode::Checkpoint) {
            reference[si] = Some(straight_cycles(scenario, Scale::Paper)?);
        }
    }
    Ok(State { kind, scenarios, ops, reference })
}

/// Order one pass: a seeded shuffle. While some scenario's length is
/// still unknown (the first pass), checkpoint ops keep their shuffled
/// order but run last, after the ops that reveal it.
fn pass_order(state: &State, rng: &mut Rng) -> Vec<Op> {
    let mut order = state.ops.clone();
    rng.shuffle(&mut order);
    if state.reference.iter().any(Option::is_none) {
        order.sort_by_key(|&op| state.mode(op) == Mode::Checkpoint);
    }
    order
}

/// What the passes of a run observed, per op.
#[derive(Default)]
struct Observed {
    wall_ms: BTreeMap<Op, Vec<f64>>,
    last: BTreeMap<Op, OpOutput>,
    pass_wall_s: Vec<f64>,
}

/// Run one pass at paper scale, recording each op's wall and checking
/// its output; failures are counted in `outcome`.
fn run_pass(
    state: &mut State,
    order: &[Op],
    t: &mut Tracer,
    seen: &mut Observed,
    outcome: &mut Outcome,
    checks: &mut Checks,
) {
    let pass_start = Instant::now();
    for (i, &op) in order.iter().enumerate() {
        let mode = state.mode(op);
        let scenario = &state.scenarios[op.scenario];
        let half = state.reference[op.scenario].as_ref().map_or(0, |(cycles, _)| cycles / 2);
        t.set_op(outcome.attempted);
        outcome.attempted += 1;
        let span = t.begin("op.total");
        let start = Instant::now();
        let result = run_scenario(scenario, Scale::Paper, mode, half, t);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        t.end(span);
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                outcome.fail(format!("{} (op {i}): {e}", state.label(op)));
                continue;
            }
        };
        seen.wall_ms.entry(op).or_default().push(wall_ms);
        let mut bad = Vec::new();
        if !out.conserved {
            checks.conservation_failures += 1;
            bad.push("per-SM breakdowns do not sum to the aggregate".to_string());
        }
        if let Some(prev) = seen.last.get(&op) {
            if prev.result_digest != out.result_digest {
                checks.nondeterministic_ops += 1;
                bad.push("result differs from the previous pass".to_string());
            }
        }
        // Every mode but fault injection must leave the simulation
        // untouched: same cycles, same breakdown, same bytes.
        let single_launch = !scenario.driver || mode == Mode::Checkpoint;
        if single_launch && mode != Mode::Chaos {
            match &state.reference[op.scenario] {
                None => {
                    state.reference[op.scenario] =
                        Some((out.counts.cycles, out.result_digest.clone()));
                }
                Some((_, reference)) if *reference != out.result_digest => {
                    match mode {
                        Mode::Checkpoint => checks.restore_mismatches += 1,
                        _ => checks.engine_mismatches += 1,
                    }
                    bad.push("result differs from the scenario's reference run".to_string());
                }
                Some(_) => {}
            }
        }
        if !bad.is_empty() {
            outcome.fail(format!("{}: {}", state.label(op), bad.join("; ")));
        }
        seen.last.insert(op, out);
    }
    seen.pass_wall_s.push(pass_start.elapsed().as_secs_f64());
}

#[derive(Default)]
struct Checks {
    nondeterministic_ops: u64,
    conservation_failures: u64,
    engine_mismatches: u64,
    restore_mismatches: u64,
}

/// The driver runs several kernels, so its plain ops cannot share a
/// reference digest with its single-launch checkpoint op; its modes are
/// compared with each other instead.
fn check_driver_modes(state: &State, seen: &Observed, outcome: &mut Outcome, checks: &mut Checks) {
    for (si, scenario) in state.scenarios.iter().enumerate() {
        if !scenario.driver {
            continue;
        }
        let mut digests = seen.last.iter().filter(|(op, _)| {
            op.scenario == si && !matches!(state.mode(**op), Mode::Chaos | Mode::Checkpoint)
        });
        if let Some((_, first)) = digests.next() {
            for (op, out) in digests {
                if out.result_digest != first.result_digest {
                    checks.engine_mismatches += 1;
                    outcome.fail(format!("{}: differs from the other modes", state.label(*op)));
                }
            }
        }
    }
}

fn scenario_rows(state: &State, seen: &Observed) -> Vec<ScenarioRow> {
    seen.wall_ms
        .iter()
        .filter_map(|(op, wall_ms)| {
            let out = seen.last.get(op)?;
            Some(ScenarioRow {
                name: state.label(*op),
                // An op runs once in a pass.
                pass_ms: wall_ms.iter().map(|&ms| vec![ms]).collect(),
                cycles: out.counts.cycles,
                instructions: out.counts.instructions,
                digest: out.result_digest.clone(),
            })
        })
        .collect()
}

/// Simulated counts of one pass (every op once).
fn pass_counts(seen: &Observed) -> SimCounts {
    let mut total = SimCounts::default();
    for out in seen.last.values() {
        total.add(&out.counts);
    }
    total
}

/// The untraced run: set-up several times, then whole passes for about
/// `seconds`.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (mut state, setup_s) = repeat_set_up(|| set_up(kind))?;
    outcome.set_from_passes("setup_s", setup_s);

    let mut rng = Rng::new(seed);
    let mut t = Tracer::new(false);
    let mut seen = Observed::default();
    let mut checks = Checks::default();
    // This process's peak resident set within each pass.
    let mut pass_rss_mb = Vec::new();
    let start = Instant::now();
    loop {
        let order = pass_order(&state, &mut rng);
        rss::restart_own_peak();
        run_pass(&mut state, &order, &mut t, &mut seen, &mut outcome, &mut checks);
        pass_rss_mb.push(rss::own_peak_rss_mb()?);
        if !another_pass(start.elapsed().as_secs_f64(), seen.pass_wall_s.len(), seconds) {
            break;
        }
    }
    check_driver_modes(&state, &seen, &mut outcome, &mut checks);

    let counts = pass_counts(&seen);
    let ops_per_pass = state.ops.len() as f64;
    let per_pass = |amount: f64| seen.pass_wall_s.iter().map(|w| amount / w).collect::<Vec<_>>();
    outcome.set_from_passes("ops_per_s", per_pass(ops_per_pass));
    outcome.set_from_passes("sim_cycles_per_s", per_pass(counts.cycles as f64));
    outcome.set_from_passes("sim_instr_per_s", per_pass(counts.instructions as f64));

    outcome.set_peak_rss(pass_rss_mb);
    outcome.scenarios = scenario_rows(&state, &seen);
    outcome.set_latency_metrics()?;
    Ok(outcome)
}

fn sum_ms(t: &Tracer, name: &str) -> f64 {
    t.durations(name).iter().fold(0.0, |a, ns| a + ns) / 1e6
}

fn wall_of(seen: &Observed, state: &State, mode: Mode) -> f64 {
    seen.wall_ms
        .iter()
        .filter(|(op, _)| state.mode(**op) == mode)
        .map(|(_, ms)| stats::median(ms))
        .sum()
}

/// The traced run: one pass with the harness tracer off, the same pass
/// with it on, then the extra passes the layer metrics need.
pub fn run_traced(kind: Kind, seed: u64, spans_path: &std::path::Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut state = set_up(kind)?;
    let mut rng = Rng::new(seed);
    let order = pass_order(&state, &mut rng);
    let mut checks = Checks::default();

    let mut untraced = Observed::default();
    run_pass(&mut state, &order, &mut Tracer::new(false), &mut untraced, &mut outcome, &mut checks);
    let mut t = Tracer::new(true);
    let mut traced = Observed::default();
    run_pass(&mut state, &order, &mut t, &mut traced, &mut outcome, &mut checks);
    // The second pass doubles as the repeat that must be byte-identical.
    for (op, out) in &traced.last {
        if untraced.last.get(op).is_some_and(|u| u.result_digest != out.result_digest) {
            checks.nondeterministic_ops += 1;
            outcome
                .fail(format!("{}: traced pass differs from the untraced pass", state.label(*op)));
        }
    }
    check_driver_modes(&state, &traced, &mut outcome, &mut checks);

    let (u, tr) = (untraced.pass_wall_s[0], traced.pass_wall_s[0]);
    outcome.set("harness.trace_overhead_pct", (tr / u - 1.0) * 100.0);
    outcome.set("harness.spans", t.spans().len() as f64);

    // Layer times: span totals over the traced pass.
    let op_ms = sum_ms(&t, "op.total");
    let run_ms = sum_ms(&t, "sim.run");
    outcome.set("workloads.prepare_ms", sum_ms(&t, "workloads.prepare"));
    outcome.set("workloads.init_memory_ms", sum_ms(&t, "workloads.init_memory"));
    outcome.set("analyze.gate_ms", sum_ms(&t, "analyze.gate"));
    outcome.set("sim.new_ms", sum_ms(&t, "sim.new"));
    outcome.set("sim.run_ms", run_ms);
    outcome.set("sim.run_share_of_op", if op_ms > 0.0 { run_ms / op_ms } else { 0.0 });
    outcome.set("sim.snapshot_ms", sum_ms(&t, "sim.snapshot"));
    outcome.set("sim.restore_ms", sum_ms(&t, "sim.restore"));
    outcome.set("json.result_encode_ms", sum_ms(&t, "json.result_encode"));
    outcome.set("json.snapshot_encode_ms", sum_ms(&t, "json.snapshot_encode"));
    outcome.set("json.snapshot_parse_ms", sum_ms(&t, "json.snapshot_parse"));

    let counts = pass_counts(&traced);
    set_count_metrics(&mut outcome, &counts);
    let per = |ns: f64, n: u64| if n > 0 { ns / n as f64 } else { 0.0 };
    outcome.set("sim.host_ns_per_cycle", per(run_ms * 1e6, counts.cycles));
    outcome.set("sim.host_ns_per_instr", per(run_ms * 1e6, counts.instructions));
    let sum = |f: fn(&OpOutput) -> u64| traced.last.values().map(f).sum::<u64>() as f64;
    outcome.set("json.result_bytes", sum(|o| o.result_bytes));
    outcome.set("json.snapshot_bytes", sum(|o| o.snapshot_bytes));
    outcome.set("trace.events_recorded", sum(|o| o.events_recorded));
    outcome.set("trace.events_dropped", sum(|o| o.events_dropped));
    outcome.set("blame.rows", sum(|o| o.blame_rows));
    outcome.set("chaos.faults_injected", sum(|o| o.faults_injected));

    // Extra passes, all with the harness tracer off.
    let mut off = Tracer::new(false);
    match kind {
        Kind::IssueHeavy | Kind::MemoryHeavy => {
            let mut wall = [0.0f64; 2];
            let mut profile = LoopProfile::default();
            for (slot, mode) in [Mode::Dense, Mode::Profile].into_iter().enumerate() {
                for (si, scenario) in state.scenarios.iter().enumerate() {
                    outcome.attempted += 1;
                    let start = Instant::now();
                    match run_scenario(scenario, Scale::Paper, mode, 0, &mut off) {
                        Ok(out) => {
                            wall[slot] += start.elapsed().as_secs_f64();
                            profile.add(&out.profile);
                            let plain = traced.last.get(&Op { scenario: si, mode: 0 });
                            if plain.is_some_and(|p| p.result_digest != out.result_digest) {
                                checks.engine_mismatches += 1;
                                outcome.fail(format!(
                                    "{}@{}: differs from the event-engine run",
                                    scenario.name(),
                                    mode.name()
                                ));
                            }
                        }
                        Err(e) => outcome.fail(format!("{}@{}: {e}", scenario.name(), mode.name())),
                    }
                }
            }
            let [dense, profiled] = wall;
            outcome.set("sim.event_over_dense", u / dense);
            outcome.set("trace.profile_overhead_pct", (profiled / dense - 1.0) * 100.0);
            // From the simulator's own profiler, which forces the dense
            // loop: these five are `engine: dense` numbers.
            outcome.set(
                "noc.deliver_ns_per_cycle",
                per(profile.mesh_deliver_ns as f64, profile.cycles),
            );
            outcome.set("mem.shared_ns_per_cycle", per(profile.shared_ns as f64, profile.cycles));
            outcome
                .set("sim.dispatch_ns_per_cycle", per(profile.dispatch_ns as f64, profile.cycles));
            outcome.set("sm.cores_ns_per_cycle", per(profile.cores_ns as f64, profile.cycles));
            outcome.set("noc.outbox_ns_per_cycle", per(profile.outbox_ns as f64, profile.cycles));
        }
        Kind::TracedRuns => {
            // The plain event-engine run of each scenario is the base the
            // observers' overheads are measured against.
            let mut plain = 0.0;
            for scenario in &state.scenarios {
                outcome.attempted += 1;
                let start = Instant::now();
                match run_scenario(scenario, Scale::Paper, Mode::Plain, 0, &mut off) {
                    Ok(_) => plain += start.elapsed().as_secs_f64() * 1e3,
                    Err(e) => outcome.fail(format!("{}@plain: {e}", scenario.name())),
                }
            }
            let over = |mode| (wall_of(&untraced, &state, mode) / plain - 1.0) * 100.0;
            outcome.set("trace.counters_overhead_pct", over(Mode::Counters));
            outcome.set("trace.full_overhead_pct", over(Mode::Full));
            outcome.set("blame.overhead_pct", over(Mode::Blame));
            outcome.set("chaos.overhead_pct", over(Mode::Chaos));
            outcome.set("sim.event_over_dense", plain / wall_of(&untraced, &state, Mode::Dense));
        }
    }

    outcome.set("check.nondeterministic_ops", checks.nondeterministic_ops as f64);
    outcome.set("check.conservation_failures", checks.conservation_failures as f64);
    outcome.set("check.engine_mismatches", checks.engine_mismatches as f64);
    outcome.set("check.restore_mismatches", checks.restore_mismatches as f64);
    outcome.scenarios = scenario_rows(&state, &traced);
    outcome.set_layers(&t);
    t.write_jsonl(spans_path).map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    Ok(outcome)
}

/// The per-layer metrics that are pure functions of simulated counts.
pub fn set_count_metrics(outcome: &mut Outcome, c: &SimCounts) {
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    outcome.set("sim.cycles_total", c.cycles as f64);
    outcome.set("sim.instructions_total", c.instructions as f64);
    outcome.set("sm.ipc", ratio(c.instructions, c.cycles));
    outcome.set("sm.issue_utilisation", ratio(c.issued_cycles, c.sm_cycles));
    outcome.set("mem.l1_hit_ratio", ratio(c.l1_hits, c.l1_hits + c.l1_misses));
    outcome.set("mem.l1_misses", c.l1_misses as f64);
    outcome.set("mem.l1_coalesced", c.l1_coalesced as f64);
    outcome.set("mem.sb_combines", c.sb_combines as f64);
    outcome.set("mem.lines_invalidated", c.lines_invalidated as f64);
    outcome.set("mem.stash_hits", c.stash_hits as f64);
    outcome.set("mem.dma_lines", c.dma_lines as f64);
    outcome.set("mem.l2_hit_ratio", ratio(c.l2_read_hits, c.l2_read_hits + c.l2_read_misses));
    outcome.set("mem.l2_read_misses", c.l2_read_misses as f64);
    outcome.set("mem.l2_registrations", c.l2_registrations as f64);
    outcome.set("mem.l2_recalls", c.l2_recalls as f64);
    outcome.set("noc.messages", c.noc_messages as f64);
    outcome.set("noc.bytes", c.noc_bytes as f64);
    outcome.set("noc.avg_hops", ratio(c.noc_hops, c.noc_messages));
    outcome.set("noc.avg_latency_cycles", ratio(c.noc_latency, c.noc_messages));
    outcome.set("noc.link_queue_cycles", c.noc_link_queue_cycles as f64);
    let total: u64 = c.stall_cycles.iter().sum();
    const SHARES: [&str; 8] = [
        "core.stall_share.no_stall",
        "core.stall_share.idle",
        "core.stall_share.control",
        "core.stall_share.sync",
        "core.stall_share.mem_data",
        "core.stall_share.mem_struct",
        "core.stall_share.comp_data",
        "core.stall_share.comp_struct",
    ];
    for (name, cycles) in SHARES.into_iter().zip(c.stall_cycles) {
        outcome.set(name, ratio(cycles, total));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_checkpoint_op_never_runs_before_its_length_is_known() {
        let kind = Kind::TracedRuns;
        let scenarios = kind.scenarios();
        let ops: Vec<Op> = (0..scenarios.len())
            .flat_map(|s| (0..kind.modes().len()).map(move |m| Op { scenario: s, mode: m }))
            .collect();
        let mut state = State { kind, reference: vec![None; scenarios.len()], scenarios, ops };
        for seed in 0..20 {
            let order = pass_order(&state, &mut Rng::new(seed));
            let first_checkpoint =
                order.iter().position(|&op| state.mode(op) == Mode::Checkpoint).unwrap();
            assert!(order[first_checkpoint..].iter().all(|&op| state.mode(op) == Mode::Checkpoint));
            let mut sorted = order.clone();
            sorted.sort();
            assert_eq!(sorted, state.ops, "ordering keeps the op multiset");
        }
        // Once every length is known the shuffle is left alone.
        state.reference = vec![Some((10, String::new())); state.scenarios.len()];
        let free = |seed| pass_order(&state, &mut Rng::new(seed));
        assert!((0..20).any(|seed| state.mode(*free(seed).last().unwrap()) != Mode::Checkpoint));
    }

    #[test]
    fn every_workload_keeps_its_scenarios() {
        assert_eq!(Kind::IssueHeavy.scenarios().len(), 5);
        assert_eq!(Kind::MemoryHeavy.scenarios().len(), 11);
        assert_eq!(Kind::TracedRuns.scenarios().len() * Kind::TracedRuns.modes().len(), 24);
    }
}
