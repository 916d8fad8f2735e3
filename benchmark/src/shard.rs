//! The shard workload: the real `gsi-shard` supervisor over a 200-unit
//! small-scale plan with one worker, then `--resume` on the complete
//! journal. One repetition is one pass; an op is one unit.
//!
//! Worker spawn, stdio framing, fsync'd journal appends, per-unit merge
//! and atomic artifact rewrites dominate; the resume half replays the
//! journal with zero simulation.

use crate::adapter::{
    journal_replay_ms, shard_command, shard_manifest, shard_rows, shard_unit_done, Binaries, Plan,
    UnitRow, SHARD_BIN, SHARD_JOURNAL_FILE, SHARD_MANIFEST_FILE, SHARD_ROWS_FILE,
};
use crate::inproc::set_count_metrics;
use crate::outcome::{another_pass, repeat_set_up, Outcome, ScenarioRow};
use crate::rss::Family;
use crate::spans::Tracer;
use crate::stats;
use crate::{dir_bytes, RunArgs};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::Instant;

const PLAN_FILE: &str = "benchmark/plans/shard_200.json";

struct State<'a> {
    bins: &'a Binaries,
    plan: Plan,
    plan_path: PathBuf,
    out_dir: PathBuf,
    /// `rows.json` of the first repetition; every later one must match.
    first_rows: Option<String>,
    row_mismatches: u64,
}

/// One supervisor invocation as seen from outside.
struct PlanRun {
    wall_s: f64,
    /// Per finished unit, its index and the milliseconds since the unit
    /// before it finished on the supervisor's progress log (the first
    /// from process start).
    units: Vec<(usize, f64)>,
    /// Largest `VmHWM` the supervisor or a worker of it showed, read at
    /// every line of the progress log, the closing summary included.
    peak_rss_mb: f64,
    /// The pids that peak was read from, the supervisor's first.
    rss_pids: Vec<u32>,
}

fn run_supervisor(
    bins: &Binaries,
    plan: &Path,
    out: &Path,
    resume: bool,
    t: &mut Tracer,
) -> Result<PlanRun, String> {
    let span = t.begin(if resume { "shard.resume" } else { "shard.plan" });
    let start = Instant::now();
    let mut child = shard_command(&bins.shard, plan, out, resume)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bins.shard.display()))?;
    let stderr = child.stderr.take().ok_or("supervisor stderr not captured")?;
    // Memory is read from this pid and its children while they run the
    // supervisor's executable, and from nothing else.
    let mut family = Family::new(child.id(), SHARD_BIN);
    let mut units = Vec::new();
    let mut last = start;
    let mut tail = Vec::new();
    let mut unit_span = t.begin("shard.unit");
    for line in BufReader::new(stderr).lines() {
        let Ok(line) = line else { break };
        if let Some(index) = shard_unit_done(&line) {
            let now = Instant::now();
            units.push((index, now.duration_since(last).as_secs_f64() * 1e3));
            last = now;
            t.end(unit_span);
            unit_span = t.begin("shard.unit");
        }
        family.sample();
        tail.push(line);
        if tail.len() > 8 {
            tail.remove(0);
        }
    }
    let status = child.wait().map_err(|e| format!("wait for the supervisor: {e}"))?;
    t.end(span);
    if !status.success() {
        return Err(format!("{SHARD_BIN} exited with {status}:\n{}", tail.join("\n")));
    }
    Ok(PlanRun {
        wall_s: start.elapsed().as_secs_f64(),
        units,
        peak_rss_mb: family.peak_rss_mb()?,
        rss_pids: family.read_from().to_vec(),
    })
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Everything before the first timed plan: expand the plan, write
/// it, and push one unit of every workload through the supervisor.
fn set_up<'a>(bins: &'a Binaries, work: &Path) -> Result<State<'a>, String> {
    let plan = Plan::parse(&read(Path::new(PLAN_FILE))?)?;
    let plan_path = work.join("plan.json");
    std::fs::write(&plan_path, plan.text()).map_err(|e| format!("write plan: {e}"))?;
    let warm_path = work.join("warm-up-plan.json");
    std::fs::write(&warm_path, plan.one_unit_per_workload().text())
        .map_err(|e| format!("write plan: {e}"))?;
    let warm_out = work.join("warm-up-out");
    let _ = std::fs::remove_dir_all(&warm_out);
    run_supervisor(bins, &warm_path, &warm_out, false, &mut Tracer::new(false))?;
    Ok(State {
        bins,
        plan,
        plan_path,
        out_dir: work.join("out"),
        first_rows: None,
        row_mismatches: 0,
    })
}

struct Rep {
    fresh: PlanRun,
    resume: PlanRun,
    rows: Vec<UnitRow>,
    /// Attempts beyond the first and units without a result, from the
    /// manifest the from-scratch run left.
    retries: u64,
    units_failed: u64,
}

impl Rep {
    fn wall_s(&self) -> f64 {
        self.fresh.wall_s + self.resume.wall_s
    }

    fn unit_ms(&self) -> Vec<f64> {
        self.fresh.units.iter().map(|&(_, ms)| ms).collect()
    }
}

/// One repetition: the plan from scratch, then `--resume` on its complete
/// journal. Units that did not come back `ok`, a resume that simulated
/// anything, and row artifacts that differ between repetitions all fail.
fn repetition(state: &mut State, t: &mut Tracer, outcome: &mut Outcome) -> Result<Rep, String> {
    let _ = std::fs::remove_dir_all(&state.out_dir);
    let units = state.plan.unit_count();
    t.set_op(outcome.attempted);
    outcome.attempted += units as u64;
    let fresh = run_supervisor(state.bins, &state.plan_path, &state.out_dir, false, t)?;
    let first_manifest = shard_manifest(&read(&state.out_dir.join(SHARD_MANIFEST_FILE))?)?;
    let resume = run_supervisor(state.bins, &state.plan_path, &state.out_dir, true, t)?;

    let rows_text = read(&state.out_dir.join(SHARD_ROWS_FILE))?;
    let rows = shard_rows(&rows_text)?;
    let not_ok = rows.iter().filter(|r| !r.ok).count() + units.saturating_sub(rows.len());
    for _ in 0..not_ok {
        outcome.fail("a shard unit did not finish ok".to_string());
    }
    if fresh.units.len() != units {
        outcome.fail(format!("{} of {units} units were announced done", fresh.units.len()));
    }
    // The worker simulates: a peak that left it out is not the workload's.
    if fresh.rss_pids.len() < 2 {
        return Err(format!("no worker's memory was read, only pids {:?}", fresh.rss_pids));
    }
    let manifest = shard_manifest(&read(&state.out_dir.join(SHARD_MANIFEST_FILE))?)?;
    if !(manifest.complete
        && manifest.resumed_units == units as u64
        && manifest.workers_spawned == 0)
    {
        outcome.fail(format!("--resume on a complete journal re-simulated units: {manifest:?}"));
    }
    match &state.first_rows {
        None => state.first_rows = Some(rows_text),
        Some(first) if *first != rows_text => {
            state.row_mismatches += 1;
            outcome.fail("rows.json differs from the first repetition's".to_string());
        }
        Some(_) => {}
    }
    Ok(Rep {
        fresh,
        resume,
        rows,
        retries: first_manifest.retries,
        units_failed: first_manifest.failed_units,
    })
}

/// Compare the supervisor's rows with the same units run in-process.
fn check_against_in_process(
    state: &mut State,
    rows: &[UnitRow],
    in_process: &[UnitRow],
    outcome: &mut Outcome,
) {
    if rows.len() != in_process.len() {
        state.row_mismatches += 1;
        outcome.fail(format!(
            "{} shard rows against {} in-process units",
            rows.len(),
            in_process.len()
        ));
        return;
    }
    for (shard, own) in rows.iter().zip(in_process) {
        if shard != own {
            state.row_mismatches += 1;
            outcome.fail(format!("unit {}: shard row {shard:?} but in-process {own:?}", own.name));
        }
    }
}

/// One row per unit of the plan: its latency in each repetition, and
/// what the same unit simulated when run in this process.
fn unit_rows(reps: &[&Rep], in_process: &[UnitRow]) -> Vec<ScenarioRow> {
    in_process
        .iter()
        .enumerate()
        .map(|(index, unit)| ScenarioRow {
            name: format!("unit:{}", unit.name),
            pass_ms: reps
                .iter()
                .map(|rep| {
                    let done = rep.fresh.units.iter();
                    done.filter(|&&(i, _)| i == index).map(|&(_, ms)| ms).collect()
                })
                .collect(),
            cycles: unit.cycles,
            instructions: unit.instructions,
            digest: crate::adapter::content_digest(&format!("{unit:?}")),
        })
        .collect()
}

pub fn run(args: &RunArgs, work: &Path, spans_path: &Path) -> Result<Outcome, String> {
    let bins = crate::adapter::build_binaries()?;
    let mut outcome = Outcome::default();
    // After the build above, which wants every CPU.
    crate::share_one_cpu(&mut outcome);
    if args.trace {
        return run_traced(&bins, work, spans_path, outcome);
    }
    let (mut state, setup_s) = repeat_set_up(|| set_up(&bins, work))?;
    outcome.set_from_passes("setup_s", setup_s);

    let mut t = Tracer::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(repetition(&mut state, &mut t, &mut outcome)?);
        let elapsed: f64 = reps.iter().map(Rep::wall_s).sum();
        if !another_pass(elapsed, reps.len(), args.seconds) {
            break;
        }
    }
    let (in_process, _) = state.plan.run_in_process()?;
    check_against_in_process(&mut state, &reps[0].rows, &in_process, &mut outcome);

    let units = state.plan.unit_count() as f64;
    let cycles: u64 = in_process.iter().map(|r| r.cycles).sum();
    let instructions: u64 = in_process.iter().map(|r| r.instructions).sum();
    let per_pass = |amount: f64| reps.iter().map(|r| amount / r.wall_s()).collect::<Vec<_>>();
    outcome.set_from_passes("ops_per_s", per_pass(units));
    outcome.set_from_passes("sim_cycles_per_s", per_pass(cycles as f64));
    outcome.set_from_passes("sim_instr_per_s", per_pass(instructions as f64));
    // Every repetition is a supervisor and a worker process of its own.
    outcome
        .set_peak_rss(reps.iter().map(|r| r.fresh.peak_rss_mb.max(r.resume.peak_rss_mb)).collect());
    outcome.scenarios = unit_rows(&reps.iter().collect::<Vec<_>>(), &in_process);
    outcome.set_latency_metrics()?;
    Ok(outcome)
}

fn run_traced(
    bins: &Binaries,
    work: &Path,
    spans_path: &Path,
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    let mut state = set_up(bins, work)?;
    let untraced = repetition(&mut state, &mut Tracer::new(false), &mut outcome)?;
    let mut t = Tracer::new(true);
    let traced = repetition(&mut state, &mut t, &mut outcome)?;
    outcome.set("harness.trace_overhead_pct", (traced.wall_s() / untraced.wall_s() - 1.0) * 100.0);
    outcome.set("harness.spans", t.spans().len() as f64);

    let units = state.plan.unit_count() as f64;
    outcome.set("shard.unit_ms_p50", stats::median(&untraced.unit_ms()));
    outcome.set_samples("shard.unit_ms_p50", untraced.fresh.units.len());
    outcome.set("shard.resume_ms", untraced.resume.wall_s * 1e3);
    outcome.set("shard.artifact_bytes", dir_bytes(&state.out_dir) as f64);
    outcome.set("shard.units_failed", untraced.units_failed as f64);
    outcome.set("shard.retries", untraced.retries as f64);

    // The same units in this process, and through the other executor.
    let start = Instant::now();
    let (in_process, counts) = state.plan.run_in_process()?;
    let in_process_s = start.elapsed().as_secs_f64();
    check_against_in_process(&mut state, &untraced.rows, &in_process, &mut outcome);
    outcome.set("shard.overhead_ms_per_unit", (untraced.fresh.wall_s - in_process_s) * 1e3 / units);
    outcome.set("bench.sweep_units_per_s", state.plan.sweep_units_per_s()?);
    set_count_metrics(&mut outcome, &counts);

    // Process spawn, worker start-up and tear-down: a one-unit plan.
    let one_path = work.join("one-unit-plan.json");
    std::fs::write(&one_path, state.plan.single_unit().text())
        .map_err(|e| format!("write plan: {e}"))?;
    let one_out = work.join("one-unit-out");
    let mut off = Tracer::new(false);
    outcome.set(
        "shard.spawn_ms",
        run_supervisor(bins, &one_path, &one_out, false, &mut off)?.wall_s * 1e3,
    );

    // The journal and merge paths on the finished journal's records.
    let journal = std::fs::read(state.out_dir.join(SHARD_JOURNAL_FILE))
        .map_err(|e| format!("read journal: {e}"))?;
    let (replay_ms, outcomes) = journal_replay_ms(&journal)?;
    if outcomes as f64 != units {
        outcome.fail(format!("the journal replays {outcomes} of {units} units"));
    }
    outcome.set("shard.journal_replay_ms", replay_ms);
    let appends = state.plan.journal_append_us(&journal, &work.join("probe-journal.jsonl"))?;
    outcome.set("shard.journal_append_us_p50", stats::median(&appends));
    outcome.set("bench.merge_insert_us_p50", stats::median(&state.plan.merge_insert_us(&journal)?));
    outcome.set("bench.plan_expand_us", state.plan.expand_us()?);
    outcome.set("check.shard_row_mismatches", state.row_mismatches as f64);
    outcome.scenarios = unit_rows(&[&untraced, &traced], &in_process);
    outcome.set_layers(&t);
    t.write_jsonl(spans_path).map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    Ok(outcome)
}
