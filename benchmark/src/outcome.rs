//! What one run of one workload produced, and how it is printed.

use crate::adapter::{json_array, json_bool, json_f64, json_object, json_str, json_u64, Json};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spans::{layer_self_ns, Tracer};
use crate::stats;
use std::time::Instant;

/// Times the set-up is repeated in a run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Fewest passes a run measures, so that every metric has a pass-to-pass
/// spread behind it.
pub const MIN_PASSES: usize = 2;

/// Run `set_up` [`SETUP_REPEATS`] times; the last repeat's result and the
/// seconds each repeat took.
pub fn repeat_set_up<T>(
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(set_up()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((last.ok_or("no set-up ran")?, seconds))
}

/// One row of the `scenarios` table: an op kind (a scenario and mode, a
/// request class, the units of a plan workload) with the host time of its
/// ops and the simulated counts that must repeat exactly.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    pub name: String,
    /// Milliseconds of each op of this kind, one list per pass.
    pub pass_ms: Vec<Vec<f64>>,
    pub cycles: u64,
    pub instructions: u64,
    pub digest: String,
}

impl ScenarioRow {
    fn all_ms(&self) -> Vec<f64> {
        self.pass_ms.iter().flatten().copied().collect()
    }

    /// Min, median and max wall in milliseconds, and simulated cycles per
    /// host second at the median.
    fn summary(&self) -> (f64, f64, f64, f64) {
        let ms = stats::sorted(&self.all_ms());
        let median = stats::median(&ms);
        let rate = if median > 0.0 { self.cycles as f64 / (median / 1e3) } else { 0.0 };
        (ms.first().copied().unwrap_or(0.0), median, ms.last().copied().unwrap_or(0.0), rate)
    }
}

/// The middle and the slowest of a set of op kinds, each given as its
/// ops' latencies: indices into `kinds`. Kinds are ranked by their median
/// latency; the middle kind is the one holding the median op when every
/// op is given its kind's median (so a kind counts by its share of the
/// ops). `None` when no kind has an op.
fn middle_and_slowest(kinds: &[Vec<f64>]) -> Option<(usize, usize)> {
    let mut ranked: Vec<(f64, usize)> = kinds
        .iter()
        .enumerate()
        .filter(|(_, ms)| !ms.is_empty())
        .map(|(i, ms)| (stats::median(ms), i))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: usize = ranked.iter().map(|&(_, i)| kinds[i].len()).sum();
    let mut below = 0;
    let middle = ranked.iter().find(|&&(_, i)| {
        below += kinds[i].len();
        below * 2 >= total
    })?;
    Some((middle.1, ranked.last()?.1))
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
    /// Per-pass values behind a metric, for the pass-to-pass spread.
    passes: Vec<(&'static str, Vec<f64>)>,
    /// Samples behind a metric (ops timed, requests, units).
    samples: Vec<(&'static str, u64)>,
    /// The op kind a latency metric was read from.
    kinds: Vec<(&'static str, String)>,
    pub scenarios: Vec<ScenarioRow>,
    /// Self time per layer over the traced pass, in milliseconds.
    layers: Vec<(&'static str, f64)>,
    /// Failed checks and other lines worth a human's attention.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Report `value` under `name` and keep the per-pass values behind it.
    pub fn set_with_passes(&mut self, name: &'static str, value: f64, per_pass: Vec<f64>) {
        self.set(name, value);
        self.passes.push((name, per_pass));
    }

    /// Report the median of `per_pass` under `name` and keep the values.
    pub fn set_from_passes(&mut self, name: &'static str, per_pass: Vec<f64>) {
        self.set_with_passes(name, stats::median(&per_pass), per_pass);
    }

    /// Peak memory of the run: the largest of the per-pass peaks, whether
    /// one process ran every pass or each pass had a process of its own.
    pub fn set_peak_rss(&mut self, per_pass_mb: Vec<f64>) {
        let peak = per_pass_mb.iter().copied().fold(0.0, f64::max);
        self.set_with_passes("peak_rss_mb", peak, per_pass_mb);
    }

    /// The two latency metrics, from the `scenarios` table (one op kind
    /// per row): the median latency of the middle kind and of the slowest
    /// kind over every pass and, for the spread, that kind's median within
    /// each pass.
    pub fn set_latency_metrics(&mut self) -> Result<(), String> {
        let pooled: Vec<Vec<f64>> = self.scenarios.iter().map(ScenarioRow::all_ms).collect();
        let (middle, slowest) = middle_and_slowest(&pooled).ok_or("no op was timed")?;
        for (name, kind) in [("op_ms_mid_kind", middle), ("op_ms_slowest_kind", slowest)] {
            let row = &self.scenarios[kind];
            let per_pass =
                row.pass_ms.iter().filter(|ms| !ms.is_empty()).map(|ms| stats::median(ms));
            let (per_pass, kind_name) = (per_pass.collect(), row.name.clone());
            self.samples.push((name, pooled[kind].len() as u64));
            self.kinds.push((name, kind_name));
            self.set_with_passes(name, stats::median(&pooled[kind]), per_pass);
        }
        Ok(())
    }

    pub fn set_samples(&mut self, name: &'static str, n: usize) {
        self.samples.push((name, n as u64));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Charge the traced pass's spans to their layers (a span's time
    /// minus the part its children cover).
    pub fn set_layers(&mut self, t: &Tracer) {
        self.layers =
            layer_self_ns(t.spans()).into_iter().map(|(l, ns)| (l, ns as f64 / 1e6)).collect();
    }

    /// Count one failed op and say why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(why);
    }

    fn defs(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every metric of the run's kind in catalogue order. A per-layer
    /// metric the workload did not produce is 0 (the layer did no work);
    /// a missing end-to-end metric is a harness bug.
    fn listed(&self, trace: bool) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        Self::defs(trace)
            .iter()
            .map(|def| match self.get(def.name) {
                Some(v) if v.is_finite() => Ok((def, v)),
                Some(v) => Err(format!("metric {} is {v}", def.name)),
                None if trace => Ok((def, 0.0)),
                None => Err(format!("end-to-end metric {} was not measured", def.name)),
            })
            .collect()
    }

    /// The contract's result object: one line, last on standard output.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let metrics = self
            .listed(trace)?
            .into_iter()
            .map(|(def, v)| {
                (def.name, json_object(vec![("value", json_f64(v)), ("unit", json_str(def.unit))]))
            })
            .collect();
        Ok(json_object(vec![
            ("correct", json_bool(self.failed == 0)),
            ("attempted", json_u64(self.attempted)),
            ("failed", json_u64(self.failed)),
            ("metrics", json_object(metrics)),
        ])
        .to_string())
    }

    /// The human-readable listing: every metric by name with its unit,
    /// sample count and pass-to-pass spread.
    pub fn print_table(&self, workload: &str, trace: bool) -> Result<(), String> {
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# {workload}: attempted {} failed {} failed_share {failed_share}",
            self.attempted, self.failed
        );
        for (def, v) in self.listed(trace)? {
            let samples = self.samples.iter().find(|(n, _)| *n == def.name);
            let passes = self.passes.iter().find(|(n, _)| *n == def.name);
            let mut line = format!("{:<32} {v:>16.6} {:<10}", def.name, def.unit);
            if let Some((_, n)) = samples {
                line.push_str(&format!(" samples={n}"));
            }
            if let Some((_, kind)) = self.kinds.iter().find(|(n, _)| *n == def.name) {
                line.push_str(&format!(" kind={kind}"));
            }
            if let Some((_, per_pass)) = passes {
                line.push_str(&format!(
                    " passes={} iqr/median={:.4}",
                    per_pass.len(),
                    stats::iqr_share(per_pass)
                ));
            }
            println!("{}", line.trim_end());
        }
        for (layer, ms) in &self.layers {
            println!("layer {layer:<12} self_ms {ms:.3}");
        }
        for row in &self.scenarios {
            let (min, median, max, rate) = row.summary();
            println!(
                "scenario {:<40} wall_ms min {min:.3} median {median:.3} max {max:.3} cycles {} \
                 instr {} cycles/s {rate:.0} digest {}",
                row.name, row.cycles, row.instructions, row.digest,
            );
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        Ok(())
    }

    /// The detail document `report` collects and `compare` reads.
    pub fn to_json(&self, trace: bool) -> Result<Json, String> {
        let metrics = self
            .listed(trace)?
            .into_iter()
            .map(|(def, v)| {
                let mut fields = vec![("value", json_f64(v)), ("unit", json_str(def.unit))];
                if let Some((_, n)) = self.samples.iter().find(|(n, _)| *n == def.name) {
                    fields.push(("samples", json_u64(*n)));
                }
                if let Some((_, kind)) = self.kinds.iter().find(|(n, _)| *n == def.name) {
                    fields.push(("kind", json_str(kind)));
                }
                if let Some((_, p)) = self.passes.iter().find(|(n, _)| *n == def.name) {
                    fields.push(("passes", json_array(p.iter().map(|&x| json_f64(x)).collect())));
                }
                (def.name, json_object(fields))
            })
            .collect();
        let scenarios = self
            .scenarios
            .iter()
            .map(|row| {
                let (min, median, max, rate) = row.summary();
                json_object(vec![
                    ("name", json_str(&row.name)),
                    ("wall_ms_min", json_f64(min)),
                    ("wall_ms_median", json_f64(median)),
                    ("wall_ms_max", json_f64(max)),
                    ("samples", json_u64(row.pass_ms.iter().map(Vec::len).sum::<usize>() as u64)),
                    ("cycles", json_u64(row.cycles)),
                    ("instructions", json_u64(row.instructions)),
                    ("cycles_per_s", json_f64(rate)),
                    ("digest", json_str(&row.digest)),
                ])
            })
            .collect();
        Ok(json_object(vec![
            ("attempted", json_u64(self.attempted)),
            ("failed", json_u64(self.failed)),
            ("metrics", json_object(metrics)),
            (
                "layer_self_ms",
                json_object(self.layers.iter().map(|(l, ms)| (*l, json_f64(*ms))).collect()),
            ),
            ("scenarios", json_array(scenarios)),
            ("notes", json_array(self.notes.iter().map(|n| json_str(n)).collect())),
        ]))
    }
}

/// How many whole passes to measure: the count nearest to `seconds`, at
/// least [`MIN_PASSES`]. Called after each pass with the time spent so
/// far.
pub fn another_pass(elapsed_s: f64, passes_done: usize, seconds: f64) -> bool {
    let mean = elapsed_s / passes_done.max(1) as f64;
    passes_done < MIN_PASSES || elapsed_s + mean / 2.0 < seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_round_to_the_nearest_whole_count() {
        // 2.5 s passes against 10 s: four passes.
        assert!(another_pass(2.5, 1, 10.0));
        assert!(another_pass(7.5, 3, 10.0));
        assert!(!another_pass(10.0, 4, 10.0));
        // A pass longer than the budget is still measured twice, so the
        // run has a spread to show.
        assert!(another_pass(11.0, 1, 10.0));
        assert!(!another_pass(22.0, 2, 10.0));
        // 3.9 s passes: 7.8 + 1.95 < 10, so a third is nearer than two.
        assert!(another_pass(7.8, 2, 10.0));
        assert!(!another_pass(11.7, 3, 10.0));
    }

    #[test]
    fn latency_metrics_come_from_the_middle_and_the_slowest_kind() {
        let row = |name: &str, pass_ms: Vec<Vec<f64>>| ScenarioRow {
            name: name.to_string(),
            pass_ms,
            cycles: 0,
            instructions: 0,
            digest: String::new(),
        };
        // Three kinds of one op per pass: the middle kind is the second.
        let mut o = Outcome {
            scenarios: vec![
                row("slow", vec![vec![90.0], vec![110.0]]),
                row("fast", vec![vec![1.0], vec![3.0]]),
                row("medium", vec![vec![10.0], vec![14.0]]),
            ],
            ..Default::default()
        };
        o.set_latency_metrics().unwrap();
        assert_eq!(o.get("op_ms_mid_kind"), Some(12.0));
        assert_eq!(o.get("op_ms_slowest_kind"), Some(100.0));
        assert_eq!(
            o.kinds,
            [("op_ms_mid_kind", "medium".into()), ("op_ms_slowest_kind", "slow".into())]
        );
        assert_eq!(o.passes[0], ("op_ms_mid_kind", vec![10.0, 14.0]));
        assert_eq!(o.passes[1], ("op_ms_slowest_kind", vec![90.0, 110.0]));
        // A kind counts by its share of the ops: 19 hits and one slow miss
        // have the hits in the middle, the miss as the slowest.
        let mut o = Outcome {
            scenarios: vec![row("miss", vec![vec![5.0]]), row("hit", vec![vec![0.1; 19]])],
            ..Default::default()
        };
        o.set_latency_metrics().unwrap();
        assert_eq!(o.get("op_ms_mid_kind"), Some(0.1));
        assert_eq!(o.get("op_ms_slowest_kind"), Some(5.0));
        assert_eq!(o.samples, [("op_ms_mid_kind", 19), ("op_ms_slowest_kind", 1)]);
        // Nothing timed is an error, not a zero.
        assert!(Outcome::default().set_latency_metrics().is_err());
    }

    #[test]
    fn a_missing_end_to_end_metric_is_an_error_and_a_missing_layer_is_zero() {
        let mut o = Outcome { attempted: 1, ..Default::default() };
        o.set("sim.run_ms", 2.0);
        assert!(o.result_line(false).is_err());
        let line = o.result_line(true).unwrap();
        assert!(line.contains("\"sim.run_ms\":{\"value\":2"), "{line}");
        assert!(line.contains("\"harness.spans\":{\"value\":0"), "{line}");
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{"));
    }
}
