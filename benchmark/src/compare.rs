//! `report` runs every workload, traced and untraced, into one document;
//! `compare` holds two such documents against the bounds in
//! `BENCHMARK.json`.

use crate::adapter::{json_f64, json_object, json_u64, parse_json, Json};
use crate::metrics::{self, Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use std::path::{Path, PathBuf};
use std::process::Command;

const BENCHMARK_JSON: &str = "BENCHMARK.json";

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `report --out FILE [--seed N] [--seconds S]`: run the six workloads,
/// each untraced and traced in a child of this binary, and collect their
/// detail documents. Returns whether every op of every run was correct.
pub fn report_command(args: &[String]) -> Result<bool, String> {
    let mut out: Option<PathBuf> = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(value()?)),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            other => return Err(format!("report: unknown argument {other:?}")),
        }
    }
    let out = out.ok_or("report needs --out FILE")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let scratch = out.with_extension("part.json");
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let mut kinds = Vec::new();
        for (key, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let status = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .arg("--out")
                .arg(&scratch)
                .status()
                .map_err(|e| format!("run {workload}: {e}"))?;
            if !status.success() {
                return Err(format!("{workload} --trace {trace} exited with {status}"));
            }
            let doc = read_json(&scratch)?;
            all_correct &= doc.get("failed").and_then(Json::as_u64) == Some(0);
            kinds.push((key, doc));
        }
        workloads.push((*workload, json_object(kinds)));
    }
    let _ = std::fs::remove_file(&scratch);
    let doc = json_object(vec![
        ("seed", json_u64(seed)),
        ("seconds", json_f64(seconds)),
        ("workloads", json_object(workloads)),
    ]);
    std::fs::write(&out, format!("{}\n", doc.to_string_pretty()))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

/// One metric of one workload in one report.
struct Reading {
    value: f64,
    /// Pass-to-pass interquartile spread as a share of the median; `None`
    /// when the report has fewer than two passes behind the value.
    spread: Option<f64>,
}

fn reading(report: &Json, workload: &str, kind: &str, metric: &str) -> Option<Reading> {
    let m = report.get("workloads")?.get(workload)?.get(kind)?.get("metrics")?.get(metric)?;
    let passes: Vec<f64> = m
        .get("passes")
        .and_then(Json::as_array)
        .map(|p| p.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    let spread = (passes.len() >= 2).then(|| stats::iqr_share(&passes));
    Some(Reading { value: m.get("value")?.as_f64()?, spread })
}

fn failed_ops(report: &Json, workload: &str, kind: &str) -> u64 {
    report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(kind))
        .and_then(|k| k.get("failed"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The `scenarios` table of one run as `(name, cycles, instructions,
/// digest)` rows.
fn scenario_rows(report: &Json, workload: &str, kind: &str) -> Vec<(String, u64, u64, String)> {
    let rows = report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(kind))
        .and_then(|k| k.get("scenarios"))
        .and_then(Json::as_array)
        .unwrap_or_default();
    rows.iter()
        .map(|r| {
            let text = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
            let number = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
            (text("name"), number("cycles"), number("instructions"), text("digest"))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => b / a - 1.0,
        Better::Higher => 1.0 - b / a,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    Unchanged,
    /// Within the bound, but the runs' own spread is wider than the
    /// bound or unknown, so "no change" cannot be told from noise.
    Unresolved,
    Regressed,
}

fn verdict(worse_by: f64, spread: Option<f64>, bound: f64) -> Verdict {
    if worse_by > bound {
        Verdict::Regressed
    } else if spread.is_none_or(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn bounds(bench: &Json) -> Result<Vec<(String, f64)>, String> {
    bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// `compare A.json B.json`: per metric × workload print both values, the
/// ratio with its base and the bound. Returns `false` (exit 1) on any
/// breach, failed op, or simulated count that differs between reports of
/// one seed.
pub fn compare_command(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two report files".to_string());
    };
    let (a_path, b_path) = (Path::new(a_path), Path::new(b_path));
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let bounds = bounds(&read_json(Path::new(BENCHMARK_JSON))?)?;
    let same_seed = a.get("seed").and_then(Json::as_u64) == b.get("seed").and_then(Json::as_u64);
    let mut ok = true;

    println!("base A = {}, B = {}; ratio is B/A", a_path.display(), b_path.display());
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound", "spread"
    );
    for workload in WORKLOADS {
        for def in END_TO_END {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == def.name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
            let (Some(ra), Some(rb)) = (
                reading(&a, workload, "end_to_end", def.name),
                reading(&b, workload, "end_to_end", def.name),
            ) else {
                println!("{workload:<14} {:<20} missing from a report", def.name);
                ok = false;
                continue;
            };
            // The wider of the two reports' spreads; unknown if either is.
            let spread = ra.spread.zip(rb.spread).map(|(sa, sb)| sa.max(sb));
            let v = verdict(worsening(def, ra.value, rb.value), spread, bound);
            ok &= v != Verdict::Regressed;
            println!(
                "{workload:<14} {:<20} {:>16.6} {:>16.6} {:>9.4} {bound:>7.3} {:>8}  {}",
                def.name,
                ra.value,
                rb.value,
                rb.value / ra.value,
                spread.map_or("n/a".to_string(), |s| format!("{s:.4}")),
                match v {
                    Verdict::Improved => "improved",
                    Verdict::Unchanged => "unchanged",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "REGRESSED",
                }
            );
        }
        for kind in ["end_to_end", "per_layer"] {
            for (name, report) in [("A", &a), ("B", &b)] {
                let failed = failed_ops(report, workload, kind);
                if failed > 0 {
                    println!("{workload:<14} {kind}: {failed} failed ops in {name}");
                    ok = false;
                }
            }
        }
    }

    // The seed may reorder and re-key ops but never change a scenario, so
    // simulated counts per scenario agree even across seeds. The warm
    // workload's rows are per hit class, whose share the seed's draw sets.
    for workload in WORKLOADS {
        for kind in ["end_to_end", "per_layer"] {
            if *workload == "serve-warm" && !same_seed {
                continue;
            }
            let (rows_a, rows_b) =
                (scenario_rows(&a, workload, kind), scenario_rows(&b, workload, kind));
            for row in &rows_a {
                if !rows_b.contains(row) {
                    println!("{workload:<14} {kind}: scenario {} differs between A and B", row.0);
                    ok = false;
                }
            }
            if rows_a.len() != rows_b.len() {
                println!(
                    "{workload:<14} {kind}: {} scenarios in A, {} in B",
                    rows_a.len(),
                    rows_b.len()
                );
                ok = false;
            }
        }
    }

    println!("\nper-layer metrics (no bound; counts must be equal for one seed)");
    for workload in WORKLOADS {
        for def in PER_LAYER {
            let (Some(ra), Some(rb)) = (
                reading(&a, workload, "per_layer", def.name),
                reading(&b, workload, "per_layer", def.name),
            ) else {
                continue;
            };
            if ra.value == 0.0 && rb.value == 0.0 {
                continue; // a layer this workload does not exercise
            }
            let exact = metrics::repeats_exactly(def);
            let differs = exact && same_seed && ra.value != rb.value;
            ok &= !differs;
            println!(
                "{workload:<14} {:<32} {:>18.6} {:>18.6} {:>9.4} {:<10} {}",
                def.name,
                ra.value,
                rb.value,
                rb.value / ra.value,
                def.unit,
                match (exact, differs) {
                    (true, true) => "COUNT DIFFERS",
                    (true, false) if same_seed => "equal",
                    _ => "",
                }
            );
        }
    }
    println!("\n{}", if ok { "compare: ok" } else { "compare: FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_without_two_passes_has_no_spread() {
        let report = parse_json(
            r#"{"workloads":{"w":{"end_to_end":{"metrics":{
                "none":{"value":1.0},"one":{"value":1.0,"passes":[1.0]},
                "two":{"value":2.0,"passes":[2.0,2.0]}}}}}}"#,
        )
        .unwrap();
        let spread = |metric| reading(&report, "w", "end_to_end", metric).unwrap().spread;
        assert_eq!(spread("none"), None);
        assert_eq!(spread("one"), None);
        assert_eq!(spread("two"), Some(0.0));
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = MetricDef { name: "op_ms_mid_kind", unit: "ms", better: Better::Lower };
        let higher = MetricDef { name: "ops_per_s", unit: "1/s", better: Better::Higher };
        assert!((worsening(&lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&higher, 10.0, 12.0) < 0.0);
        assert_eq!(verdict(0.06, Some(0.01), 0.05), Verdict::Regressed);
        assert_eq!(verdict(0.02, Some(0.01), 0.05), Verdict::Unchanged);
        assert_eq!(verdict(-0.2, Some(0.01), 0.05), Verdict::Improved);
        // Inside the bound but noisier than the bound: not "unchanged".
        assert_eq!(verdict(0.02, Some(0.08), 0.05), Verdict::Unresolved);
        // No spread to go by (fewer than two passes): not "unchanged"
        // either, and not "improved".
        assert_eq!(verdict(0.02, None, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(-0.2, None, 0.05), Verdict::Unresolved);
        // A breach is a breach however noisy the runs were.
        assert_eq!(verdict(0.09, Some(0.08), 0.05), Verdict::Regressed);
        assert_eq!(verdict(0.09, None, 0.05), Verdict::Regressed);
    }
}
