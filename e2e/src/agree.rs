//! `e2e agree A.jsonl B.jsonl`: whether two sets of runs of one workload on
//! one commit agree. Each file holds one summary line per run (as written
//! by `--history`). For every end-to-end metric of `BENCHMARK.json` it
//! prints each set's median, their relative difference, each set's
//! quartile spread, the bound, and PASS when the medians differ by no more
//! than the bound.

use std::path::Path;

use serde::Value;

use crate::stats::{percentile, relative_spread};

struct Bound {
    name: String,
    unit: String,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let spec = read_json(path)?;
    let list = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    list.iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
}

/// The summaries of one set: one per non-empty line.
fn runs(path: &Path) -> Result<Vec<Value>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

fn values(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failures(runs: &[Value]) -> (u64, usize) {
    let failed = runs.iter().filter_map(|r| r.get("failed")?.as_u64()).sum();
    let incorrect = runs
        .iter()
        .filter(|r| r.get("correct").and_then(Value::as_bool) != Some(true))
        .count();
    (failed, incorrect)
}

/// Runs the comparison; `Ok(true)` when every metric agrees.
pub fn run(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec = String::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            spec = it.next().ok_or("--bounds needs a file")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("usage: e2e agree A.jsonl B.jsonl [--bounds BENCHMARK.json]".into());
    };
    let bounds = bounds(Path::new(&spec))?;
    let (ra, rb) = (runs(Path::new(a))?, runs(Path::new(b))?);
    println!(
        "set A: {a} ({} runs)   set B: {b} ({} runs)",
        ra.len(),
        rb.len()
    );
    println!(
        "{:<22} {:>12} {:>12} {:>9} {:>9} {:>9} {:>7}  verdict",
        "metric", "median A", "median B", "diff", "spread A", "spread B", "bound"
    );
    let mut all_pass = true;
    for m in &bounds {
        let (va, vb) = (values(&ra, &m.name), values(&rb, &m.name));
        if va.is_empty() || vb.is_empty() {
            println!("{:<22} missing in a set  FAIL", m.name);
            all_pass = false;
            continue;
        }
        let (ma, mb) = (percentile(&va, 0.5), percentile(&vb, 0.5));
        let diff = if ma != 0.0 {
            (mb - ma).abs() / ma.abs()
        } else {
            (mb - ma).abs()
        };
        let pass = diff <= m.bound;
        all_pass &= pass;
        let spread = |v: &[f64]| relative_spread(v).map_or("-".to_string(), |s| format!("{s:.4}"));
        println!(
            "{:<22} {:>12.5} {:>12.5} {:>9.4} {:>9} {:>9} {:>7.3}  {} ({})",
            m.name,
            ma,
            mb,
            diff,
            spread(&va),
            spread(&vb),
            m.bound,
            if pass { "PASS" } else { "FAIL" },
            m.unit
        );
    }
    for (label, set) in [("A", &ra), ("B", &rb)] {
        let (failed, incorrect) = failures(set);
        println!("set {label}: {failed} failed operations, {incorrect} runs not correct");
        all_pass &= failed == 0 && incorrect == 0;
    }
    Ok(all_pass)
}
