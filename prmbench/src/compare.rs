//! `--compare A.json… -- B.json…`: for each workload × end-to-end metric,
//! the median and quartiles of both sets of result files, and a verdict
//! under `BENCHMARK.json`'s bounds:
//!
//! * `unresolved` — the run-to-run spread (quartile distance over the
//!   median) of either set is wider than the bound, and not every B run
//!   reads better than every A run;
//! * `regressed` — B's median is worse than A's by more than the bound,
//!   as a share of A's median;
//! * `ok` — otherwise.

use std::collections::BTreeMap;

use obs::json::Json;

use crate::gen::Workload;
use crate::stats::quartiles;

struct Declared {
    name: String,
    unit: String,
    higher: bool,
    bound: f64,
}

fn declared(bench: &Json) -> Result<Vec<Declared>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
            Ok(Declared {
                name: s("name").ok_or("metric without a name")?,
                unit: s("unit").unwrap_or_default(),
                higher: s("better").as_deref() == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// workload → metric → values, from untraced result files.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(files: &[String]) -> Result<Values, String> {
    let mut out = Values::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let v = obs::json::parse(&text).ok_or(format!("{f}: not JSON"))?;
        if v.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{f}: no workload"))?;
        let metrics = v
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or(format!("{f}: no metrics"))?;
        let per = out.entry(workload.to_owned()).or_default();
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Json::as_f64) {
                per.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(out)
}

fn verdict(a: &[f64], b: &[f64], higher: bool, bound: f64) -> &'static str {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let rel = |x: f64| {
        if am != 0.0 {
            x / am.abs()
        } else if x == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    };
    let spread = rel(a3 - a1).max(if bm != 0.0 { (b3 - b1) / bm.abs() } else { 0.0 });
    let worse = rel(if higher { am - bm } else { bm - am });
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let all_better = if higher { min(b) > max(a) } else { max(b) < min(a) };
    if spread > bound {
        if all_better {
            "ok"
        } else {
            "unresolved"
        }
    } else if worse > bound {
        "regressed"
    } else {
        "ok"
    }
}

/// Returns the process exit code: 0 when nothing regressed.
pub fn main(args: &[String]) -> i32 {
    match compare(args) {
        Ok(regressed) => i32::from(regressed),
        Err(e) => {
            eprintln!("prmbench --compare: {e}");
            2
        }
    }
}

fn compare(args: &[String]) -> Result<bool, String> {
    let mut bench_path = "BENCHMARK.json".to_owned();
    let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--" => side = 1,
            "--bench" => bench_path = it.next().ok_or("--bench needs a path")?.clone(),
            _ => sets[side].push(a.clone()),
        }
    }
    if sets[0].is_empty() || sets[1].is_empty() {
        return Err(
            "usage: --compare A.json... -- B.json... [--bench BENCHMARK.json]".into()
        );
    }
    let text =
        std::fs::read_to_string(&bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let bench = obs::json::parse(&text).ok_or(format!("{bench_path}: not JSON"))?;
    let metrics = declared(&bench)?;
    let (a, b) = (load(&sets[0])?, load(&sets[1])?);

    let mut regressed = false;
    println!(
        "{:<15} {:<15} {:>9} {:>38} {:>38}  verdict",
        "workload", "metric", "bound", "A median [q1, q3]", "B median [q1, q3]"
    );
    for w in Workload::ALL.map(Workload::name) {
        let (Some(wa), Some(wb)) = (a.get(w), b.get(w)) else { continue };
        for m in &metrics {
            let (Some(va), Some(vb)) = (wa.get(&m.name), wb.get(&m.name)) else {
                println!("{w:<15} {:<15} missing", m.name);
                continue;
            };
            let v = verdict(va, vb, m.higher, m.bound);
            regressed |= v == "regressed";
            let show = |x: &[f64]| {
                let (q1, med, q3) = quartiles(x);
                format!("{med:.4} [{q1:.4}, {q3:.4}] n={}", x.len())
            };
            println!(
                "{w:<15} {:<15} {:>8.0}% {:>38} {:>38}  {v} ({})",
                m.name,
                m.bound * 100.0,
                show(va),
                show(vb),
                m.unit
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &[100.0, 100.2, 99.8, 100.1, 99.9], true, 0.1), "ok");
        assert_eq!(verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], true, 0.1), "regressed");
        // Lower-is-better: a rise is the regression.
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], false, 0.1),
            "regressed"
        );
        // Spread wider than the bound: unresolved unless B wins every run.
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&noisy, &[100.0; 5], true, 0.1), "unresolved");
        assert_eq!(verdict(&noisy, &[200.0; 5], true, 0.1), "ok");
        // Exact metrics: equal values pass a zero bound.
        assert_eq!(verdict(&[8192.0; 5], &[8192.0; 5], false, 0.0), "ok");
    }
}
