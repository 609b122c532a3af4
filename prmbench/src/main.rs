//! prmbench — the repository's benchmark: SQL → estimate, CSV → model and
//! update batch → serving epoch, under four cache-pressure workloads,
//! with an opt-in traced run that splits each operation by layer.
//!
//! ```text
//! prmbench --seed N [--workload NAME] [--seconds S] [--trace [0|1]] [--out DIR]
//! prmbench --compare A.json... -- B.json... [--bench BENCHMARK.json]
//! ```
//!
//! Without `--workload` every workload runs, each in its own process so
//! registry counters and peak RSS are per workload. A run prints its
//! metrics on stderr, writes `DIR/<workload>-seed<N>[-trace]-<pid>.json`
//! (and, traced, `DIR/trace-<workload>.json`), and prints one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` as the last line of
//! stdout. It exits 1 when a correctness gate fails and 2 on bad usage.
//! See README.md for the workloads and the metric glossary.

mod compare;
mod gen;
mod run;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use obs::json::JsonWriter;

use gen::{Scale, Workload};
use run::{Outcome, RunConfig};

const USAGE: &str = "usage: prmbench --seed N [--workload NAME] [--seconds S] \
[--trace [0|1]] [--out DIR]\n       prmbench --compare A.json... -- B.json... \
[--bench BENCHMARK.json]\nworkloads: point-hot, range-scan, join-optimizer, point-maintain";

/// Inputs, CSVs and models of a run, relative to the working directory.
const SCRATCH: &str = ".prmbench";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 15,
        trace: false,
        out: Path::new(SCRATCH).join("results"),
    };
    let mut seed = None;
    let mut i = 0;
    while i < args.len() {
        let value =
            |i: usize| args.get(i + 1).ok_or(format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => {
                let v = value(i)?;
                parsed.workload =
                    Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
                i += 1;
            }
            "--seed" => {
                seed = Some(value(i)?.parse().map_err(|_| "bad --seed")?);
                i += 1;
            }
            "--seconds" => {
                parsed.seconds = value(i)?.parse().map_err(|_| "bad --seconds")?;
                if parsed.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                i += 1;
            }
            "--trace" => {
                parsed.trace = true;
                match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        parsed.trace = false;
                        i += 1;
                    }
                    Some("1") => i += 1,
                    _ => {}
                }
            }
            "--out" => {
                parsed.out = PathBuf::from(value(i)?);
                i += 1;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    parsed.seed = seed.ok_or("--seed is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        return ExitCode::from(compare::main(&args[i + 1..]) as u8);
    }
    // Results must describe the default configuration: every PRMSEL_*
    // variable changes what the program does.
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PRMSEL_"))
        .collect();
    if !set.is_empty() {
        eprintln!("prmbench: refusing to run with {} set", set.join(", "));
        return ExitCode::from(2);
    }
    let parsed = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("prmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match parsed.workload {
        Some(w) => run_one(w, &parsed),
        None => run_all(&parsed, &args),
    }
}

/// Runs every workload in a child process of its own.
fn run_all(parsed: &Args, args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("prmbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", w.name(), "--out"])
            .arg(&parsed.out)
            .status();
        let code = match status {
            Ok(s) => s.code().unwrap_or(1) as u8,
            Err(e) => {
                eprintln!("prmbench: cannot run {}: {e}", w.name());
                1
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

fn run_one(w: Workload, parsed: &Args) -> ExitCode {
    let pid = std::process::id();
    let data_dir = Path::new(SCRATCH).join("data").join(format!(
        "{}-{}-{pid}",
        w.name(),
        parsed.seed
    ));
    let cfg = RunConfig {
        workload: w,
        seed: parsed.seed,
        trace: parsed.trace,
        scale: Scale::full(parsed.seconds),
        data_dir: &data_dir,
    };
    let outcome = run::run(&cfg);
    let _ = std::fs::remove_dir_all(&data_dir);
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("prmbench: {}: {e}", w.name());
            return ExitCode::from(1);
        }
    };
    report(w, parsed, &o);
    if let Err(e) = save(w, parsed, &o, pid) {
        eprintln!("prmbench: cannot write results under {}: {e}", parsed.out.display());
    }
    println!("{}", result_line(&o));
    if o.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn report(w: Workload, parsed: &Args, o: &Outcome) {
    let mode = if parsed.trace { "traced" } else { "untraced" };
    eprintln!(
        "{} seed {} ({mode}, {} s, {} threads): {} ops, {} failed",
        w.name(),
        parsed.seed,
        parsed.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        o.attempted,
        o.failed
    );
    for m in &o.metrics {
        eprintln!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (name, v) in &o.extra {
        eprintln!("  ({name:<28} {v:>16.4})");
    }
    for p in &o.problems {
        eprintln!("  GATE FAILED: {p}");
    }
}

fn metrics_json(w: &mut JsonWriter, o: &Outcome) {
    w.key("metrics");
    w.begin_object();
    for m in &o.metrics {
        w.key(m.name);
        w.begin_object();
        w.key("value");
        w.float(m.value);
        w.key("unit");
        w.string(m.unit);
        w.end_object();
    }
    w.end_object();
}

fn status_json(w: &mut JsonWriter, o: &Outcome) {
    w.key("correct");
    w.raw(if o.correct { "true" } else { "false" });
    w.key("attempted");
    w.uint(o.attempted);
    w.key("failed");
    w.uint(o.failed);
}

/// The last line of stdout.
fn result_line(o: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    status_json(&mut w, o);
    metrics_json(&mut w, o);
    w.end_object();
    w.finish()
}

fn save(w: Workload, parsed: &Args, o: &Outcome, pid: u32) -> std::io::Result<()> {
    std::fs::create_dir_all(&parsed.out)?;
    let mut j = JsonWriter::new();
    j.begin_object();
    j.key("workload");
    j.string(w.name());
    j.key("seed");
    j.uint(parsed.seed);
    j.key("trace");
    j.raw(if parsed.trace { "true" } else { "false" });
    j.key("seconds");
    j.uint(parsed.seconds);
    status_json(&mut j, o);
    metrics_json(&mut j, o);
    j.key("extra");
    j.begin_object();
    for (name, v) in &o.extra {
        j.key(name);
        j.float(*v);
    }
    j.end_object();
    j.key("problems");
    j.begin_array();
    for p in &o.problems {
        j.string(p);
    }
    j.end_array();
    j.end_object();
    let suffix = if parsed.trace { "-trace" } else { "" };
    let name = format!("{}-seed{}{suffix}-{pid}.json", w.name(), parsed.seed);
    std::fs::write(parsed.out.join(name), j.finish())?;
    if let Some(trace) = &o.trace_json {
        std::fs::write(parsed.out.join(format!("trace-{}.json", w.name())), trace)?;
    }
    Ok(())
}
