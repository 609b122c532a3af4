//! Command implementations and argument dispatch.

use std::fmt;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use prmsel::{
    learn_prm, load_manifest, load_model, save_manifest, save_model, CpdKind,
    PrmEstimator, PrmLearnConfig, SchemaInfo, SelectivityEstimator,
};
use reldb::{load_table, parse_query, Database, DatabaseBuilder};

use crate::manifest::parse_manifest;

/// A user-facing CLI error (message already formatted).
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<reldb::Error> for CliError {
    fn from(e: reldb::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<prmsel::Error> for CliError {
    fn from(e: prmsel::Error) -> Self {
        // Lead with the failure class so scripts can branch on it.
        CliError(format!("[{}] {e}", e.class()))
    }
}

pub(crate) type CliResult<T> = std::result::Result<T, CliError>;

/// Entry point: dispatches `args` (without the program name) and returns
/// the text to print.
///
/// Logging is configured before dispatch: `PRMSEL_LOG` (or `RUST_LOG`)
/// directives first, then `-v`/`-vv`/`--verbose` flags, which raise the
/// global threshold to `Debug`/`Trace` (flags win over the environment).
pub fn run(args: &[String]) -> CliResult<String> {
    obs::init_from_env();
    let (args, verbosity) = strip_verbosity(args);
    match verbosity {
        0 => {}
        1 => obs::set_max_level(Some(obs::Level::Debug)),
        _ => obs::set_max_level(Some(obs::Level::Trace)),
    }
    match args.first().map(String::as_str) {
        Some("build") => build(&args[1..]),
        Some("estimate") => estimate(&args[1..]),
        Some("plan") => plan(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("evaluate") => evaluate(&args[1..]),
        Some("describe") => describe(&args[1..]),
        Some("maintain") => maintain(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("monitor") => crate::monitor::monitor(&args[1..]),
        Some("top") => crate::top::top(&args[1..]),
        Some("gen") => gen(&args[1..]),
        Some("--help") | Some("-h") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(CliError(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

/// Runs and converts the outcome into a process exit code, printing the
/// output (or the error, through the tracing layer as well) — the whole
/// behavior of the binary, kept in the library so it is unit-testable.
pub fn run_to_exit_code(args: &[String]) -> i32 {
    match run(args) {
        Ok(out) => {
            println!("{out}");
            0
        }
        Err(e) => {
            obs::error!("{e}");
            eprintln!("error: {e}");
            1
        }
    }
}

/// Removes `-v`, `-vv`, and `--verbose` from anywhere in the argument
/// list and returns the cleaned arguments plus the verbosity (0 = quiet,
/// 1 = debug, ≥2 = trace).
fn strip_verbosity(args: &[String]) -> (Vec<String>, u8) {
    let mut verbosity = 0u8;
    let mut rest = Vec::with_capacity(args.len());
    for a in args {
        match a.as_str() {
            "-v" | "--verbose" => verbosity = verbosity.saturating_add(1),
            "-vv" => verbosity = verbosity.saturating_add(2),
            _ => rest.push(a.clone()),
        }
    }
    (rest, verbosity)
}

const USAGE: &str = "\
prmsel — selectivity estimation using probabilistic relational models

USAGE:
  prmsel build    --csv-dir DIR --out FILE [--budget BYTES] [--cpd tree|table]
  prmsel estimate --model FILE [--strict] [--monitor HOST:PORT]
                  [--manifest FILE] [--save-manifest FILE]
                  'SELECT COUNT(*) FROM ... WHERE ...'
  prmsel plan     --model FILE 'SELECT COUNT(*) FROM ... WHERE ...'
  prmsel explain  --model FILE [--truth N | --csv-dir DIR] [--manifest FILE]
                  [--trace-json FILE] 'SELECT COUNT(*) FROM ... WHERE ...'
  prmsel inspect  --csv-dir DIR
  prmsel evaluate --model FILE --csv-dir DIR 'SELECT COUNT(*) ...'
  prmsel describe --model FILE
  prmsel maintain --model FILE --csv-dir DIR --apply DIR
                  [--watch [--watch-count N] [--interval-secs S]]
                  [--out FILE]
  prmsel stats    --csv-dir DIR [--budget BYTES] [--pretty] [--traces]
                  [--trace-json FILE] [--templates] [--window N]
                  [--monitor HOST:PORT]
  prmsel stats    --from-url HOST:PORT [--pretty]
                  [--watch SECS [--watch-count N]]
  prmsel monitor  [--addr HOST:PORT] [--csv-dir DIR] [--budget BYTES]
                  [--duration-secs S] [--port-file FILE]
  prmsel top      --addr HOST:PORT [--interval-secs S] [--once]
  prmsel gen      --csv-dir DIR [--workload census|tb|fin] [--rows N] [--seed S]

OPTIONS (all commands):
  -v / --verbose   debug logging to stderr    -vv   trace logging
  PRMSEL_LOG=...   RUST_LOG-style directives, e.g. info,prmsel::learn=debug
  PRMSEL_THREADS=N worker threads for learning/estimation (default: all
                   cores; results are identical at any thread count)
  PRMSEL_TRACE_RING=N  flight-recorder ring capacity (default 256)
  PRMSEL_PRECOMPILE=FILE  template manifest precompiled at model load
  PRMSEL_WIDTH_BUDGET=N  refuse eliminations materializing > N factor cells
  PRMSEL_DEADLINE_MS=N   per-estimate wall-clock deadline
  PRMSEL_FAILPOINTS=site=err|panic|delay:MS[,...]  fault injection (testing)
  PRMSEL_TS_INTERVAL_MS=N  timeseries sampler cadence (default 1000)
  PRMSEL_TS_WINDOW=N       timeseries ring capacity in samples (default 300)
  PRMSEL_SLO_QERROR=Q      pin the watchdog q-error threshold (default:
                           auto-seeded from the first healthy window)
  PRMSEL_SLO_WARM_NS=N     warm-latency SLO for the burn-rate check
  PRMSEL_SLO_FALLBACK=R    fallback-ratio SLO (default 0.5)
  PRMSEL_ALERT_RING=N      watchdog alert-history capacity (default 256)
  PRMSEL_DRIFT_RELEARN=D   per-row log-likelihood drift (nats) beyond which
                           the maintenance loop flags structural relearning
                           (default 0.5)
  PRMSEL_PLAN_CACHE=N      resident compiled-plan capacity (default 64)

`estimate` runs the degradation ladder (cached exact → uncached exact →
AVI → uniform guess) and reports any degradation after the estimate;
`--strict` returns the typed error instead of degrading.
`--save-manifest FILE` exports the resident query templates as a
precompile manifest; `--manifest FILE` (also `PRMSEL_PRECOMPILE=FILE`)
compiles those templates ahead of the first query so first touches are
plan-cache hits.

`explain` flight-records the query cold (plan compile) and warm (plan
replay) and prints both traces as timing trees; with `--manifest FILE`
the first trace is the precompiled first touch (plan-cache hit, no
compile phase) instead. `--truth N` (or `--csv-dir DIR` for an exact
count) attaches the q-error, and `--trace-json FILE` writes the traces
as Chrome trace_event JSON for chrome://tracing / Perfetto.

`stats` builds a model, runs an example workload, and dumps the metrics
registry (JSON by default, a table with --pretty); `--traces` appends a
per-query flight-trace summary and `--trace-json FILE` exports the ring.

`monitor` serves the HTTP observability plane — GET /metrics (OpenMetrics
text exposition), /traces + /traces/chrome + /traces/worst (flight-
recorder ring), /timeseries (windowed rates + quantiles from the sampler
ring), /alerts (drift-watchdog state), /health (degradation-guard
verdict, 503 when degraded or a critical alert fires), /buildinfo —
while replaying the example workload so every endpoint has live data;
`--addr 127.0.0.1:0` picks an ephemeral port and `--port-file` publishes
it. `--monitor HOST:PORT` on `estimate`/`stats` serves the same
endpoints for the duration of the command. `stats --from-url` scrapes a
live /metrics, lint-validates the exposition, and renders it; `--watch
SECS` repeats the scrape and prints per-interval deltas instead of
cumulative totals; `stats --templates` appends per-template q-error and
warm-latency quantiles; `stats --window N` runs the sampler during the
workload and appends N windows of live rates.

`top` is a live dashboard over a running monitor: qps, warm-latency, and
q-error sparklines from /timeseries, cache hit ratios from /metrics, and
firing watchdog alerts from /alerts; `--once` prints a single frame.

`maintain` is the zero-downtime update path: it loads the model, seeds
incremental sufficient statistics from the base `--csv-dir` data, diffs
`--apply DIR` (same schema, updated rows) against it, and folds the
changes in as an O(batch) delta refit + epoch hot swap — printing the
new epoch, rows applied, and drift verdict. `--watch` keeps polling the
apply directory and re-applying whatever changed (`--watch-count N`
stops after N polls); `--out FILE` saves the refreshed model.

`gen` writes a synthetic workload database as <table>.csv + schema.txt,
ready for `build`/`stats`.

DIR must contain <table>.csv files plus schema.txt (see the manifest docs).";

pub(crate) fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

pub(crate) fn required<'a>(args: &'a [String], flag: &str) -> CliResult<&'a str> {
    flag_value(args, flag).ok_or_else(|| CliError(format!("missing `{flag}`\n{USAGE}")))
}

/// Loads the CSV directory into a database.
pub fn load_csv_dir(dir: &Path) -> CliResult<Database> {
    let manifest_path = dir.join("schema.txt");
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| CliError(format!("cannot read {}: {e}", manifest_path.display())))?;
    let decls = parse_manifest(&text)?;
    let mut builder = DatabaseBuilder::new();
    for decl in &decls {
        let csv = dir.join(format!("{}.csv", decl.schema.table));
        builder = builder.add_table(load_table(&csv, &decl.schema)?);
    }
    Ok(builder.finish()?)
}

/// Replaces `path` with the bytes `write` produces, crash-safely. The
/// bytes go to a temporary file in the same directory, which is flushed
/// and synced, then renamed over `path`; the directory is synced last. A
/// crash therefore leaves either the old file or the complete new one —
/// never a torn mix, even when `path` is also the input being replaced.
/// On error the temporary file is removed and `path` is left untouched.
fn save_atomically(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> prmsel::Result<()>,
) -> CliResult<()> {
    let fail = |what: &str, e: std::io::Error| {
        CliError(format!("cannot {what} {}: {e}", path.display()))
    };
    let name = path.file_name().ok_or_else(|| {
        CliError(format!("cannot create {}: not a file path", path.display()))
    })?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let tmp = dir.join(format!(".{}.{}.tmp", name.to_string_lossy(), std::process::id()));
    let written = (|| {
        let mut out = BufWriter::new(File::create(&tmp).map_err(|e| fail("create", e))?);
        write(&mut out)?;
        let file = out.into_inner().map_err(|e| fail("write", e.into_error()))?;
        file.sync_all().map_err(|e| fail("sync", e))?;
        std::fs::rename(&tmp, path).map_err(|e| fail("replace", e))
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written?;
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| fail("sync the directory of", e))
}

fn build(args: &[String]) -> CliResult<String> {
    let dir = PathBuf::from(required(args, "--csv-dir")?);
    let out = PathBuf::from(required(args, "--out")?);
    let budget: usize = flag_value(args, "--budget")
        .map(|v| v.parse().map_err(|_| CliError(format!("bad --budget `{v}`"))))
        .transpose()?
        .unwrap_or(8192);
    let cpd_kind = match flag_value(args, "--cpd") {
        None | Some("tree") => CpdKind::Tree,
        Some("table") => CpdKind::Table,
        Some(other) => return Err(CliError(format!("bad --cpd `{other}` (tree|table)"))),
    };
    let db = load_csv_dir(&dir)?;
    let config = PrmLearnConfig { budget_bytes: budget, cpd_kind, ..Default::default() };
    let prm = learn_prm(&db, &config)?;
    let schema = SchemaInfo::from_db(&db)?;
    save_atomically(&out, |w| save_model(&prm, &schema, w))?;
    Ok(format!(
        "built {} ({} bytes model, {} tables, {} rows scanned)\n{}",
        out.display(),
        prm.size_bytes(),
        db.tables().len(),
        db.total_rows(),
        prm.describe()
    ))
}

fn open_estimator(args: &[String]) -> CliResult<PrmEstimator> {
    let path = PathBuf::from(required(args, "--model")?);
    let file = std::fs::File::open(&path)
        .map_err(|e| CliError(format!("cannot open {}: {e}", path.display())))?;
    let (prm, schema) = load_model(std::io::BufReader::new(file))?;
    let est = PrmEstimator::from_parts(prm, schema, "PRM");
    if let Some(manifest) = flag_value(args, "--manifest") {
        let file = std::fs::File::open(manifest)
            .map_err(|e| CliError(format!("cannot open {manifest}: {e}")))?;
        let keys = load_manifest(std::io::BufReader::new(file))?;
        let n = est.precompile(&keys);
        obs::info!("precompiled {n} of {} manifest template(s)", keys.len());
    }
    Ok(est)
}

fn estimate(args: &[String]) -> CliResult<String> {
    // `--strict` is a bare flag; strip it before positional-SQL detection
    // (which assumes every `--flag` consumes the following value).
    let strict = args.iter().any(|a| a == "--strict");
    let args: Vec<String> =
        args.iter().filter(|a| a.as_str() != "--strict").cloned().collect();
    let monitor = crate::monitor::maybe_serve(&args)?;
    let est = open_estimator(&args)?;
    // The SQL is the first non-flag argument (flags consume their values).
    let sql = sql_arg(&args)?;
    let query = parse_query(sql)?;
    let mut ladder = prmsel::ResilientEstimator::new(est);
    ladder.set_strict(strict);
    let outcome = ladder.estimate_query(&query);
    let degraded = outcome.degraded();
    let size = outcome.result?;
    let mut out = format!("{size:.1}");
    if degraded {
        out.push_str(&format!("\ndegraded: answered by {}", outcome.rung));
        for (rung, err) in &outcome.degradations {
            out.push_str(&format!("\n  {rung}: {err}"));
        }
    }
    if let Some(path) = flag_value(&args, "--save-manifest") {
        let keys = ladder.inner().plan_keys();
        save_atomically(Path::new(path), |w| save_manifest(&keys, w))?;
        out.push_str(&format!(
            "\nwrote template manifest ({} template(s)) to {path}",
            keys.len()
        ));
    }
    if let Some(server) = monitor {
        out.push_str(&format!("\nmonitor: served http://{}", server.addr()));
    }
    Ok(out)
}

fn sql_arg(args: &[String]) -> CliResult<&str> {
    args.iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--") && (*i == 0 || !args[i - 1].starts_with("--"))
        })
        .map(|(_, a)| a.as_str())
        .next()
        .ok_or_else(|| CliError(format!("missing SQL query\n{USAGE}")))
}

fn plan(args: &[String]) -> CliResult<String> {
    let est = open_estimator(args)?;
    let sql = sql_arg(args)?;
    let query = parse_query(sql)?;
    let plans = prmsel::enumerate_plans(&est, &query)?;
    let mut out = String::new();
    out.push_str("join order                                estimated cost\n");
    for p in &plans {
        let label: Vec<&str> = p.order.iter().map(|&v| query.vars[v].as_str()).collect();
        out.push_str(&format!("{:<42} {:>14.1}\n", label.join(" JOIN "), p.cost));
    }
    Ok(out)
}

/// Static explanation (closure / network arithmetic) plus two flight
/// traces of the same query: cold (plan-cache miss, compile recorded)
/// and warm (replay). With ground truth available the warm trace also
/// carries the q-error.
fn explain(args: &[String]) -> CliResult<String> {
    let est = open_estimator(args)?;
    let query = parse_query(sql_arg(args)?)?;
    let mut out = est.explain(&query)?;

    // With a precompiled template manifest (`--manifest`) the first trace
    // shows the production first touch: a plan-cache hit with no compile
    // phase. Without one, start cold so the compile cost is on display.
    let precompiled = flag_value(args, "--manifest").is_some();
    if !precompiled {
        est.clear_plan_cache();
    }
    obs::flight::set_recording(true);
    let cold_result = est.estimate(&query);
    let cold = obs::flight::ring().find(obs::flight::last_finished_id());
    let warm_result = est.estimate(&query);
    let warm_id = obs::flight::last_finished_id();
    let estimate = match cold_result.and(warm_result) {
        Ok(e) => e,
        Err(e) => {
            obs::flight::set_recording(false);
            return Err(e.into());
        }
    };

    // Ground truth: `--truth N` wins; otherwise `--csv-dir DIR` runs the
    // exact count. Attaching must happen while recording is still on.
    let truth = match flag_value(args, "--truth") {
        Some(v) => {
            Some(v.parse::<u64>().map_err(|_| CliError(format!("bad --truth `{v}`")))?)
        }
        None => match flag_value(args, "--csv-dir") {
            Some(dir) => {
                let db = load_csv_dir(Path::new(dir))?;
                Some(reldb::result_size(&db, &query)?)
            }
            None => None,
        },
    };
    if let Some(t) = truth {
        prmsel::record_quality(t, estimate);
    }
    obs::flight::set_recording(false);
    let warm = obs::flight::ring().find(warm_id);

    let mut traces = Vec::new();
    if let Some(t) = cold {
        if precompiled {
            out.push_str("\nflight trace (first touch, precompiled plan replayed):\n");
        } else {
            out.push_str("\nflight trace (cold, plan compiled):\n");
        }
        out.push_str(&t.to_explain_tree());
        traces.push(t);
    }
    if let Some(t) = warm {
        out.push_str("\nflight trace (warm, plan replayed):\n");
        out.push_str(&t.to_explain_tree());
        traces.push(t);
    }
    if let Some(path) = flag_value(args, "--trace-json") {
        let json = obs::flight::to_chrome_trace(&traces);
        std::fs::write(path, json)
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!(
            "\nwrote {} trace event(s) to {path} (chrome://tracing)\n",
            traces.iter().map(|t| t.chrome_event_count()).sum::<usize>()
        ));
    }
    Ok(out)
}

fn inspect(args: &[String]) -> CliResult<String> {
    let dir = PathBuf::from(required(args, "--csv-dir")?);
    let db = load_csv_dir(&dir)?;
    Ok(db.summary())
}

/// Estimate AND exact count side by side (needs both the model and the
/// data) — the verification loop for a new deployment.
fn evaluate(args: &[String]) -> CliResult<String> {
    let est = open_estimator(args)?;
    let dir = PathBuf::from(required(args, "--csv-dir")?);
    let db = load_csv_dir(&dir)?;
    let query = parse_query(sql_arg(args)?)?;
    let estimate = est.estimate(&query)?;
    let exact = reldb::result_size(&db, &query)?;
    let err = 100.0 * prmsel::adjusted_relative_error(exact, estimate);
    Ok(format!(
        "estimate: {estimate:.1}\nexact:    {exact}\nadjusted relative error: {err:.1}%"
    ))
}

/// Builds a model from the CSV directory, runs an example workload
/// through it (recording estimation-quality metrics against exact
/// counts), and dumps the process-global metrics registry: structure-
/// search step counts, model bytes, estimate-latency and QEBN-size
/// histograms, executor row counts, and per-phase span timings.
fn stats(args: &[String]) -> CliResult<String> {
    let pretty = args.iter().any(|a| a == "--pretty");
    if let Some(addr) = flag_value(args, "--from-url") {
        if let Some(secs) = flag_value(args, "--watch") {
            let secs: f64 =
                secs.parse().map_err(|_| CliError(format!("bad --watch `{secs}`")))?;
            let count: Option<u64> = flag_value(args, "--watch-count")
                .map(|v| {
                    v.parse().map_err(|_| CliError(format!("bad --watch-count `{v}`")))
                })
                .transpose()?;
            return crate::monitor::stats_watch(addr, secs, count);
        }
        return crate::monitor::stats_from_url(addr, pretty);
    }
    let monitor = crate::monitor::maybe_serve(args)?;
    let templates = args.iter().any(|a| a == "--templates");
    let dir = PathBuf::from(required(args, "--csv-dir")?);
    let budget: usize = flag_value(args, "--budget")
        .map(|v| v.parse().map_err(|_| CliError(format!("bad --budget `{v}`"))))
        .transpose()?
        .unwrap_or(8192);
    let db = load_csv_dir(&dir)?;
    let config = PrmLearnConfig { budget_bytes: budget, ..Default::default() };
    let est = PrmEstimator::build(&db, &config)?;
    // Run the workload through the degradation ladder so the
    // `prm.guard.*` counters land in the registry snapshot.
    let est = prmsel::ResilientEstimator::new(est).with_avi_fallback(&db)?;
    let queries = example_workload(&db)?;
    obs::info!("stats workload: {} example queries", queries.len());
    let want_traces = args.iter().any(|a| a == "--traces")
        || flag_value(args, "--trace-json").is_some();
    if want_traces {
        obs::flight::ring().clear();
        obs::flight::set_recording(true);
    }
    if templates {
        prmsel::set_template_telemetry(true);
    }
    // `--window N`: run the sampler at a fast cadence and keep replaying
    // the workload until N windows have closed, so the windowed table
    // below reports live rates instead of cumulative totals.
    let window: Option<usize> = flag_value(args, "--window")
        .map(|v| v.parse().map_err(|_| CliError(format!("bad --window `{v}`"))))
        .transpose()?;
    let eval = match window {
        None => prmsel::evaluate_suite(&db, &est, &queries),
        Some(n) => {
            obs::timeseries::series().clear();
            let sampler = obs::timeseries::Sampler::start_with(
                std::time::Duration::from_millis(100),
            );
            let mut last = prmsel::evaluate_suite(&db, &est, &queries);
            while last.is_ok() && obs::timeseries::series().len() < n + 1 {
                last = prmsel::evaluate_suite(&db, &est, &queries);
            }
            sampler.stop();
            last
        }
    };
    if templates {
        prmsel::set_template_telemetry(false);
    }
    if want_traces {
        obs::flight::set_recording(false);
    }
    eval?;
    let snap = obs::registry().snapshot();
    let mut out = if pretty { snap.to_pretty() } else { snap.to_json() };
    if let Some(n) = window {
        out.push_str(&crate::monitor::windowed_table(
            &obs::timeseries::series().windows(n),
        ));
    }
    if templates {
        out.push_str(&crate::monitor::template_table(&snap, &queries));
    }
    let guard_queries = obs::counter!("prm.guard.queries").get();
    let guard_fallback = obs::counter!("prm.guard.fallback").get();
    out.push_str(&format!(
        "\nguard: {guard_queries} queries, {guard_fallback} fallback \
         (ratio {:.3}); budget={} deadline={} panic={}",
        if guard_queries > 0 {
            guard_fallback as f64 / guard_queries as f64
        } else {
            0.0
        },
        obs::counter!("prm.guard.budget").get(),
        obs::counter!("prm.guard.deadline").get(),
        obs::counter!("prm.guard.panic").get(),
    ));
    out.push_str(&format!(
        "\nmaintain: epoch {} (staleness {} ms); {} batches, {} rows, \
         {} refits, {} swaps, {} relearn, {} rejected",
        prmsel::model_epoch(),
        prmsel::model_staleness_ms(),
        obs::counter!("prm.maintain.batches").get(),
        obs::counter!("prm.maintain.rows").get(),
        obs::counter!("prm.maintain.refits").get(),
        obs::counter!("prm.maintain.swaps").get(),
        obs::counter!("prm.maintain.relearn").get(),
        obs::counter!("prm.maintain.rejected").get(),
    ));
    if want_traces {
        let traces = obs::flight::ring().snapshot();
        if args.iter().any(|a| a == "--traces") {
            out.push_str(&format!("\nflight traces ({} recorded):\n", traces.len()));
            out.push_str("  id     total_us  plan  q-error  estimate      query\n");
            for t in &traces {
                let plan = match t.plan_hit {
                    Some(true) => "HIT ",
                    Some(false) => "MISS",
                    None => "-   ",
                };
                let q = t
                    .q_error
                    .map(|q| format!("{q:>7.2}"))
                    .unwrap_or_else(|| "      -".to_owned());
                let e = t
                    .estimate
                    .map(|e| format!("{e:>12.1}"))
                    .unwrap_or_else(|| "           -".to_owned());
                out.push_str(&format!(
                    "  {:<5} {:>9.1}  {plan}  {q} {e}      {}\n",
                    t.id,
                    t.total_ns as f64 / 1e3,
                    t.label
                ));
            }
        }
        if let Some(path) = flag_value(args, "--trace-json") {
            let json = obs::flight::to_chrome_trace(&traces);
            std::fs::write(path, json)
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            out.push_str(&format!(
                "\nwrote {} trace(s) to {path} (chrome://tracing)\n",
                traces.len()
            ));
        }
    }
    if let Some(server) = monitor {
        out.push_str(&format!("\nmonitor: served http://{}", server.addr()));
    }
    Ok(out)
}

/// Writes `db` into `dir` as one CSV per table plus a `schema.txt`
/// manifest — the inverse of [`load_csv_dir`].
pub fn write_csv_dir(db: &Database, dir: &Path) -> CliResult<()> {
    use reldb::csv::{schema_of, write_table};
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError(format!("cannot create {}: {e}", dir.display())))?;
    let mut manifest = String::new();
    for table in db.tables() {
        let path = dir.join(format!("{}.csv", table.name()));
        let file = std::fs::File::create(&path)
            .map_err(|e| CliError(format!("cannot create {}: {e}", path.display())))?;
        write_table(table, std::io::BufWriter::new(file), ',')?;
        manifest.push_str(&format!("table {}\n", table.name()));
        for (name, col) in schema_of(table).columns {
            match col {
                reldb::CsvColumn::Key => manifest.push_str(&format!("key {name}\n")),
                reldb::CsvColumn::ForeignKey(t) => {
                    manifest.push_str(&format!("fk {name} {t}\n"))
                }
                reldb::CsvColumn::IntValue => manifest.push_str(&format!("int {name}\n")),
                reldb::CsvColumn::StrValue => manifest.push_str(&format!("str {name}\n")),
            }
        }
        manifest.push('\n');
    }
    std::fs::write(dir.join("schema.txt"), manifest)
        .map_err(|e| CliError(format!("cannot write schema.txt: {e}")))?;
    Ok(())
}

/// Generates a synthetic workload database on disk, so every other
/// command (and CI smoke tests) can run without shipping data files.
fn gen(args: &[String]) -> CliResult<String> {
    let dir = PathBuf::from(required(args, "--csv-dir")?);
    let rows: usize = flag_value(args, "--rows")
        .map(|v| v.parse().map_err(|_| CliError(format!("bad --rows `{v}`"))))
        .transpose()?
        .unwrap_or(2000);
    let seed: u64 = flag_value(args, "--seed")
        .map(|v| v.parse().map_err(|_| CliError(format!("bad --seed `{v}`"))))
        .transpose()?
        .unwrap_or(7);
    let workload = flag_value(args, "--workload").unwrap_or("census");
    let db = match workload {
        "census" => workloads::census::census_database(rows, seed),
        // Keep the paper's shape (strains : patients : contacts) while
        // scaling with --rows = the largest table.
        "tb" => workloads::tb::tb_database_sized(
            (rows / 30).max(2),
            (rows / 8).max(4),
            rows.max(8),
            seed,
        ),
        "fin" => workloads::fin::fin_database_sized(
            (rows / 60).max(2),
            (rows / 20).max(4),
            rows.max(8),
            seed,
        ),
        other => {
            return Err(CliError(format!("bad --workload `{other}` (census|tb|fin)")))
        }
    };
    write_csv_dir(&db, &dir)?;
    Ok(format!(
        "generated {workload} database in {}: {} tables, {} rows",
        dir.display(),
        db.tables().len(),
        db.total_rows()
    ))
}

/// A small deterministic workload derived from the schema: one equality
/// query per (table, value attribute, value) — capped per attribute — and
/// one selection-over-join query per foreign key.
pub(crate) fn example_workload(db: &Database) -> CliResult<Vec<reldb::Query>> {
    const MAX_VALUES_PER_ATTR: usize = 4;
    let mut queries = Vec::new();
    for table in db.tables() {
        for attr in table.schema().value_attrs() {
            let domain = table.domain(attr)?;
            for value in domain.values().iter().take(MAX_VALUES_PER_ATTR) {
                let mut b = reldb::Query::builder();
                let v = b.var(table.name());
                b.eq(v, attr, value.clone());
                queries.push(b.build());
            }
        }
        for fk in table.schema().foreign_keys() {
            let parent_table = db.table(&fk.target)?;
            let Some(attr) = parent_table.schema().value_attrs().first().copied() else {
                continue;
            };
            let Some(value) = parent_table.domain(attr)?.values().first() else {
                continue;
            };
            let mut b = reldb::Query::builder();
            let c = b.var(table.name());
            let p = b.var(&fk.target);
            b.join(c, fk.attr.clone(), p).eq(p, attr, value.clone());
            queries.push(b.build());
        }
    }
    Ok(queries)
}

/// `prmsel maintain`: incremental maintenance against CSV snapshots.
/// The base `--csv-dir` seeds the sufficient statistics; each pass
/// diffs the `--apply` directory against the last-applied snapshot and
/// folds the delta in through the background repair loop, hot-swapping
/// a refreshed epoch under the (in-process) serving estimator.
fn maintain(args: &[String]) -> CliResult<String> {
    use std::sync::Arc;

    let base_dir = PathBuf::from(required(args, "--csv-dir")?);
    let apply_dir = PathBuf::from(required(args, "--apply")?);
    let watch = args.iter().any(|a| a == "--watch");
    let watch_count: usize = flag_value(args, "--watch-count")
        .map(|v| v.parse().map_err(|_| CliError(format!("bad --watch-count `{v}`"))))
        .transpose()?
        .unwrap_or(usize::MAX);
    let interval = std::time::Duration::from_secs(
        flag_value(args, "--interval-secs")
            .map(|v| {
                v.parse().map_err(|_| CliError(format!("bad --interval-secs `{v}`")))
            })
            .transpose()?
            .unwrap_or(2),
    );

    let est = Arc::new(open_estimator(args)?);
    let mut current = load_csv_dir(&base_dir)?;
    let epoch = est.epoch();
    let state = prmsel::DeltaState::build(&epoch.prm, &current)?;
    drop(epoch);
    let maintainer =
        prmsel::Maintainer::spawn(est.clone(), state, prmsel::MaintainOptions::default());

    let mut out = String::new();
    let mut batches = 0u64;
    let mut rows = 0u64;
    let passes = if watch { watch_count } else { 1 };
    for pass in 0..passes {
        if pass > 0 {
            std::thread::sleep(interval);
        }
        let next = load_csv_dir(&apply_dir)?;
        let batch = prmsel::UpdateBatch::diff(&current, &next)?;
        if batch.is_empty() {
            if !watch {
                out.push_str("no changes to apply\n");
            }
            continue;
        }
        batches += 1;
        rows += batch.rows();
        let delta_rows = batch.rows();
        if !maintainer.submit(batch) {
            return Err(CliError("maintenance loop stopped unexpectedly".into()));
        }
        maintainer.flush();
        current = next;
        out.push_str(&format!(
            "applied {delta_rows} row change(s); epoch {} (staleness {} ms)\n",
            prmsel::model_epoch(),
            prmsel::model_staleness_ms(),
        ));
    }
    maintainer.shutdown();

    let rejected = obs::counter!("prm.maintain.rejected").get();
    let drift_alert = obs::watchdog::active()
        .iter()
        .any(|a| a.metric == "prm.maintain.drift" || a.metric == "prm.maintain.failed");
    out.push_str(&format!(
        "maintain: {batches} batch(es), {rows} row change(s), {} refit(s), \
         {} swap(s), {} relearn flag(s), {rejected} rejected; \
         drift threshold {} nats/row{}",
        obs::counter!("prm.maintain.refits").get(),
        obs::counter!("prm.maintain.swaps").get(),
        obs::counter!("prm.maintain.relearn").get(),
        prmsel::drift_relearn_threshold(),
        if drift_alert { " [ALERT raised — see /alerts]" } else { "" },
    ));
    if rejected > 0 {
        return Err(CliError(format!(
            "{rejected} maintenance cycle(s) rejected; the old epoch kept serving\n{out}"
        )));
    }
    if let Some(path) = flag_value(args, "--out") {
        let epoch = est.epoch();
        save_atomically(Path::new(path), |w| save_model(&epoch.prm, &epoch.schema, w))?;
        out.push_str(&format!("\nsaved refreshed model to {path}"));
    }
    Ok(out)
}

fn describe(args: &[String]) -> CliResult<String> {
    let est = open_estimator(args)?;
    let epoch = est.epoch();
    Ok(format!(
        "model: {} bytes, {} foreign parents, {} join-indicator parents\n{}",
        est.size_bytes(),
        epoch.prm.foreign_parent_count(),
        epoch.prm.ji_parent_count(),
        epoch.prm.describe()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::tb::tb_database_sized;

    /// Dumps a database + manifest into a temp dir and returns the dir.
    fn dump_db(tag: &str) -> PathBuf {
        let db = tb_database_sized(60, 80, 500, 9);
        let dir = std::env::temp_dir().join(format!("prmsel_cli_test_{tag}"));
        write_csv_dir(&db, &dir).unwrap();
        dir
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// Flight recording is process-global; tests that toggle it
    /// serialize here so one test's `set_recording(false)` cannot cut
    /// another's trace short.
    fn with_recording_lock(f: impl FnOnce()) {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        f();
        obs::flight::set_recording(false);
    }

    #[test]
    fn build_estimate_describe_pipeline() {
        let dir = dump_db("pipeline");
        let model = dir.join("model.prm");
        let out = run(&s(&[
            "build",
            "--csv-dir",
            dir.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--budget",
            "4096",
        ]))
        .unwrap();
        assert!(out.contains("built"), "{out}");

        let est_out = run(&s(&[
            "estimate",
            "--model",
            model.to_str().unwrap(),
            "SELECT COUNT(*) FROM contact c, patient p WHERE c.patient = p AND p.age = 2",
        ]))
        .unwrap();
        let size: f64 = est_out.trim().parse().unwrap();
        assert!(size >= 0.0);

        let desc = run(&s(&["describe", "--model", model.to_str().unwrap()])).unwrap();
        assert!(desc.contains("table contact"), "{desc}");
    }

    #[test]
    fn failed_save_keeps_the_old_file_and_leaves_no_temp() {
        use std::io::Write;

        /// Passes `budget` bytes through, then fails every write.
        struct FailHalfway<W> {
            inner: W,
            budget: usize,
        }
        impl<W: Write> Write for FailHalfway<W> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.budget == 0 {
                    return Err(std::io::Error::other("disk full"));
                }
                let n = self.inner.write(&buf[..buf.len().min(self.budget)])?;
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.inner.flush()
            }
        }

        let dir = std::env::temp_dir().join("prmsel_cli_test_atomic_save");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.prm");
        let db = tb_database_sized(60, 80, 500, 9);
        let prm = learn_prm(&db, &PrmLearnConfig::default()).unwrap();
        let schema = SchemaInfo::from_db(&db).unwrap();
        save_atomically(&path, |w| save_model(&prm, &schema, w)).unwrap();
        let old = std::fs::read(&path).unwrap();

        let err = save_atomically(&path, |w| {
            save_model(&prm, &schema, FailHalfway { inner: w, budget: old.len() / 2 })
        })
        .unwrap_err();
        assert!(err.0.contains("disk full"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), old, "the old model was damaged");
        let left: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, ["model.prm"], "a temporary file was left behind");
    }

    #[test]
    fn maintain_applies_csv_deltas_and_swaps() {
        let base = dump_db("maintain_base");
        let model = base.join("model_m.prm");
        run(&s(&[
            "build",
            "--csv-dir",
            base.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ]))
        .unwrap();

        // Same schema and domains, different rows: the incremental path.
        let apply = std::env::temp_dir().join("prmsel_cli_test_maintain_apply");
        write_csv_dir(&tb_database_sized(60, 80, 500, 11), &apply).unwrap();
        let refreshed = base.join("model_m2.prm");
        let out = run(&s(&[
            "maintain",
            "--model",
            model.to_str().unwrap(),
            "--csv-dir",
            base.to_str().unwrap(),
            "--apply",
            apply.to_str().unwrap(),
            "--out",
            refreshed.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("applied"), "{out}");
        assert!(out.contains("1 batch(es)"), "{out}");
        assert!(out.contains("swap"), "{out}");
        assert!(out.contains("saved refreshed model"), "{out}");

        // The refreshed model matches a from-scratch refresh of the
        // applied data.
        let db = load_csv_dir(&apply).unwrap();
        let file = std::fs::File::open(&model).unwrap();
        let (prm, _) = load_model(std::io::BufReader::new(file)).unwrap();
        let scratch = prmsel::refresh_parameters(&prm, &db).unwrap();
        let file = std::fs::File::open(&refreshed).unwrap();
        let (refit, _) = load_model(std::io::BufReader::new(file)).unwrap();
        assert_eq!(refit.size_bytes(), scratch.size_bytes());
        let sql = "SELECT COUNT(*) FROM patient p WHERE p.age IN (1, 2)";
        let q = parse_query(sql).unwrap();
        let a =
            PrmEstimator::from_prm(refit, &db, "refit").unwrap().estimate(&q).unwrap();
        let b = PrmEstimator::from_prm(scratch, &db, "scratch")
            .unwrap()
            .estimate(&q)
            .unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn maintain_reports_no_changes_for_identical_snapshots() {
        let base = dump_db("maintain_noop");
        let model = base.join("model_n.prm");
        run(&s(&[
            "build",
            "--csv-dir",
            base.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&s(&[
            "maintain",
            "--model",
            model.to_str().unwrap(),
            "--csv-dir",
            base.to_str().unwrap(),
            "--apply",
            base.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("no changes to apply"), "{out}");
    }

    #[test]
    fn estimate_matches_in_process_model() {
        let dir = dump_db("parity");
        let db = load_csv_dir(&dir).unwrap();
        let config = PrmLearnConfig { budget_bytes: 4096, ..Default::default() };
        let direct = PrmEstimator::build(&db, &config).unwrap();
        let model = dir.join("model2.prm");
        run(&s(&[
            "build",
            "--csv-dir",
            dir.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--budget",
            "4096",
        ]))
        .unwrap();
        let sql = "SELECT COUNT(*) FROM patient p WHERE p.age IN (1, 2)";
        let cli_est: f64 =
            run(&s(&["estimate", "--model", model.to_str().unwrap(), sql]))
                .unwrap()
                .trim()
                .parse()
                .unwrap();
        let q = parse_query(sql).unwrap();
        let direct_est = direct.estimate(&q).unwrap();
        assert!((cli_est - direct_est).abs() < 0.05 + 1e-3 * direct_est.abs());
    }

    #[test]
    fn plan_command_orders_join_orders() {
        let dir = dump_db("plan");
        let model = dir.join("model3.prm");
        run(&s(&[
            "build",
            "--csv-dir",
            dir.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&s(&[
            "plan",
            "--model",
            model.to_str().unwrap(),
            "SELECT COUNT(*) FROM contact c, patient p, strain st \
             WHERE c.patient = p AND p.strain = st AND st.unique = 'no'",
        ]))
        .unwrap();
        assert!(out.contains("JOIN"), "{out}");
        // 4 connected left-deep orders for a 3-chain.
        assert_eq!(out.lines().filter(|l| l.contains("JOIN")).count(), 4);
    }

    #[test]
    fn explain_command_shows_the_closure() {
        let dir = dump_db("explain");
        let model = dir.join("model4.prm");
        run(&s(&[
            "build",
            "--csv-dir",
            dir.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        with_recording_lock(|| {
            let out = run(&s(&[
                "explain",
                "--model",
                model.to_str().unwrap(),
                "SELECT COUNT(*) FROM contact c WHERE c.contype = 2",
            ]))
            .unwrap();
            assert!(out.contains("upward closure"), "{out}");
            assert!(out.contains("estimate ="), "{out}");
            // The flight traces: a cold compile and a warm replay.
            assert!(out.contains("flight trace (cold, plan compiled)"), "{out}");
            assert!(out.contains("flight trace (warm, plan replayed)"), "{out}");
            assert!(out.contains("plan cache: MISS (compiled this call)"), "{out}");
            assert!(out.contains("plan cache: HIT (replay only)"), "{out}");
            assert!(out.contains("phase decode"), "{out}");
        });
    }

    #[test]
    fn manifest_precompile_round_trip() {
        let dir = dump_db("manifest");
        let model = dir.join("model_manifest.prm");
        run(&s(&[
            "build",
            "--csv-dir",
            dir.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let manifest = dir.join("templates.man");
        let sql = "SELECT COUNT(*) FROM contact c WHERE c.contype = 2";
        // Export the resident templates after one estimate.
        let out = run(&s(&[
            "estimate",
            "--model",
            model.to_str().unwrap(),
            "--save-manifest",
            manifest.to_str().unwrap(),
            sql,
        ]))
        .unwrap();
        assert!(out.contains("wrote template manifest (1 template(s))"), "{out}");
        let baseline: f64 = out.lines().next().unwrap().trim().parse().unwrap();
        // A fresh process loading the manifest answers identically.
        let out = run(&s(&[
            "estimate",
            "--model",
            model.to_str().unwrap(),
            "--manifest",
            manifest.to_str().unwrap(),
            sql,
        ]))
        .unwrap();
        let precompiled: f64 = out.lines().next().unwrap().trim().parse().unwrap();
        assert_eq!(baseline.to_bits(), precompiled.to_bits());
        // With the manifest, the first touch is a plan-cache hit: no
        // MISS annotation and no compile phase anywhere in the traces.
        with_recording_lock(|| {
            let out = run(&s(&[
                "explain",
                "--model",
                model.to_str().unwrap(),
                "--manifest",
                manifest.to_str().unwrap(),
                sql,
            ]))
            .unwrap();
            assert!(
                out.contains("flight trace (first touch, precompiled plan replayed)"),
                "{out}"
            );
            assert!(out.contains("plan cache: HIT (replay only)"), "{out}");
            assert!(!out.contains("plan cache: MISS"), "{out}");
            assert!(!out.contains("phase compile"), "{out}");
        });
    }

    #[test]
    fn explain_attaches_truth_and_writes_chrome_json() {
        let dir = dump_db("explain_truth");
        let model = dir.join("model_truth.prm");
        run(&s(&[
            "build",
            "--csv-dir",
            dir.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let json_path = dir.join("trace.json");
        with_recording_lock(|| {
            let out = run(&s(&[
                "explain",
                "--model",
                model.to_str().unwrap(),
                "--csv-dir",
                dir.to_str().unwrap(),
                "--trace-json",
                json_path.to_str().unwrap(),
                "SELECT COUNT(*) FROM patient p WHERE p.age = 2",
            ]))
            .unwrap();
            assert!(out.contains("q-error"), "{out}");
            assert!(out.contains("trace event(s)"), "{out}");
        });
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
    }

    #[test]
    fn gen_then_stats_traces_round_trip() {
        let dir = std::env::temp_dir().join("prmsel_cli_test_gen");
        let out = run(&s(&[
            "gen",
            "--csv-dir",
            dir.to_str().unwrap(),
            "--workload",
            "census",
            "--rows",
            "300",
        ]))
        .unwrap();
        assert!(out.contains("generated census"), "{out}");
        assert!(dir.join("census.csv").exists());
        assert!(dir.join("schema.txt").exists());
        with_recording_lock(|| {
            let stats_out =
                run(&s(&["stats", "--csv-dir", dir.to_str().unwrap(), "--traces"]))
                    .unwrap();
            assert!(stats_out.contains("flight traces ("), "{stats_out}");
            assert!(stats_out.contains("census WHERE"), "{stats_out}");
            // Every workload query consults the plan cache.
            assert!(
                stats_out.contains("HIT") || stats_out.contains("MISS"),
                "{stats_out}"
            );
        });
    }

    #[test]
    fn evaluate_command_reports_estimate_and_exact() {
        let dir = dump_db("evaluate");
        let model = dir.join("model5.prm");
        run(&s(&[
            "build",
            "--csv-dir",
            dir.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&s(&[
            "evaluate",
            "--model",
            model.to_str().unwrap(),
            "--csv-dir",
            dir.to_str().unwrap(),
            "SELECT COUNT(*) FROM patient p WHERE p.age = 2",
        ]))
        .unwrap();
        assert!(out.contains("estimate:"), "{out}");
        assert!(out.contains("exact:"), "{out}");
        assert!(out.contains("error:"), "{out}");
    }

    #[test]
    fn inspect_command_summarizes_the_csv_dir() {
        let dir = dump_db("inspect");
        let out = run(&s(&["inspect", "--csv-dir", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("table contact"), "{out}");
        assert!(out.contains("patient -> patient"), "{out}");
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["build", "--out", "x"])).is_err());
        assert!(run(&s(&["estimate", "--model", "/nonexistent/file"])).is_err());
        let help = run(&s(&["--help"])).unwrap();
        assert!(help.contains("USAGE"));
        assert!(run(&[]).unwrap().contains("USAGE"));
    }

    #[test]
    fn failures_map_to_nonzero_exit_codes() {
        assert_eq!(run_to_exit_code(&s(&["frobnicate"])), 1);
        assert_eq!(run_to_exit_code(&s(&["estimate", "--model", "/nonexistent"])), 1);
        assert_eq!(run_to_exit_code(&s(&["--help"])), 0);
    }

    #[test]
    fn verbosity_flags_are_stripped_anywhere() {
        let (rest, v) = strip_verbosity(&s(&["-v", "inspect", "--csv-dir", "d"]));
        assert_eq!(v, 1);
        assert_eq!(rest, s(&["inspect", "--csv-dir", "d"]));
        let (rest, v) = strip_verbosity(&s(&["stats", "-vv", "--pretty"]));
        assert_eq!(v, 2);
        assert_eq!(rest, s(&["stats", "--pretty"]));
        let (_, v) = strip_verbosity(&s(&["--verbose", "-v", "x"]));
        assert_eq!(v, 2);
        // Flags still work through `run` (here: help with verbosity on).
        assert!(run(&s(&["-v", "--help"])).unwrap().contains("USAGE"));
        obs::set_max_level(None);
    }

    #[test]
    fn stats_command_dumps_the_metric_registry() {
        let dir = dump_db("stats");
        let out = run(&s(&["stats", "--csv-dir", dir.to_str().unwrap()])).unwrap();
        // The acceptance quantities: search-step counts, model size,
        // estimate-latency and QEBN-size histograms, quality errors,
        // thread-pool occupancy.
        for key in [
            "prm.search.steps.accepted",
            "prm.model.bytes",
            "prm.estimate.ns",
            "prm.plan.miss",
            "prm.plan.reduce.hit_ratio",
            "prm.plan.precompiled",
            "prm.plan.compile.ns",
            "prm.factor.materialize",
            "prm.qebn.nodes",
            "quality.adj_rel_err_pct",
            "reldb.exec.queries",
            "par.pool.tasks",
            "par.pool.threads",
            "prm.guard.queries",
            "prm.guard.fallback_ratio",
        ] {
            assert!(out.contains(&format!("\"{key}\"")), "missing {key} in:\n{out}");
        }
        assert!(out.contains("guard: "), "{out}");
        let pretty =
            run(&s(&["stats", "--csv-dir", dir.to_str().unwrap(), "--pretty"])).unwrap();
        assert!(pretty.contains("prm.estimate.ns"), "{pretty}");
    }

    #[test]
    fn estimate_strict_flag_matches_default_when_healthy() {
        let dir = dump_db("strict");
        let model = dir.join("model_strict.prm");
        run(&s(&[
            "build",
            "--csv-dir",
            dir.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        let sql = "SELECT COUNT(*) FROM patient p WHERE p.age = 2";
        let relaxed: f64 =
            run(&s(&["estimate", "--model", model.to_str().unwrap(), sql]))
                .unwrap()
                .trim()
                .parse()
                .unwrap();
        let strict: f64 =
            run(&s(&["estimate", "--model", model.to_str().unwrap(), "--strict", sql]))
                .unwrap()
                .trim()
                .parse()
                .unwrap();
        // With nothing armed and no budget set, the ladder never leaves
        // rung 1, so strict and relaxed answers are the same number.
        assert_eq!(relaxed.to_bits(), strict.to_bits());
    }

    #[test]
    fn schema_errors_are_classed_for_scripts() {
        let dir = dump_db("classed");
        let model = dir.join("model_classed.prm");
        run(&s(&[
            "build",
            "--csv-dir",
            dir.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        // An unknown attribute is the caller's bug: never degraded,
        // reported with its error class.
        let err = run(&s(&[
            "estimate",
            "--model",
            model.to_str().unwrap(),
            "SELECT COUNT(*) FROM patient p WHERE p.no_such_attr = 2",
        ]))
        .unwrap_err();
        assert!(err.0.starts_with("[schema]"), "{err}");
    }
}
