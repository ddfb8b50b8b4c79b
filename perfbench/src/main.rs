//! `commsched-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a human-readable table, a provenance line, and as its last line
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exits 1 when any run fails a check, 2 on bad usage.

use commsched_perfbench::bench::{measure, median, Measurement, Settings};
use commsched_perfbench::check::Outcome;
use commsched_perfbench::spec::{workload, Workload, WORKLOADS};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 9;
/// Timed cycles over the logs per benchmark run, even past the wall budget.
const MIN_CYCLES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, 42u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let name = name.ok_or(format!("--workload is required (one of {names:?})"))?;
    let workload = workload(&name).ok_or(format!("unknown workload {name} (one of {names:?})"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `(name, unit, value)` rows.
type Rows = Vec<(&'static str, &'static str, f64)>;

/// `a / b`, or 1 when there is nothing to compare (no communication-
/// intensive job, or a default-selector workload).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        1.0
    }
}

/// Sums over the logs of the workload's outcomes and of the default
/// selector's; zeros when a run failed, so a failing run reads as
/// nothing completed.
fn sums(m: &Measurement, ok: bool, f: fn(&Outcome) -> f64) -> (f64, f64) {
    if ok {
        (m.total(f), m.reference_total(f))
    } else {
        (0.0, 0.0)
    }
}

fn end_to_end(m: &Measurement, ok: bool) -> Rows {
    let (exec, exec_default) = sums(m, ok, |o| o.exec_hours);
    let (comm, _) = sums(m, ok, |o| o.comm_cost);
    let (comm_default, _) = sums(m, ok, |o| o.comm_cost_default);
    let (completed, _) = sums(m, ok, |o| o.completed as f64);
    let submitted = (m.jobs_per_log * m.runs_by_log.len()).max(1) as f64;
    vec![
        ("jobs_per_sec", "jobs/s", m.jobs_per_sec(|i| i.ref_s)),
        (
            "setup_s",
            "s",
            median(&m.setup.iter().map(|i| i.ref_s).collect::<Vec<_>>()),
        ),
        ("peak_rss_mib", "MiB", m.peak_rss_mib),
        ("sim_exec_vs_default", "ratio", ratio(exec, exec_default)),
        ("sim_comm_vs_default", "ratio", ratio(comm, comm_default)),
        ("completed_job_frac", "ratio", completed / submitted),
    ]
}

fn per_layer(m: &Measurement, ok: bool) -> Rows {
    let r = &m.replay;
    // Replay times in corrected seconds, comparable with `jobs_per_sec`.
    let k = m.replay_scale();
    let run_s = m.first_log_ref_s();
    let searches = m.counter("sa.searches");
    let improved_frac = if searches == 0 {
        0.0
    } else {
        m.counter("sa.improved") as f64 / searches as f64
    };
    let (wait, wait_default) = sums(m, ok, |o| o.wait_hours);
    vec![
        ("core.state.allocate.busy_s", "s", k * r.allocate.busy_s()),
        ("core.state.release.busy_s", "s", k * r.release.busy_s()),
        (
            "core.state.allocate.p99_us",
            "us",
            k * r.allocate.quantile_us(0.99),
        ),
        (
            "core.state.release.p99_us",
            "us",
            k * r.release.quantile_us(0.99),
        ),
        (
            "core.state.nodes_moved",
            "count",
            (r.allocate.nodes + r.release.nodes) as f64,
        ),
        ("core.eval.busy_s", "s", k * r.eval.busy_s()),
        ("core.eval.calls", "count", r.eval.calls() as f64),
        ("core.eval.nodes", "count", r.eval.nodes as f64),
        ("core.eval.p50_us", "us", k * r.eval.quantile_us(0.5)),
        ("core.eval.p99_us", "us", k * r.eval.quantile_us(0.99)),
        ("core.select.busy_s", "s", k * r.select.busy_s()),
        ("core.select.calls", "count", r.select.calls() as f64),
        ("core.select.p50_us", "us", k * r.select.quantile_us(0.5)),
        ("core.select.p99_us", "us", k * r.select.quantile_us(0.99)),
        ("core.sa.evals", "count", m.counter("sa.evals") as f64),
        ("core.sa.improved_frac", "ratio", improved_frac),
        (
            "core.default_select.busy_s",
            "s",
            k * r.default_select.busy_s(),
        ),
        (
            "core.default_select.calls",
            "count",
            r.default_select.calls() as f64,
        ),
        ("core.state.health.busy_s", "s", k * r.health.busy_s()),
        ("core.state.health.calls", "count", r.health.calls() as f64),
        (
            "slurmsim.requeued",
            "count",
            m.counter("jobs.requeued") as f64,
        ),
        ("slurmsim.policy.self_s", "s", run_s - k * r.child_busy_s()),
        (
            "slurmsim.sched_passes",
            "count",
            m.counter("sched.passes") as f64,
        ),
        (
            "slurmsim.backfilled",
            "count",
            m.counter("jobs.backfilled") as f64,
        ),
        (
            "slurmsim.wait_vs_default",
            "ratio",
            ratio(wait, wait_default),
        ),
        ("topology.build_s", "s", median(&m.topology_s)),
        ("workload.generate_s", "s", median(&m.workload_s)),
        ("trace.overhead_s", "s", m.traced.ref_s - run_s),
        ("replay.mismatches", "count", r.mismatches as f64),
        (
            "host.raw_jobs_per_sec",
            "jobs/s",
            m.jobs_per_sec(|i| i.raw_s),
        ),
        ("host.probe_ms", "ms", 1e3 * median(&m.probes)),
    ]
}

/// The paper's Table 3 and Figure 8 totals over every log, for readers.
fn paper_totals(m: &Measurement) -> String {
    format!(
        "exec {:.1} h (default {:.1}), wait {:.1} h (default {:.1}), \
         Eq. 6 cost {:.1} (default {:.1}), cancelled {}, rejected {}",
        m.total(|o| o.exec_hours),
        m.reference_total(|o| o.exec_hours),
        m.total(|o| o.wait_hours),
        m.reference_total(|o| o.wait_hours),
        m.total(|o| o.comm_cost),
        m.total(|o| o.comm_cost_default),
        m.total(|o| o.cancelled as f64),
        m.total(|o| o.rejected as f64),
    )
}

/// The wall-time split of the replayed run, as shares of the first log's
/// median untraced run.
fn split(m: &Measurement) -> String {
    let r = &m.replay;
    let k = m.replay_scale();
    let run_s = m.first_log_ref_s().max(f64::MIN_POSITIVE);
    let state = r.allocate.busy_s() + r.release.busy_s() + r.health.busy_s();
    let mut out = String::new();
    for (name, s) in [
        ("core.state", k * state),
        ("core.select", k * r.select.busy_s()),
        ("core.default_select", k * r.default_select.busy_s()),
        ("core.eval", k * r.eval.busy_s()),
        ("slurmsim.policy", run_s - k * r.child_busy_s()),
    ] {
        let _ = write!(out, " {name} {:.1}%", 100.0 * s / run_s);
    }
    out
}

fn json_metrics(rows: &Rows) -> String {
    rows.iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The repository revision, read from `.git` when the benchmark runs in
/// a git checkout ("unknown" otherwise).
fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().into();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("commsched-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let settings = Settings {
        seconds: args.seconds,
        min_cycles: MIN_CYCLES,
        setup_reps: SETUP_REPS,
    };
    // One worker: the benchmark measures the single-threaded engine, and
    // its outputs are byte-identical at any thread count anyway.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("building a thread budget cannot fail");
    let (threads, result) = pool.install(|| {
        (
            rayon::current_num_threads(),
            measure(&args.workload, args.seed, &settings),
        )
    });
    let m = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("commsched-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let w = &args.workload;
    let ok = m.failed_runs == 0;
    for f in &m.failures {
        eprintln!("FAILED: {f}");
    }

    let e2e = end_to_end(&m, ok);
    let layers = per_layer(&m, ok);
    println!(
        "workload {} seed {}: {} logs x {} jobs, {} timed cycles, {} replayed placements",
        w.name, args.seed, w.logs, w.jobs, m.cycles, m.replay.places
    );
    println!("end-to-end:");
    for (n, u, v) in &e2e {
        println!("  {n:<28} {v:>16.6} {u}");
    }
    println!("per-layer:");
    for (n, u, v) in &layers {
        println!("  {n:<28} {v:>16.6} {u}");
    }
    println!("paper totals: {}", paper_totals(&m));
    println!("split of the first log's run:{}", split(&m));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"nproc\": {nproc}, \"threads\": {threads}, \"git_revision\": \"{}\"}}}}",
        w.name,
        args.seed,
        args.seconds,
        git_revision()
    );

    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, m.replay.spans_jsonl()));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }

    let rows = if args.trace { &layers } else { &e2e };
    println!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.runs,
        m.failed_runs,
        json_metrics(rows)
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
