//! One benchmark run: repeated set-up, a warm-up, timed untraced
//! `Engine::run`s over every log for a fixed wall budget, default-selector
//! reference runs, then one traced run that the replay profiles and
//! checks.

use crate::check::{check, Outcome};
use crate::clock::{Clock, Interval};
use crate::replay::{replay, Report};
use crate::spec::{Inputs, LogInput, Workload};
use commsched_core::SelectorKind;
use commsched_metrics::Registry;
use commsched_slurmsim::{Engine, EngineError, RunSummary};
use commsched_trace::Capture;
use std::hint::black_box;
use std::time::Instant;

/// How much a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Wall seconds of timed untraced runs; whole cycles over the logs
    /// run until this budget is spent.
    pub seconds: f64,
    /// Cycles run even when they overrun `seconds`.
    pub min_cycles: usize,
    /// Set-ups made; the metrics report their median.
    pub setup_reps: usize,
}

/// Everything one benchmark run measured. Times are [`Interval`]s of the
/// host-speed corrected clock.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Jobs in each log.
    pub jobs_per_log: usize,
    /// Each whole set-up.
    pub setup: Vec<Interval>,
    /// Each preset build, raw wall seconds.
    pub topology_s: Vec<f64>,
    /// Each generation of every log and fault trace, raw wall seconds.
    pub workload_s: Vec<f64>,
    /// Each timed `Engine::run`, per log.
    pub runs_by_log: Vec<Vec<Interval>>,
    /// Timed cycles over the logs.
    pub cycles: usize,
    /// The traced `Engine::run_observed` of the first log.
    pub traced: Interval,
    /// The replay of the traced run.
    pub replayed: Interval,
    /// Every probe reading of the clock, seconds.
    pub probes: Vec<f64>,
    /// Process peak resident set before the traced run, MiB.
    pub peak_rss_mib: f64,
    /// Each log's checked outcome under the workload's selector.
    pub outcomes: Vec<Outcome>,
    /// Each log's checked outcome under the default selector.
    pub reference: Vec<Outcome>,
    /// `RunReport` counters of the traced run, by name.
    pub counters: Vec<(&'static str, u64)>,
    /// The traced replay.
    pub replay: Report,
    /// `Engine::run` calls made.
    pub runs: u64,
    /// Runs that errored or failed a check, the replay included.
    pub failed_runs: u64,
    /// Why each failed run failed.
    pub failures: Vec<String>,
}

/// Counters read from the traced run's registry.
pub const COUNTERS: [&str; 6] = [
    "jobs.requeued",
    "sched.passes",
    "jobs.backfilled",
    "sa.searches",
    "sa.evals",
    "sa.improved",
];

impl Measurement {
    /// A counter of the traced run (0 when the run never registered it).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Sum of `f` over the logs' outcomes.
    pub fn total(&self, f: impl Fn(&Outcome) -> f64) -> f64 {
        self.outcomes.iter().map(&f).sum()
    }

    /// Sum of `f` over the logs' default-selector outcomes.
    pub fn reference_total(&self, f: impl Fn(&Outcome) -> f64) -> f64 {
        self.reference.iter().map(&f).sum()
    }

    /// Jobs per second over every log, each log timed by the median of
    /// its repeats, with times taken from `pick`.
    pub fn jobs_per_sec(&self, pick: fn(&Interval) -> f64) -> f64 {
        let total: f64 = self
            .runs_by_log
            .iter()
            .map(|runs| median(&runs.iter().map(pick).collect::<Vec<_>>()))
            .sum();
        if total > 0.0 {
            (self.jobs_per_log * self.runs_by_log.len()) as f64 / total
        } else {
            0.0
        }
    }

    /// Median untraced run of the first log, the one the replay profiles,
    /// in corrected seconds.
    pub fn first_log_ref_s(&self) -> f64 {
        self.runs_by_log.first().map_or(0.0, |runs| {
            median(&runs.iter().map(|i| i.ref_s).collect::<Vec<_>>())
        })
    }

    /// Factor from the replay's raw wall seconds to corrected seconds.
    pub fn replay_scale(&self) -> f64 {
        if self.replayed.raw_s > 0.0 {
            self.replayed.ref_s / self.replayed.raw_s
        } else {
            1.0
        }
    }

    fn fail(&mut self, why: String) {
        self.failed_runs += 1;
        self.failures.push(why);
    }

    /// Check one run's result; `Some(outcome)` when it passes.
    fn checked(
        &mut self,
        input: &LogInput,
        res: Result<RunSummary, EngineError>,
    ) -> Option<Outcome> {
        self.runs += 1;
        match res
            .map_err(|e| e.to_string())
            .and_then(|s| check(&input.log, &s))
        {
            Ok(o) => Some(o),
            Err(e) => {
                self.fail(format!("log seed {}: {e}", input.seed));
                None
            }
        }
    }

    /// Record `o` as log `k`'s outcome, or fail if it differs from the
    /// one already recorded: the same inputs must give the same bytes.
    fn agree(&mut self, k: usize, o: Outcome) {
        match self.outcomes.get(k) {
            None => self.outcomes.push(o),
            Some(prev) if prev.digest != o.digest => {
                let why = format!(
                    "log {k}: outcome digest {:016x} differs from an earlier run's {:016x}",
                    o.digest, prev.digest
                );
                self.fail(why);
            }
            Some(_) => {}
        }
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Measure `workload` at `seed`.
pub fn measure(workload: &Workload, seed: u64, settings: &Settings) -> Result<Measurement, String> {
    let mut m = Measurement {
        jobs_per_log: workload.jobs,
        ..Measurement::default()
    };
    let mut clock = Clock::new();

    // Set-up, repeated: its median is the reported set-up time, and every
    // repeat must generate the same inputs.
    let mut inputs: Option<Inputs> = None;
    for _ in 0..settings.setup_reps.max(1) {
        let (res, took) = clock.time(|| workload.setup(seed));
        let (next, times) = res?;
        m.setup.push(took);
        m.topology_s.push(times.topology_s);
        m.workload_s.push(times.workload_s);
        if inputs.as_ref().is_some_and(|prev| prev.logs != next.logs) {
            return Err("set-up is not deterministic: two set-ups differ".into());
        }
        inputs = Some(black_box(next));
    }
    let Inputs { tree, logs } = inputs.ok_or("no set-up ran")?;
    let first = logs.first().ok_or("a workload needs at least one log")?;

    // Warm-up, untimed: fills the engine's per-thread state scratch.
    let res = workload.engine(&tree, first).run(&first.log);
    if let Some(o) = m.checked(first, res) {
        m.agree(0, o);
    }

    m.runs_by_log = vec![Vec::new(); logs.len()];
    let t = Instant::now();
    while m.cycles < settings.min_cycles || t.elapsed().as_secs_f64() < settings.seconds {
        for (k, input) in logs.iter().enumerate() {
            let engine = workload.engine(&tree, input);
            let (res, took) = clock.time(|| engine.run(black_box(&input.log)));
            if let Some(o) = m.checked(input, res) {
                m.runs_by_log[k].push(took);
                m.agree(k, o);
            }
        }
        m.cycles += 1;
    }

    // The paper's baseline: the same logs under SLURM's default selector.
    if workload.selector == SelectorKind::Default {
        m.reference = m.outcomes.clone();
    } else {
        for input in &logs {
            let mut cfg = workload.config(input.seed);
            cfg.selector = SelectorKind::Default;
            let res = Engine::new(&tree, cfg)
                .with_faults(input.faults.clone())
                .run(&input.log);
            if let Some(o) = m.checked(input, res) {
                m.reference.push(o);
            }
        }
    }

    m.peak_rss_mib = peak_rss_mib().unwrap_or(0.0);
    if m.peak_rss_mib <= 0.0 {
        m.fail("cannot read the process peak RSS".into());
    }

    // The traced run of the first log, then the replay of its events.
    let engine = workload.engine(&tree, first);
    let mut capture = Capture::new();
    let mut registry = Registry::new();
    let (res, took) = clock.time(|| engine.run_observed(&first.log, &mut capture, &mut registry));
    m.traced = took;
    if let Some(o) = m.checked(first, res) {
        m.agree(0, o);
    }
    m.counters = COUNTERS
        .iter()
        .map(|&n| (n, registry.counter_value(n).unwrap_or(0)))
        .collect();
    let (report, took) = clock.time(|| replay(workload, &tree, first, &capture.events));
    m.replay = report;
    m.replayed = took;
    if m.replay.mismatches > 0 {
        let notes = m.replay.notes.join("; ");
        m.fail(format!(
            "replay: {} mismatches: {notes}",
            m.replay.mismatches
        ));
    }
    m.probes = clock.probes;
    Ok(m)
}

/// Peak resident set size of this process so far, MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
