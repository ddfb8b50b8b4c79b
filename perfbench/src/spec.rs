//! The benchmark's workloads and the seeded inputs each one generates.
//!
//! Every workload stresses a different layer of one `Engine::run` (see
//! `README.md` for why each was chosen). The seed is the only source of
//! variation: the same seed always yields the same topology, job log and
//! fault trace, so the simulated outcomes are exact functions of it.

use commsched_core::{SaBudget, SelectorKind};
use commsched_slurmsim::{Engine, EngineConfig, FailurePolicy};
use commsched_topology::{SystemPreset, Tree};
use commsched_workload::fault::FaultTrace;
use commsched_workload::{JobLog, LogSpec, SystemModel};
use std::time::Instant;

/// Seeded node and switch churn for the fault workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    /// Per-node mean time between failures, seconds.
    pub node_mtbf: f64,
    /// Per-node mean time to repair, seconds.
    pub node_mttr: f64,
    /// Per-switch mean time between failures, seconds (root excluded).
    pub switch_mtbf: f64,
    /// Per-switch mean time to repair, seconds.
    pub switch_mttr: f64,
}

/// One benchmark workload: a machine, a log shape and a scheduler setup.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Machine the log runs on.
    pub preset: SystemPreset,
    /// Log generator model (arrival rate, sizes, runtimes).
    pub system: fn() -> SystemModel,
    /// Offered load every log is pinned to (see [`Workload::setup`]).
    pub load: f64,
    /// Job logs replayed per benchmark run, each from its own seed.
    pub logs: usize,
    /// Jobs in each log.
    pub jobs: usize,
    /// Percentage of communication-intensive jobs.
    pub comm_pct: u8,
    /// Node selector.
    pub selector: SelectorKind,
    /// SA evaluation budget (only read when `selector` is SA).
    pub sa_evals: u32,
    /// Conservative instead of EASY backfill.
    pub conservative: bool,
    /// Seeded fault churn, if any.
    pub churn: Option<Churn>,
}

/// Mean offered load of the generator's Mira logs (400 seeds, 500 and
/// 1000 jobs): arrivals bring 1.8 machines' worth of work.
const MIRA_LOAD: f64 = 1.8;
/// Mean offered load of the generator's Theta logs (400 seeds, 300 and
/// 3000 jobs).
const THETA_LOAD: f64 = 2.5;

/// All workloads, in the order the benchmark documents them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mira_compute",
        preset: SystemPreset::Mira,
        system: SystemModel::mira,
        load: MIRA_LOAD,
        logs: 8,
        jobs: 1000,
        comm_pct: 0,
        selector: SelectorKind::Default,
        sa_evals: 0,
        conservative: false,
        churn: None,
    },
    Workload {
        name: "mira_comm",
        preset: SystemPreset::Mira,
        system: SystemModel::mira,
        load: MIRA_LOAD,
        logs: 8,
        jobs: 500,
        comm_pct: 90,
        selector: SelectorKind::Adaptive,
        sa_evals: 0,
        conservative: false,
        churn: None,
    },
    Workload {
        name: "theta_sa_faults",
        preset: SystemPreset::Theta,
        system: SystemModel::theta,
        load: THETA_LOAD,
        logs: 4,
        jobs: 3000,
        comm_pct: 90,
        selector: SelectorKind::Sa,
        sa_evals: 64,
        conservative: false,
        churn: Some(Churn {
            node_mtbf: 1e7,
            node_mttr: 3600.0,
            switch_mtbf: 1e8,
            switch_mttr: 7200.0,
        }),
    },
    Workload {
        name: "theta_conservative",
        preset: SystemPreset::Theta,
        system: SystemModel::theta,
        load: THETA_LOAD,
        logs: 24,
        jobs: 250,
        comm_pct: 90,
        selector: SelectorKind::Greedy,
        sa_evals: 0,
        conservative: true,
        churn: None,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One seeded job log and its fault trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LogInput {
    /// Seed of the log, its fault trace and the SA searches run on it.
    pub seed: u64,
    /// The job log.
    pub log: JobLog,
    /// The fault trace (empty without churn).
    pub faults: FaultTrace,
}

/// The generated inputs of one workload at one seed.
pub struct Inputs {
    /// The machine.
    pub tree: Tree,
    /// The logs, replayed in turn.
    pub logs: Vec<LogInput>,
}

/// Wall seconds spent in each set-up layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Preset build (`topology`).
    pub topology_s: f64,
    /// Log plus fault-trace generation (`workload`).
    pub workload_s: f64,
}

impl Workload {
    /// The same workload at another size (tests use toy sizes).
    pub fn sized(mut self, logs: usize, jobs: usize) -> Self {
        self.logs = logs;
        self.jobs = jobs;
        self
    }

    /// The engine configuration this workload runs under. The SA run seed
    /// is the workload seed, so SA searches vary with it like the log.
    pub fn config(&self, seed: u64) -> EngineConfig {
        let mut cfg = EngineConfig::new(self.selector)
            .with_sa(SaBudget::with_evals(self.sa_evals), seed)
            .with_failure_policy(FailurePolicy::Requeue {
                max_retries: 3,
                backoff: 0,
            });
        if self.conservative {
            cfg = cfg.conservative_backfill();
        }
        cfg
    }

    /// A fresh engine for one `run` of `input` on `tree`.
    pub fn engine<'t>(&self, tree: &'t Tree, input: &LogInput) -> Engine<'t> {
        Engine::new(tree, self.config(input.seed)).with_faults(input.faults.clone())
    }

    /// Build the machine, the logs and their fault traces for `seed`, timing
    /// the topology and workload layers separately.
    ///
    /// Each log comes from the paper-calibrated generator and then has its
    /// submission times rescaled so its offered load is exactly
    /// `self.load`, the generator's mean. The logs overload the machine,
    /// so the queue grows at a rate set by the offered load; pinning it
    /// keeps a seed's cost from swinging with one random load draw while
    /// the seed still picks every size, runtime, mix and arrival gap.
    pub fn setup(&self, seed: u64) -> Result<(Inputs, SetupTimes), String> {
        let t0 = Instant::now();
        let tree = self.preset.build();
        let t1 = Instant::now();
        let mut logs = Vec::with_capacity(self.logs);
        for k in 0..self.logs {
            // Distinct seeds for distinct (run seed, log) pairs.
            let seed = seed.wrapping_mul(self.logs as u64).wrapping_add(k as u64);
            let mut log = LogSpec::new((self.system)(), self.jobs, seed)
                .comm_percent(self.comm_pct)
                .generate();
            pin_load(&mut log, tree.num_nodes(), self.load);
            let faults = match self.churn {
                Some(c) => churn_trace(&tree, &log, c, seed)?,
                None => FaultTrace::empty(),
            };
            logs.push(LogInput { seed, log, faults });
        }
        let t2 = Instant::now();
        let times = SetupTimes {
            topology_s: (t1 - t0).as_secs_f64(),
            workload_s: (t2 - t1).as_secs_f64(),
        };
        Ok((Inputs { tree, logs }, times))
    }
}

/// Node plus switch churn over twice the log's nominal span (so requeued
/// work past the last submit still meets faults), never failing the root
/// switch: the same recipe as the CLI's `--mtbf`/`--switch-mtbf` flags.
fn churn_trace(tree: &Tree, log: &JobLog, c: Churn, seed: u64) -> Result<FaultTrace, String> {
    let span = log
        .jobs
        .iter()
        .map(|j| j.submit + j.walltime)
        .max()
        .unwrap_or(0);
    let horizon = span.saturating_mul(2).max(1);
    let nodes = FaultTrace::mtbf(tree.num_nodes(), c.node_mtbf, c.node_mttr, horizon, seed)
        .map_err(|e| e.to_string())?;
    let switches = FaultTrace::switch_mtbf(
        tree.num_switches(),
        c.switch_mtbf,
        c.switch_mttr,
        horizon,
        seed.wrapping_add(1),
    )
    .map_err(|e| e.to_string())?;
    let root = tree.root().0;
    let kept = switches
        .events()
        .iter()
        .filter(|e| e.node != root)
        .copied()
        .collect();
    Ok(nodes.merge(FaultTrace::new(kept)))
}

/// Rescale `log`'s submission times so its offered load, node-seconds of
/// work per node-second of machine over the submission span, is `load`.
fn pin_load(log: &mut JobLog, capacity: usize, load: f64) {
    let work: f64 = log
        .jobs
        .iter()
        .map(|j| j.nodes as f64 * j.runtime as f64)
        .sum();
    let span = log.jobs.last().map_or(0, |j| j.submit) as f64;
    if span <= 0.0 || capacity == 0 {
        return;
    }
    let stretch = work / (capacity as f64 * load) / span;
    for j in &mut log.jobs {
        j.submit = (j.submit as f64 * stretch).round() as u64;
    }
}
