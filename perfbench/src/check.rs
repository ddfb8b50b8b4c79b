//! Outcome checks applied to every run the benchmark makes.

use commsched_slurmsim::{JobStatus, RunSummary};
use commsched_workload::JobLog;

/// The checked outcome of one `Engine::run`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Jobs in the log.
    pub submitted: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs killed by faults after their last requeue.
    pub cancelled: usize,
    /// Jobs that never ran.
    pub rejected: usize,
    /// `RunSummary::total_exec_hours` (Table 3).
    pub exec_hours: f64,
    /// `RunSummary::total_wait_hours` (Table 3).
    pub wait_hours: f64,
    /// `RunSummary::total_comm_cost` (Eq. 6, Figure 8).
    pub comm_cost: f64,
    /// Σ Eq. 6 cost the default selector's allocations would have had,
    /// from the same states (the Eq. 7 denominators).
    pub comm_cost_default: f64,
    /// FNV-1a digest over every outcome field, bit for bit.
    pub digest: u64,
}

/// Check `summary` against `log`: one outcome per submitted job, every
/// outcome completed, cancelled or rejected, and no job started before
/// its submission or ended before its start.
pub fn check(log: &JobLog, summary: &RunSummary) -> Result<Outcome, String> {
    let mut ids: Vec<u64> = summary.outcomes.iter().map(|o| o.id.0).collect();
    ids.sort_unstable();
    let mut want: Vec<u64> = log.jobs.iter().map(|j| j.id.0).collect();
    want.sort_unstable();
    if ids != want {
        return Err(format!(
            "{} outcomes do not cover the {} submitted jobs exactly once",
            ids.len(),
            want.len()
        ));
    }
    if let Some(o) = summary
        .outcomes
        .iter()
        .find(|o| o.start < o.submit || o.end < o.start)
    {
        return Err(format!(
            "job {} has submit {} start {} end {}",
            o.id, o.submit, o.start, o.end
        ));
    }
    let count = |s| summary.count_status(s);
    let (completed, cancelled, rejected) = (
        count(JobStatus::Completed),
        count(JobStatus::Cancelled),
        count(JobStatus::Rejected),
    );
    if completed + cancelled + rejected != log.jobs.len() {
        return Err("job statuses do not add up to the submitted jobs".into());
    }
    Ok(Outcome {
        submitted: log.jobs.len(),
        completed,
        cancelled,
        rejected,
        exec_hours: summary.total_exec_hours(),
        wait_hours: summary.total_wait_hours(),
        comm_cost: summary.total_comm_cost(),
        comm_cost_default: summary.outcomes.iter().map(|o| o.cost_default).sum(),
        digest: digest(summary),
    })
}

fn digest(summary: &RunSummary) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(summary.makespan);
    for o in &summary.outcomes {
        for x in [
            o.id.0,
            o.submit,
            o.start,
            o.end,
            o.nodes as u64,
            o.cost_actual.to_bits(),
            o.cost_default.to_bits(),
            o.runtime_original,
            o.runtime_adjusted,
            o.comm_ratio.to_bits(),
            o.status as u64,
            u64::from(o.retries),
            o.lost_node_seconds,
        ] {
            eat(x);
        }
    }
    h
}
