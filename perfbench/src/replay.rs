//! Traced replay: re-run every decision of a captured `Engine::run`
//! through the public layer calls, with the benchmark's own timer around
//! each call.
//!
//! The engine emits a `job_place` event after each allocation and a
//! `job_finish`/`job_requeue` after each release. Replaying those events
//! in order against a fresh `ClusterState` reconstructs the exact state
//! every decision was made from, so calling the selector, the default
//! selector and the evaluator again must reproduce the traced node count
//! and both Eq. 6 costs to the bit. Any difference is a mismatch: the
//! replay is both the per-layer profiler and an oracle for the run.
//!
//! Fault transitions mirror the engine's order: a node or switch fault
//! event comes first, then the kill records of its victims, and only then
//! the state transition, guarded the way the engine guards it. A fault's
//! transition is therefore held back until the next event that touches
//! state.

use crate::spec::{LogInput, Workload};
use commsched_collectives::CollectiveSpec;
use commsched_core::{
    AdaptiveSelector, AllocRequest, ClusterState, CostModel, DefaultTreeSelector, JobId,
    NodeHealth, NodeSelector, PlacementEvaluator, SaSelector, SelectorKind,
};
use commsched_topology::{NodeId, SwitchId, Tree};
use commsched_trace::{EndStatus, Event, EventKind, FaultClass};
use commsched_workload::Job;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Timed calls into one layer.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Duration of each call, nanoseconds, in call order.
    pub ns: Vec<u64>,
    /// Nodes the calls handled (allocation sizes for state and eval).
    pub nodes: u64,
}

impl Layer {
    /// Number of calls.
    pub fn calls(&self) -> u64 {
        self.ns.len() as u64
    }

    /// Total time inside the layer, seconds.
    pub fn busy_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Nearest-rank quantile of the call durations, microseconds (0 with
    /// no calls).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let mut v = self.ns.clone();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1] as f64 / 1e3
    }
}

/// One timed interval of the replay. `parent` indexes the replay's span
/// list; a placement's `place` span is the parent of its `select`,
/// `default_select`, `eval` and `allocate` spans.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Parent span index, if any.
    pub parent: Option<usize>,
    /// Job the call served.
    pub job: u64,
    /// Attempt of that job.
    pub attempt: u32,
    /// Start, nanoseconds since the replay began.
    pub start_ns: u64,
    /// End, nanoseconds since the replay began.
    pub end_ns: u64,
}

/// What the replay measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// `NodeSelector::select` of the run's selector.
    pub select: Layer,
    /// `DefaultTreeSelector.select`, the Eq. 7 denominator.
    pub default_select: Layer,
    /// `PlacementEvaluator::evaluate`.
    pub eval: Layer,
    /// `ClusterState::allocate`.
    pub allocate: Layer,
    /// `ClusterState::release`.
    pub release: Layer,
    /// `ClusterState` node and switch health transitions.
    pub health: Layer,
    /// Placements replayed.
    pub places: u64,
    /// Decisions that did not reproduce the trace.
    pub mismatches: u64,
    /// The first few mismatches, described.
    pub notes: Vec<String>,
    /// Every timed interval, in start order of the placements.
    pub spans: Vec<Span>,
}

impl Report {
    /// Time inside every replayed layer call, seconds. Adaptive and SA
    /// evaluate inside `select`; that time counts once, under `select`.
    pub fn child_busy_s(&self) -> f64 {
        [
            &self.select,
            &self.default_select,
            &self.eval,
            &self.allocate,
            &self.release,
            &self.health,
        ]
        .iter()
        .map(|l| l.busy_s())
        .sum()
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// The spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"job\":{},\"attempt\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.attempt, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// A state transition held back until its kill records are replayed.
#[derive(Debug, Clone, Copy)]
enum HealthOp {
    Node(NodeId, FaultClass),
    Switch(SwitchId, FaultClass),
}

/// The replay's clock and span list, kept apart from the state the timed
/// calls borrow.
struct Timer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Timer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f`, charging its duration to `layer` and recording a span.
    fn time<T>(
        &mut self,
        layer: &mut Layer,
        span: (&'static str, Option<usize>, u64, u32),
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        layer.ns.push(end - start);
        let (name, parent, job, attempt) = span;
        self.spans.push(Span {
            name,
            parent,
            job,
            attempt,
            start_ns: start,
            end_ns: end,
        });
        out
    }
}

/// Replay `events`, the capture of `workload.engine(tree, input)` run on
/// `input.log`, and report per-layer time plus every mismatch.
pub fn replay(workload: &Workload, tree: &Tree, input: &LogInput, events: &[Event]) -> Report {
    let cfg = workload.config(input.seed);
    let jobs: HashMap<u64, &Job> = input.log.jobs.iter().map(|j| (j.id.0, j)).collect();
    // The same evaluator sharing the engine sets up: adaptive and SA
    // score candidates through the evaluator that then prices the winner.
    let evaluator = Arc::new(Mutex::new(PlacementEvaluator::new()));
    let selector: Box<dyn NodeSelector> = match cfg.selector {
        SelectorKind::Adaptive => Box::new(AdaptiveSelector::with_evaluator(
            CostModel::HOP_BYTES,
            Arc::clone(&evaluator),
        )),
        SelectorKind::Sa => Box::new(SaSelector::with_evaluator(
            CostModel::HOP_BYTES,
            cfg.sa_budget,
            cfg.sa_seed,
            Arc::clone(&evaluator),
        )),
        k => k.build(),
    };
    // The engine prices both models from one traversal when their trunk
    // discounts agree, which every workload's configuration guarantees.
    assert_eq!(
        cfg.cost_model.trunk_discount, cfg.ratio_model.trunk_discount,
        "replay models the fused evaluation path only"
    );
    let mut state = ClusterState::new(tree);
    let mut rep = Report::default();
    let mut timer = Timer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut held: Option<HealthOp> = None;

    for ev in events {
        let touches_state = matches!(
            ev.kind,
            EventKind::JobPlace { .. }
                | EventKind::Fault { .. }
                | EventKind::SwitchFault { .. }
                | EventKind::JobFinish {
                    status: EndStatus::Completed,
                    ..
                }
        );
        if touches_state {
            if let Some(op) = held.take() {
                apply_health(&mut state, tree, op, &mut rep, &mut timer);
            }
        }
        match ev.kind {
            EventKind::JobPlace {
                job,
                attempt,
                nodes,
                cost_actual,
                cost_default,
            } => {
                let Some(j) = jobs.get(&job) else {
                    rep.mismatch(format!("job_place for unknown job {job}"));
                    continue;
                };
                rep.places += 1;
                let req = AllocRequest {
                    job: j.id,
                    nodes: j.nodes,
                    nature: j.nature,
                    pattern: j
                        .comm
                        .first()
                        .map(|(p, _)| CollectiveSpec::new(*p, cfg.msize)),
                    attempt,
                };
                let parent = timer.spans.len();
                let start = timer.now_ns();
                timer.spans.push(Span {
                    name: "place",
                    parent: None,
                    job,
                    attempt,
                    start_ns: start,
                    end_ns: start,
                });
                let chosen = timer.time(
                    &mut rep.select,
                    ("select", Some(parent), job, attempt),
                    || selector.select(tree, &state, &req),
                );
                let Ok(chosen) = chosen else {
                    rep.mismatch(format!(
                        "job {job}.{attempt}: selector declined a traced placement"
                    ));
                    continue;
                };
                let mut costs = (0.0, 0.0);
                if j.nature.is_comm() && !j.comm.is_empty() {
                    let default_nodes = if cfg.selector == SelectorKind::Default {
                        chosen.clone()
                    } else {
                        let d = timer.time(
                            &mut rep.default_select,
                            ("default_select", Some(parent), job, attempt),
                            || DefaultTreeSelector.select(tree, &state, &req),
                        );
                        let Ok(d) = d else {
                            rep.mismatch(format!("job {job}.{attempt}: default selector declined"));
                            continue;
                        };
                        d
                    };
                    let mut ev = evaluator.lock().expect("evaluator mutex poisoned");
                    for (alloc, total) in [(&chosen, &mut costs.0), (&default_nodes, &mut costs.1)]
                    {
                        for &(pattern, _) in &j.comm {
                            let spec = CollectiveSpec::new(pattern, cfg.msize);
                            rep.eval.nodes += alloc.len() as u64;
                            let t = timer.time(
                                &mut rep.eval,
                                ("eval", Some(parent), job, attempt),
                                || {
                                    ev.evaluate(
                                        tree,
                                        &state,
                                        cfg.cost_model.trunk_discount,
                                        alloc,
                                        &spec,
                                    )
                                },
                            );
                            *total += t.for_model(&cfg.cost_model);
                        }
                    }
                }
                if chosen.len() as u64 != nodes
                    || costs.0.to_bits() != cost_actual.to_bits()
                    || costs.1.to_bits() != cost_default.to_bits()
                {
                    rep.mismatch(format!(
                        "job {job}.{attempt}: traced {nodes} nodes, costs {cost_actual}/{cost_default}; \
                         replayed {} nodes, costs {}/{}",
                        chosen.len(),
                        costs.0,
                        costs.1
                    ));
                }
                rep.allocate.nodes += chosen.len() as u64;
                let done = timer.time(
                    &mut rep.allocate,
                    ("allocate", Some(parent), job, attempt),
                    || state.allocate(tree, j.id, &chosen, j.nature),
                );
                if let Err(e) = done {
                    rep.mismatch(format!("job {job}.{attempt}: allocate failed: {e:?}"));
                }
                timer.spans[parent].end_ns = timer.now_ns();
            }
            EventKind::JobFinish { job, attempt, .. }
            | EventKind::JobRequeue { job, attempt, .. } => {
                let freed = timer.time(&mut rep.release, ("release", None, job, attempt), || {
                    state.release(tree, JobId(job))
                });
                match freed {
                    Ok(a) => rep.release.nodes += a.nodes.len() as u64,
                    Err(e) => rep.mismatch(format!("job {job}.{attempt}: release failed: {e:?}")),
                }
            }
            EventKind::Fault { node, kind } => {
                held = Some(HealthOp::Node(NodeId(node as usize), kind));
            }
            EventKind::SwitchFault { switch, kind, .. } => {
                held = Some(HealthOp::Switch(SwitchId(switch as usize), kind));
            }
            _ => {}
        }
    }
    if let Some(op) = held.take() {
        apply_health(&mut state, tree, op, &mut rep, &mut timer);
    }
    if state.num_jobs() != 0 {
        rep.mismatch(format!(
            "{} jobs still allocated after the replay",
            state.num_jobs()
        ));
    }
    if let Err(e) = state.check_invariants(tree) {
        rep.mismatch(format!("final replay state breaks invariants: {e}"));
    }
    rep.spans = timer.spans;
    rep
}

/// Apply a held fault transition with the engine's redundancy guards.
fn apply_health(
    state: &mut ClusterState,
    tree: &Tree,
    op: HealthOp,
    rep: &mut Report,
    timer: &mut Timer,
) {
    let span = ("health", None, 0, 0);
    let done = match op {
        HealthOp::Node(n, FaultClass::Fail) if state.health(n) != NodeHealth::Down => {
            timer.time(&mut rep.health, span, || state.set_down(tree, n))
        }
        HealthOp::Node(n, FaultClass::Recover) if state.health(n) != NodeHealth::Up => {
            timer.time(&mut rep.health, span, || state.set_up(tree, n))
        }
        HealthOp::Node(n, FaultClass::Drain) if state.health(n) != NodeHealth::Down => timer
            .time(&mut rep.health, span, || state.set_draining(tree, n))
            .map(|_| ()),
        HealthOp::Switch(s, FaultClass::Fail) if !state.switch_is_down(s) => {
            timer.time(&mut rep.health, span, || state.set_switch_down(tree, s))
        }
        HealthOp::Switch(s, FaultClass::Recover) if state.switch_is_down(s) => {
            timer.time(&mut rep.health, span, || state.set_switch_up(tree, s))
        }
        _ => Ok(()),
    };
    if let Err(e) = done {
        rep.mismatch(format!("fault transition {op:?} failed: {e:?}"));
    }
}
