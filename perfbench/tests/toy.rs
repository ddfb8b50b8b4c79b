//! Every workload at toy size on a second seed, and the replay oracle's
//! sensitivity to a tampered trace.

use commsched_metrics::Registry;
use commsched_perfbench::bench::{measure, Settings};
use commsched_perfbench::replay::replay;
use commsched_perfbench::spec::{workload, WORKLOADS};
use commsched_trace::{Capture, EventKind};

const SEED: u64 = 7;

fn toy_settings() -> Settings {
    Settings {
        seconds: 0.0,
        min_cycles: 2,
        setup_reps: 2,
    }
}

#[test]
fn every_workload_passes_its_checks_at_toy_size() {
    for w in WORKLOADS {
        let w = w.sized(2, 40);
        let m = measure(&w, SEED, &toy_settings()).expect("set-up succeeds");
        assert!(m.failures.is_empty(), "{}: {:?}", w.name, m.failures);
        assert_eq!(m.replay.mismatches, 0, "{}", w.name);
        assert!(m.replay.places >= 40, "{}: every job is placed", w.name);
        assert_eq!(m.outcomes.len(), 2, "{}", w.name);
        assert_eq!(m.reference.len(), 2, "{}", w.name);
        assert!(m.jobs_per_sec(|i| i.ref_s) > 0.0, "{}", w.name);
        if w.churn.is_some() {
            assert!(m.replay.health.calls() > 0, "{}: faults replayed", w.name);
        }
        if w.comm_pct == 0 {
            assert_eq!(
                m.replay.eval.calls(),
                0,
                "{}: compute jobs skip eval",
                w.name
            );
        }
    }
}

#[test]
fn a_tampered_trace_is_caught_by_the_replay() {
    let w = workload("mira_comm").expect("workload exists").sized(1, 30);
    let (inputs, _) = w.setup(SEED).expect("set-up succeeds");
    let input = &inputs.logs[0];
    let mut capture = Capture::new();
    w.engine(&inputs.tree, input)
        .run_observed(&input.log, &mut capture, &mut Registry::new())
        .expect("run succeeds");
    let clean = replay(&w, &inputs.tree, input, &capture.events);
    assert_eq!(clean.mismatches, 0, "{:?}", clean.notes);

    let place = capture
        .events
        .iter()
        .position(
            |e| matches!(e.kind, EventKind::JobPlace { cost_actual, .. } if cost_actual > 0.0),
        )
        .expect("a communication-intensive placement");
    let mut events = capture.events.clone();
    if let EventKind::JobPlace { cost_actual, .. } = &mut events[place].kind {
        *cost_actual = f64::from_bits(cost_actual.to_bits() + 1);
    }
    let tampered = replay(&w, &inputs.tree, input, &events);
    assert_eq!(tampered.mismatches, 1, "{:?}", tampered.notes);

    let mut events = capture.events.clone();
    if let EventKind::JobPlace { nodes, .. } = &mut events[place].kind {
        *nodes += 1;
    }
    assert_eq!(replay(&w, &inputs.tree, input, &events).mismatches, 1);
}
