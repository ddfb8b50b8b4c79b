//! A wall clock corrected for host speed.
//!
//! On shared hosts the CPU's speed drifts by tens of percent over tens of
//! seconds (frequency scaling, neighbours on the same core), and a
//! benchmark run is too short to average the drift out. The clock times a
//! fixed probe kernel, which shares no code with the program, around every
//! interval it measures, and rescales the interval to what it would have
//! taken while the probe ran in [`PROBE_REF_S`]. A change to the program
//! moves the corrected time exactly as much as the raw time; a change in
//! host speed moves the probe too and cancels out.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Probe time, seconds, that corrected times are expressed against:
/// about what the probe takes on a 2-CPU Xeon VM in its faster phases.
pub const PROBE_REF_S: f64 = 0.070;

const SET_STEPS: u32 = 60_000;
const PROFILE_STEPS: u64 = 16_000;
const PROBE_KEYS: u32 = 100_000;
const PROBE_WORDS: usize = 1 << 15;

/// One measured interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Interval {
    /// Wall seconds.
    pub raw_s: f64,
    /// Wall seconds at the reference probe speed.
    pub ref_s: f64,
}

/// The corrected clock: owns the probe's state and its latest reading.
pub struct Clock {
    set: BTreeSet<(u32, u32)>,
    profile: BTreeMap<u64, i64>,
    words: Vec<u64>,
    last_probe_s: f64,
    /// Every probe reading, seconds.
    pub probes: Vec<f64>,
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock {
    /// A clock with one probe reading taken.
    pub fn new() -> Self {
        let mut clock = Clock {
            set: (0..4096u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) % PROBE_KEYS, i))
                .collect(),
            profile: (0..256u64).map(|i| (i * 389, 1)).collect(),
            words: vec![0; PROBE_WORDS],
            last_probe_s: 0.0,
            probes: Vec::new(),
        };
        clock.last_probe_s = clock.probe();
        clock
    }

    /// Time the fixed kernel, two parts shaped like the scheduler's hot
    /// paths: ordered-set churn with writes to a 256 KiB array (index
    /// upkeep), and prefix sums over a 256-entry ordered map that keeps
    /// changing (a backfill availability profile). Of the kernels tried,
    /// the pair tracked the scheduler's drift most closely.
    fn probe(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x1234_5678_9abc_def1u64;
        let mut acc = 0u64;
        for _ in 0..SET_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % u64::from(PROBE_KEYS)) as u32;
            if let Some(&next) = self.set.range((key, 0)..).next() {
                self.set.remove(&next);
                acc = acc.wrapping_add(u64::from(next.1));
            }
            self.set
                .insert(((x >> 20) as u32 % PROBE_KEYS, (x >> 40) as u32));
            let i = (x as usize >> 8) & (PROBE_WORDS - 1);
            self.words[i] = self.words[i].wrapping_add(acc);
        }
        let keys = u64::from(PROBE_KEYS);
        let mut total = 0i64;
        for _ in 0..PROFILE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = x % keys;
            total = total.wrapping_add(self.profile.range(..=at).map(|(_, d)| *d).sum::<i64>());
            if let Some((&k, _)) = self.profile.range(at..).next() {
                self.profile.remove(&k);
            }
            *self.profile.entry((x >> 20) % keys).or_insert(0) += 1;
        }
        black_box((acc, total));
        let s = t.elapsed().as_secs_f64();
        self.probes.push(s);
        s
    }

    /// Run `f` and measure it, correcting by the mean of the probe
    /// readings just before and just after it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Interval) {
        let before = self.last_probe_s;
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.probe();
        self.last_probe_s = after;
        let ref_s = raw_s * PROBE_REF_S / ((before + after) / 2.0);
        (out, Interval { raw_s, ref_s })
    }
}
