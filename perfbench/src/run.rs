//! The two runs of a workload: the untraced end-to-end run and the
//! traced per-layer run. Both check every op's read-back and every
//! op's exact outputs.

use std::collections::BTreeMap;
use std::time::Instant;

use mccio_obs::{export, ObsSink, StreamConfig};
use mccio_sim::hostprof::{self, N_PHASES};

use crate::harness::{Pair, Rig, Signature};
use crate::layers;
use crate::report::Metric;
use crate::spec::{Inputs, Spec};

/// Exemplar rank lanes the traced run's streaming sink keeps verbatim.
const TRACE_EXEMPLARS: u32 = 8;
/// Set-ups timed for `setup_s`, each in a fresh process: the run's own
/// plus `SETUPS - 1` [`setup_sample`] children.
pub const SETUPS: usize = 5;
/// Pairs run after the set-up and before timing starts; verified like
/// every other pair, but left out of the walls.
const WARMUP_PAIRS: u64 = 1;
/// Timed pairs run whatever `seconds` says; the virtual bandwidths are
/// taken over exactly these.
const MIN_PAIRS: u64 = 3;

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub spec: Spec,
    /// Input seed.
    pub seed: u64,
    /// Seconds of steady-state ops to measure.
    pub seconds: f64,
    /// Flip one read-back byte of this op before verifying it (tests
    /// the failure accounting).
    pub corrupt_op: Option<u64>,
}

impl Config {
    /// The benchmark's settings for `spec`.
    #[must_use]
    pub fn new(spec: Spec, seed: u64, seconds: f64) -> Config {
        Config {
            spec,
            seed,
            seconds,
            corrupt_op: None,
        }
    }
}

/// Failure and exactness accounting across every op of a run.
#[derive(Debug)]
pub struct Checks {
    spec: Spec,
    /// Collective ops attempted (a write+read pair is two).
    pub attempted: u64,
    /// Ops that panicked or read back wrong bytes.
    pub failed: u64,
    /// Exact-output violations: op-to-op, traced-to-untraced, golden.
    pub inexact: Vec<String>,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    reference: Option<Signature>,
    by_op: BTreeMap<u64, Signature>,
}

impl Checks {
    fn new(spec: Spec) -> Checks {
        Checks {
            spec,
            attempted: 0,
            failed: 0,
            inexact: Vec::new(),
            failures: Vec::new(),
            reference: None,
            by_op: BTreeMap::new(),
        }
    }

    /// Failed ops over attempted ops.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// No failed op and no exactness violation.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.inexact.is_empty() && self.attempted > 0
    }

    /// The exact outputs every op of an interleaved workload shares.
    #[must_use]
    pub fn reference(&self) -> Option<Signature> {
        self.reference
    }

    /// Verifies pair `op` (outside every timed window) and checks its
    /// exact outputs; returns the signature when the pair succeeded.
    fn check(
        &mut self,
        op: u64,
        inputs: &Inputs,
        mut pair: Pair,
        corrupt: bool,
    ) -> Option<Signature> {
        self.attempted += 2;
        if let Some(err) = pair.error {
            self.fail(2, format!("op {op}: {err}"));
            return None;
        }
        if corrupt {
            if let Some(byte) = pair.read_back.iter_mut().find_map(|b| b.first_mut()) {
                *byte ^= 0xFF;
            }
        }
        if let Some(bad) = inputs.verify(&pair.read_back) {
            self.fail(1, format!("op {op}: {bad}"));
        }
        let sig = pair
            .signature
            .expect("a pair without error has a signature");
        self.exact(op, sig);
        Some(sig)
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    fn exact(&mut self, op: u64, sig: Signature) {
        match self.by_op.get(&op) {
            Some(prev) if *prev != sig => self.inexact.push(format!(
                "op {op}: exact outputs differ between runs of the same inputs"
            )),
            Some(_) => {}
            None => {
                self.by_op.insert(op, sig);
            }
        }
        if self.spec.random {
            return;
        }
        match self.reference {
            None => {
                if let Some(g) = self.spec.golden {
                    let (w, r) = (
                        format!("{:.9}", sig.write_secs()),
                        format!("{:.9}", sig.read_secs()),
                    );
                    if w != g.write || r != g.read {
                        self.inexact.push(format!(
                            "virtual write {w} s / read {r} s, golden {} / {}",
                            g.write, g.read
                        ));
                    }
                }
                self.reference = Some(sig);
            }
            Some(reference) if reference != sig => self
                .inexact
                .push(format!("op {op}: exact outputs differ from the first op")),
            Some(_) => {}
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `v` (0 when empty).
#[must_use]
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

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Results of the untraced end-to-end run.
#[derive(Debug)]
pub struct EndToEnd {
    /// Seconds of this process's set-up: world + environment + cold
    /// pair. Callers add samples from fresh processes.
    pub setup_s: Vec<f64>,
    /// Host seconds of each steady-state collective write.
    pub write_walls: Vec<f64>,
    /// Host seconds of each steady-state collective read.
    pub read_walls: Vec<f64>,
    /// Virtual write MB/s over the first `MIN_PAIRS` timed pairs.
    pub virtual_write_mbps: f64,
    /// Virtual read MB/s over the same pairs.
    pub virtual_read_mbps: f64,
    /// Seconds of input generation per op (harness cost).
    pub input_s: Vec<f64>,
    /// Seconds of read-back verification per pair (harness cost).
    pub verify_s: Vec<f64>,
    /// Failure and exactness accounting.
    pub checks: Checks,
}

/// Builds the world and the environment and runs the cold first pair
/// of op 0: the set-up every CLI run pays. Returns the rig and the
/// set-up's host seconds; the pair is verified after the clock stops.
fn set_up(cfg: &Config, inputs: &Inputs, checks: &mut Checks) -> (Rig, f64) {
    let t = Instant::now();
    let rig = Rig::new(cfg.spec);
    let pair = rig.run_pair(&rig.env, inputs, false);
    let secs = secs_since(t);
    checks.check(0, inputs, pair, cfg.corrupt_op == Some(0));
    (rig, secs)
}

/// One set-up in this process, for a run that samples set-ups in
/// fresh processes: its host seconds and its checks.
#[must_use]
pub fn setup_sample(cfg: &Config) -> (f64, Checks) {
    let inputs = cfg.spec.inputs(cfg.seed, 0);
    let mut checks = Checks::new(cfg.spec);
    let (_, secs) = set_up(cfg, &inputs, &mut checks);
    (secs, checks)
}

/// The untraced run: this process's set-up, then the warm-up pairs and
/// the timed pairs for `seconds` (at least `MIN_PAIRS`).
#[must_use]
pub fn end_to_end(cfg: &Config) -> EndToEnd {
    let spec = cfg.spec;
    let mut out = EndToEnd {
        setup_s: Vec::new(),
        write_walls: Vec::new(),
        read_walls: Vec::new(),
        virtual_write_mbps: 0.0,
        virtual_read_mbps: 0.0,
        input_s: Vec::new(),
        verify_s: Vec::new(),
        checks: Checks::new(spec),
    };
    let t = Instant::now();
    let mut inputs = spec.inputs(cfg.seed, 0);
    out.input_s.push(secs_since(t));
    let (rig, secs) = set_up(cfg, &inputs, &mut out.checks);
    out.setup_s.push(secs);
    steady(cfg, &rig, &mut inputs, &mut out);
    out
}

fn steady(cfg: &Config, rig: &Rig, inputs: &mut Inputs, out: &mut EndToEnd) {
    let spec = cfg.spec;
    let (mut virt_w, mut virt_r) = (0.0, 0.0);
    let mut start = Instant::now();
    let mut op: u64 = 1;
    loop {
        let timed = op.saturating_sub(WARMUP_PAIRS);
        if timed > MIN_PAIRS && secs_since(start) >= cfg.seconds {
            break;
        }
        let t = Instant::now();
        spec.refill(inputs, cfg.seed, op);
        out.input_s.push(secs_since(t));
        let pair = rig.run_pair(&rig.env, inputs, false);
        let (w, r) = (pair.write_wall, pair.read_wall);
        let t = Instant::now();
        let sig = out
            .checks
            .check(op, inputs, pair, cfg.corrupt_op == Some(op));
        out.verify_s.push(secs_since(t));
        op += 1;
        if timed == 0 {
            start = Instant::now();
            continue;
        }
        out.write_walls.push(w);
        out.read_walls.push(r);
        if let (true, Some(sig)) = (timed <= MIN_PAIRS, sig) {
            virt_w += sig.write_secs();
            virt_r += sig.read_secs();
        }
    }
    let mib = (spec.op_bytes() * MIN_PAIRS) as f64 / (1u64 << 20) as f64;
    out.virtual_write_mbps = ratio(mib, virt_w);
    out.virtual_read_mbps = ratio(mib, virt_r);
}

/// Results of the traced per-layer run.
#[derive(Debug)]
pub struct Traced {
    /// Host seconds of each untraced write+read pair.
    pub untraced_walls: Vec<f64>,
    /// Host seconds of each traced write+read pair.
    pub traced_walls: Vec<f64>,
    /// Host-profiler nanoseconds per phase, summed over traced pairs.
    pub phase_nanos: [u64; N_PHASES],
    /// Host-profiler sections per phase, summed over traced pairs.
    pub phase_calls: [u64; N_PHASES],
    /// Exact outputs of one pair.
    pub signature: Option<Signature>,
    /// Recycler hits over takes across every steady-state pair.
    pub recycler_hit_ratio: f64,
    /// Timed calls into each layer's public functions.
    pub layers: Vec<Metric>,
    /// Seconds of input generation per op (harness cost).
    pub input_s: Vec<f64>,
    /// Seconds of read-back verification per pair (harness cost).
    pub verify_s: Vec<f64>,
    /// Where the trace was written (empty if it could not be).
    pub trace_path: String,
    /// Failure and exactness accounting.
    pub checks: Checks,
}

impl Traced {
    /// Collective ops the profiler saw (two per traced pair).
    #[must_use]
    pub fn traced_ops(&self) -> f64 {
        2.0 * self.traced_walls.len() as f64
    }

    /// Host-profiler milliseconds per traced op of phase `i`.
    #[must_use]
    pub fn phase_ms(&self, i: usize) -> f64 {
        ratio(self.phase_nanos[i] as f64 / 1e6, self.traced_ops())
    }

    /// Traced op wall not covered by any profiled phase, ms per op.
    #[must_use]
    pub fn unattributed_ms(&self) -> f64 {
        let wall_ms = self.traced_walls.iter().sum::<f64>() * 1e3;
        ratio(wall_ms, self.traced_ops()) - (0..N_PHASES).map(|i| self.phase_ms(i)).sum::<f64>()
    }

    /// How much longer the median traced pair takes than the median
    /// untraced one, in percent.
    #[must_use]
    pub fn overhead_pct(&self) -> f64 {
        let off = median(&self.untraced_walls);
        ratio(median(&self.traced_walls) - off, off) * 100.0
    }
}

/// The traced run: one set-up and the warm-up pairs, then blocks of
/// untraced (U) and traced (T) pairs in alternating order U T T U, each
/// op index run once each way, for `seconds` (at least two blocks);
/// then the layer calls. Spans go to a streaming sink in memory and
/// are written to `trace_dir` at the end.
#[must_use]
pub fn traced(cfg: &Config, trace_dir: &std::path::Path) -> Traced {
    let spec = cfg.spec;
    let mut out = Traced {
        untraced_walls: Vec::new(),
        traced_walls: Vec::new(),
        phase_nanos: [0; N_PHASES],
        phase_calls: [0; N_PHASES],
        signature: None,
        recycler_hit_ratio: 0.0,
        layers: Vec::new(),
        input_s: Vec::new(),
        verify_s: Vec::new(),
        trace_path: String::new(),
        checks: Checks::new(spec),
    };
    let mut inputs = spec.inputs(cfg.seed, 0);
    let (rig, _) = set_up(cfg, &inputs, &mut out.checks);
    for op in 1..=WARMUP_PAIRS {
        spec.refill(&mut inputs, cfg.seed, op);
        let pair = rig.run_pair(&rig.env, &inputs, false);
        out.checks
            .check(op, &inputs, pair, cfg.corrupt_op == Some(op));
    }

    let sink = ObsSink::streaming(StreamConfig::for_ranks(spec.ranks, TRACE_EXEMPLARS));
    let traced_env = rig.traced_env(sink.clone());
    let rec0 = rig.world.recycler().stats();
    let start = Instant::now();
    let mut block = 0;
    while block < 2 || secs_since(start) < cfg.seconds {
        let first = WARMUP_PAIRS + 2 * block + 1;
        for (op, order) in [(first, [false, true]), (first + 1, [true, false])] {
            let t = Instant::now();
            spec.refill(&mut inputs, cfg.seed, op);
            out.input_s.push(secs_since(t));
            for trace in order {
                let pair = if trace {
                    hostprof::reset();
                    let pair = rig.run_pair(&traced_env, &inputs, true);
                    let prof = hostprof::snapshot();
                    for (i, p) in prof.phases.iter().enumerate() {
                        out.phase_nanos[i] += p.nanos;
                        out.phase_calls[i] += p.calls;
                    }
                    pair
                } else {
                    rig.run_pair(&rig.env, &inputs, false)
                };
                let wall = pair.write_wall + pair.read_wall;
                let t = Instant::now();
                let sig = out
                    .checks
                    .check(op, &inputs, pair, cfg.corrupt_op == Some(op));
                out.verify_s.push(secs_since(t));
                if trace {
                    out.traced_walls.push(wall);
                } else {
                    out.untraced_walls.push(wall);
                    out.signature = out.signature.or(sig);
                }
            }
        }
        block += 1;
    }
    let rec1 = rig.world.recycler().stats();
    let (hits, misses) = (rec1.hits - rec0.hits, rec1.misses - rec0.misses);
    out.recycler_hit_ratio = ratio(hits as f64, (hits + misses) as f64);

    spec.refill(&mut inputs, cfg.seed, 1);
    out.layers = layers::measure(&rig, &inputs);
    out.trace_path = write_trace(&sink, trace_dir, spec.name, cfg.seed);
    out
}

/// Writes the sink's retained spans as JSONL; returns the path, or an
/// empty string if the file could not be written.
fn write_trace(sink: &ObsSink, dir: &std::path::Path, name: &str, seed: u64) -> String {
    let path = dir.join(format!("{name}-seed{seed}.jsonl"));
    let doc = sink.with_events(export::jsonl);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => path.display().to_string(),
        Err(e) => {
            eprintln!("perfbench: could not write {}: {e}", path.display());
            String::new()
        }
    }
}
