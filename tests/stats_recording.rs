//! End-to-end checks of operation statistics: the per-op round view
//! the trace analyzer builds from the per-environment observability
//! sink must match what the plan implies, and the per-rank metrics
//! carried on [`IoReport`] must agree with it.

use mccio_suite::core::prelude::*;
use mccio_suite::mpiio::{IoReport, OpMetrics};
use mccio_suite::obs::analyze::{CriticalPath, TraceAnalysis};
use mccio_suite::obs::{ObsSink, Phase};
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::KIB;
use mccio_suite::workloads::data;

struct OpRun {
    analysis: TraceAnalysis,
    /// `(dir, volume, requests)` of every `round` span, read straight
    /// off the sink: the root-merged facts the round was priced from.
    round_spans: Vec<(&'static str, u64, u64)>,
    reports: Vec<(IoReport, IoReport)>,
    total: u64,
}

impl OpRun {
    /// The one op of direction `dir` (`"write"` or `"read"`).
    fn op(&self, dir: &str) -> &CriticalPath {
        let mut ops = self.analysis.ops.iter().filter(|op| op.dir == dir);
        let op = ops.next().unwrap_or_else(|| panic!("no {dir} op"));
        assert!(ops.next().is_none(), "one {dir} op per run");
        op
    }

    /// Every rank's metrics for one direction, folded the way
    /// `IoReport::absorb` does for a collective operation.
    fn folded(&self, write: bool) -> OpMetrics {
        let mut folded = OpMetrics::default();
        for (w, r) in &self.reports {
            folded.absorb(if write { w.metrics } else { r.metrics });
        }
        folded
    }

    /// Summed `(volume, requests)` over the round spans of `dir`, and
    /// the number of those spans.
    fn round_totals(&self, dir: &str) -> (u64, u64, usize) {
        let spans: Vec<_> = self.round_spans.iter().filter(|s| s.0 == dir).collect();
        for (_, _, requests) in &spans {
            assert!(*requests >= 1, "every {dir} round issues a request");
        }
        let volume = spans.iter().map(|s| s.1).sum();
        let requests = spans.iter().map(|s| s.2).sum();
        (volume, requests, spans.len())
    }

    fn counter(&self, name: &str) -> u64 {
        self.analysis.counters.get(name).copied().unwrap_or(0)
    }
}

fn run_op(buffer: u64) -> OpRun {
    let obs = ObsSink::enabled();
    let cluster = test_cluster(2, 2);
    let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
    let world = World::new(CostModel::new(cluster.clone()), placement);
    let env = IoEnv::new(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
    )
    .with_obs(obs.clone());
    let total = 4u64 * 256 * KIB;
    let reports = world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("stats");
        let extents =
            ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * 256 * KIB, 256 * KIB)]);
        let payload = data::fill(&extents);
        let strategy = TwoPhase(TwoPhaseConfig::with_buffer(buffer));
        let w = write_all(ctx, &env, &handle, &extents, &payload, &strategy);
        let (_, r) = read_all(ctx, &env, &handle, &extents, &strategy);
        (w, r)
    });
    let round_spans = obs
        .events()
        .iter()
        .filter(|e| e.name == "round")
        .map(|e| {
            (
                e.attr_str("dir").expect("round dir"),
                e.attr_u64("volume").expect("round volume"),
                e.attr_u64("requests").expect("round requests"),
            )
        })
        .collect();
    OpRun {
        analysis: TraceAnalysis::of_sink(&obs).expect("trace analyzes"),
        round_spans,
        reports,
        total,
    }
}

#[test]
fn records_cover_both_directions_with_full_volume() {
    let run = run_op(128 * KIB);
    assert_eq!(run.analysis.ops.len(), 2, "one write op, one read op");
    let mut rounds = 0;
    for (dir, write) in [("write", true), ("read", false)] {
        let op = run.op(dir);
        assert!(op.rounds >= 1, "{dir} ran rounds");
        rounds += op.rounds;
        // Every round is priced: its phase segments hold time.
        for i in 0..op.rounds {
            let secs: f64 = op
                .segments
                .iter()
                .filter(|s| s.round == Some(i))
                .map(|s| s.dur().as_secs())
                .sum();
            assert!(secs > 0.0, "{dir} round {i} is priced");
        }
        let m = run.folded(write);
        assert_eq!(m.storage_bytes, run.total, "{dir} moves the full volume");
        let (volume, _, _) = run.round_totals(dir);
        assert_eq!(volume, run.total, "{dir} round spans carry the full volume");
        assert!(m.storage_requests >= op.rounds as u64, "{dir} requests");
    }
    // The root-priced round facts agree: one settle per round, every
    // round with at least one storage client, and both directions'
    // full volume through storage.
    assert_eq!(run.counter("round.count"), rounds as u64);
    let clients = &run.analysis.histograms["round.clients"];
    assert_eq!(clients.count(), rounds as u64);
    assert!(clients.min() >= 1.0);
    assert_eq!(run.counter("storage.volume_bytes"), 2 * run.total);
}

#[test]
fn smaller_buffers_record_more_rounds() {
    let big = run_op(512 * KIB);
    let small = run_op(64 * KIB);
    let rounds = |run: &OpRun| run.op("write").rounds;
    assert!(
        rounds(&small) > rounds(&big),
        "{} vs {}",
        rounds(&small),
        rounds(&big)
    );
}

#[test]
fn phase_times_sum_to_something_plausible() {
    let run = run_op(128 * KIB);
    let ops = &run.analysis.ops;
    let storage: f64 = ops
        .iter()
        .map(|op| op.attribution.get(Phase::Storage))
        .sum();
    let total: f64 = ops.iter().map(|op| op.attribution.total()).sum();
    assert!(storage > 0.0, "storage must dominate somewhere");
    assert!(total >= storage);
    let rounds: usize = ops.iter().map(|op| op.rounds).sum();
    assert_eq!(rounds as u64, run.counter("round.count"));
}

#[test]
fn report_metrics_agree_with_derived_records() {
    let run = run_op(128 * KIB);
    for (w, r) in &run.reports {
        assert!(w.metrics.any(), "write report carries metrics");
        assert!(r.metrics.any(), "read report carries metrics");
        // Per-rank round counts match the engine's global round count:
        // every rank participates in every settled round.
        assert_eq!(
            w.metrics.rounds,
            run.op("write").rounds as u64,
            "rank saw all write rounds"
        );
        assert_eq!(
            r.metrics.rounds,
            run.op("read").rounds as u64,
            "rank saw all read rounds"
        );
        assert!(w.metrics.mem_peak_max > 0.0, "aggregators reserved memory");
    }
    // Summed storage traffic equals the operation volume: the two-phase
    // write pushes every byte through the aggregation buffers exactly
    // once.
    let (writes, reads) = (run.folded(true), run.folded(false));
    assert_eq!(writes.storage_bytes, run.total);
    // Per direction, the root-merged facts on the round spans (what the
    // round was priced from) equal the sum of every rank's own report:
    // a root merge that dropped or double-counted a rank would differ.
    for (dir, folded) in [("write", writes), ("read", reads)] {
        let (volume, requests, spans) = run.round_totals(dir);
        assert_eq!(spans, run.op(dir).rounds, "{dir} round spans");
        assert_eq!(volume, folded.storage_bytes, "{dir} round volume");
        assert_eq!(requests, folded.storage_requests, "{dir} round requests");
    }
    assert_eq!(
        run.counter("storage.volume_bytes"),
        writes.storage_bytes + reads.storage_bytes
    );
    assert_eq!(
        run.counter("storage.requests"),
        writes.storage_requests + reads.storage_requests
    );
}
