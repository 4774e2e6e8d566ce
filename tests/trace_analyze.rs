//! End-to-end checks of the trace analyzer on a fixed-seed small
//! config: the critical path must tile each op span to the bit and agree
//! with the ranks' own `IoReport` metrics, occupancy timelines
//! must respect the node ceilings and balance to zero, a run diffed
//! against itself must be all zeros, and the JSONL artifact must replay
//! into a bit-identical analysis.

use mccio_suite::core::prelude::*;
use mccio_suite::mpiio::{IoReport, OpMetrics};
use mccio_suite::obs::analyze::{TraceAnalysis, TraceEvent};
use mccio_suite::obs::{export, ObsSink, Phase};
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::KIB;
use mccio_suite::workloads::data;

/// Runs the fixed fig7-small config — 4 ranks on 2 nodes, 256 KiB per
/// rank, 96 KiB aggregation buffers, fully deterministic — and returns
/// the sink plus the per-rank `(write, read)` reports.
fn run_small() -> (ObsSink, Vec<(IoReport, IoReport)>) {
    let obs = ObsSink::enabled();
    let cluster = test_cluster(2, 2);
    let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
    let world = World::new(CostModel::new(cluster.clone()), placement);
    let env = IoEnv::new(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
    )
    .with_obs(obs.clone());
    let reports = world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("analyzed");
        let extents =
            ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * 256 * KIB, 256 * KIB)]);
        let payload = data::fill(&extents);
        let strategy = TwoPhase(TwoPhaseConfig::with_buffer(96 * KIB));
        let w = write_all(ctx, &env, &handle, &extents, &payload, &strategy);
        let (_, r) = read_all(ctx, &env, &handle, &extents, &strategy);
        (w, r)
    });
    (obs, reports)
}

fn analyze_small() -> (ObsSink, Vec<(IoReport, IoReport)>, TraceAnalysis) {
    let (obs, reports) = run_small();
    let analysis = TraceAnalysis::of_sink(&obs).expect("trace analyzes");
    (obs, reports, analysis)
}

#[test]
fn critical_path_totals_are_the_op_spans_to_the_bit() {
    let (_, reports, analysis) = analyze_small();
    assert_eq!(analysis.ops.len(), 2, "one write op, one read op");
    assert_eq!(analysis.ops[0].dir, "write");
    assert_eq!(analysis.ops[1].dir, "read");
    // The op span is emitted by rank 0 with the collective elapsed
    // time; the analyzer must carry it verbatim.
    let (w, r) = &reports[0];
    assert_eq!(
        analysis.ops[0].total.as_secs().to_bits(),
        w.elapsed.as_secs().to_bits()
    );
    assert_eq!(
        analysis.ops[1].total.as_secs().to_bits(),
        r.elapsed.as_secs().to_bits()
    );
    for op in &analysis.ops {
        // The segments tile the op span: first on its start, joints
        // bit-equal, last on its end.
        op.verify_tiling()
            .unwrap_or_else(|e| panic!("{} path: {e}", op.dir));
    }
}

// The name predates the per-op round view: the independent source is
// now the ranks' own reports. Each op's round count must equal rank 0's
// `IoReport` round count, every rank's summed storage bytes must equal
// the written total, and the attribution must hold the fixed config's
// golden facts below.
#[test]
fn attribution_matches_independently_derived_round_records() {
    let (_, reports, analysis) = analyze_small();
    assert_eq!(analysis.ops.len(), 2, "one write op, one read op");
    for (op, write) in analysis.ops.iter().zip([true, false]) {
        let metrics = |(w, r): &(IoReport, IoReport)| if write { w.metrics } else { r.metrics };
        // Rank 0 counts the rounds it ran itself; the analyzer counts
        // the round spans the root priced.
        assert_eq!(
            op.rounds as u64,
            metrics(&reports[0]).rounds,
            "{} round count agrees with rank 0's report",
            op.dir
        );
        let mut folded = OpMetrics::default();
        for pair in &reports {
            folded.absorb(metrics(pair));
        }
        assert_eq!(
            folded.storage_bytes,
            4 * 256 * KIB,
            "{} moves every written byte through storage",
            op.dir
        );
        // Golden facts of the fixed config: storage dominates, every
        // round runs, nothing waits on retries, stragglers are real
        // ranks.
        assert_eq!(op.attribution.dominant(), Phase::Storage);
        assert_eq!(op.attribution.backoff, 0.0, "healthy run never backs off");
        assert!(op.rounds >= 2, "256 KiB through 96 KiB buffers re-rounds");
        for seg in &op.segments {
            if let Some(rank) = seg.straggler {
                assert!(rank < 4, "straggler {rank} is not a rank of this world");
            }
        }
        assert!(op.top_straggler().is_some(), "storage names a straggler");
    }
}

#[test]
fn occupancy_never_exceeds_ceiling_and_balances_to_zero() {
    let (_, _, analysis) = analyze_small();
    assert!(
        !analysis.memory.is_empty(),
        "aggregators reserved buffers on at least one node"
    );
    for tl in &analysis.memory {
        assert!(
            tl.within_ceiling(),
            "node {} overflowed its ceiling: {:?}",
            tl.node,
            tl.overflow
        );
        assert_eq!(
            tl.reserved, tl.released,
            "node {} reserve/release must pair",
            tl.node
        );
        assert_eq!(tl.final_occupancy, 0, "node {} leaks buffers", tl.node);
        assert!(tl.peak > 0, "node {} never held anything", tl.node);
        for p in &tl.points {
            assert!(p.occupancy <= p.ceiling, "point over ceiling: {p:?}");
        }
    }
    // The sink counters double-check the pairing, and the timelines
    // must account for every reserved byte the counters saw.
    let reserved = analysis.counters.get("mem.reserve.bytes").copied();
    let released = analysis.counters.get("mem.release.bytes").copied();
    assert!(reserved.is_some(), "runs must reserve buffers");
    assert_eq!(reserved, released, "reserve/release byte counters match");
    let timeline_total: u64 = analysis.memory.iter().map(|tl| tl.reserved).sum();
    assert_eq!(Some(timeline_total), reserved);
}

#[test]
fn self_diff_is_all_zeros() {
    let (_, _, analysis) = analyze_small();
    let diff = analysis.diff(&analysis.clone());
    assert!(diff.is_zero(0.0), "self diff must be exactly zero");
    for p in &diff.phases {
        assert_eq!(p.delta(), 0.0);
    }
    for c in &diff.counters {
        assert_eq!(c.delta(), 0);
    }
    // And two independent runs of the same config are equally zero:
    // the simulation is deterministic end to end.
    let (_, _, again) = analyze_small();
    assert!(analysis.diff(&again).is_zero(0.0));
}

#[test]
fn jsonl_replay_reproduces_the_analysis_bit_for_bit() {
    let (obs, _, live) = analyze_small();
    let doc = export::jsonl(&obs.events());
    let events = TraceEvent::from_jsonl(&doc).expect("JSONL replays");
    let replayed = TraceAnalysis::from_events(&events).expect("replayed trace analyzes");
    assert_eq!(replayed.ops.len(), live.ops.len());
    for (r, l) in replayed.ops.iter().zip(&live.ops) {
        assert_eq!(r.dir, l.dir);
        assert_eq!(r.rounds, l.rounds);
        assert_eq!(
            r.total.as_secs().to_bits(),
            l.total.as_secs().to_bits(),
            "op total must survive the JSONL round trip bit-exactly"
        );
        for &p in &Phase::ALL {
            assert_eq!(
                r.attribution.get(p).to_bits(),
                l.attribution.get(p).to_bits(),
                "phase {} attribution must round-trip bit-exactly",
                p.name()
            );
        }
        assert_eq!(r.segments.len(), l.segments.len());
        for (a, b) in r.segments.iter().zip(&l.segments) {
            assert_eq!(a.from.as_secs().to_bits(), b.from.as_secs().to_bits());
            assert_eq!(a.to.as_secs().to_bits(), b.to.as_secs().to_bits());
            assert_eq!(a.phase, b.phase);
        }
    }
    assert_eq!(replayed.memory, live.memory, "occupancy timelines agree");
}
