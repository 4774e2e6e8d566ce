//! Causal-tracing guarantees, end to end: the online happens-before
//! fold must produce blame chains that tile each op's elapsed virtual
//! time **to the bit**, must be a pure side-channel (virtual time
//! bit-identical with causal tracing on or off), must be bit-identical
//! across the thread-per-rank and discrete-event executors — including
//! under the nastiest crash-recovery schedule in the suite. Each op's
//! critical path is its chain cut at the phase windows: on a healthy run
//! it must equal the path analyzed without causal tracing, and the no-op
//! what-if re-weighting must reproduce the baseline bit-exactly.

use mccio_suite::core::prelude::*;
use mccio_suite::mpiio::IoReport;
use mccio_suite::net::ExecutorKind;
use mccio_suite::obs::{BlameChain, ObsSink, Phase, SegClass, StreamConfig, TraceAnalysis};
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::time::{VDuration, VTime};
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::{KIB, MIB};
use mccio_suite::workloads::data;

fn both_collectives() -> Vec<Box<dyn Strategy>> {
    let tuning = Tuning {
        n_ah: 2,
        msg_ind: 256 * KIB,
        mem_min: 128 * KIB,
        msg_group: MIB,
    };
    vec![
        Box::new(TwoPhase(TwoPhaseConfig::with_buffer(128 * KIB))),
        Box::new(MemoryConscious(MccioConfig::new(
            tuning,
            128 * KIB,
            16 * KIB,
        ))),
    ]
}

/// Eight extents per rank in the rank's own slice (the
/// failure-injection shape, so crash schedules land mid-operation).
fn slice_extents(rank: usize) -> ExtentList {
    let base = rank as u64 * 512 * KIB;
    ExtentList::normalize(
        (0..8)
            .map(|i| Extent::new(base + i * 64 * KIB, 48 * KIB))
            .collect(),
    )
}

/// Write-then-read of `slice_extents` on the 3×2/6-rank world pinned to
/// `kind`, recording into `sink`, optionally under a fault plan.
fn run_traced(
    strategy: &dyn Strategy,
    kind: ExecutorKind,
    sink: &ObsSink,
    plan: Option<FaultPlan>,
) -> Vec<(IoReport, IoReport)> {
    let cluster = test_cluster(3, 2);
    let placement = Placement::new(&cluster, 6, FillOrder::Block).unwrap();
    let world = World::with_executor(CostModel::new(cluster.clone()), placement, kind);
    let fs = FileSystem::new(4, 16 * KIB, PfsParams::default());
    let mem = MemoryModel::pristine(&cluster);
    let env = match plan {
        Some(plan) => IoEnv::with_faults(fs, mem, plan),
        None => IoEnv::new(fs, mem),
    }
    .with_obs(sink.clone());
    world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("causal");
        let extents = slice_extents(ctx.rank());
        let payload = data::fill(&extents);
        let w = write_all(ctx, &env, &handle, &extents, &payload, strategy);
        ctx.barrier();
        let (back, r) = read_all(ctx, &env, &handle, &extents, strategy);
        assert_eq!(data::verify(&extents, &back), None, "rank {}", ctx.rank());
        (w, r)
    })
}

/// A deterministic clock skew: 5 µs of latency on every control-plane
/// message. The engine's phases are root-priced and broadcast, so with
/// zero message latency every rank's clock moves in perfect lock-step
/// and no delivery ever *binds* a receiver — the blame chain is the
/// degenerate all-work-on-root chain (see
/// `lockstep_runs_record_single_work_segment_chains`). With real
/// latency each barrier/gather delivery arrives after the receiver's
/// clock and genuinely advances it, producing cross-rank hops.
fn skew_plan() -> FaultPlan {
    FaultPlan::new(0x5EED).delay_control(VDuration::from_micros(5.0))
}

/// The suite's nastiest schedule: 5 % transient storage faults plus two
/// mid-operation aggregator crashes.
fn crash_plan() -> FaultPlan {
    FaultPlan::new(0x0DD)
        .transient_io_rate(0.05)
        .crash_rank_at(VTime::from_secs(0.004), 0)
        .crash_rank_at(VTime::from_secs(0.012), 2)
}

/// Structural checks every chain must pass: bit-equal tiling of
/// `[start, end]`, time-monotone (acyclic) walk, and every segment
/// inside the op window.
fn assert_well_formed(chain: &BlameChain, who: &str) {
    chain
        .verify_tiling()
        .unwrap_or_else(|e| panic!("{who}: {e}"));
    let mut cursor = chain.start;
    for (i, s) in chain.segments.iter().enumerate() {
        assert!(
            s.from.as_secs() >= cursor.as_secs(),
            "{who}: segment {i} steps backwards — the chain would be cyclic"
        );
        assert!(
            s.from.as_secs() >= chain.start.as_secs() && s.to.as_secs() <= chain.end.as_secs(),
            "{who}: segment {i} escapes the op window"
        );
        cursor = s.to;
    }
}

#[test]
fn blame_chain_tiles_op_elapsed_to_the_bit() {
    for strategy in both_collectives() {
        for kind in [ExecutorKind::Threads, ExecutorKind::Event] {
            let sink = ObsSink::enabled().with_causal();
            let reports = run_traced(&*strategy, kind, &sink, Some(skew_plan()));
            let analysis = TraceAnalysis::of_sink(&sink).expect("analyzable trace");
            assert_eq!(analysis.ops.len(), 2, "one path per op (write, read)");
            assert!(
                analysis
                    .ops
                    .iter()
                    .map(|op| &op.chain)
                    .eq(&sink.causal_chains()),
                "each path is cut from the chain recorded for its op"
            );
            let (w0, r0) = &reports[0];
            for (i, (op, rank0_elapsed)) in analysis
                .ops
                .iter()
                .zip([w0.elapsed, r0.elapsed])
                .enumerate()
            {
                let who = format!("{} {kind:?} op {i}", strategy.name());
                let chain = &op.chain;
                assert_well_formed(chain, &who);
                op.verify_tiling()
                    .unwrap_or_else(|e| panic!("{who}: path {e}"));
                // The chain total is the op span's priced duration and
                // rank 0's reported elapsed time, to the bit.
                assert_eq!(
                    chain.total().as_secs().to_bits(),
                    op.total.as_secs().to_bits(),
                    "{who}: chain total != critical-path total"
                );
                // Under an active fault plan `IoReport.elapsed` spans
                // the whole degradation-ladder descent, which brackets
                // the engine op span the chain tiles — the exact bit
                // equality is pinned on the healthy path by
                // `lockstep_runs_record_single_work_segment_chains`.
                assert!(
                    rank0_elapsed.as_secs() >= chain.total().as_secs(),
                    "{who}: ladder elapsed must bracket the chain total"
                );
                // A real collective crosses ranks: the chain must hop.
                assert!(chain.hops() > 0, "{who}: no cross-rank hop on the path");
                assert!(
                    chain.segments.iter().any(|s| s.class == SegClass::Work),
                    "{who}: no local work on the path"
                );
                // The wait/work split partitions the total (f64 sums,
                // so up to rounding).
                assert!(
                    (chain.wait_secs() + chain.work_secs() - chain.total().as_secs()).abs() < 1e-9,
                    "{who}: wait+work does not partition the total"
                );
            }
        }
    }
}

#[test]
fn one_model_reproduces_the_lockstep_tiling() {
    // On a healthy run the recorded chain is one work segment on rank
    // 0, so cutting it at the phase windows must give exactly the path
    // an untraced-causality analysis synthesizes: same segments, same
    // attribution to the bit, on both executors.
    for strategy in both_collectives() {
        for kind in [ExecutorKind::Threads, ExecutorKind::Event] {
            let plain = ObsSink::enabled();
            run_traced(&*strategy, kind, &plain, None);
            let armed = ObsSink::enabled().with_causal();
            run_traced(&*strategy, kind, &armed, None);
            let plain = TraceAnalysis::of_sink(&plain).expect("plain trace analyzes");
            let armed = TraceAnalysis::of_sink(&armed).expect("causal trace analyzes");
            assert_eq!(plain.ops.len(), 2);
            assert_eq!(armed.ops.len(), 2);
            let bits = |t: VTime| t.as_secs().to_bits();
            for (i, (p, c)) in plain.ops.iter().zip(&armed.ops).enumerate() {
                let who = format!("{} {kind:?} op {i}", strategy.name());
                assert_eq!(p.chain, c.chain, "{who}: lock-step chain");
                assert_eq!(p.segments.len(), c.segments.len(), "{who}");
                for (j, (a, b)) in p.segments.iter().zip(&c.segments).enumerate() {
                    assert_eq!(bits(a.from), bits(b.from), "{who} segment {j} from");
                    assert_eq!(bits(a.to), bits(b.to), "{who} segment {j} to");
                    assert_eq!(a.phase, b.phase, "{who} segment {j} phase");
                    assert_eq!(a.round, b.round, "{who} segment {j} round");
                    assert_eq!(a.straggler, b.straggler, "{who} segment {j} straggler");
                }
                for &phase in &Phase::ALL {
                    assert_eq!(
                        p.attribution.get(phase).to_bits(),
                        c.attribution.get(phase).to_bits(),
                        "{who}: {} attribution",
                        phase.name()
                    );
                }
            }
        }
    }
}

#[test]
fn causal_tracing_is_a_pure_side_channel() {
    // Arming causal tracing must not move virtual time by a bit.
    for strategy in both_collectives() {
        for kind in [ExecutorKind::Threads, ExecutorKind::Event] {
            let plain = run_traced(&*strategy, kind, &ObsSink::disabled(), None);
            let traced = run_traced(&*strategy, kind, &ObsSink::enabled().with_causal(), None);
            assert_eq!(plain.len(), traced.len());
            for (rank, ((pw, pr), (tw, tr))) in plain.iter().zip(&traced).enumerate() {
                assert_eq!(
                    pw.elapsed.as_secs().to_bits(),
                    tw.elapsed.as_secs().to_bits(),
                    "{} {kind:?} rank {rank}: write time moved under causal tracing",
                    strategy.name()
                );
                assert_eq!(
                    pr.elapsed.as_secs().to_bits(),
                    tr.elapsed.as_secs().to_bits(),
                    "{} {kind:?} rank {rank}: read time moved under causal tracing",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn chains_are_bit_identical_across_executors() {
    for strategy in both_collectives() {
        let mut per_executor: Vec<Vec<BlameChain>> = Vec::new();
        for kind in [ExecutorKind::Threads, ExecutorKind::Event] {
            let sink = ObsSink::enabled().with_causal();
            run_traced(&*strategy, kind, &sink, Some(skew_plan()));
            per_executor.push(sink.causal_chains());
        }
        assert!(
            per_executor[0].iter().any(|c| c.hops() > 0),
            "{}: skewed run produced no cross-rank hops — the comparison is vacuous",
            strategy.name()
        );
        assert_eq!(
            per_executor[0],
            per_executor[1],
            "{}: blame chains diverge across executors",
            strategy.name()
        );
    }
}

#[test]
fn crash_recovery_chains_are_bit_identical_across_executors() {
    // The crash schedule drives detection, re-election, and round
    // replay; the replayed messages must fold into the same frontier on
    // both executors.
    for strategy in both_collectives() {
        let mut per_executor: Vec<Vec<BlameChain>> = Vec::new();
        for kind in [ExecutorKind::Threads, ExecutorKind::Event] {
            let sink = ObsSink::enabled().with_causal();
            run_traced(&*strategy, kind, &sink, Some(crash_plan()));
            let agg = sink.causal().expect("armed");
            assert_eq!(
                agg.inflight_len(),
                0,
                "{} {kind:?}: every stamped message must settle, crash replay included",
                strategy.name()
            );
            let chains = sink.causal_chains();
            for (i, chain) in chains.iter().enumerate() {
                assert_well_formed(chain, &format!("{} {kind:?} crash op {i}", strategy.name()));
            }
            per_executor.push(chains);
        }
        assert_eq!(
            per_executor[0],
            per_executor[1],
            "{}: crash-schedule blame chains diverge across executors",
            strategy.name()
        );
    }
}

#[test]
fn identity_what_if_reproduces_baseline_bit_exactly() {
    let strategies = both_collectives();
    let sink = ObsSink::enabled().with_causal();
    run_traced(
        &*strategies[1],
        ExecutorKind::Event,
        &sink,
        Some(skew_plan()),
    );
    let analysis = TraceAnalysis::of_sink(&sink).unwrap();
    for (i, op) in analysis.ops.iter().enumerate() {
        let total = op.total.as_secs();
        // Cut at the real phase windows, the identity re-weighting
        // must reproduce the total bit-exactly.
        assert_eq!(
            op.project(|_, _| 1.0).to_bits(),
            total.to_bits(),
            "op {i}: no-op re-weight must be bit-identical to the baseline"
        );
        // Real scenarios can only help, and zero-network must help on
        // any chain with a message hop.
        let what_ifs = op.what_ifs();
        for w in &what_ifs {
            assert!(
                w.projected_secs <= total + 1e-12,
                "op {i} {}: projection exceeds the baseline",
                w.name
            );
            assert!(w.speedup >= 1.0, "op {i} {}: speedup below 1", w.name);
        }
        let by_name = |n: &str| what_ifs.iter().find(|w| w.name == n).unwrap();
        assert!(
            by_name("zero-network").projected_secs < total,
            "op {i}: zero-network must remove the chain's wait time"
        );
        // Storage holds time in every round, so freeing it must help.
        assert!(
            by_name("infinite-pfs").projected_secs < total,
            "op {i}: infinite-pfs must remove the storage phases"
        );
    }
}

#[test]
fn streaming_sink_records_the_same_chains_without_edge_retention() {
    let strategies = both_collectives();
    let strategy: &dyn Strategy = &*strategies[1];
    let buffered = ObsSink::enabled().with_causal();
    run_traced(strategy, ExecutorKind::Event, &buffered, Some(skew_plan()));
    let streaming = ObsSink::streaming(StreamConfig {
        top_k: 4,
        exemplar_stride: 4,
        exemplar_max: 2,
    })
    .with_causal();
    run_traced(strategy, ExecutorKind::Event, &streaming, Some(skew_plan()));

    // Chains are a pure function of virtual clocks, so the streaming
    // sink records exactly the buffered ones.
    assert_eq!(buffered.causal_chains(), streaming.causal_chains());
    assert!(!streaming.causal_chains().is_empty());

    // Buffered sinks retain per-edge records for flow export; streaming
    // sinks must not (memory stays rank-bounded).
    assert!(!buffered.causal_edges().is_empty());
    assert!(streaming.causal_edges().is_empty());

    // The live frontier collapses to O(ranks + path): far fewer nodes
    // stay reachable than were ever created, and nothing is in flight.
    let agg = streaming.causal().unwrap();
    assert_eq!(agg.inflight_len(), 0);
    assert!(agg.nodes_created() > 0);
    assert!(
        (agg.live_nodes() as u64) < agg.nodes_created(),
        "live {} vs created {} — the frontier never collapsed",
        agg.live_nodes(),
        agg.nodes_created()
    );
}

#[test]
fn lockstep_runs_record_single_work_segment_chains() {
    // With a healthy homogeneous workload the engine's root-priced
    // phases keep every rank's clock identical, so every delivery is
    // slack (`after == before`), nothing binds, and the honest blame
    // chain is a single all-work segment on the root: no rank is more
    // to blame than any other. The tiling invariant must still hold to
    // the bit.
    let strategies = both_collectives();
    let sink = ObsSink::enabled().with_causal();
    let reports = run_traced(&*strategies[0], ExecutorKind::Event, &sink, None);
    let agg = sink.causal().expect("armed");
    assert_eq!(agg.nodes_created(), 0, "lock-step clocks must never bind");
    assert!(
        agg.slack_deliveries() > 0,
        "deliveries still reach the fold"
    );
    let chains = sink.causal_chains();
    assert_eq!(chains.len(), 2);
    let (w0, r0) = &reports[0];
    for (i, (chain, rank0_elapsed)) in chains.iter().zip([w0.elapsed, r0.elapsed]).enumerate() {
        assert_well_formed(chain, &format!("lock-step op {i}"));
        assert_eq!(chain.hops(), 0);
        assert_eq!(chain.segments.len(), 1, "op {i}: one all-work segment");
        assert_eq!(chain.segments[0].class, SegClass::Work);
        assert_eq!(chain.segments[0].rank, 0);
        // On the healthy path there is no ladder descent, so the op
        // span the chain tiles IS the reported elapsed time, to the bit.
        assert_eq!(
            chain.total().as_secs().to_bits(),
            rank0_elapsed.as_secs().to_bits(),
            "op {i}: chain total != rank 0 IoReport.elapsed"
        );
    }
}
