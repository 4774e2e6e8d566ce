//! Exact goldens for the bounded 24-rank config `trace ci` runs: IOR
//! interleaved, 2 MiB per rank in 16 segments, on four testbed nodes
//! with Normal(320 MiB, 64 MiB) memory and a 4 MiB aggregation buffer.
//!
//! For both paper strategies the round, shuffle, storage and buffer-pool
//! counters and the peak aggregation memory are pinned as exact
//! constants, and the floats (memory-peak CV, virtual write and read
//! seconds) as bit patterns, so any drift in planning, shuffle volume,
//! storage shape, buffer pooling or pricing fails here. A traced
//! run must also reproduce the untraced one bit for bit: tracing is a
//! pure side channel.

use mccio_bench::{paper_pair, run, run_traced, Platform, RunResult};
use mccio_obs::ObsSink;
use mccio_sim::units::MIB;
use mccio_workloads::Ior;

/// One strategy's pinned outcome.
struct Golden {
    name: &'static str,
    rounds: u64,
    shuffle_bytes: u64,
    storage_requests: u64,
    storage_bytes: u64,
    pool_hits: u64,
    pool_misses: u64,
    mem_peak_max: f64,
    mem_peak_cov_bits: u64,
    write_secs_bits: u64,
    read_secs_bits: u64,
}

/// Both paper strategies, in `paper_pair` order. The floats are bit
/// patterns: CV 0 and 3/7; virtual write and read both 68.415 ms
/// (two-phase) and 71.418 ms (memory-conscious). Every window of this
/// config is hole-free, so no op takes an assembly buffer: the pool
/// counters are exactly zero (they counted 576 and 672 shuffle payloads
/// before the payload tier was removed).
const GOLDENS: [Golden; 2] = [
    Golden {
        name: "two-phase",
        rounds: 288,
        shuffle_bytes: 100_663_296,
        storage_requests: 96,
        storage_bytes: 100_663_296,
        pool_hits: 0,
        pool_misses: 0,
        mem_peak_max: 4_194_304.0,
        mem_peak_cov_bits: 0x0000_0000_0000_0000,
        write_secs_bits: 0x3fb1_83ac_929a_a1d7,
        read_secs_bits: 0x3fb1_83ac_929a_a1d7,
    },
    Golden {
        name: "memory-conscious",
        rounds: 288,
        shuffle_bytes: 100_663_296,
        storage_requests: 96,
        storage_bytes: 100_663_296,
        pool_hits: 0,
        pool_misses: 0,
        mem_peak_max: 20_971_520.0,
        mem_peak_cov_bits: 0x3fdb_6db6_db6d_b6db,
        write_secs_bits: 0x3fb2_4876_188b_1141,
        read_secs_bits: 0x3fb2_4876_188b_1141,
    },
];

fn check(golden: &Golden, r: &RunResult) {
    let name = golden.name;
    let m = &r.metrics;
    assert_eq!(m.rounds, golden.rounds, "{name}: rounds");
    assert_eq!(
        m.shuffle_bytes, golden.shuffle_bytes,
        "{name}: shuffle_bytes"
    );
    assert_eq!(
        m.storage_requests, golden.storage_requests,
        "{name}: storage_requests"
    );
    assert_eq!(
        m.storage_bytes, golden.storage_bytes,
        "{name}: storage_bytes"
    );
    assert_eq!(m.pool_hits, golden.pool_hits, "{name}: pool_hits");
    assert_eq!(m.pool_misses, golden.pool_misses, "{name}: pool_misses");
    assert_eq!(
        m.mem_peak_max.to_bits(),
        golden.mem_peak_max.to_bits(),
        "{name}: mem_peak_max {}",
        m.mem_peak_max
    );
    assert_eq!(
        m.mem_peak_cov.to_bits(),
        golden.mem_peak_cov_bits,
        "{name}: mem_peak_cov {}",
        m.mem_peak_cov
    );
    assert_eq!(
        r.write_secs.to_bits(),
        golden.write_secs_bits,
        "{name}: virtual write {}",
        r.write_secs
    );
    assert_eq!(
        r.read_secs.to_bits(),
        golden.read_secs_bits,
        "{name}: virtual read {}",
        r.read_secs
    );
}

#[test]
fn trace_ci_config_is_pinned_and_tracing_moves_nothing() {
    let platform = Platform::testbed(4, 24, 8).with_memory(320 * MIB, 64 * MIB);
    let workload = Ior::interleaved_total(2 * MIB, 16);
    for ((name, strategy), golden) in paper_pair(&platform, 4 * MIB).iter().zip(&GOLDENS) {
        assert_eq!(name, golden.name);
        let plain = run(&workload, &**strategy, &platform);
        check(golden, &plain);
        let traced = run_traced(&workload, &**strategy, &platform, &ObsSink::enabled());
        assert_eq!(
            traced.write_secs.to_bits(),
            plain.write_secs.to_bits(),
            "{name}: tracing moved virtual write time"
        );
        assert_eq!(
            traced.read_secs.to_bits(),
            plain.read_secs.to_bits(),
            "{name}: tracing moved virtual read time"
        );
    }
}
