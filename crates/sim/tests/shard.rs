//! Integration tests for the sharded epoch-synchronized simulator:
//! worker-count invariance (the determinism contract), trace-stream
//! invariance, protocol selection, and synchronization under sharding.

use memsim::record::Recorder;
use memsim::trace::{Instr, StridedSource, TraceSource};
use memsim::{CoherenceProtocol, ShardedSimulator, SimStats, StallKind, SystemConfig};

fn run_sharded<T: TraceSource + Clone + Send>(
    cfg: &SystemConfig,
    trace: T,
    workers: usize,
    instructions: u64,
) -> SimStats {
    let mut sim = ShardedSimulator::new(cfg.clone(), trace, workers);
    sim.run(instructions)
}

#[test]
fn worker_count_invariance_is_bitwise() {
    // The headline determinism contract: 1, 2 and 8 shard workers produce
    // the same SimStats bit for bit. Explicit worker counts are honored
    // regardless of host parallelism, so this exercises the real parallel
    // drain path even on a single-CPU host.
    let cfg = SystemConfig::many_core(16);
    let mk = || StridedSource::with_seed(cfg.n_threads(), 0.3, 256 << 10, 42);
    let s1 = run_sharded(&cfg, mk(), 1, 30_000);
    let s2 = run_sharded(&cfg, mk(), 2, 30_000);
    let s8 = run_sharded(&cfg, mk(), 8, 30_000);
    assert_eq!(s1, s2);
    assert_eq!(s1, s8);
    assert_eq!(s1.digest(), s8.digest());
    assert!(s1.instructions >= 30_000);
    assert!(s1.counts.mem_reads > 0, "workload must reach memory");
}

#[test]
fn worker_count_invariance_holds_on_small_configs_too() {
    // 8 cores is below the auto-parallel threshold, but explicit worker
    // counts still shard it — and must still agree with the inline path.
    let cfg = SystemConfig::with_sram_l3();
    let mk = || StridedSource::with_seed(cfg.n_threads(), 0.4, 64 << 10, 7);
    let s1 = run_sharded(&cfg, mk(), 1, 20_000);
    let s4 = run_sharded(&cfg, mk(), 4, 20_000);
    assert_eq!(s1, s4);
}

#[test]
fn recorded_streams_match_across_worker_counts() {
    // Satellite regression for per-core rng streams: every thread's
    // *instruction stream* (not just the aggregate stats) is identical at
    // 1 and 8 shards. Each actor clones the Recorder, so core c's clone
    // captures exactly the streams of core c's threads.
    let cfg = SystemConfig::many_core(16);
    let n = cfg.n_threads();
    let tpc = n / 16;
    let mk = || Recorder::new(StridedSource::with_seed(n, 0.3, 64 << 10, 9), n);
    let mut sim1 = ShardedSimulator::new(cfg.clone(), mk(), 1);
    sim1.run(20_000);
    let mut sim8 = ShardedSimulator::new(cfg.clone(), mk(), 8);
    sim8.run(20_000);
    let rec1 = sim1.into_trace_sources();
    let rec8 = sim8.into_trace_sources();
    assert_eq!(rec1.len(), 16);
    let mut compared = 0usize;
    for core in 0..16 {
        let lens: Vec<usize> = (0..n).map(|tid| rec1[core].recorded(tid)).collect();
        for (tid, &len) in lens.iter().enumerate() {
            assert_eq!(
                len,
                rec8[core].recorded(tid),
                "stream length diverged for core {core} tid {tid}"
            );
            // Only the owning core's threads are ever polled.
            if tid / tpc != core {
                assert_eq!(len, 0, "core {core} polled foreign tid {tid}");
            }
        }
        let mut t1 = rec1[core].clone().into_trace();
        let mut t8 = rec8[core].clone().into_trace();
        for lt in 0..tpc {
            let tid = core * tpc + lt;
            for i in 0..lens[tid] {
                assert_eq!(
                    t1.next(tid),
                    t8.next(tid),
                    "instruction {i} diverged for tid {tid}"
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 10_000, "compared only {compared} instructions");
}

/// All threads hammer a small shared region — maximal cross-core
/// coherence traffic. Per-thread state only, so clones replay each
/// thread's stream identically regardless of sharding.
#[derive(Clone)]
struct SharedTrace {
    state: Vec<u64>,
}

impl SharedTrace {
    fn new(n_threads: usize) -> SharedTrace {
        SharedTrace {
            state: (0..n_threads as u64)
                .map(|t| memsim::rng::splitmix64(t ^ 0xD1A6_0000) | 1)
                .collect(),
        }
    }
}

impl TraceSource for SharedTrace {
    fn next(&mut self, tid: usize) -> Instr {
        let s = &mut self.state[tid];
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        let r = *s;
        let addr = ((r >> 8) % (8 << 10)) & !63;
        match r % 4 {
            0 => Instr::Store(addr),
            1 => Instr::Load(addr),
            _ => Instr::Fp,
        }
    }
}

#[test]
fn absolute_digests_are_pinned() {
    // Worker-count invariance alone would pass an engine change that is
    // wrong at every worker count (a bad idle skip, say). These digests
    // were recorded from the engine before its actors moved out of
    // per-actor locks; any change to what the engine simulates moves them.
    use npbgen::{NpbApp, NpbTrace};
    let many = SystemConfig::many_core(64);
    let ft_b = NpbTrace::from_profile_seeded(NpbApp::FtB.profile(), many.n_threads(), 11);
    let mut paper_mesi = SystemConfig::with_sram_l3();
    paper_mesi.protocol = CoherenceProtocol::Mesi;
    let mut paper_dragon = SystemConfig::with_sram_l3();
    paper_dragon.protocol = CoherenceProtocol::Dragon;
    let shared = SharedTrace::new(paper_mesi.n_threads());
    for workers in [1, 2] {
        let digest = |s: SimStats| format!("{:016x}", s.digest());
        assert_eq!(
            digest(run_sharded(&many, ft_b.clone(), workers, 20_000)),
            "b81a12d24edae0c8",
            "64-core MESI ft.B at {workers} workers"
        );
        assert_eq!(
            digest(run_sharded(&paper_mesi, shared.clone(), workers, 20_000)),
            "e0abad6723ad21c4",
            "paper chip MESI at {workers} workers"
        );
        assert_eq!(
            digest(run_sharded(&paper_dragon, shared.clone(), workers, 20_000)),
            "185531a8e23daec3",
            "paper chip Dragon at {workers} workers"
        );
    }
}

#[test]
fn dragon_updates_where_mesi_invalidates() {
    // Protocol smoke: the same sharing-heavy workload drives write-update
    // traffic under Dragon and write-invalidate traffic under MESI.
    let mut mesi = SystemConfig::many_core(16);
    mesi.protocol = CoherenceProtocol::Mesi;
    let mut dragon = SystemConfig::many_core(16);
    dragon.protocol = CoherenceProtocol::Dragon;
    let n = mesi.n_threads();

    let mut sim_m = ShardedSimulator::new(mesi, SharedTrace::new(n), 2);
    sim_m.run(20_000);
    assert!(sim_m.info().invalidations > 0, "MESI must invalidate");
    assert_eq!(sim_m.info().updates, 0, "MESI must never update in place");

    let mut sim_d = ShardedSimulator::new(dragon, SharedTrace::new(n), 2);
    sim_d.run(20_000);
    assert!(sim_d.info().updates > 0, "Dragon must push updates");
    assert_eq!(sim_d.info().invalidations, 0, "Dragon must not invalidate");
}

#[test]
fn dragon_is_also_worker_count_invariant() {
    let mut cfg = SystemConfig::many_core(16);
    cfg.protocol = CoherenceProtocol::Dragon;
    let n = cfg.n_threads();
    let s1 = run_sharded(&cfg, SharedTrace::new(n), 1, 15_000);
    let s4 = run_sharded(&cfg, SharedTrace::new(n), 4, 15_000);
    assert_eq!(s1, s4);
}

#[test]
fn dragon_is_accepted_on_the_paper_chip() {
    let mut cfg = SystemConfig::with_sram_l3();
    cfg.protocol = CoherenceProtocol::Dragon;
    let n = cfg.n_threads();
    assert!(ShardedSimulator::try_new(cfg, StridedSource::new(n, 0.3, 1 << 20), 1).is_ok());
}

#[test]
fn compute_only_work_hits_peak_issue() {
    // With no memory operations there is no cross-shard traffic at all:
    // the chip sustains near-peak issue and attributes almost every
    // thread-cycle to instruction processing.
    let cfg = SystemConfig::with_sram_l3();
    let n = cfg.n_threads();
    let stats = run_sharded(&cfg, StridedSource::new(n, 0.0, 1 << 20), 2, 100_000);
    assert_eq!(stats.counts.mem_reads, 0);
    assert!(stats.ipc() > 4.0, "ipc = {}", stats.ipc());
    let f = stats.breakdown_fractions();
    assert!(f[0] > 0.9, "instruction fraction {}", f[0]);
}

/// Every thread hits the global barrier every 40 instructions.
#[derive(Clone)]
struct BarrierEvery(Vec<u64>);

impl TraceSource for BarrierEvery {
    fn next(&mut self, tid: usize) -> Instr {
        self.0[tid] += 1;
        if self.0[tid].is_multiple_of(40) {
            Instr::Barrier
        } else {
            Instr::Fp
        }
    }
}

#[test]
fn barriers_synchronize_across_shards() {
    let cfg = SystemConfig::many_core(16);
    let n = cfg.n_threads();
    let s1 = run_sharded(&cfg, BarrierEvery(vec![0; n]), 1, 20_000);
    let s4 = run_sharded(&cfg, BarrierEvery(vec![0; n]), 4, 20_000);
    assert_eq!(s1, s4);
    assert!(s1.attributed(StallKind::Barrier) > 0);
    assert!(s1.instructions >= 20_000);
}

/// Threads take a global lock, hold it for a few instructions, release.
#[derive(Clone)]
struct LockLoop(Vec<u64>);

impl TraceSource for LockLoop {
    fn next(&mut self, tid: usize) -> Instr {
        self.0[tid] += 1;
        match self.0[tid] % 16 {
            1 => Instr::Lock(0),
            5 => Instr::Unlock(0),
            _ => Instr::Other,
        }
    }
}

#[test]
fn locks_serialize_across_shards() {
    let cfg = SystemConfig::many_core(16);
    let n = cfg.n_threads();
    let s1 = run_sharded(&cfg, LockLoop(vec![0; n]), 1, 10_000);
    let s4 = run_sharded(&cfg, LockLoop(vec![0; n]), 4, 10_000);
    assert_eq!(s1, s4);
    assert!(s1.attributed(StallKind::Lock) > 0);
}

#[test]
fn many_core_configs_run_at_scale() {
    // 64 cores (256 threads), briefly, at 2 workers: the engine holds up
    // at the scale the config constructor targets.
    let cfg = SystemConfig::many_core(64);
    let n = cfg.n_threads();
    let trace = StridedSource::with_seed(n, 0.2, 32 << 10, 3);
    let mut sim = ShardedSimulator::new(cfg, trace, 2);
    let stats = sim.run(50_000);
    assert!(stats.instructions >= 50_000);
    assert!(sim.info().epochs > 0);
    assert!(sim.info().messages > 0);
}
