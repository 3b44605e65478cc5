//! Sharded parallel simulator: deterministic epoch-synchronized actors.
//!
//! Each core (with its private L1/L2) is an actor owned by one shard; the
//! shared fabric — L3 banks, coherence directory, DRAM channels, locks and
//! the barrier — lives at the *boundary*. Shards advance in lock-step
//! epochs of a fixed cycle quantum over the hermetic
//! [`cactid_core::par::run_epochs`] team, which owns the actors: each
//! worker holds a contiguous group of them for phase A, and the
//! coordinator holds all of them for phase B, so the actors themselves
//! carry no lock.
//!
//! * **Phase A** (parallel): every actor simulates its own threads for the
//!   window `[t0, t0 + Q)` touching only shard-local state (L1/L2 hits,
//!   FP/other issue, round-robin arbitration). Anything that needs the
//!   shared fabric is appended to the actor's outbox as a message stamped
//!   `(cycle, core, seq)`. An actor with no ready thread and no stall
//!   expiring inside the window is skipped outright: its window would
//!   only fast-forward to `t0 + Q` and change nothing.
//! * **Phase B** (single-threaded): the coordinator drains all outboxes in
//!   ascending `(cycle, core, seq)` order and applies them to the
//!   boundary — directory lookups, invalidations/updates, L3 and DRAM
//!   reservations, lock grants, barrier release. Every thread it
//!   unblocks goes through `CoreActor::wake`, which keeps the actor's
//!   summary exact for the next idle skip.
//!
//! Because messages are processed in an order that is a pure function of
//! simulated time (never of host scheduling), the results are **bitwise
//! identical at any worker count** — 1, 2 or 8 shard workers produce the
//! same [`SimStats`] and the same per-thread instruction streams.
//!
//! The epoch quantum `Q` is chosen no larger than the minimum cross-shard
//! response latency (`l1 + l2 + 2×xbar` cycles): a request issued inside
//! an epoch cannot receive its answer before the epoch ends, so deferring
//! all fabric interaction to the boundary loses no simulated-time
//! precision for remote traffic. Shard-local activity still advances
//! cycle by cycle inside the window.
//!
//! This is the crate's only simulator engine: the paper's LLC study runs
//! it at one worker, the 64–256-core configurations at any worker count,
//! under either coherence protocol (MESI write-invalidate or Dragon
//! write-update). Its timing semantics are those of the epoch model: an
//! L2 miss, upgrade, lock or barrier issued at cycle `c` takes effect at
//! the boundary of the epoch containing `c`, so coherence side effects
//! (invalidations, updates, fills) become visible to other cores up to
//! `Q − 1` cycles after issue. The latency *charged* to a request is still
//! anchored at its issue cycle, so only the visibility of shared state is
//! skewed, and by at most `Q − 1` cycles (see DESIGN.md §18).

use crate::cache::{LineState, SetAssocCache};
use crate::coherence::{CoreSet, Directory, ReadSource};
use crate::config::{CoherenceProtocol, SystemConfig};
use crate::core::{Thread, ThreadState};
use crate::dram::DramChannel;
use crate::l3::L3;
use crate::stats::{SimStats, StallKind};
use crate::trace::{Instr, TraceSource};
use cactid_core::par::Groups;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Below this core count the epoch machinery is pure overhead: the auto
/// worker policy (`workers == 0`) falls back to the inline serial path.
const MIN_PARALLEL_CORES: usize = 16;
/// Runs shorter than this retire before the parallel pool amortizes its
/// barrier crossings; the auto policy stays serial below it.
const MIN_PARALLEL_INSTRUCTIONS: u64 = 200_000;

#[derive(Debug, Default)]
struct LockState {
    holder: Option<usize>,
    queue: VecDeque<usize>,
}

/// Where an L2 miss was ultimately serviced (boundary-side).
enum Source {
    RemoteL2,
    L3 { data_at: u64 },
    Memory { data_at: u64 },
}

/// A cross-shard request, recorded during phase A and applied in phase B.
///
/// The `(cycle, core, seq)` triple is the canonical drain order: `seq` is
/// a per-actor monotone counter, so messages from one core replay in
/// issue order and ties across cores break by core index — the order the
/// issue loop visits cores within a cycle.
#[derive(Debug, Clone, Copy)]
struct Msg {
    cycle: u64,
    core: u32,
    seq: u64,
    /// Core-local hardware-thread index of the issuer.
    tid: usize,
    kind: MsgKind,
}

#[derive(Debug, Clone, Copy)]
enum MsgKind {
    /// Blocking load missed L1+L2; the thread is parked in
    /// [`ThreadState::WaitingMem`] until the boundary answers.
    LoadMiss(u64),
    /// Posted store missed L1+L2; the thread already continued.
    StoreMiss(u64),
    /// Store hit a non-Modified local line; peers must be invalidated
    /// (MESI) or updated (Dragon).
    Upgrade(u64),
    Lock(u32),
    Unlock(u32),
    BarrierArrive,
}

/// Per-actor progress digest: computed at the end of each phase A window
/// and kept exact through phase B by [`CoreActor::wake`], so neither the
/// idle skip nor the coordinator's fast-forward decision scans threads.
#[derive(Debug, Clone, Copy)]
struct ActorSummary {
    /// Some thread is [`ThreadState::Ready`].
    any_ready: bool,
    /// Earliest [`ThreadState::StalledUntil`] expiry.
    min_stall: Option<u64>,
}

impl ActorSummary {
    /// Whether a window ending at `t1` can do anything: some thread is
    /// ready or its stall expires before `t1`. Otherwise the window would
    /// fast-forward straight to `t1` and recompute this same summary.
    fn active_before(&self, t1: u64) -> bool {
        self.any_ready || self.min_stall.is_some_and(|s| s < t1)
    }
}

/// One core plus its private caches and threads — owned by exactly one
/// shard worker during phase A, and by the coordinator during phase B.
struct CoreActor<T> {
    core: usize,
    trace: T,
    threads: Vec<Thread>,
    l1: SetAssocCache,
    l2: SetAssocCache,
    rr: usize,
    stats: SimStats,
    outbox: Vec<Msg>,
    seq: u64,
    summary: ActorSummary,
}

/// Shared-fabric state touched only in phase B.
struct Boundary {
    l3: Option<L3>,
    dir: Directory,
    channels: Vec<DramChannel>,
    locks: HashMap<u32, LockState>,
    barrier_count: usize,
    stats: SimStats,
}

/// Run counters exposed by [`ShardedSimulator::info`] (cumulative since
/// construction).
#[derive(Debug, Default, Clone)]
pub struct ShardInfo {
    /// Epochs executed (phase A + phase B pairs).
    pub epochs: u64,
    /// Cross-shard messages drained at epoch boundaries.
    pub messages: u64,
    /// Thread-cycles spent blocked on boundary-resolved events (remote
    /// loads, lock waits, barrier waits).
    pub stall_cycles: u64,
    /// Remote copies invalidated (MESI write-invalidate).
    pub invalidations: u64,
    /// Remote copies updated in place (Dragon write-update).
    pub updates: u64,
    /// Runs where the auto worker policy chose the serial inline path.
    pub serial_fallbacks: u64,
    /// Worker count used by the most recent [`ShardedSimulator::run`].
    pub last_workers: usize,
}

/// The epoch-synchronized parallel simulator. Construct with
/// [`ShardedSimulator::try_new`], then call [`ShardedSimulator::run`].
///
/// `T` must be [`Clone`] because each actor owns a clone of the trace
/// source and polls only its own threads; sources in this workspace
/// derive every thread's stream from `(seed, tid)` alone, so the clones
/// yield exactly the streams a single shared source would.
pub struct ShardedSimulator<T> {
    cfg: SystemConfig,
    quantum: u64,
    /// Requested worker count; 0 = auto (host parallelism, with serial
    /// fallback for small configs/runs).
    workers: usize,
    actors: Vec<CoreActor<T>>,
    boundary: Boundary,
    cycle: u64,
    stats_epoch: u64,
    info: ShardInfo,
}

/// The coordinator's phase B view of every actor, indexed by core.
type Actors<'a, T> = Groups<'a, CoreActor<T>>;

impl<T: TraceSource + Clone + Send> ShardedSimulator<T> {
    /// Builds an idle sharded system; see [`ShardedSimulator::try_new`].
    ///
    /// # Panics
    ///
    /// On an invalid configuration.
    pub fn new(cfg: SystemConfig, trace: T, workers: usize) -> ShardedSimulator<T> {
        ShardedSimulator::try_new(cfg, trace, workers)
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"))
    }

    /// Builds an idle sharded system. `workers` is the shard worker
    /// count: `0` selects automatically from
    /// [`cactid_core::par::host_parallelism`] (falling back to the serial
    /// inline path for small configs, short runs, or single-core hosts);
    /// any explicit value is honored, so tests can force the parallel
    /// drain path on any host.
    ///
    /// # Errors
    ///
    /// Any [`crate::config::ConfigError`] from
    /// [`SystemConfig::validate`]. Both coherence protocols (MESI and
    /// Dragon) are accepted here.
    pub fn try_new(
        cfg: SystemConfig,
        trace: T,
        workers: usize,
    ) -> Result<ShardedSimulator<T>, crate::config::ConfigError> {
        cfg.validate()?;
        let tpc = cfg.threads_per_core as usize;
        let actors = (0..cfg.n_cores as usize)
            .map(|core| CoreActor {
                core,
                trace: trace.clone(),
                threads: (0..tpc).map(|_| Thread::new()).collect(),
                l1: SetAssocCache::new(
                    cfg.l1.capacity_bytes,
                    cfg.l1.line_bytes,
                    cfg.l1.associativity,
                ),
                l2: SetAssocCache::new(
                    cfg.l2.capacity_bytes,
                    cfg.l2.line_bytes,
                    cfg.l2.associativity,
                ),
                rr: 0,
                stats: SimStats::default(),
                outbox: Vec::new(),
                seq: 0,
                summary: ActorSummary {
                    any_ready: true,
                    min_stall: None,
                },
            })
            .collect();
        let boundary = Boundary {
            l3: cfg.l3.clone().map(L3::try_new).transpose()?,
            dir: Directory::new(),
            channels: (0..cfg.dram.channels)
                .map(|_| DramChannel::new(cfg.dram.clone()))
                .collect(),
            locks: HashMap::new(),
            barrier_count: 0,
            stats: SimStats::default(),
        };
        Ok(ShardedSimulator {
            quantum: epoch_quantum(&cfg),
            workers,
            actors,
            boundary,
            cycle: 0,
            stats_epoch: 0,
            info: ShardInfo::default(),
            cfg,
        })
    }

    /// The epoch quantum in cycles (diagnostics).
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cumulative shard-engine counters.
    pub fn info(&self) -> &ShardInfo {
        &self.info
    }

    fn effective_workers(&self, target_instructions: u64) -> usize {
        let n = self.actors.len();
        match self.workers {
            0 => {
                let host = cactid_core::par::host_parallelism();
                if host < 2
                    || n < MIN_PARALLEL_CORES
                    || target_instructions < MIN_PARALLEL_INSTRUCTIONS
                {
                    1
                } else {
                    host.min(n)
                }
            }
            w => w.min(n),
        }
    }

    /// Runs until `target_instructions` have retired (or the same safety
    /// cap as the serial engine: 1000 cycles per requested instruction),
    /// returning the merged statistics. The result is independent of the
    /// worker count.
    pub fn run(&mut self, target_instructions: u64) -> SimStats {
        let _run = cactid_obs::span("sim.shard.run");
        let workers = self.effective_workers(target_instructions);
        if self.workers == 0 && workers == 1 {
            self.info.serial_fallbacks += 1;
            cactid_obs::counter!("sim.shard.serial_fallback").inc();
        }
        self.info.last_workers = workers;
        let pre = self.info.clone();

        let start_cycle = self.cycle;
        let cycle_cap = start_cycle + target_instructions.saturating_mul(1000).max(10_000);
        let start_instr: u64 = self.actors.iter().map(|a| a.stats.instructions).sum();
        let target = start_instr + target_instructions;

        let quantum = self.quantum;
        let cfg = &self.cfg;
        let boundary = &mut self.boundary;
        let info = &mut self.info;
        // The current epoch window, published by the coordinator before
        // each phase A and read by every worker after the barrier.
        let t0 = AtomicU64::new(start_cycle);
        let t1 = AtomicU64::new(start_cycle + quantum);
        let mut final_cycle = start_cycle;
        let mut msgs: Vec<Msg> = Vec::new();
        let mut last_tick = std::time::Instant::now();

        cactid_core::par::run_epochs(
            workers,
            &mut self.actors,
            |group, _epoch| {
                let (a, b) = (t0.load(Ordering::Acquire), t1.load(Ordering::Acquire));
                for actor in group {
                    if actor.summary.active_before(b) {
                        actor.run_window(cfg, a, b);
                    }
                }
            },
            |actors, _epoch| {
                let t_end = t1.load(Ordering::Relaxed);
                msgs.clear();
                for a in actors.iter_mut() {
                    msgs.append(&mut a.outbox);
                }
                msgs.sort_unstable_by_key(|m| (m.cycle, m.core, m.seq));
                info.epochs += 1;
                info.messages += msgs.len() as u64;
                for m in &msgs {
                    process(cfg, actors, boundary, info, m, t_end);
                }
                let now = std::time::Instant::now();
                cactid_obs::histogram!("sim.shard.epoch.ns")
                    .record(now.duration_since(last_tick).as_nanos() as u64);
                last_tick = now;

                // Draining resolved blocked threads through `wake`, so the
                // summaries are exact again (drains never create Ready).
                let mut total_instr = 0;
                let mut any_ready = false;
                let mut min_stall: Option<u64> = None;
                for a in actors.iter() {
                    total_instr += a.stats.instructions;
                    any_ready |= a.summary.any_ready;
                    if let Some(x) = a.summary.min_stall {
                        fold_min(&mut min_stall, x);
                    }
                }
                if total_instr >= target || t_end >= cycle_cap {
                    final_cycle = t_end;
                    return false;
                }
                let next = if any_ready {
                    t_end
                } else {
                    match min_stall {
                        Some(w) if w > t_end => w,
                        Some(_) => t_end,
                        // Nothing will ever wake: synchronization deadlock.
                        None => {
                            final_cycle = t_end;
                            return false;
                        }
                    }
                };
                t0.store(next, Ordering::Release);
                t1.store(next + quantum, Ordering::Release);
                true
            },
        );

        self.cycle = final_cycle;
        cactid_obs::counter!("sim.shard.epochs").add(self.info.epochs - pre.epochs);
        cactid_obs::counter!("sim.shard.msgs").add(self.info.messages - pre.messages);
        cactid_obs::counter!("sim.shard.stall_cycles")
            .add(self.info.stall_cycles - pre.stall_cycles);
        cactid_obs::counter!("sim.coherence.invalidations")
            .add(self.info.invalidations - pre.invalidations);
        cactid_obs::counter!("sim.coherence.updates").add(self.info.updates - pre.updates);
        self.finalize()
    }

    /// Closes out attribution exactly like the serial engine: every
    /// unattributed thread-cycle was spent processing instructions.
    fn finalize(&mut self) -> SimStats {
        let mut s = self.boundary.stats.clone();
        for a in &self.actors {
            s.merge(&a.stats);
        }
        s.cycles = self.cycle - self.stats_epoch;
        let total = s.cycles * self.cfg.n_threads() as u64;
        let other: u64 = StallKind::ALL
            .iter()
            .skip(1)
            .map(|&k| s.attributed(k))
            .sum();
        s.cycle_breakdown[0] = total.saturating_sub(other);
        s
    }

    /// Discards statistics gathered so far (cache/DRAM state is kept), so
    /// measurement can start after a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.boundary.stats = SimStats::default();
        for a in &mut self.actors {
            a.stats = SimStats::default();
        }
        self.stats_epoch = self.cycle;
    }

    /// Consumes the simulator and hands back each actor's trace source in
    /// core order (e.g. [`crate::record::Recorder`] clones whose captures
    /// you want to splice per owning core).
    pub fn into_trace_sources(self) -> Vec<T> {
        self.actors.into_iter().map(|a| a.trace).collect()
    }
}

/// The epoch quantum: the minimum latency of any cross-shard response.
///
/// A remote answer to a request issued at cycle `c` arrives no earlier
/// than `c + l1 + l2 + 2×xbar` (cache-to-cache is `l2_lat + 2×xbar + l2`;
/// L3 and memory paths reserve from `c + l2_lat + xbar` and add `xbar` on
/// the return). With `Q` no larger than that bound, a thread blocked on
/// the fabric can never need waking *inside* the epoch that issued the
/// request, so resolving all cross-shard traffic at the boundary is
/// timing-exact for remote requests.
fn epoch_quantum(cfg: &SystemConfig) -> u64 {
    let l2_lat = cfg.l1.access_cycles + cfg.l2.access_cycles;
    let xbar = cfg.l3.as_ref().map_or(2, |l| l.xbar_cycles);
    (l2_lat + 2 * xbar).max(1)
}

impl<T: TraceSource> CoreActor<T> {
    fn push(&mut self, cycle: u64, tid: usize, kind: MsgKind) {
        self.outbox.push(Msg {
            cycle,
            core: self.core as u32,
            seq: self.seq,
            tid,
            kind,
        });
        self.seq += 1;
    }

    /// Phase B: resolves thread `tid`'s boundary wait (load miss, lock,
    /// barrier) into a stall ending at `at`, folding `at` into the
    /// summary so it stays exact for the idle skip and the fast-forward.
    fn wake(&mut self, tid: usize, at: u64) {
        self.threads[tid].state = ThreadState::StalledUntil(at);
        fold_min(&mut self.summary.min_stall, at);
    }

    /// `true` when some thread in this shard can issue at `cycle`.
    fn any_issuable(&self, cycle: u64) -> bool {
        self.threads.iter().any(|t| match t.state {
            ThreadState::Ready => true,
            ThreadState::StalledUntil(x) => x <= cycle,
            _ => false,
        })
    }

    /// Earliest local `StalledUntil` expiry, if any. Threads parked on
    /// the boundary (`WaitingMem`/`WaitingLock`/`AtBarrier`) wake only at
    /// epoch edges and so never bound an in-window fast-forward.
    fn next_wake(&self) -> Option<u64> {
        self.threads
            .iter()
            .filter_map(|t| match t.state {
                ThreadState::StalledUntil(x) => Some(x),
                _ => None,
            })
            .min()
    }

    /// Phase A: simulates this core's threads for cycles `[t0, t1)`.
    fn run_window(&mut self, cfg: &SystemConfig, t0: u64, t1: u64) {
        let tpc = self.threads.len();
        let mut cycle = t0;
        while cycle < t1 {
            // Fast-forward across stretches where every thread in this
            // shard is blocked, exactly like the serial loop — but
            // shard-locally. Within a window no cross-shard event can
            // wake a thread (the epoch quantum is bounded by the minimum
            // cross-shard latency), so the decision depends only on this
            // actor's state and is identical at every worker count.
            if !self.any_issuable(cycle) {
                match self.next_wake() {
                    Some(w) if w > cycle => {
                        cycle = w.min(t1);
                        if cycle >= t1 {
                            break;
                        }
                    }
                    Some(_) => {}
                    // Everything is parked on the boundary: nothing more
                    // can happen here until the epoch-edge drain.
                    None => break,
                }
            }
            for t in &mut self.threads {
                t.tick(cycle);
            }
            let mut fp_free = true;
            let mut other_free = true;
            let mut mem_free = true;
            for k in 0..tpc {
                let lt = (self.rr + k) % tpc;
                if !self.threads[lt].ready() {
                    continue;
                }
                if self.threads[lt].pending.is_none() {
                    let gtid = self.core * tpc + lt;
                    self.threads[lt].pending = Some(self.trace.next(gtid));
                }
                let Some(instr) = self.threads[lt].pending else {
                    unreachable!("a pending instruction was fetched just above")
                };
                let issued = match instr {
                    Instr::Fp if fp_free => {
                        fp_free = false;
                        true
                    }
                    Instr::Other if other_free => {
                        other_free = false;
                        self.threads[lt].state =
                            ThreadState::StalledUntil(cycle + cfg.other_instr_cycles);
                        true
                    }
                    Instr::Load(addr) if other_free && mem_free => {
                        other_free = false;
                        mem_free = false;
                        match self.local_access(cfg, lt, addr, false, cycle) {
                            Some((latency, kind)) => {
                                self.stats.loads += 1;
                                self.stats.load_latency_sum += latency;
                                let level = match kind {
                                    StallKind::Instruction => 0,
                                    _ => 1,
                                };
                                self.stats.load_level_hits[level] += 1;
                                let stall = latency.saturating_sub(cfg.l1.access_cycles);
                                if stall > 0 && kind != StallKind::Instruction {
                                    self.stats.attribute(kind, stall);
                                }
                                self.threads[lt].state = ThreadState::StalledUntil(cycle + latency);
                            }
                            None => {
                                self.push(cycle, lt, MsgKind::LoadMiss(addr));
                                self.threads[lt].state = ThreadState::WaitingMem(cycle);
                            }
                        }
                        true
                    }
                    Instr::Store(addr) if other_free && mem_free => {
                        other_free = false;
                        mem_free = false;
                        if self.local_access(cfg, lt, addr, true, cycle).is_none() {
                            self.push(cycle, lt, MsgKind::StoreMiss(addr));
                        }
                        // Posted store: the thread continues next cycle.
                        self.threads[lt].state = ThreadState::StalledUntil(cycle + 1);
                        true
                    }
                    Instr::Barrier => {
                        self.threads[lt].state = ThreadState::AtBarrier(cycle);
                        self.push(cycle, lt, MsgKind::BarrierArrive);
                        true
                    }
                    Instr::Lock(id) if other_free => {
                        other_free = false;
                        self.threads[lt].state = ThreadState::WaitingLock(id, cycle);
                        self.push(cycle, lt, MsgKind::Lock(id));
                        true
                    }
                    Instr::Unlock(id) if other_free => {
                        other_free = false;
                        self.threads[lt].state = ThreadState::StalledUntil(cycle + 1);
                        self.push(cycle, lt, MsgKind::Unlock(id));
                        true
                    }
                    _ => false,
                };
                if issued {
                    self.threads[lt].pending = None;
                    self.threads[lt].retired += 1;
                    self.stats.instructions += 1;
                    self.stats.counts.l1i_reads += 1;
                }
            }
            self.rr = (self.rr + 1) % tpc;
            cycle += 1;
        }
        // Digest this window's outcome for the coordinator. Stalls set
        // during the window that expire inside it were already cleared by
        // tick (the fast-forward never jumps past a pending expiry), so
        // every StalledUntil here is ≥ t1.
        let mut any_ready = false;
        let mut min_stall: Option<u64> = None;
        for t in &self.threads {
            match t.state {
                ThreadState::Ready => any_ready = true,
                ThreadState::StalledUntil(x) => fold_min(&mut min_stall, x),
                _ => {}
            }
        }
        self.summary = ActorSummary {
            any_ready,
            min_stall,
        };
    }

    /// The shard-local slice of a memory access: L1 and L2 hits are
    /// serviced entirely here; `None` means the request must go to the
    /// boundary. Stores that hit a non-Modified line emit an Upgrade
    /// message for phase B.
    fn local_access(
        &mut self,
        cfg: &SystemConfig,
        lt: usize,
        addr: u64,
        is_store: bool,
        cycle: u64,
    ) -> Option<(u64, StallKind)> {
        self.stats.counts.l1_reads += 1;
        if let Some(state) = self.l1.lookup(addr) {
            if is_store {
                self.stats.counts.l1_writes += 1;
                if state != LineState::Modified {
                    self.push(cycle, lt, MsgKind::Upgrade(addr));
                    self.l1.set_state(addr, LineState::Modified);
                    self.l2.set_state(addr, LineState::Modified);
                }
            }
            return Some((cfg.l1.access_cycles, StallKind::Instruction));
        }
        self.stats.counts.l2_reads += 1;
        let l2_lat = cfg.l1.access_cycles + cfg.l2.access_cycles;
        if let Some(state) = self.l2.lookup(addr) {
            let new_state = if is_store {
                self.push(cycle, lt, MsgKind::Upgrade(addr));
                self.stats.counts.l2_writes += 1;
                LineState::Modified
            } else {
                state
            };
            self.l2.set_state(addr, new_state);
            self.fill_l1(addr, new_state);
            return Some((l2_lat, StallKind::L2Access));
        }
        None
    }

    fn fill_l1(&mut self, addr: u64, state: LineState) {
        self.stats.counts.l1_writes += 1;
        if let Some(ev) = self.l1.insert(addr, state) {
            if ev.state == LineState::Modified {
                // Write the dirty L1 victim back into the (inclusive) L2.
                self.stats.counts.l2_writes += 1;
                self.l2.set_state(ev.addr, LineState::Modified);
            }
        }
    }
}

impl Boundary {
    fn channel_of(&self, cfg: &SystemConfig, addr: u64) -> usize {
        ((addr / u64::from(cfg.l1.line_bytes)) % u64::from(cfg.dram.channels)) as usize
    }

    fn dram_read(&mut self, cfg: &SystemConfig, addr: u64, t_req: u64) -> u64 {
        let ch = self.channel_of(cfg, addr);
        let a = self.channels[ch].access(addr, t_req);
        self.stats.counts.mem_reads += 1;
        if a.activated {
            self.stats.counts.mem_activates += 1;
        }
        if a.page_hit {
            self.stats.counts.mem_page_hits += 1;
        }
        a.done_at
    }

    fn dram_write(&mut self, cfg: &SystemConfig, addr: u64, now: u64) {
        let ch = self.channel_of(cfg, addr);
        let a = self.channels[ch].access(addr, now);
        self.stats.counts.mem_writes += 1;
        if a.activated {
            self.stats.counts.mem_activates += 1;
        }
        if a.page_hit {
            self.stats.counts.mem_page_hits += 1;
        }
    }

    /// Writes a (dirty) line into the L3, or to memory when there is none.
    fn writeback_below(&mut self, cfg: &SystemConfig, addr: u64, now: u64) {
        if self.l3.is_some() {
            self.stats.counts.xbar_transfers += 1;
            self.fill_l3(cfg, addr, LineState::Modified, now);
            self.stats.counts.l3_writes += 1;
        } else {
            self.dram_write(cfg, addr, now);
        }
    }

    fn fill_l3(&mut self, cfg: &SystemConfig, addr: u64, state: LineState, now: u64) {
        let Some(l3) = self.l3.as_mut() else { return };
        self.stats.counts.l3_writes += 1;
        if let Some(ev) = l3.insert(addr, state) {
            if ev.state == LineState::Modified {
                self.dram_write(cfg, ev.addr, now);
            }
        }
    }

    /// Fetches a line from the L3 (if present and hit) or main memory;
    /// reserves timing resources from `t_req` onward.
    fn fetch_below(&mut self, cfg: &SystemConfig, addr: u64, t_req: u64) -> Source {
        if let Some(l3) = self.l3.as_mut() {
            self.stats.counts.l3_reads += 1;
            if l3.lookup(addr).is_some() {
                let data_at = l3.reserve(addr, t_req);
                return Source::L3 { data_at };
            }
            // L3 miss: tag check occupied the bank, then go to memory.
            let t_mem = l3.reserve(addr, t_req);
            let done = self.dram_read(cfg, addr, t_mem);
            self.fill_l3(cfg, addr, LineState::Shared, t_req);
            Source::Memory { data_at: done }
        } else {
            let done = self.dram_read(cfg, addr, t_req);
            Source::Memory { data_at: done }
        }
    }
}

/// Invalidates `mask` cores' copies (MESI); returns whether one of them
/// held the line dirty (cache-to-cache source).
fn invalidate_remotes<T>(
    actors: &mut Actors<'_, T>,
    b: &mut Boundary,
    info: &mut ShardInfo,
    mask: CoreSet,
    addr: u64,
    requester: usize,
) -> bool {
    let mut dirty = false;
    for other in mask.iter() {
        if other == requester {
            continue;
        }
        b.stats.counts.l2_reads += 1; // probe
        info.invalidations += 1;
        let a = &mut actors[other];
        if a.l2.invalidate(addr) == Some(LineState::Modified) {
            dirty = true;
        }
        if a.l1.invalidate(addr) == Some(LineState::Modified) {
            dirty = true;
        }
    }
    dirty
}

/// Pushes the written line into `peers`' caches in place (Dragon): their
/// copies stay valid in Shared state instead of being invalidated.
fn update_remotes<T>(
    actors: &mut Actors<'_, T>,
    b: &mut Boundary,
    info: &mut ShardInfo,
    peers: CoreSet,
    addr: u64,
    requester: usize,
) {
    for other in peers.iter() {
        if other == requester {
            continue;
        }
        info.updates += 1;
        b.stats.counts.l2_writes += 1; // the update lands in the peer's L2
        b.stats.counts.xbar_transfers += 1;
        let a = &mut actors[other];
        a.l2.set_state(addr, LineState::Shared);
        a.l1.set_state(addr, LineState::Shared);
    }
}

/// Downgrades a dirty remote owner to Shared and pushes its data below.
fn downgrade_remote<T>(
    cfg: &SystemConfig,
    actors: &mut Actors<'_, T>,
    b: &mut Boundary,
    owner: usize,
    addr: u64,
    now: u64,
) {
    b.stats.counts.l2_reads += 1;
    let a = &mut actors[owner];
    a.l2.set_state(addr, LineState::Shared);
    a.l1.set_state(addr, LineState::Shared);
    b.writeback_below(cfg, addr, now);
}

fn fold_min(min: &mut Option<u64>, x: u64) {
    *min = Some(min.map_or(x, |m| m.min(x)));
}

/// Phase B: applies one drained message to the boundary. Every thread it
/// resolves goes through [`CoreActor::wake`].
fn process<T: TraceSource>(
    cfg: &SystemConfig,
    actors: &mut Actors<'_, T>,
    b: &mut Boundary,
    info: &mut ShardInfo,
    m: &Msg,
    t_end: u64,
) {
    let core = m.core as usize;
    let tpc = cfg.threads_per_core as usize;
    match m.kind {
        MsgKind::Upgrade(addr) => {
            let line = addr / u64::from(cfg.l1.line_bytes);
            match cfg.protocol {
                CoherenceProtocol::Mesi => {
                    let mask = b.dir.write(line, core);
                    invalidate_remotes(actors, b, info, mask, addr, core);
                }
                CoherenceProtocol::Dragon => {
                    let (peers, _) = b.dir.write_update(line, core);
                    update_remotes(actors, b, info, peers, addr, core);
                }
            }
        }
        MsgKind::LoadMiss(addr) => miss(cfg, actors, b, info, m, addr, false),
        MsgKind::StoreMiss(addr) => miss(cfg, actors, b, info, m, addr, true),
        MsgKind::Lock(id) => {
            let gtid = core * tpc + m.tid;
            let lock = b.locks.entry(id).or_default();
            if lock.holder.is_none() {
                lock.holder = Some(gtid);
                let wait = t_end - m.cycle;
                b.stats.attribute(StallKind::Lock, wait);
                info.stall_cycles += wait;
                actors[core].wake(m.tid, t_end + 1);
            } else {
                lock.queue.push_back(gtid);
            }
        }
        MsgKind::Unlock(id) => {
            let gtid = core * tpc + m.tid;
            let lock = b.locks.entry(id).or_default();
            debug_assert_eq!(lock.holder, Some(gtid), "unlock by non-holder");
            lock.holder = None;
            if let Some(next) = lock.queue.pop_front() {
                lock.holder = Some(next);
                let a = &mut actors[next / tpc];
                if let ThreadState::WaitingLock(_, since) = a.threads[next % tpc].state {
                    let wait = t_end - since;
                    b.stats.attribute(StallKind::Lock, wait);
                    info.stall_cycles += wait;
                }
                a.wake(next % tpc, t_end + 1);
            }
        }
        MsgKind::BarrierArrive => {
            b.barrier_count += 1;
            if b.barrier_count == cfg.n_threads() {
                for a in actors.iter_mut() {
                    for tid in 0..a.threads.len() {
                        if let ThreadState::AtBarrier(since) = a.threads[tid].state {
                            let wait = t_end - since;
                            b.stats.attribute(StallKind::Barrier, wait);
                            info.stall_cycles += wait;
                            a.wake(tid, t_end + 1);
                        }
                    }
                }
                b.barrier_count = 0;
            }
        }
    }
}

/// Phase B handling of an L2 miss — the boundary-side tail of the serial
/// engine's `mem_access`, anchored at the message's issue cycle.
fn miss<T: TraceSource>(
    cfg: &SystemConfig,
    actors: &mut Actors<'_, T>,
    b: &mut Boundary,
    info: &mut ShardInfo,
    m: &Msg,
    addr: u64,
    is_store: bool,
) {
    let core = m.core as usize;
    let now = m.cycle;
    let line = addr / u64::from(cfg.l1.line_bytes);
    let l2_lat = cfg.l1.access_cycles + cfg.l2.access_cycles;

    // Re-probe: an earlier message this epoch (another thread on the same
    // core missing the same line) may already have filled the L2. Service
    // it as the L2 hit it now is — mirroring what the serial engine sees
    // when the first miss fills instantly.
    let refill = actors[core].l2.lookup(addr);
    if let Some(state) = refill {
        if is_store {
            match cfg.protocol {
                CoherenceProtocol::Mesi => {
                    let mask = b.dir.write(line, core);
                    invalidate_remotes(actors, b, info, mask, addr, core);
                }
                CoherenceProtocol::Dragon => {
                    let (peers, _) = b.dir.write_update(line, core);
                    update_remotes(actors, b, info, peers, addr, core);
                }
            }
            let a = &mut actors[core];
            a.stats.counts.l2_writes += 1;
            a.l2.set_state(addr, LineState::Modified);
            a.fill_l1(addr, LineState::Modified);
        } else {
            let a = &mut actors[core];
            a.l2.set_state(addr, state);
            a.fill_l1(addr, state);
            b.stats.loads += 1;
            b.stats.load_latency_sum += l2_lat;
            b.stats.load_level_hits[1] += 1;
            let stall = l2_lat.saturating_sub(cfg.l1.access_cycles);
            if stall > 0 {
                b.stats.attribute(StallKind::L2Access, stall);
            }
            info.stall_cycles += l2_lat;
            a.wake(m.tid, now + l2_lat);
        }
        return;
    }

    let (from_remote, shared) = if is_store {
        match cfg.protocol {
            CoherenceProtocol::Mesi => {
                let mask = b.dir.write(line, core);
                let dirty = invalidate_remotes(actors, b, info, mask, addr, core);
                (dirty, false)
            }
            CoherenceProtocol::Dragon => {
                let (peers, prev) = b.dir.write_update(line, core);
                update_remotes(actors, b, info, peers, addr, core);
                (prev.is_some_and(|o| o != core), false)
            }
        }
    } else {
        let src = match cfg.protocol {
            CoherenceProtocol::Mesi => b.dir.read(line, core),
            CoherenceProtocol::Dragon => b.dir.read_keep_owner(line, core),
        };
        match src {
            ReadSource::RemoteOwner(owner) => {
                match cfg.protocol {
                    CoherenceProtocol::Mesi => {
                        downgrade_remote(cfg, actors, b, owner, addr, now);
                    }
                    // Dragon: the owner supplies data cache-to-cache but
                    // keeps ownership — no downgrade, no writeback.
                    CoherenceProtocol::Dragon => {
                        b.stats.counts.l2_reads += 1;
                    }
                }
                (true, true)
            }
            ReadSource::SharedClean => (false, true),
            ReadSource::Below => (false, false),
        }
    };

    let xbar = cfg.l3.as_ref().map_or(2, |l| l.xbar_cycles);
    let source = if from_remote {
        Source::RemoteL2
    } else {
        b.fetch_below(cfg, addr, now + l2_lat + xbar)
    };
    let (latency, kind) = match source {
        Source::RemoteL2 => {
            // Cache-to-cache transfer over the crossbar.
            b.stats.counts.l2_reads += 1;
            b.stats.counts.xbar_transfers += 2;
            (
                l2_lat + 2 * xbar + cfg.l2.access_cycles,
                StallKind::L2Access,
            )
        }
        Source::L3 { data_at } => {
            b.stats.counts.xbar_transfers += 2;
            (data_at.saturating_sub(now) + xbar, StallKind::L3Access)
        }
        Source::Memory { data_at } => {
            if b.l3.is_some() {
                b.stats.counts.xbar_transfers += 2;
            }
            (data_at.saturating_sub(now) + xbar, StallKind::MemoryAccess)
        }
    };

    let fill_state = if is_store {
        LineState::Modified
    } else if shared {
        LineState::Shared
    } else {
        LineState::Exclusive
    };
    fill_l2_boundary(cfg, actors, b, core, addr, fill_state, now);
    actors[core].fill_l1(addr, fill_state);
    if is_store {
        b.stats.counts.l2_writes += 1;
    } else {
        b.stats.loads += 1;
        b.stats.load_latency_sum += latency;
        let level = match kind {
            StallKind::L2Access => 1,
            StallKind::L3Access => 2,
            _ => 3,
        };
        b.stats.load_level_hits[level] += 1;
        let stall = latency.saturating_sub(cfg.l1.access_cycles);
        if stall > 0 {
            b.stats.attribute(kind, stall);
        }
        info.stall_cycles += latency;
        let a = &mut actors[core];
        debug_assert!(
            matches!(a.threads[m.tid].state, ThreadState::WaitingMem(_)),
            "a load-miss message must find its thread parked"
        );
        a.wake(m.tid, now + latency);
    }
}

/// Inserts into the requester's L2, handling the eviction against the
/// directory and the inclusive L1 exactly like the serial engine.
fn fill_l2_boundary<T: TraceSource>(
    cfg: &SystemConfig,
    actors: &mut Actors<'_, T>,
    b: &mut Boundary,
    core: usize,
    addr: u64,
    state: LineState,
    now: u64,
) {
    let a = &mut actors[core];
    a.stats.counts.l2_writes += 1;
    let ev = a.l2.insert(addr, state);
    if let Some(ev) = ev {
        let ev_line = ev.addr / u64::from(cfg.l1.line_bytes);
        let was_owner = b.dir.evict(ev_line, core);
        // Inclusion: the L1 copy must go too.
        let l1_state = actors[core].l1.invalidate(ev.addr);
        let dirty =
            ev.state == LineState::Modified || was_owner || l1_state == Some(LineState::Modified);
        if dirty {
            b.writeback_below(cfg, ev.addr, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StridedSource;

    #[test]
    fn quantum_is_the_min_cross_shard_latency() {
        let no_l3 = SystemConfig::baseline_no_l3();
        assert_eq!(
            epoch_quantum(&no_l3),
            no_l3.l1.access_cycles + no_l3.l2.access_cycles + 4
        );
        let with_l3 = SystemConfig::with_sram_l3();
        let xbar = with_l3.l3.as_ref().unwrap().xbar_cycles;
        assert_eq!(
            epoch_quantum(&with_l3),
            with_l3.l1.access_cycles + with_l3.l2.access_cycles + 2 * xbar
        );
    }

    #[test]
    fn explicit_worker_counts_are_honored_and_capped() {
        let cfg = SystemConfig::with_sram_l3();
        let trace = StridedSource::new(32, 0.2, 1 << 16);
        let sim = ShardedSimulator::new(cfg, trace, 64);
        // 8 cores: an explicit request of 64 workers is capped at 8.
        assert_eq!(sim.effective_workers(1_000_000), 8);
        assert_eq!(sim.effective_workers(10), 8);
    }

    #[test]
    fn auto_policy_falls_back_to_serial_for_small_configs() {
        let cfg = SystemConfig::with_sram_l3(); // 8 cores < MIN_PARALLEL_CORES
        let trace = StridedSource::new(32, 0.2, 1 << 16);
        let mut sim = ShardedSimulator::new(cfg, trace, 0);
        assert_eq!(sim.effective_workers(1_000_000), 1);
        sim.run(1_000);
        assert_eq!(sim.info().serial_fallbacks, 1);
        assert_eq!(sim.info().last_workers, 1);
    }

    #[test]
    fn run_makes_progress_and_reports_epochs() {
        let cfg = SystemConfig::with_sram_l3();
        let trace = StridedSource::new(32, 0.3, 1 << 16);
        let mut sim = ShardedSimulator::new(cfg, trace, 1);
        let stats = sim.run(20_000);
        assert!(stats.instructions >= 20_000);
        assert!(sim.info().epochs > 0);
        assert!(sim.cycle() > 0);
        let total: u64 = stats.cycle_breakdown.iter().sum();
        assert_eq!(total, stats.cycles * 32);
    }

    fn run_1w<T: TraceSource + Clone + Send>(cfg: SystemConfig, trace: T, n: u64) -> SimStats {
        ShardedSimulator::new(cfg, trace, 1).run(n)
    }

    #[test]
    fn try_new_rejects_page_mode_l3_without_timing() {
        let mut cfg = SystemConfig::with_sram_l3();
        cfg.l3.as_mut().unwrap().interface = crate::config::L3Interface::PageMode;
        let trace = StridedSource::new(32, 0.3, 1 << 20);
        let err = ShardedSimulator::try_new(cfg, trace, 1).err();
        assert_eq!(err, Some(crate::config::ConfigError::PageModeWithoutTiming));
    }

    #[test]
    fn compute_only_workload_hits_peak_issue() {
        // No memory ops: every thread alternates FP/Other; the chip should
        // sustain a healthy IPC and attribute everything to Instruction.
        let stats = run_1w(
            SystemConfig::baseline_no_l3(),
            StridedSource::new(32, 0.0, 1 << 20),
            100_000,
        );
        assert!(stats.ipc() > 4.0, "ipc = {}", stats.ipc());
        let f = stats.breakdown_fractions();
        assert!(f[0] > 0.9, "instruction fraction {}", f[0]);
        assert_eq!(stats.counts.mem_reads, 0);
    }

    #[test]
    fn small_working_set_stays_in_l1() {
        // 16 KB per thread × 4 threads = 64 KB per core… exceeds a 32 KB
        // L1 but fits L2 easily; most accesses should be L1/L2 hits. The
        // run is long enough to amortize the cold misses.
        let stats = run_1w(
            SystemConfig::baseline_no_l3(),
            StridedSource::new(32, 0.3, 16 << 10),
            1_500_000,
        );
        let to_mem = stats.counts.mem_reads as f64 / stats.loads.max(1) as f64;
        assert!(to_mem < 0.05, "memory rate {to_mem}");
        // Steady state is L1/L2 hits (2–5 cycles); the average carries the
        // cold-start burst, where 8192 compulsory misses hammer a handful
        // of DRAM banks at full tRC each — so allow generous headroom.
        assert!(
            stats.avg_read_latency() < 35.0,
            "avg {}",
            stats.avg_read_latency()
        );
        assert!(stats.load_level_hits[0] + stats.load_level_hits[1] > stats.loads * 9 / 10);
    }

    #[test]
    fn huge_working_set_goes_to_memory_and_l3_filters_it() {
        // 64 MB per thread: misses everywhere without an L3.
        let mk = |cfg| run_1w(cfg, StridedSource::new(32, 0.3, 64 << 20), 150_000);
        let no_l3 = mk(SystemConfig::baseline_no_l3());
        let with_l3 = mk(SystemConfig::with_sram_l3());
        assert!(no_l3.counts.mem_reads > 0);
        assert!(no_l3.avg_read_latency() > 20.0);
        // The 24 MB L3 can hold a fraction of the 2 GB working set only —
        // but reuse is random, so *some* hits occur; mostly this checks
        // the L3 path end-to-end.
        assert!(with_l3.counts.l3_reads > 0);
        assert!(with_l3.counts.mem_reads <= no_l3.counts.mem_reads * 11 / 10);
    }

    #[test]
    fn barrier_synchronizes_all_threads() {
        #[derive(Clone)]
        struct BarrierEvery(u64, Vec<u64>);
        impl TraceSource for BarrierEvery {
            fn next(&mut self, tid: usize) -> Instr {
                self.1[tid] += 1;
                if self.1[tid].is_multiple_of(self.0) {
                    Instr::Barrier
                } else {
                    Instr::Fp
                }
            }
        }
        let stats = run_1w(
            SystemConfig::baseline_no_l3(),
            BarrierEvery(50, vec![0; 32]),
            50_000,
        );
        assert!(stats.attributed(StallKind::Barrier) > 0);
    }

    #[test]
    fn locks_serialize_and_attribute_wait() {
        #[derive(Clone)]
        struct LockLoop(Vec<u32>);
        impl TraceSource for LockLoop {
            fn next(&mut self, tid: usize) -> Instr {
                self.0[tid] += 1;
                match self.0[tid] % 8 {
                    1 => Instr::Lock(0),
                    5 => Instr::Unlock(0),
                    _ => Instr::Other,
                }
            }
        }
        let stats = run_1w(
            SystemConfig::baseline_no_l3(),
            LockLoop(vec![0; 32]),
            50_000,
        );
        assert!(stats.attributed(StallKind::Lock) > 0);
    }

    #[test]
    fn shared_data_exercises_coherence() {
        // All threads hammer the same small region with stores: the
        // directory must bounce ownership around without deadlock. The
        // state is per thread so every actor's clone replays its own
        // threads' streams.
        #[derive(Clone)]
        struct SharedWrites(Vec<u64>);
        impl TraceSource for SharedWrites {
            fn next(&mut self, tid: usize) -> Instr {
                let s = &mut self.0[tid];
                *s = s.wrapping_mul(6364136223846793005).wrapping_add(tid as u64);
                let addr = (*s >> 8) % (8 << 10);
                if *s & 1 == 0 {
                    Instr::Store(addr & !63)
                } else {
                    Instr::Load(addr & !63)
                }
            }
        }
        let stats = run_1w(
            SystemConfig::baseline_no_l3(),
            SharedWrites(vec![1; 32]),
            100_000,
        );
        assert!(stats.instructions >= 100_000);
        assert!(stats.counts.l2_reads > 0);
    }

    #[test]
    fn cycle_breakdown_conserves_thread_cycles() {
        let stats = run_1w(
            SystemConfig::with_sram_l3(),
            StridedSource::new(32, 0.4, 8 << 20),
            100_000,
        );
        let total: u64 = stats.cycle_breakdown.iter().sum();
        assert_eq!(total, stats.cycles * 32);
    }

    #[test]
    fn determinism() {
        let run = || {
            run_1w(
                SystemConfig::with_sram_l3(),
                StridedSource::new(32, 0.4, 4 << 20),
                50_000,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_stats_starts_a_fresh_measurement_window() {
        let cfg = SystemConfig::with_sram_l3();
        let trace = StridedSource::new(32, 0.3, 1 << 16);
        let mut sim = ShardedSimulator::new(cfg, trace, 1);
        sim.run(5_000);
        sim.reset_stats();
        let stats = sim.run(5_000);
        assert!(stats.instructions >= 5_000);
        assert!(stats.instructions < 11_000, "warm-up must be discarded");
    }
}
