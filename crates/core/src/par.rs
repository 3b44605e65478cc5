//! Hermetic threading primitives shared across the workspace.
//!
//! The workspace carries zero registry dependencies, so instead of rayon
//! this module provides what the engines need on top of `std::thread`:
//! [`host_parallelism`], the cached CPU budget that the explore pool
//! (which the serve service and the paper study run on) and the
//! simulator's worker policy size themselves by, and [`run_epochs`], a persistent lock-step team for the sharded
//! simulator. The team owns the caller's states between its workers, one
//! contiguous group each, and hands all of them to the coordinator
//! between epochs; a group's `Mutex` is taken once per phase and never
//! contended. Workers meet at a spin-then-park barrier whose spin budget
//! outlasts an epoch, so a team in step never sleeps in the kernel, and a
//! panic in any phase poisons the barrier so the panic propagates instead
//! of leaving the team waiting forever.

use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The machine's available parallelism, resolved once per process.
///
/// `std::thread::available_parallelism` is not a cheap getter on Linux —
/// it reads the cgroup filesystem to honor CPU quotas, which costs
/// microseconds per call. Callers that size a pool per request or per
/// simulation would pay that syscall tax against work that itself takes
/// tens of microseconds, so the answer is cached for the process
/// lifetime.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// How long a waiter at the epoch barrier spins before it parks. It is
/// longer than an epoch (a 64-core simulation on a 2-CPU host averages
/// about 30 µs per epoch), so a team that keeps in step crosses every
/// barrier without a futex wake, yet a team that has stalled stops
/// burning CPU after a fraction of a millisecond.
const SPIN_BUDGET: Duration = Duration::from_micros(100);
/// Spins between two clock reads; each read also yields the CPU once, so
/// oversubscribed teams (more workers than CPUs) still make progress.
const SPINS_PER_CHECK: u32 = 64;

/// The epoch team's reusable rendezvous: spin on a generation counter,
/// then park on a condition variable once [`SPIN_BUDGET`] is spent.
///
/// A [`std::sync::Barrier`] sleeps on a futex at every crossing, and a
/// futex wake costs about as much as a short epoch. Here the last arriver
/// bumps `generation`; spinners see it within a few hundred nanoseconds,
/// and only waiters that outlasted the budget pay for a wake-up. The
/// last arriver notifies only when `parked` says someone sleeps: the
/// parker publishes itself under the lock before re-checking the
/// generation, and both sides use sequentially consistent accesses, so a
/// release can never slip between a parker's check and its sleep.
///
/// A panicking party poisons the barrier (through [`PoisonOnUnwind`]),
/// which releases every waiter with `false` instead of leaving them to
/// wait for an arrival that will never come.
struct EpochBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    parked: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl EpochBarrier {
    fn new(parties: usize) -> EpochBarrier {
        EpochBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Blocks until all parties have arrived. Returns `false` when the
    /// barrier is poisoned: some party panicked, and the caller must leave
    /// its epoch loop.
    fn wait(&self) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        // Every arrival's AcqRel increment continues one release sequence
        // on `arrived`, so the last arriver acquires all earlier parties'
        // phase work; its SeqCst store of `generation` then releases that
        // work, and its own, to every waiter that loads the new value.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Relaxed is enough: the next generation's arrivals happen
            // after their waits observe the new generation stored below.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.parked.load(Ordering::SeqCst) > 0 {
                let _g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
                self.wake.notify_all();
            }
            return !self.poisoned.load(Ordering::Acquire);
        }
        let released = || {
            self.generation.load(Ordering::SeqCst) != gen || self.poisoned.load(Ordering::SeqCst)
        };
        let mut deadline = None;
        let mut spins = 0u32;
        while !released() {
            spins = spins.wrapping_add(1);
            if !spins.is_multiple_of(SPINS_PER_CHECK) {
                std::hint::spin_loop();
                continue;
            }
            let now = Instant::now();
            if now >= *deadline.get_or_insert(now + SPIN_BUDGET) {
                self.park(&released);
                break;
            }
            std::thread::yield_now();
        }
        !self.poisoned.load(Ordering::Acquire)
    }

    fn park(&self, released: &dyn Fn() -> bool) {
        let mut g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.parked.fetch_add(1, Ordering::SeqCst);
        while !released() {
            g = self.wake.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        let _g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.wake.notify_all();
    }
}

/// Poisons the team's barrier if its thread unwinds out of an epoch phase.
struct PoisonOnUnwind<'a>(&'a EpochBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// The coordinator's view of every state during the exclusive phase of
/// [`run_epochs`]: index `i` is `states[i]` of the slice the team was
/// given, whichever worker's group it belongs to.
pub struct Groups<'a, S> {
    groups: &'a mut [&'a mut [S]],
    chunk: usize,
}

impl<'a, S> Groups<'a, S> {
    /// Every state, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &S> {
        self.groups.iter().flat_map(|g| g.iter())
    }

    /// Every state, mutably, in index order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut S> + use<'_, 'a, S> {
        self.groups.iter_mut().flat_map(|g| g.iter_mut())
    }
}

impl<S> Index<usize> for Groups<'_, S> {
    type Output = S;

    fn index(&self, i: usize) -> &S {
        &self.groups[i / self.chunk][i % self.chunk]
    }
}

impl<S> IndexMut<usize> for Groups<'_, S> {
    fn index_mut(&mut self, i: usize) -> &mut S {
        &mut self.groups[i / self.chunk][i % self.chunk]
    }
}

/// Locks a group. A group is poisoned only when its worker panicked, and
/// the poisoned barrier then stops the team before anyone locks it again.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs a lock-step epoch loop over a persistent team of `threads`
/// workers that own `states` between them: every epoch, each worker runs
/// `worker(group, epoch)` on its own contiguous group of states,
/// concurrently; then — with every worker waiting at the barrier — the
/// calling thread alone runs `coordinate(all, epoch)` with `&mut` access
/// to every state. The loop continues while `coordinate` returns `true`.
///
/// This is the synchronization skeleton of the sharded simulator: a
/// state is one core's actor, `worker` is the shard-local phase (touching
/// only its group), `coordinate` is the exclusive boundary phase
/// (draining cross-shard queues into any actor). The team is spawned once
/// and reused across every epoch, because a simulation runs thousands of
/// epochs and per-epoch `std::thread::spawn` costs would dwarf the epochs
/// themselves.
///
/// * Groups are contiguous runs of `ceil(len / threads)` states, and the
///   team has one worker per group — so `threads` is the *total*
///   concurrency, capped at `states.len()`. The calling thread works the
///   last group, and only the others get a spawned OS thread.
/// * Each group sits behind one `Mutex`, taken once per phase: by its
///   worker for the worker phase, and (all of them) by the coordinator
///   for the exclusive phase. The epoch barrier orders the phases, so the
///   locks are never contended.
/// * A single group runs everything inline — `worker(states, e)` then
///   `coordinate(all, e)` on the caller, no spawning, no atomics in the
///   loop — so a single-threaded epoch loop is exactly a plain loop.
///   Callers rely on this path being bitwise identical to the threaded
///   one.
/// * A panic in any phase poisons the barrier: the other workers leave
///   their loops and the panic propagates out of `run_epochs` with its
///   original payload.
pub fn run_epochs<S, W, C>(threads: usize, states: &mut [S], worker: W, mut coordinate: C)
where
    S: Send,
    W: Fn(&mut [S], u64) + Sync,
    C: FnMut(&mut Groups<'_, S>, u64) -> bool,
{
    let chunk = states.len().div_ceil(threads.max(1)).max(1);
    if chunk >= states.len() {
        let mut epoch = 0u64;
        loop {
            worker(states, epoch);
            let all = &mut [&mut *states];
            if !coordinate(&mut Groups { groups: all, chunk }, epoch) {
                break;
            }
            epoch += 1;
        }
        return;
    }

    let groups: Vec<Mutex<&mut [S]>> = states.chunks_mut(chunk).map(Mutex::new).collect();
    let (own, others) = groups
        .split_last()
        .unwrap_or_else(|| unreachable!("two groups at least"));
    // Two crossings per epoch: the first releases the team into the
    // worker phase, the second closes it. Between the second crossing of
    // epoch e and the first of epoch e+1 the spawned workers wait, so the
    // caller runs `coordinate` with exclusive access to every group.
    let barrier = EpochBarrier::new(groups.len());
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = others
            .iter()
            .map(|group| {
                let (barrier, done, worker) = (&barrier, &done, &worker);
                scope.spawn(move || {
                    let _poison = PoisonOnUnwind(barrier);
                    let mut epoch = 0u64;
                    while barrier.wait() && !done.load(Ordering::Acquire) {
                        worker(&mut lock(group), epoch);
                        if !barrier.wait() {
                            break;
                        }
                        epoch += 1;
                    }
                })
            })
            .collect();
        let _poison = PoisonOnUnwind(&barrier);
        let mut epoch = 0u64;
        while barrier.wait() {
            worker(&mut lock(own), epoch);
            if !barrier.wait() {
                break;
            }
            let go = {
                let mut guards: Vec<_> = groups.iter().map(lock).collect();
                let mut all: Vec<&mut [S]> = guards.iter_mut().map(|g| &mut ***g).collect();
                coordinate(
                    &mut Groups {
                        groups: &mut all,
                        chunk,
                    },
                    epoch,
                )
            };
            if !go {
                done.store(true, Ordering::Release);
                barrier.wait(); // release the waiting team into its exit check
                break;
            }
            epoch += 1;
        }
        // The barrier only reports poison when a spawned worker panicked:
        // hand its payload on.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_epochs_alternates_worker_and_coordinate_phases() {
        // Each epoch every worker increments each state of its group;
        // coordinate checks every state advanced exactly once per epoch
        // (i.e. the groups partition the states and the phases never
        // overlap or skip). 13 states split unevenly at every team size
        // but 1. The 20,000-epoch runs cross the barrier 40,000 times,
        // with more workers than CPUs on small hosts, so spinning,
        // parking and the generation hand-over all get exercised.
        for (threads, epochs) in [
            (1, 5),
            (2, 5),
            (4, 5),
            (2, 20_000),
            (4, 20_000),
            (8, 20_000),
        ] {
            let mut states = vec![0u64; 13];
            let mut epochs_seen = 0u64;
            run_epochs(
                threads,
                &mut states,
                |group, _e| {
                    for s in group {
                        *s += 1;
                    }
                },
                |all, e| {
                    // Iteration and indexing must agree on every state.
                    assert_eq!(all.iter().count(), 13);
                    assert!(
                        all.iter()
                            .enumerate()
                            .all(|(i, &s)| s == e + 1 && all[i] == s),
                        "epoch {e}"
                    );
                    assert_eq!(e, epochs_seen);
                    epochs_seen += 1;
                    e + 1 < epochs
                },
            );
            assert_eq!(epochs_seen, epochs);
            assert_eq!(states, vec![epochs; 13]);
        }
    }

    #[test]
    fn run_epochs_inline_path_needs_no_sync() {
        // One group must run the worker on every state, then coordinate,
        // strictly interleaved, on the calling thread.
        let log = Mutex::new(Vec::new());
        let mut states = [0u8, 0];
        run_epochs(
            1,
            &mut states,
            |group, e| {
                assert_eq!(group.len(), 2);
                log.lock().unwrap().push(('w', e));
            },
            |all, e| {
                assert_eq!(all.iter().count(), 2);
                log.lock().unwrap().push(('c', e));
                e < 1
            },
        );
        assert_eq!(
            log.into_inner().unwrap(),
            vec![('w', 0), ('c', 0), ('w', 1), ('c', 1)]
        );
    }

    /// Runs `run_epochs` on a helper thread; `None` if it has neither
    /// returned nor panicked after 20 s, else its panic message, if any.
    fn epoch_team_outcome<F: FnOnce() + Send + 'static>(run: F) -> Option<Option<String>> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            let msg = r.err().map(|p| {
                p.downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            let _ = tx.send(msg);
        });
        rx.recv_timeout(Duration::from_secs(20)).ok()
    }

    #[test]
    fn a_worker_panic_propagates_instead_of_deadlocking() {
        let outcome = epoch_team_outcome(|| {
            let caller = std::thread::current().id();
            let mut states = vec![0u8; 4];
            run_epochs(
                2,
                &mut states,
                |_, e| {
                    if e == 3 && std::thread::current().id() != caller {
                        panic!("worker failed at epoch 3");
                    }
                },
                |_, _| true,
            );
        });
        let msg = outcome.expect("run_epochs hung after a worker panic");
        assert_eq!(msg.as_deref(), Some("worker failed at epoch 3"));
    }

    #[test]
    fn a_coordinator_panic_propagates_instead_of_deadlocking() {
        let outcome = epoch_team_outcome(|| {
            let mut states = vec![0u8; 4];
            run_epochs(
                2,
                &mut states,
                |_, _| {},
                |_, e| {
                    assert!(e != 3, "coordinator failed at epoch 3");
                    true
                },
            );
        });
        let msg = outcome.expect("run_epochs hung after a coordinator panic");
        assert_eq!(msg.as_deref(), Some("coordinator failed at epoch 3"));
    }
}
