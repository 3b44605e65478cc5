//! # npbgen — synthetic NPB-like workloads
//!
//! The paper's LLC study (§3.2) runs OpenMP NAS Parallel Benchmarks (bt.C,
//! cg.C, ft.B, is.C, lu.C, mg.B, sp.C, ua.C) under a full-system simulator.
//! We do not have COTSon or 10-billion-instruction NPB runs; instead, each
//! application is replaced by a *synthetic profile* that reproduces the
//! memory behaviour the paper describes in §4.2:
//!
//! * **ft.B, lu.C** — the working set beyond L2 largely *fits in the L3
//!   candidates*: big IPC gains from an L3; the 24 MB SRAM L3 is too small
//!   (especially for lu.C).
//! * **bt.C, is.C, mg.B, sp.C** — working sets *bigger than every L3*, but
//!   with locality: bigger L3s monotonically help.
//! * **cg.C** — no reusable locality beyond L2: every L3 fails to filter.
//! * **ua.C** — low L3 access frequency: insensitive to the L3.
//!
//! A profile is a stationary mixture over four address regions (per-thread
//! hot, partitioned warm, huge cold, small shared) with short sequential
//! runs for spatial locality, plus FP/other instruction mix, store
//! fraction, and barrier/lock cadence. Profiles are deterministic per
//! (application, thread).
//!
//! # Example
//!
//! ```
//! use npbgen::{NpbApp, NpbTrace};
//! use memsim::{ShardedSimulator, SystemConfig};
//!
//! let trace = NpbTrace::new(NpbApp::FtB, 32);
//! let mut sim = ShardedSimulator::new(SystemConfig::with_sram_l3(), trace, 1);
//! let stats = sim.run(50_000);
//! assert!(stats.instructions >= 50_000);
//! ```

pub mod apps;
pub mod generator;
pub mod profile;

pub use apps::{NpbApp, NpbClass};
pub use generator::NpbTrace;
pub use profile::Profile;
