//! Figure 4: IPC, average read latency (a) and normalized execution-cycle
//! breakdown (b) for the eight NPB applications on the six system
//! configurations.

use crate::configs::{self, LlcKind, StudyConfig};
use crate::report::format_table;
use memsim::{ShardedSimulator, SimStats};
use npbgen::{NpbApp, NpbTrace};

/// Result of simulating one (application, configuration) pair.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Application.
    pub app: NpbApp,
    /// Configuration.
    pub kind: LlcKind,
    /// Measured statistics (post-warm-up).
    pub stats: SimStats,
    /// Measured wall time of the simulated interval \[s\].
    pub seconds: f64,
}

/// Runs the full study: every application on every configuration.
///
/// `instructions` is the measured instruction count per run; as many
/// again run first as cache warm-up. The paper runs 10 B
/// instructions per pair; tens of millions are enough for the synthetic
/// profiles to reach steady state.
///
/// The 48 runs are independent, so they go on the explore work-claiming
/// pool at the host's parallelism. Each run is deterministic on its own,
/// and the results come back in `LlcKind::ALL` × `NpbApp::ALL` order.
pub fn run_study(instructions: u64) -> Vec<(StudyConfig, Vec<AppRun>)> {
    let cfgs: Vec<StudyConfig> = LlcKind::ALL.iter().map(|&k| configs::build(k)).collect();
    let pairs: Vec<(&StudyConfig, NpbApp)> = cfgs
        .iter()
        .flat_map(|cfg| NpbApp::ALL.iter().map(move |&app| (cfg, app)))
        .collect();
    let mut runs = cactid_explore::pool::parallel_map(0, &pairs, |_, &(cfg, app)| {
        run_one(cfg, app, instructions)
    })
    .into_iter();
    cfgs.into_iter()
        .map(|cfg| (cfg, runs.by_ref().take(NpbApp::ALL.len()).collect()))
        .collect()
}

/// Runs one (application, configuration) pair.
pub fn run_one(cfg: &StudyConfig, app: NpbApp, instructions: u64) -> AppRun {
    let _span = cactid_obs::span("study.run_one");
    let trace = NpbTrace::new(app, cfg.system.n_threads());
    let mut sim = ShardedSimulator::new(cfg.system.clone(), trace, 1);
    // Full-length warm-up: the big L3s take tens of millions of
    // instructions to populate (60–450 MB warm sets).
    sim.run(instructions);
    sim.reset_stats();
    let stats = sim.run(instructions);
    // Publish only the measured interval's counts (warm-up was discarded).
    stats.publish_obs();
    let seconds = stats.cycles as f64 / cfg.system.clock_hz;
    AppRun {
        app,
        kind: cfg.kind,
        stats,
        seconds,
    }
}

/// Renders Figure 4(a): IPC and average read latency.
pub fn render_a(study: &[(StudyConfig, Vec<AppRun>)]) -> String {
    let mut rows = Vec::new();
    for (i, &app) in NpbApp::ALL.iter().enumerate() {
        let mut ipc_row = vec![format!("{app} IPC")];
        let mut lat_row = vec![format!("{app} lat")];
        for (_, runs) in study {
            let r = &runs[i];
            ipc_row.push(format!("{:.2}", r.stats.ipc()));
            lat_row.push(format!("{:.1}", r.stats.avg_read_latency()));
        }
        rows.push(ipc_row);
        rows.push(lat_row);
    }
    let mut headers = vec!["app"];
    headers.extend(LlcKind::ALL.iter().map(|k| k.label()));
    format!(
        "Figure 4(a): IPC and average read latency (cycles)\n{}",
        format_table(&headers, &rows)
    )
}

/// Renders Figure 4(b): normalized execution-cycle breakdown.
pub fn render_b(study: &[(StudyConfig, Vec<AppRun>)]) -> String {
    let mut s =
        String::from("Figure 4(b): normalized cycle breakdown (instr/L2/L3/mem/barrier/lock %)\n");
    for (i, &app) in NpbApp::ALL.iter().enumerate() {
        s.push_str(&format!("{app}:\n"));
        for (cfg, runs) in study {
            let f = runs[i].stats.breakdown_fractions();
            s.push_str(&format!(
                "  {:11} {:5.1} {:5.1} {:5.1} {:5.1} {:5.1} {:5.1}\n",
                cfg.kind.label(),
                f[0] * 100.0,
                f[1] * 100.0,
                f[2] * 100.0,
                f[3] * 100.0,
                f[4] * 100.0,
                f[5] * 100.0
            ));
        }
    }
    s
}

/// Convenience accessor: the run for (app, kind).
pub fn find(study: &[(StudyConfig, Vec<AppRun>)], app: NpbApp, kind: LlcKind) -> &AppRun {
    study
        .iter()
        .find(|(c, _)| c.kind == kind)
        .and_then(|(_, runs)| runs.iter().find(|r| r.app == app))
        .unwrap_or_else(|| panic!("no run for {app:?} on {kind:?}"))
}

/// Relative execution-time reduction of `kind` vs. no-L3 for one app
/// (positive = faster).
pub fn speedup_vs_nol3(study: &[(StudyConfig, Vec<AppRun>)], app: NpbApp, kind: LlcKind) -> f64 {
    let base = find(study, app, LlcKind::NoL3).seconds;
    let t = find(study, app, kind).seconds;
    1.0 - t / base
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One smaller-scale end-to-end sanity run (full-scale checks live in
    /// the integration tests and benches).
    #[test]
    fn ft_b_gains_from_an_l3() {
        let nol3 = configs::build(LlcKind::NoL3);
        let lp = configs::build(LlcKind::LpDramC72);
        let a = run_one(&nol3, NpbApp::FtB, 400_000);
        let b = run_one(&lp, NpbApp::FtB, 400_000);
        assert!(
            b.stats.ipc() > a.stats.ipc(),
            "{} vs {}",
            b.stats.ipc(),
            a.stats.ipc()
        );
        assert!(b.stats.avg_read_latency() < a.stats.avg_read_latency());
        assert!(b.stats.counts.mem_reads < a.stats.counts.mem_reads);
    }

    #[test]
    fn parallel_study_matches_a_serial_loop_run_by_run() {
        let n = 20_000;
        let study = run_study(n);
        let serial: Vec<AppRun> = LlcKind::ALL
            .iter()
            .flat_map(|&kind| {
                let cfg = configs::build(kind);
                NpbApp::ALL.iter().map(move |&app| run_one(&cfg, app, n))
            })
            .collect();
        let parallel: Vec<&AppRun> = study.iter().flat_map(|(_, runs)| runs).collect();
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!((p.kind, p.app), (s.kind, s.app));
            assert_eq!(
                p.stats.digest(),
                s.stats.digest(),
                "{} on {:?}",
                s.app,
                s.kind
            );
        }
        for (cfg, runs) in &study {
            assert!(runs.iter().all(|r| r.kind == cfg.kind));
        }
    }

    #[test]
    fn cg_c_is_l3_insensitive() {
        let nol3 = configs::build(LlcKind::NoL3);
        let lp = configs::build(LlcKind::LpDramC72);
        let a = run_one(&nol3, NpbApp::CgC, 400_000);
        let b = run_one(&lp, NpbApp::CgC, 400_000);
        let gain = 1.0 - b.seconds / a.seconds;
        assert!(gain < 0.30, "cg.C should barely benefit, got {gain:.2}");
    }
}
