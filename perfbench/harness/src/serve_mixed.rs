//! `serve-mixed`: a closed loop with one client against `Service::handle_line`.
//!
//! Why: the store's write path (append + flush on a miss) runs beside its
//! read path (in-memory hit) and its bulk load (open). A hit bypasses
//! `core` entirely, so store changes and solve changes separate here.
//!
//! Each pass opens a fresh on-disk store with a service on [`THREADS`]
//! threads and sends the seeded stream one request at a time: Zipf-skewed
//! `solve` requests over a fixed universe of SRAM caches, LP-DRAM L3s and
//! COMM-DRAM main-memory chips, plus about 2% 8-point `grid` requests.
//! Every spec and every grid shape occurs at least once, so each pass does
//! the same solves whatever the seed; the seed sets popularity and order.
//! The grids ask for 32-byte blocks, which no universe spec uses, so a grid
//! point never shares a store record with a spec and the harness knows from
//! its own stream whether a `solve` is a hit or a miss. Then a restart: a
//! new `Service` reopens the store and replays a seeded sample of the
//! stream. `work_per_s` is requests answered per second over the pass (both
//! services, including the reopen), median over passes.
//!
//! The traffic is synthetic. No request log or traffic study is behind it:
//! the Zipf exponent [`ZIPF_S`] and the lengths [`SOLVES`], [`GRIDS`] and
//! [`REPLAY`] are chosen, not measured, and they set the mix. A pass sends
//! about 2,500 requests; with seed 3 they are 88 first-time `solve`s,
//! which miss, 2,363 repeat or replayed `solve`s, which hit, and 50 grids
//! (40 in the stream, 10 replayed). So about 96% of `solve`s are store
//! hits; the store's own `serve.hit_ratio`, which also counts the grid
//! points, reads 0.958. The context line prints each seed's counts.
//!
//! Checks: every `solve` answer and every grid point has status `ok` (the
//! universe holds only specs the solver can build); every answer is
//! byte-identical, after its `{"idx":N,` or `{"id":N,` prefix, to the first
//! answer for the same spec or grid in the run; no answer is an `error`
//! line; and the store misses exactly once per universe spec and grid
//! point in each pass, which is what the harness's hit/miss labels assume.

use crate::layers::{Layers, ObsAcc};
use crate::stats::{median, percentile, ratio, timed_loop, Rng};
use crate::{Args, Report};
use cactid_serve::{parse_request, ServeConfig, Service};
use cactid_tech::{TechNode, Technology};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Service threads (grid fan-out).
pub const THREADS: usize = 2;
/// `solve` requests drawn for one pass's stream (before the forced first
/// occurrences; chosen, not measured).
const SOLVES: usize = 1960;
/// `grid` requests in one pass's stream: 2% of it, a fixed count so every
/// seed pays the same fan-out.
const GRIDS: usize = 40;
/// Requests replayed after the restart (chosen, not measured).
const REPLAY: usize = 500;
/// Zipf exponent of spec popularity (chosen, not measured).
const ZIPF_S: f64 = 1.1;

/// What a request asks for: a universe spec or a grid shape.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Spec(usize),
    Grid(usize),
}

/// How the harness expects the store to answer a request.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// First occurrence of the spec in the pass: solve, then append.
    Miss,
    /// The spec is already in the store.
    Hit,
    /// A grid request.
    Grid,
}

/// The workload's state after set-up.
pub struct Setup {
    universe: Vec<String>,
    grids: Vec<String>,
    stream: Vec<Key>,
    replay: Vec<Key>,
    dir: PathBuf,
    tech_ms: f64,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The request bodies (everything after `"id":N,`) of the fixed spec
/// universe.
fn universe() -> Vec<String> {
    let mut u = Vec::new();
    for k in 14..=22 {
        for assoc in [4, 8, 16] {
            for node in [32, 45] {
                u.push(format!(
                    r#""op":"solve","size":{},"assoc":{assoc},"cell":"sram","node":{node}}}"#,
                    1u64 << k
                ));
            }
        }
    }
    for k in 22..=25 {
        for assoc in [8, 16] {
            for node in [32, 45] {
                u.push(format!(
                    r#""op":"solve","size":{},"assoc":{assoc},"cell":"lp-dram","node":{node},"opt":"ed"}}"#,
                    1u64 << k
                ));
            }
        }
    }
    for k in 29..=31 {
        for node in [78, 65] {
            for io in [4, 8, 16] {
                u.push(format!(
                    r#""op":"solve","size":{},"block":8,"banks":8,"cell":"comm-dram","node":{node},"main_memory":{{"io":{io},"burst":8,"prefetch":8,"page":8192}}}}"#,
                    1u64 << k
                ));
            }
        }
    }
    u
}

/// Points in one grid request.
const GRID_POINTS: usize = 8;

/// The request bodies of the fixed [`GRID_POINTS`]-point grid shapes. Their
/// 32-byte blocks keep every point out of the universe's store records.
fn grid_shapes() -> Vec<String> {
    [(15, 16), (17, 18), (19, 20), (21, 22)]
        .iter()
        .map(|&(a, b)| {
            format!(
                r#""op":"grid","sizes":[{},{}],"blocks":[32],"assocs":[4,8],"cells":["sram","lp-dram"]}}"#,
                1u64 << a,
                1u64 << b
            )
        })
        .collect()
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank + 1)^s`.
fn zipf_table(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for r in 0..n {
        total += 1.0 / ((r + 1) as f64).powf(s);
        cdf.push(total);
    }
    cdf.iter().map(|c| c / total).collect()
}

/// Makes the seeded inputs and the store directory; warms the technology
/// tables of every node the universe uses.
pub fn setup(seed: u64) -> Setup {
    let t0 = Instant::now();
    for node in [TechNode::N32, TechNode::N45, TechNode::N65, TechNode::N78] {
        std::hint::black_box(Technology::cached(node));
    }
    let tech_ms = t0.elapsed().as_secs_f64() * 1e3;

    let universe = universe();
    let grids = grid_shapes();
    let mut rng = Rng::new(seed);
    // Popularity rank → spec, seeded.
    let mut by_rank: Vec<usize> = (0..universe.len()).collect();
    rng.shuffle(&mut by_rank);
    let cdf = zipf_table(universe.len(), ZIPF_S);
    let mut stream: Vec<Key> = (0..SOLVES)
        .map(|_| {
            let u = rng.unit();
            let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
            Key::Spec(by_rank[rank])
        })
        .collect();
    // Every spec occurs at least once, and so does every grid shape.
    let missing: Vec<Key> = (0..universe.len())
        .map(Key::Spec)
        .filter(|k| !stream.contains(k))
        .collect();
    let shapes = (0..GRIDS).map(|i| Key::Grid(i % grids.len()));
    for k in missing.into_iter().chain(shapes) {
        let at = rng.below(stream.len() + 1);
        stream.insert(at, k);
    }
    let replay = (0..REPLAY)
        .map(|_| stream[rng.below(stream.len())])
        .collect();

    let dir = PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("the store directory can be created in the checkout");
    Setup {
        universe,
        grids,
        stream,
        replay,
        dir,
        tech_ms,
    }
}

impl Setup {
    fn line(&self, id: usize, key: Key) -> String {
        let body = match key {
            Key::Spec(i) => &self.universe[i],
            Key::Grid(i) => &self.grids[i],
        };
        format!("{{\"id\":{id},{body}")
    }
}

/// One answered request.
struct Answer {
    key: Key,
    class: Class,
    us: f64,
    lines: Vec<String>,
}

/// One pass: the stream against a fresh store, then a restart and replay.
struct Pass {
    wall: f64,
    open_ms: f64,
    handle_s: f64,
    store_bytes: f64,
    /// `serve.store.misses` counted during the pass.
    store_misses: u64,
    answers: Vec<Answer>,
}

fn answer(svc: &Service, line: &str, key: Key, class: Class, handle_s: &mut f64) -> Answer {
    let t0 = Instant::now();
    let (lines, _) = svc.handle_line(line);
    let s = t0.elapsed().as_secs_f64();
    *handle_s += s;
    Answer {
        key,
        class,
        us: s * 1e6,
        lines,
    }
}

fn pass(setup: &Setup, lines: &[String], replay: &[String], k: usize) -> Result<Pass, String> {
    let store = setup.dir.join(format!("pass-{k}.store"));
    let config = ServeConfig {
        threads: THREADS,
        store: Some(store.clone()),
    };
    let mut answers = Vec::with_capacity(lines.len() + replay.len());
    let mut seen = vec![false; setup.universe.len()];
    let mut handle_s = 0.0;
    let misses = cactid_obs::counter("serve.store.misses");
    let misses_before = misses.get();
    let t0 = Instant::now();
    let svc = Service::new(&config).map_err(|e| format!("store create: {e}"))?;
    for (line, &key) in lines.iter().zip(&setup.stream) {
        let class = match key {
            Key::Grid(_) => Class::Grid,
            Key::Spec(i) if seen[i] => Class::Hit,
            Key::Spec(i) => {
                seen[i] = true;
                Class::Miss
            }
        };
        answers.push(answer(&svc, line, key, class, &mut handle_s));
    }
    drop(svc);
    let t_open = Instant::now();
    let svc = Service::new(&config).map_err(|e| format!("store reopen: {e}"))?;
    let open_s = t_open.elapsed().as_secs_f64();
    for (line, &key) in replay.iter().zip(&setup.replay) {
        let class = if matches!(key, Key::Grid(_)) {
            Class::Grid
        } else {
            Class::Hit
        };
        answers.push(answer(&svc, line, key, class, &mut handle_s));
    }
    drop(svc);
    let wall = t0.elapsed().as_secs_f64();
    let store_misses = misses.get() - misses_before;
    let store_bytes = std::fs::metadata(&store).map_or(0, |m| m.len()) as f64;
    std::fs::remove_file(&store).map_err(|e| format!("store remove: {e}"))?;
    Ok(Pass {
        wall,
        open_ms: open_s * 1e3,
        handle_s: handle_s + open_s,
        store_bytes,
        store_misses,
        answers,
    })
}

/// The part of an answer line after its `{"idx":N,` / `{"id":N,` prefix.
fn body(line: &str) -> &str {
    line.split_once(',').map_or(line, |(_, rest)| rest)
}

/// Checks one pass against the first answers seen in the run, and its
/// store misses against the harness's labels: one per universe spec and
/// one per distinct grid point.
fn check(setup: &Setup, p: &Pass, reference: &mut HashMap<Key, Vec<String>>, report: &mut Report) {
    let labelled = p.answers.iter().filter(|a| a.class == Class::Miss).count();
    let expected = (labelled + setup.grids.len() * GRID_POINTS) as u64;
    report.attempted += 1;
    if labelled != setup.universe.len() || p.store_misses != expected {
        report.fail(format!(
            "{labelled} solves labelled misses and {} store misses, expected {} and {expected}",
            p.store_misses,
            setup.universe.len()
        ));
    }
    for (i, a) in p.answers.iter().enumerate() {
        report.attempted += 1;
        if let Some(bad) = a
            .lines
            .iter()
            .find(|l| l.starts_with("{\"id\":") && body(l).starts_with("\"error\":"))
        {
            report.fail(format!("request {i}: error answer {bad}"));
            continue;
        }
        let bodies: Vec<String> = a.lines.iter().map(|l| body(l).to_string()).collect();
        let points = if matches!(a.key, Key::Spec(_)) {
            1
        } else {
            GRID_POINTS
        };
        let lines = if points == 1 { 1 } else { points + 1 };
        if bodies.len() != lines {
            report.fail(format!("request {i}: {} answer lines", bodies.len()));
            continue;
        }
        if let Some(bad) = bodies[..points]
            .iter()
            .find(|b| !b.contains("\"status\":\"ok\""))
        {
            report.fail(format!("request {i}: answer is not ok: {bad}"));
            continue;
        }
        match reference.get(&a.key) {
            None => {
                reference.insert(a.key, bodies);
            }
            Some(r) if *r != bodies => {
                report.fail(format!("request {i}: answer differs from the first one"));
            }
            Some(_) => {}
        }
    }
}

/// Runs passes for `--seconds`, then reports.
pub fn run(setup: Setup, args: &Args) -> Report {
    let mut report = Report {
        work_unit: "requests/s",
        ..Report::default()
    };
    let lines: Vec<String> = setup
        .stream
        .iter()
        .enumerate()
        .map(|(i, &k)| setup.line(i + 1, k))
        .collect();
    let replay: Vec<String> = setup
        .replay
        .iter()
        .enumerate()
        .map(|(i, &k)| setup.line(lines.len() + i + 1, k))
        .collect();
    let requests = (lines.len() + replay.len()) as f64;

    let mut reference = HashMap::new();
    let mut acc = ObsAcc::default();
    let mut traced = Vec::new();
    let mut traced_handle_s = 0.0;
    let (mut open_ms, mut bytes) = (Vec::new(), Vec::new());
    let (mut all, mut hit, mut miss, mut grid) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    timed_loop(args.seconds, 3, |k| {
        let is_traced = args.trace && k % 2 == 1;
        let t0 = Instant::now();
        if is_traced {
            cactid_obs::reset();
        }
        let p = match pass(&setup, &lines, &replay, k) {
            Ok(p) => p,
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("pass {k}: {e}"));
                return;
            }
        };
        if is_traced {
            acc.add_snapshot();
            traced.push(t0.elapsed().as_secs_f64());
            traced_handle_s += p.handle_s;
        } else {
            report.rates.push(requests / p.wall);
        }
        check(&setup, &p, &mut reference, &mut report);
        if !args.trace {
            return;
        }
        open_ms.push(p.open_ms);
        bytes.push(p.store_bytes);
        for a in &p.answers {
            all.push(a.us);
            match a.class {
                Class::Hit => hit.push(a.us),
                Class::Miss => miss.push(a.us),
                Class::Grid => grid.push(a.us / 1e3),
            }
        }
    });
    report.context.push(("threads", THREADS.to_string()));
    report.context.push(("clients", "1".to_string()));
    report
        .context
        .push(("universe_specs", setup.universe.len().to_string()));
    report
        .context
        .push(("requests_per_pass", (requests as usize).to_string()));
    // The mix the chosen stream parameters give, per pass.
    let grids = setup
        .stream
        .iter()
        .chain(&setup.replay)
        .filter(|k| matches!(k, Key::Grid(_)))
        .count();
    let solves = requests as usize - grids;
    let misses = setup.universe.len();
    report
        .context
        .push(("solve_misses_per_pass", misses.to_string()));
    report
        .context
        .push(("solve_hits_per_pass", (solves - misses).to_string()));
    report.context.push(("grids_per_pass", grids.to_string()));
    report.context.push((
        "solve_hit_share",
        ratio((solves - misses) as f64, solves as f64).to_string(),
    ));

    if args.trace {
        let mut l = Layers::default();
        acc.fill(&mut l);
        l.set("tech.cached_ms", setup.tech_ms);
        l.set("serve.store_bytes", median(&bytes));
        l.set("serve.store_open_ms", median(&open_ms));
        l.set("serve.grid_req_ms_p50", percentile(&grid, 0.5));
        let traced_wall: f64 = traced.iter().sum();
        let (_, request_ns, _) = acc.hist("serve.request.ns");
        l.set("serve.coverage", ratio(request_ns / 1e9, traced_wall));
        l.set("coverage", ratio(traced_handle_s, traced_wall));
        l.set(
            "obs.trace_overhead_ratio",
            ratio(median(&traced), ratio(requests, median(&report.rates))),
        );
        l.set("serve.req_p50_us", percentile(&all, 0.5));
        l.set("serve.req_p99_us", percentile(&all, 0.99));
        l.set("serve.req_samples", all.len() as f64);
        l.set("serve.hit_p50_us", percentile(&hit, 0.5));
        l.set("serve.hit_samples", hit.len() as f64);
        l.set("serve.miss_p50_us", percentile(&miss, 0.5));
        l.set("serve.miss_samples", miss.len() as f64);
        // Parsing alone, timed line by line outside the service.
        let parse_us: Vec<f64> = lines
            .iter()
            .map(|line| {
                let t0 = Instant::now();
                let ok = std::hint::black_box(parse_request(line)).is_ok();
                let us = t0.elapsed().as_secs_f64() * 1e6;
                if !ok {
                    report.fail(format!("parse_request rejects {line}"));
                }
                us
            })
            .collect();
        l.set("serve.parse_us_p50", percentile(&parse_us, 0.5));
        report.layers = l;
    }
    report
}
