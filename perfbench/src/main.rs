//! `ccs-perfbench` — one benchmark run against the real `ccs-netd`.
//!
//! ```text
//! ccs-perfbench --netd <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run synthesises the workload from the seed, times `ccs-netd`'s
//! set-up, drives the plan over two loopback connections in six attempts,
//! each against a fresh service, and after each checks every
//! reply and compares the server's deterministic counters with an
//! in-process replay.  With `--trace 0` it prints the end-to-end metrics;
//! with `--trace 1` it also replays the plan in process with spans around
//! each layer's public calls and prints the per-layer metrics.  The last
//! stdout line is the result JSON; the exit code is non-zero when any check
//! fails.  `perfbench/run.py` builds both binaries and calls this.

mod check;
mod client;
mod inproc;
mod netd;
mod spec;
mod stats;
mod workload;

use ccs_engine::wire::ServiceStats;
use check::Verdict;
use inproc::{OpenReplay, SyncReplay};
use netd::{Netd, STATS_FRAME};
use spec::Catalogue;
use stats::{median, ms, percentile, us};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Plan, Workload};

/// Groups of back-to-back `ccs-netd` spawns before each TCP attempt and
/// after the last.  Each group keeps its fastest set-up and `setup_s` is the
/// median over groups: a single set-up is bimodal (the first request races
/// netd's idle sleep) and stalls with a busy host, which the group minimum
/// removes while work moved into start-up still shows in full.
const SETUP_GROUPS: usize = 5;
/// Spawns per set-up group.
const SETUP_GROUP: usize = 10;
/// Stats pings behind `netd.rtt_floor_us`.
const PINGS: usize = 200;
/// Smallest latency block (see [`block_percentile`]): ten samples beyond
/// its p99.
const BLOCK_SAMPLES: usize = 1_000;
/// TCP attempts per run, each replaying the whole plan against a freshly
/// started service; the plan lasts `--seconds / ATTEMPTS`.  A shared
/// machine has slow phases lasting seconds to a minute that only ever add
/// time, and an attempt can be a few percent slower than the next for no
/// reason of its own, so every latency block and closed-loop segment
/// reports its best attempt.  Every attempt is checked.
const ATTEMPTS: usize = 6;

struct Args {
    netd: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut netd = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--netd" => netd = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    Ok(Args {
        netd: netd.ok_or_else(|| missing("netd"))?,
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds: seconds
            .filter(|s: &f64| *s > 0.0)
            .ok_or_else(|| missing("seconds (positive)"))?,
        trace: trace.ok_or_else(|| missing("trace"))?,
    })
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("ccs-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// One run; `Ok(false)` when a check failed (the result is still printed).
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let mut phases = Phases::new();
    let plan = Plan::new(args.workload, args.seed, args.seconds / ATTEMPTS as f64);
    phases.lap("plan");

    // The in-process replays run first: besides their own results they
    // bring an idle machine up to speed before anything is timed over TCP.
    let plain = inproc::sync_replay(&plan, false)?;
    let traced = if args.trace {
        let traced = inproc::sync_replay(&plan, true)?;
        let open = inproc::open_replay(&plan, &traced)?;
        Some((traced, open))
    } else {
        None
    };
    phases.lap("replay");

    let mut setups = Vec::new();
    let mut audits = check::Audits::default();
    let mut attempts = Vec::with_capacity(ATTEMPTS);
    for _ in 0..ATTEMPTS {
        time_setups(&args, &mut setups)?;
        phases.lap("setup");
        attempts.push(tcp_attempt(&args, &plan, &plain, &mut audits, &mut phases)?);
    }
    time_setups(&args, &mut setups)?;
    phases.lap("setup");

    let mut values = BTreeMap::new();
    let metrics = match traced {
        Some((traced, open)) => {
            per_layer(&mut values, &attempts, &plain, &traced, &open);
            Catalogue::builtin().per_layer
        }
        None => {
            end_to_end(&mut values, &attempts, &setups);
            Catalogue::builtin().end_to_end
        }
    };

    summarise(&args, &plan, &attempts, &setups, &phases);
    let failures: Vec<&String> = attempts
        .iter()
        .flat_map(|a| a.verdict.failures.iter())
        .collect();
    for failure in &failures {
        eprintln!("check failed: {failure}");
    }
    let correct = failures.is_empty();
    let attempted = attempts.iter().map(|a| a.verdict.attempted).sum();
    let failed = attempts.iter().map(|a| a.verdict.failed).sum();
    println!(
        "{}",
        spec::result_line(correct, attempted, failed, &metrics, &values)?
    );
    Ok(correct)
}

/// Starts and stops the service in [`SETUP_GROUPS`] groups of
/// [`SETUP_GROUP`], adding each group's fastest set-up time.
fn time_setups(args: &Args, setups: &mut Vec<f64>) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    for _ in 0..SETUP_GROUPS {
        let mut best = f64::INFINITY;
        for _ in 0..SETUP_GROUP {
            let (netd, setup, conn) = Netd::start(&args.netd).map_err(io)?;
            best = best.min(setup.as_secs_f64());
            drop(conn);
            netd.stop().map_err(io)?;
        }
        setups.push(best);
    }
    Ok(())
}

/// What one checked TCP attempt at the plan observed.
struct Attempt {
    /// Open-loop latencies in send order; a failed request misses every
    /// latency limit.
    open: Vec<u64>,
    /// Session round trips in send order.
    sessions: Vec<u64>,
    /// Per segment: closed-loop replies per second.
    closed_rps: Vec<f64>,
    /// How late each open-loop request was sent.
    late: Vec<u64>,
    /// The final stats frame.
    stats: ServiceStats,
    verdict: Verdict,
    rss_mb: f64,
    /// Idle stats-ping round trips before the run (traced runs only).
    pings: Vec<u64>,
    /// Host CPU steal over the attempt, in clock ticks per second.
    steal_rate: f64,
}

/// Drives the plan through a freshly started service, then checks every
/// reply and the final counters against the reference replay.
fn tcp_attempt(
    args: &Args,
    plan: &Plan,
    reference: &SyncReplay,
    audits: &mut check::Audits,
    phases: &mut Phases,
) -> Result<Attempt, String> {
    let io = |e: std::io::Error| e.to_string();
    let started = Instant::now();
    let steal_before = client::host_steal();
    let (netd, _, mut conn) = Netd::start(&args.netd).map_err(io)?;
    let mut pings = Vec::new();
    if args.trace {
        for _ in 0..PINGS {
            let sent = Instant::now();
            conn.request(STATS_FRAME).map_err(io)?;
            pings.push(sent.elapsed().as_nanos() as u64);
        }
    }
    let tcp = client::run(plan, &netd, conn).map_err(io)?;
    let rss_mb = netd.peak_rss_mb().map_err(io)?;
    netd.stop().map_err(io)?;
    let stolen = client::host_steal().saturating_sub(steal_before);
    let steal_rate = stolen as f64 / started.elapsed().as_secs_f64();
    phases.lap("tcp");

    let mut verdict = check::check_run(plan, &tcp, audits);
    let counters = reference.reference.counters;
    check::compare_replay(
        &mut verdict,
        &tcp.stats,
        counters,
        reference.reference.quality,
    );
    let open = plan
        .segments
        .iter()
        .flat_map(|segment| segment.open.clone())
        .map(|i| match tcp.latency_ns[i] {
            Some(ns) if !verdict.pool_failed[i] => ns,
            _ => u64::MAX,
        })
        .collect();
    phases.lap("check");
    Ok(Attempt {
        open,
        sessions: tcp.sessions.iter().map(|s| s.rtt_ns).collect(),
        late: tcp.late_ns.iter().flatten().copied().collect(),
        closed_rps: tcp.closed_rps,
        stats: tcp.stats,
        verdict,
        rss_mb,
        pings,
        steal_rate,
    })
}

/// Human-readable sample counts, ahead of the result line.
fn summarise(args: &Args, plan: &Plan, attempts: &[Attempt], setups: &[f64], phases: &Phases) {
    let open: usize = plan.segments.iter().map(|s| s.open.len()).sum();
    let sessions = attempts[0].sessions.len();
    println!(
        "# {} seed {} ({} s, {} segments, {} attempts): {open} open-loop samples in {} blocks; \
         {} closed-loop requests; {} session frames in {} blocks",
        args.workload.name(),
        args.seed,
        args.seconds,
        plan.segments.len(),
        attempts.len(),
        blocks_of(open),
        plan.pool_requests() - open,
        sessions,
        blocks_of(sessions),
    );
    for (k, a) in attempts.iter().enumerate() {
        let rps: Vec<String> = a.closed_rps.iter().map(|r| format!("{r:.0}")).collect();
        println!(
            "# attempt {k}: p50 {:.3} ms, p99 {:.3} ms, session p99 {:.3} ms, \
             host CPU steal {:.1} ticks/s; closed-loop replies/s per segment [{}]",
            block_percentile(std::slice::from_ref(&a.open), 50.0),
            block_percentile(std::slice::from_ref(&a.open), 99.0),
            block_percentile(std::slice::from_ref(&a.sessions), 99.0),
            a.steal_rate,
            rps.join(", ")
        );
    }
    let first = &attempts[0];
    println!(
        "# per attempt: attempted {} failed {} shed {}; counters {:?}",
        first.verdict.attempted,
        first.verdict.failed,
        first.verdict.shed,
        check::Counters::of(&first.stats)
    );
    let mut sorted = setups.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: usize| sorted[(q * (sorted.len() - 1)) / 100] * 1e3;
    println!(
        "# {} set-up groups (fastest of {SETUP_GROUP}), ms: min {:.3}, p25 {:.3}, p50 {:.3}, p75 {:.3}, max {:.3}",
        sorted.len(),
        at(0),
        at(25),
        at(50),
        at(75),
        at(100)
    );
    let laps: Vec<String> = phases
        .laps
        .iter()
        .map(|(name, took)| format!("{name} {:.1} s", took.as_secs_f64()))
        .collect();
    println!("# phases: {}", laps.join(", "));
}

/// Wall time of a run's phases, for the summary.
struct Phases {
    laps: Vec<(&'static str, Duration)>,
    since: Instant,
}

impl Phases {
    fn new() -> Phases {
        Phases {
            laps: Vec::new(),
            since: Instant::now(),
        }
    }

    /// Ends the phase `name` now.
    fn lap(&mut self, name: &'static str) {
        let now = Instant::now();
        self.laps.push((name, now - self.since));
        self.since = now;
    }
}

fn end_to_end(values: &mut BTreeMap<&'static str, f64>, attempts: &[Attempt], setups: &[f64]) {
    let open: Vec<Vec<u64>> = attempts.iter().map(|a| a.open.clone()).collect();
    let sessions: Vec<Vec<u64>> = attempts.iter().map(|a| a.sessions.clone()).collect();
    let segments = attempts
        .iter()
        .map(|a| a.closed_rps.len())
        .min()
        .unwrap_or(0);
    let capacity: Vec<f64> = (0..segments)
        .map(|s| {
            let best = attempts.iter().map(|a| a.closed_rps[s]);
            best.fold(0.0, f64::max)
        })
        .collect();
    let rss: Vec<f64> = attempts.iter().map(|a| a.rss_mb).collect();
    let first = &attempts[0].verdict;
    values.insert("setup_s", median(setups));
    values.insert("p50_ms", block_percentile(&open, 50.0));
    values.insert("p99_ms", block_percentile(&open, 99.0));
    values.insert("capacity_rps", median(&capacity));
    values.insert(
        "success_frac",
        1.0 - first.failed as f64 / first.attempted.max(1) as f64,
    );
    values.insert("quality_ratio", first.quality());
    values.insert("rss_mb", median(&rss));
    values.insert("session_p50_ms", block_percentile(&sessions, 50.0));
    values.insert("session_p99_ms", block_percentile(&sessions, 99.0));
}

/// A percentile in milliseconds over attempts that sent the same samples in
/// the same order.  The samples are cut into consecutive blocks of at least
/// [`BLOCK_SAMPLES`]; each block position takes its lowest percentile over
/// the attempts, and the result is the median over positions.  A slow phase
/// of the shared machine moves one attempt's blocks, not the result.
fn block_percentile(attempts: &[Vec<u64>], pct: f64) -> f64 {
    let len = attempts.iter().map(Vec::len).min().unwrap_or(0);
    let per_block = len.div_ceil(blocks_of(len)).max(1);
    let best: Vec<f64> = (0..len)
        .step_by(per_block)
        .map(|from| {
            let block = from..(from + per_block).min(len);
            let each = attempts
                .iter()
                .map(|a| ms(percentile(&a[block.clone()], pct)));
            each.fold(f64::INFINITY, f64::min)
        })
        .collect();
    median(&best)
}

fn blocks_of(samples: usize) -> usize {
    (samples / BLOCK_SAMPLES).max(1)
}

fn per_layer(
    values: &mut BTreeMap<&'static str, f64>,
    attempts: &[Attempt],
    plain: &SyncReplay,
    traced: &SyncReplay,
    open: &OpenReplay,
) {
    // Stages the workload never reached report the probe's samples.
    let stage = |name: &str| match traced.stages.get(name) {
        [] => traced.probe.get(name),
        samples => samples,
    };
    let p50 = |name: &str| percentile(stage(name), 50.0);
    let total = |name: &str| traced.stages.get(name).iter().sum::<u64>() as f64;
    let requests = traced.totals.len().max(1) as f64;
    let stats = &attempts[0].stats;
    let engine = &stats.engine;

    let served: Vec<Vec<u64>> = attempts.iter().map(|a| a.open.clone()).collect();
    let overhead_us =
        block_percentile(&served, 50.0) * 1e3 - us(percentile(&open.latency_ns, 50.0));
    values.insert(
        "netd.rtt_floor_us",
        us(percentile(&attempts[0].pings, 50.0)),
    );
    values.insert("netd.overhead_us", overhead_us);
    values.insert("netd.admitted", stats.admitted as f64);
    values.insert("netd.shed", (stats.shed_overload + stats.shed_quota) as f64);

    values.insert("wire.parse_us", us(p50("wire.parse")));
    values.insert("wire.serialise_us", us(p50("wire.serialise")));
    values.insert("wire.bytes_in", traced.bytes_in as f64 / requests);
    values.insert("wire.bytes_out", traced.bytes_out as f64 / requests);
    values.insert("core.fingerprint_us", us(p50("core.fingerprint")));

    let lookups = (engine.cache_hits + engine.cache_misses).max(1) as f64;
    values.insert("cache.hit_us", us(p50("cache.hit")));
    values.insert("cache.hit_ratio", engine.cache_hits as f64 / lookups);
    values.insert("cache.hits", engine.cache_hits as f64);
    values.insert("cache.misses", engine.cache_misses as f64);
    values.insert("cache.evictions", engine.cache_evictions as f64);

    values.insert("policy.route_us", us(p50("policy.route")));
    values.insert(
        "worker.queue_wait_us",
        us(percentile(&open.queue_wait_ns, 50.0)),
    );
    values.insert(
        "worker.queue_wait_p99_us",
        us(percentile(&open.queue_wait_ns, 99.0)),
    );
    values.insert("worker.queue_depth_max", open.depth_max as f64);

    const TIERS: [(&str, &str); 4] = [
        ("solver.approx", "solver.approx_us"),
        ("solver.ptas", "solver.ptas_us"),
        ("solver.exact", "solver.exact_us"),
        ("solver.heuristic", "solver.heuristic_us"),
    ];
    for (tier, metric) in TIERS {
        values.insert(metric, us(p50(tier)));
    }
    values.insert("solver.search_iterations", engine.search_iterations as f64);
    values.insert("solver.guesses_evaluated", engine.guesses_evaluated as f64);
    values.insert("solver.configurations", engine.configurations as f64);
    values.insert("solver.checkpoints", engine.checkpoints as f64);

    values.insert("session.apply_us", us(p50("session.apply")));
    values.insert("session.fingerprint_us", us(p50("session.fingerprint")));
    values.insert("session.materialize_us", us(p50("session.materialize")));
    values.insert("session.solve_us", us(p50("session.solve")));
    let (warm_hits, warm_misses) = traced.session_warm;
    values.insert(
        "session.warm_hit_ratio",
        warm_hits as f64 / (warm_hits + warm_misses).max(1) as f64,
    );
    values.insert("session.warm_hits", warm_hits as f64);
    values.insert("session.warm_misses", warm_misses as f64);

    let late: Vec<u64> = attempts.iter().flat_map(|a| a.late.clone()).collect();
    values.insert("gen.late_p99_ms", ms(percentile(&late, 99.0)));
    values.insert("trace.unattributed_frac", median(&open.unattributed));
    let sum = |totals: &[u64]| totals.iter().sum::<u64>() as f64;
    values.insert(
        "trace.overhead_frac",
        sum(&traced.totals) / sum(&plain.totals).max(1.0) - 1.0,
    );
    let solver: f64 = TIERS.iter().map(|(tier, _)| total(tier)).sum();
    let serving = total("wire.parse")
        + total("wire.serialise")
        + total("core.fingerprint")
        + total("cache.hit_self")
        + overhead_us.max(0.0) * 1e3 * requests;
    let attributed = (solver + serving + total("policy.route")).max(1.0);
    values.insert("trace.solver_share", solver / attributed);
    values.insert("trace.serving_share", serving / attributed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_block_reports_its_best_attempt() {
        let fast = vec![1_000_000; BLOCK_SAMPLES];
        let slow = vec![9_000_000; BLOCK_SAMPLES];
        let a = [fast.clone(), slow.clone(), fast.clone()].concat();
        let b = [slow.clone(), fast.clone(), slow.clone()].concat();
        assert_eq!(block_percentile(&[a.clone(), b], 50.0), 1.0);
        // Blocks are medianed: one slow block does not move the result.
        let c = [slow, fast.clone(), fast].concat();
        assert_eq!(block_percentile(&[c], 99.0), 1.0);
        assert_eq!(block_percentile(&[a], 50.0), 1.0);
    }
}
