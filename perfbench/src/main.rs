//! FT-Lanczos time-to-solution benchmark.
//!
//! Runs the fault-tolerant Lanczos application (`ft_solver::FtLanczos`
//! under `ft_core::run_ft_job`) on the in-memory backend as a closed loop:
//! one driver thread starts one job at a time and starts the next when it
//! returns. Each job's rank threads are the program under test.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cr-kills --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Before timing, a failure-free reference job of the same workload and
//! seed runs untimed (it is also the warm-up); every timed job must finish
//! on every app rank with α/β bitwise equal to it. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced jobs with jobs of
//! the traced twin (see `twin.rs`) and reports the per-layer metrics. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod probe;
mod twin;

use std::ops::RangeInclusive;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use ft_cluster::{FaultSchedule, LatencyModel, Rank};
use ft_core::{
    run_ft_job_with, EventKind, EventLog, FtConfig, JobReport, StrategyKind, WorldLayout,
};
use ft_gaspi::{GaspiConfig, GaspiSnapshot, GaspiWorld, RankOutcome};
use ft_matgen::graphene::Graphene;
use ft_matgen::RowGen;
use ft_solver::{FtLanczos, FtLanczosConfig, LanczosSummary};
use ft_telemetry::json::Json;
use ft_telemetry::OverheadReport;

use crate::probe::{Probe, RankRecord, Sink};
use crate::twin::Twin;

/// One benchmark workload. Every workload uses graphene with
/// next-nearest-neighbour hopping −0.1, the default latency model and the
/// default detector (30 ms scan).
pub struct Workload {
    pub name: &'static str,
    pub strategy: StrategyKind,
    pub workers: u32,
    pub spares: u32,
    pub lx: u64,
    pub ly: u64,
    pub iters: u64,
    /// Checkpoint interval; 0 when the strategy takes no checkpoints.
    pub ckpt_every: u64,
    /// `(GASPI rank, iteration)` of each scheduled `exit`, in firing order.
    pub kills: &'static [(Rank, u64)],
    /// Iterations each failure may redo.
    pub redo_per_failure: RangeInclusive<i64>,
}

pub const WORKLOADS: [Workload; 3] = [
    // Kernel- and bytes-heavy control: spMV is ~33% of an iteration and
    // each checkpoint commits ~0.5 MB per rank. Nothing fails, so this is
    // the paper's failure-free case and the control for recovery changes.
    // Committing every 50 iterations puts 11 of each rank's 599
    // step-to-step intervals (1.8%) in the commit cluster, so iter_p99_ms
    // lands inside it and follows commit cost; at every 100 it would be
    // 0.8%, and p99 would sit on the cluster's edge and jump between the
    // commit and non-commit tails from run to run.
    Workload {
        name: "ff-large",
        strategy: StrategyKind::CheckpointRestart,
        workers: 4,
        spares: 2,
        lx: 256,
        ly: 256,
        iters: 600,
        ckpt_every: 50,
        kills: &[],
        redo_per_failure: 0..=0,
    },
    // The paper's Fig. 4: latency-bound (halo, allreduce and transport
    // dominate), each kill lands 60% into a checkpoint interval so every
    // failure redoes 60 iterations, and the long α/β history makes the
    // final eigensolve show.
    Workload {
        name: "cr-kills",
        strategy: StrategyKind::CheckpointRestart,
        workers: 4,
        spares: 5,
        lx: 48,
        ly: 32,
        iters: 1500,
        ckpt_every: 100,
        kills: &[(0, 260), (1, 560), (2, 860), (3, 1160)],
        redo_per_failure: 60..=60,
    },
    // Bound by ABFT's per-iteration encode (the width and XOR allreduces
    // of `Abft::prepare`); recovery reconstructs the lost block instead of
    // rolling back. Each victim is the lowest GASPI rank of the group, so
    // it is the root of the parity allreduce: when it exits right after
    // posting the round's broadcast, the transport drops those in-flight
    // tokens with it, survivors keep only the previous generation, and the
    // failure redoes one iteration. If the broadcast lands first, nothing
    // is redone.
    Workload {
        name: "abft-kills",
        strategy: StrategyKind::Abft,
        workers: 4,
        spares: 5,
        lx: 48,
        ly: 32,
        iters: 600,
        ckpt_every: 0,
        kills: &[(0, 160), (1, 260), (2, 360), (3, 460)],
        redo_per_failure: 0..=1,
    },
];

impl Workload {
    pub fn gen(&self) -> Arc<dyn RowGen> {
        Arc::new(Graphene::new(self.lx, self.ly).with_nnn(-0.1))
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num =
            || value.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let usage = "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.filter(|&s| s > 0).ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

/// Which application a job runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum App {
    /// The library's `FtLanczos`, with only the step-start clock.
    Library,
    /// The traced twin, with every timer on.
    Twin,
}

/// One finished job and everything measured around it.
pub struct Job {
    pub solve_s: f64,
    pub setup_s: f64,
    pub teardown_ms: f64,
    pub report: JobReport<LanczosSummary>,
    pub overhead: OverheadReport,
    pub records: Vec<RankRecord>,
    pub transport: ft_cluster::MetricsSnapshot,
    pub gaspi: GaspiSnapshot,
}

fn run_job(w: &Workload, seed: u64, faults: bool, app: App) -> Job {
    let layout = WorldLayout::new(w.workers, w.spares);
    let cfg = FtConfig::builder(layout)
        .max_iters(w.iters)
        .checkpoint_every(w.ckpt_every)
        .strategy(w.strategy)
        .build()
        .expect("workload configs are valid");
    let schedule = if faults {
        w.kills.iter().fold(FaultSchedule::none(), |s, &(r, i)| s.kill_rank_at_iteration(r, i))
    } else {
        FaultSchedule::none()
    };
    let app_cfg = Arc::new(FtLanczosConfig { seed, ..FtLanczosConfig::fixed_iters(w.gen()) });
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    let sink2 = Arc::clone(&sink);

    // The event log's clock starts here, so event times are times since
    // the world was created.
    let events = EventLog::new();
    let t0 = Instant::now();
    let world = GaspiWorld::new(GaspiConfig::new(layout.total()).with_seed(seed));
    let report = match app {
        App::Library => run_ft_job_with(&world, cfg, schedule, events.clone(), move |ctx| {
            Probe::new(FtLanczos::new(ctx, Arc::clone(&app_cfg)), false, Arc::clone(&sink2))
        }),
        App::Twin => run_ft_job_with(&world, cfg, schedule, events.clone(), move |ctx| {
            Probe::new(Twin::new(ctx, Arc::clone(&app_cfg)), true, Arc::clone(&sink2))
        }),
    };
    let solve = t0.elapsed();
    let transport = world.transport().metrics().snapshot();
    let gaspi = world.gaspi_metrics().snapshot();
    drop(world);

    let ev = events.snapshot();
    let last = |pred: fn(&EventKind) -> bool| {
        ev.iter().filter(|e| pred(&e.kind)).map(|e| e.t).max().unwrap_or_default()
    };
    let setup = last(|k| matches!(k, EventKind::SetupDone));
    let finished = last(|k| matches!(k, EventKind::Finished { .. }));
    let records = std::mem::take(&mut *sink.lock().expect("rank threads have ended"));
    Job {
        solve_s: solve.as_secs_f64(),
        setup_s: setup.as_secs_f64(),
        teardown_ms: solve.saturating_sub(finished).as_secs_f64() * 1e3,
        overhead: OverheadReport::from_events(&ev),
        report,
        records,
        transport,
        gaspi,
    }
}

/// The α/β history every worker of a correct job reports.
#[derive(Clone, PartialEq)]
struct History {
    alphas: Vec<u64>,
    betas: Vec<u64>,
}

impl History {
    fn of(s: &LanczosSummary) -> Self {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        Self { alphas: bits(&s.alphas), betas: bits(&s.betas) }
    }
}

/// Check a job's outputs; return the agreed α/β history.
fn check(w: &Workload, job: &Job, faults: bool) -> Result<History, String> {
    let report = &job.report;
    for (rank, o) in report.outcomes.iter().enumerate() {
        match o {
            RankOutcome::Completed(r) => {
                if let Some(e) = &r.error {
                    return Err(format!("rank {rank} reported {e:?}"));
                }
            }
            RankOutcome::Killed(_) => {}
            other => return Err(format!("rank {rank} ended as {other:?}")),
        }
    }
    let summaries = report.worker_summaries();
    let app_ranks: Vec<u32> = summaries.iter().map(|(a, _)| *a).collect();
    if app_ranks != (0..w.workers).collect::<Vec<_>>() {
        return Err(format!("app ranks {app_ranks:?} finished, expected all of 0..{}", w.workers));
    }
    if let Some((a, s)) = summaries.iter().find(|(_, s)| s.iters != w.iters) {
        return Err(format!("app rank {a} ran {} iterations, expected {}", s.iters, w.iters));
    }
    let hist = History::of(summaries[0].1);
    if summaries.iter().any(|(_, s)| History::of(s) != hist) {
        return Err("α/β differ between workers".into());
    }
    let expected: Vec<Rank> = if faults { w.kills.iter().map(|k| k.0).collect() } else { vec![] };
    let mut expected_sorted = expected.clone();
    expected_sorted.sort_unstable();
    if report.killed() != expected_sorted {
        return Err(format!("killed ranks {:?}, scheduled {expected_sorted:?}", report.killed()));
    }
    if job.overhead.recoveries() != expected.len() {
        return Err(format!(
            "{} recoveries, expected {}",
            job.overhead.recoveries(),
            expected.len()
        ));
    }
    let redo = redo_iters(w, job);
    if !redo.iter().all(|r| w.redo_per_failure.contains(r)) {
        return Err(format!("redo per failure {redo:?}, expected {:?}", w.redo_per_failure));
    }
    Ok(hist)
}

/// Iterations each failure redid: the kill's iteration minus the
/// iteration its recovery resumed from, in epoch order.
pub fn redo_iters(w: &Workload, job: &Job) -> Vec<i64> {
    let ev = job.report.events.snapshot();
    job.overhead
        .epochs
        .iter()
        .zip(w.kills)
        .map(|(e, &(_, kill_iter))| {
            let resumed = ev
                .iter()
                .filter_map(|x| match x.kind {
                    EventKind::Restored { epoch, iter } if epoch == e.epoch => Some(iter),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            kill_iter as i64 - resumed as i64
        })
        .collect()
}

/// Mean time per failure from the kill until the job is back at its
/// pre-failure frontier (OHF1 + OHF2 + OHF3 + redo), in ms; 0 without
/// failures.
pub fn recovery_ms(job: &Job) -> f64 {
    let epochs = &job.overhead.epochs;
    if epochs.is_empty() {
        return 0.0;
    }
    let total: Duration = epochs.iter().map(|e| e.detect() + e.reinit() + e.redo()).sum();
    total.as_secs_f64() * 1e3 / epochs.len() as f64
}

/// Step-start to step-start intervals of a job, pooled over its ranks.
pub fn intervals(job: &Job) -> Vec<u64> {
    let mut v: Vec<u64> = job.records.iter().flat_map(|r| r.intervals_ns.iter().copied()).collect();
    v.sort_unstable();
    v
}

/// Nearest-rank quantile of sorted samples.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[k - 1] as f64
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn metadata(args: &Args) -> Json {
    let cmd = |prog: &str, arg: &[&str]| {
        std::process::Command::new(prog)
            .args(arg)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let model = LatencyModel::default_sim();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("workload", Json::Str(args.workload.name.into())),
        ("seed", Json::num_u64(args.seed)),
        ("seconds", Json::num_u64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::num_u64(nproc as u64)),
        // Only a checkout's own repository names its commit; an exported
        // tree has none (and must not report an enclosing repository's).
        (
            "commit",
            Json::Str(if std::path::Path::new(".git").exists() {
                cmd("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".into()
            }),
        ),
        ("profile", Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
        ("rustc", Json::Str(cmd("rustc", &["--version"]))),
        ("kernel_policy", Json::Str(format!("{:?}", ft_sparse::KernelPolicy::auto()))),
        ("transport_shards", Json::num_u64(ft_cluster::transport::default_shards() as u64)),
        ("latency_base_us", Json::Num(model.base.as_secs_f64() * 1e6)),
        ("latency_per_byte_ns", Json::Num(model.per_byte_ns)),
        ("latency_jitter", Json::Num(model.jitter)),
        ("latency_break_detect_us", Json::Num(model.break_detect.as_secs_f64() * 1e6)),
    ])
}

/// Longest one job may take. A job that hangs (a lost wakeup, a recovery
/// that never completes) ends the benchmark with an error instead of
/// holding it past its time limit.
const JOB_LIMIT: Duration = Duration::from_secs(60);

/// Start the hang watchdog: send on the returned channel when a job
/// starts; drop the sender and join the handle when done.
fn watchdog() -> (mpsc::Sender<()>, std::thread::JoinHandle<()>) {
    let (beat, rx) = mpsc::channel::<()>();
    let handle = std::thread::spawn(move || loop {
        match rx.recv_timeout(JOB_LIMIT) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                eprintln!("perfbench: a job ran longer than {JOB_LIMIT:?}");
                std::process::exit(3);
            }
        }
    });
    (beat, handle)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if std::env::var_os("FT_NET_SHARDS").is_some() {
        return Err("FT_NET_SHARDS is set; unset it so the shard count follows the machine".into());
    }
    let w = args.workload;
    println!("meta {}", metadata(&args).render());

    let (beat, watch) = watchdog();
    // Untimed failure-free reference job; also the warm-up.
    beat.send(()).expect("watchdog runs");
    let reference = run_job(w, args.seed, false, App::Library);
    let reference = check(w, &reference, false).map_err(|e| format!("reference job: {e}"))?;

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut untraced: Vec<Job> = Vec::new();
    let mut traced: Vec<Job> = Vec::new();
    let mut traced_attempted = 0u64;
    // A traced run needs at least one job of each application.
    let min_jobs = if args.trace { 2 } else { 1 };
    while attempted < min_jobs || started.elapsed() < budget {
        // The traced run alternates the two applications so both see the
        // same machine conditions.
        let app = if args.trace && attempted.is_multiple_of(2) { App::Twin } else { App::Library };
        beat.send(()).expect("watchdog runs");
        let job = run_job(w, args.seed, true, app);
        attempted += 1;
        traced_attempted += u64::from(app == App::Twin);
        let verdict = check(w, &job, true).and_then(|h| {
            if h == reference {
                Ok(())
            } else {
                Err("α/β differ from the failure-free reference".into())
            }
        });
        match verdict {
            Ok(()) => {
                eprintln!(
                    "job {attempted}: {} solve {:.3} s, setup {:.1} ms, recovery {:.1} ms/failure",
                    if app == App::Twin { "traced" } else { "untraced" },
                    job.solve_s,
                    job.setup_s * 1e3,
                    recovery_ms(&job)
                );
                match app {
                    App::Library => untraced.push(job),
                    App::Twin => traced.push(job),
                }
            }
            Err(e) => {
                failed += 1;
                println!("job {attempted} failed: {e}");
            }
        }
    }
    drop(beat);
    watch.join().expect("watchdog thread ends cleanly");
    println!(
        "report attempted={attempted} failed={failed} fail_ratio={}",
        failed as f64 / attempted as f64
    );

    let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
        if traced.is_empty() || untraced.is_empty() {
            return Err("no correct traced and untraced job to compare".into());
        }
        let twin_match = traced.len() as f64 / traced_attempted as f64;
        layers::per_layer(w, &traced, &untraced, twin_match)
    } else {
        if untraced.is_empty() {
            return Err("no correct job".into());
        }
        end_to_end(&untraced)
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::num_u64(attempted)),
        ("failed", Json::num_u64(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, value, unit)| {
                (name, Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]))
            })),
        ),
    ]);
    println!("{}", result.render());
    Ok(())
}

/// Nearest-rank lower quartile of a non-empty sample.
pub fn lower_quartile(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(4) - 1]
}

/// The end-to-end metrics over the run's correct jobs. Each timing is
/// the lower quartile of its per-job values, except `setup_s`, which is
/// their median. Host preemption only ever lengthens a job, and on a
/// shared host it comes in bursts that slow some jobs of a run, their
/// tails several-fold, while others run clear; the lower quartile
/// follows the jobs the bursts missed, which a slower program still
/// slows.
fn end_to_end(jobs: &[Job]) -> Vec<(&'static str, f64, &'static str)> {
    let iv: Vec<Vec<u64>> = jobs.iter().map(intervals).collect();
    let samples = iv.iter().map(Vec::len).min().unwrap_or(0);
    let iter_ms = |q: f64| lower_quartile(iv.iter().map(|v| quantile(v, q) / 1e6).collect());
    // recovery_ms is zero on the failure-free workload, so it is reported
    // here rather than as an end-to-end metric (those must never be 0).
    println!(
        "report jobs={} iter_samples_min_per_job={samples} recovery_ms={:.3}",
        jobs.len(),
        median(jobs.iter().map(recovery_ms).collect())
    );
    vec![
        ("solve_s", lower_quartile(jobs.iter().map(|j| j.solve_s).collect()), "s"),
        ("setup_s", median(jobs.iter().map(|j| j.setup_s).collect()), "s"),
        ("iter_p50_ms", iter_ms(0.50), "ms"),
        ("iter_p99_ms", iter_ms(0.99), "ms"),
    ]
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use ft_telemetry::json::Json;

    use crate::layers::LAYERS;
    use crate::WORKLOADS;

    /// `BENCHMARK.json` declares exactly the workloads and per-layer
    /// metrics this program runs and reports, in the same order.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json is valid JSON");
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
                .collect()
        };
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads"), workloads);
        let layers: Vec<String> = LAYERS.iter().map(|l| l.0.to_string()).collect();
        assert_eq!(names("per_layer"), layers);
        for (entry, layer) in
            spec.get("per_layer").and_then(Json::as_arr).unwrap().iter().zip(LAYERS)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(layer.1), "{}", layer.0);
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(layer.2), "{}", layer.0);
        }
        assert_eq!(
            names("end_to_end"),
            ["solve_s", "setup_s", "iter_p50_ms", "iter_p99_ms"].map(String::from).to_vec()
        );
    }
}
