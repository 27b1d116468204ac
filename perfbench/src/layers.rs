//! The traced run's per-layer metrics.
//!
//! Each metric is computed per traced job and reported as the median over
//! the run's traced jobs. [`LAYERS`] is the single list of them: the name
//! and unit `BENCHMARK.json` declares, which layer it measures, and which
//! end-to-end metric on which workload it is expected to move.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ft_checkpoint::CkptStats;
use ft_cluster::LatencyModel;
use ft_matgen::RowGen;
use ft_solver::tridiag_eigenvalues;
use ft_sparse::{CommPlan, DistMatrix, HaloStats, RowPartition};

use crate::probe::{Acc, Split};
use crate::twin::csr_bytes;
use crate::{intervals, median, recovery_ms, redo_iters, Job, Workload};

/// `(name, unit, better, layer, moves)`.
pub const LAYERS: &[(&str, &str, &str, &str, &str)] = &[
    ("app.step_ms", "ms", "lower", "ft_solver::ft_lanczos step", "iter_p50_ms, all workloads"),
    ("strategy.gap_ms", "ms", "lower", "ft_core::strategy prepare + health check", "iter_p50_ms and solve_s on abft-kills; ~0 elsewhere"),
    ("strategy.gap_share", "share", "lower", "ft_core::strategy prepare + health check", "iter_p50_ms and solve_s on abft-kills (~85%); ~0 elsewhere"),
    ("ckpt.commit_ms", "ms", "lower", "ft_checkpoint commit", "iter_p99_ms on ff-large"),
    ("ckpt.commits", "count", "lower", "ft_checkpoint commit", "iter_p99_ms on ff-large"),
    ("ckpt.bytes_local", "bytes", "lower", "ft_checkpoint", "iter_p99_ms on ff-large"),
    ("ckpt.copy_bytes", "bytes", "lower", "ft_checkpoint", "iter_p99_ms on ff-large"),
    ("ckpt.dedup_ratio", "share", "lower", "ft_checkpoint", "iter_p99_ms on ff-large"),
    ("ckpt.copy_failures", "count", "lower", "ft_checkpoint", "iter_p99_ms on ff-large"),
    ("ckpt.restore_ms", "ms", "lower", "ft_checkpoint restore", "recovery_ms on cr-kills"),
    ("app.rescue_join_ms", "ms", "lower", "rescue attach (plan checkpoint + matrix regeneration)", "recovery_ms on the kill workloads"),
    ("app.rewire_ms", "ms", "lower", "rescue attach (rewire)", "recovery_ms on the kill workloads"),
    ("app.setup_ms", "ms", "lower", "ft_sparse plan + ft_matgen assembly", "setup_s, mostly ff-large"),
    ("app.finalize_ms", "ms", "lower", "ft_solver::tridiag via finalize", "solve_s on cr-kills"),
    ("solver.eigen_ms", "ms", "lower", "ft_solver::tridiag", "solve_s on cr-kills"),
    ("job.teardown_ms", "ms", "lower", "ft_core::driver / ft_gaspi::runtime teardown", "solve_s, all workloads"),
    ("sparse.spmv_local_ms", "ms", "lower", "ft_sparse kernels (local part)", "iter_p50_ms on ff-large; <5% of the iteration on the 48x32 workloads"),
    ("sparse.spmv_remote_ms", "ms", "lower", "ft_sparse kernels (remote part)", "iter_p50_ms on ff-large; <5% of the iteration on the 48x32 workloads"),
    ("sparse.spmv_share", "share", "lower", "ft_sparse kernels", "iter_p50_ms on ff-large"),
    ("sparse.spmv_gflops", "GFLOP/s", "higher", "ft_sparse kernels", "iter_p50_ms on ff-large"),
    ("sparse.spmv_flops", "flop", "lower", "ft_sparse kernels (computed)", "iter_p50_ms on ff-large"),
    ("sparse.spmv_bytes", "bytes", "lower", "ft_sparse kernels (computed)", "iter_p50_ms on ff-large"),
    ("sparse.halo_post_ms", "ms", "lower", "ft_sparse::halo post", "iter_p50_ms on cr-kills (latency) and ff-large (bytes)"),
    ("sparse.halo_wait_ms", "ms", "lower", "ft_sparse::halo wait", "iter_p50_ms on cr-kills (latency) and ff-large (bytes)"),
    ("halo.overlap_eff", "share", "higher", "ft_sparse::halo", "iter_p50_ms on cr-kills and ff-large"),
    ("halo.stale_drops", "count", "lower", "ft_sparse::halo", "iter_p50_ms on cr-kills and ff-large"),
    ("sparse.allreduce_ms", "ms", "lower", "ft_sparse::det_allreduce_sum -> ft_gaspi collectives", "iter_p50_ms on cr-kills and abft-kills"),
    ("solver.vector_ms", "ms", "lower", "ft_solver::lanczos vector updates", "iter_p50_ms on ff-large"),
    ("fd.scans", "count", "lower", "ft_core::detector", "iter_p99_ms, all workloads (background CPU)"),
    ("fd.scan_ms", "ms", "lower", "ft_core::detector", "iter_p99_ms, all workloads (background CPU)"),
    ("fd.detect_ms", "ms", "lower", "ft_core detector + ack (OHF1)", "recovery_ms on the kill workloads; 0 on ff-large"),
    ("recovery.rebuild_ms", "ms", "lower", "ft_core::recovery group rebuild (OHF2)", "recovery_ms on the kill workloads; 0 on ff-large"),
    ("recovery.restore_ms", "ms", "lower", "ft_core strategy restore (OHF3)", "recovery_ms on the kill workloads; 0 on ff-large"),
    ("recovery.redo_ms", "ms", "lower", "ft_core redo", "recovery_ms on cr-kills; 0 on abft-kills and ff-large"),
    ("recovery.redo_iters", "count", "lower", "ft_core redo", "recovery_ms on cr-kills; 0 on abft-kills and ff-large"),
    ("recovery_ms", "ms", "lower", "detector + recovery, kill to frontier", "solve_s on the kill workloads; 0 on ff-large"),
    ("transport.msgs_per_iter", "count", "lower", "ft_cluster::transport", "iter_p50_ms on cr-kills"),
    ("transport.bytes_per_iter", "bytes", "lower", "ft_cluster::transport", "iter_p50_ms on cr-kills"),
    ("transport.pings", "count", "lower", "ft_cluster::transport", "iter_p99_ms, all workloads"),
    ("transport.broken", "count", "lower", "ft_cluster::transport", "recovery_ms on the kill workloads"),
    ("transport.model_floor_ms", "ms", "lower", "ft_cluster::time latency model (computed)", "iter_p50_ms on cr-kills"),
    ("gaspi.notifications_per_iter", "count", "lower", "ft_gaspi notifications", "iter_p50_ms, all workloads"),
    ("gaspi.flush_wait_ms", "ms", "lower", "ft_gaspi queue flush", "iter_p50_ms, all workloads"),
    ("gaspi.group_commits", "count", "lower", "ft_gaspi group commit", "recovery_ms on the kill workloads"),
    ("gaspi.coll_resumes", "count", "lower", "ft_gaspi collectives", "recovery_ms on the kill workloads"),
    ("iter.samples", "count", "higher", "benchmark: step-to-step samples per job", "iter_p99_ms resolution, all workloads"),
    ("trace.overhead_s", "s", "lower", "benchmark: traced minus untraced solve_s", "none (tracing cost)"),
    ("twin.alpha_beta_match", "share", "higher", "benchmark: traced jobs whose checks, bitwise alpha/beta against FtLanczos included, passed", "none (must be 1)"),
    ("kernel1t.gflops", "GFLOP/s", "higher", "ft_sparse kernel, one part, no cluster", "iter_p50_ms on ff-large"),
    ("kernel1t.bytes_per_flop", "bytes/flop", "lower", "ft_sparse kernel, one part (computed)", "iter_p50_ms on ff-large"),
];

/// Per-core L2 and shared L3 of the reference machine (a 2-vCPU Intel
/// Xeon guest) that the working sets are compared against.
const L2_BYTES: f64 = 2.0 * 1024.0 * 1024.0;
const L3_BYTES: f64 = 105.0 * 1024.0 * 1024.0;

fn ceil_log2(n: u32) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

fn sum<T>(xs: &[T], f: impl Fn(&T) -> Acc) -> Acc {
    let mut a = Acc::default();
    for x in xs {
        a.merge(&f(x));
    }
    a
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-layer values of one traced job, keyed by [`LAYERS`] name.
fn job_layers(w: &Workload, job: &Job) -> Vec<(&'static str, f64)> {
    let recs = &job.records;
    let split: Vec<Split> = recs.iter().map(|r| r.split).collect();
    let step = sum(recs, |r| r.step);
    let gap = sum(recs, |r| r.gap);
    let local = sum(&split, |s| s.spmv_local);
    let remote = sum(&split, |s| s.spmv_remote);
    let post = sum(&split, |s| s.halo_post);
    let wait = sum(&split, |s| s.halo_wait);
    let allreduce = sum(&split, |s| s.allreduce);
    let iter_ms = step.mean_ms() + gap.mean_ms();
    let spmvs = local.n.max(1) as f64;
    let flops: f64 = split.iter().map(|s| (s.flops_per_spmv * s.spmv_local.n) as f64).sum();
    let bytes: f64 = split.iter().map(|s| (s.bytes_per_spmv * s.spmv_local.n) as f64).sum();
    let parts_ns = local.ns + remote.ns + post.ns + wait.ns + allreduce.ns;

    let summaries = job.report.worker_summaries();
    let mut ckpt = CkptStats::default();
    let mut halo = HaloStats::default();
    for (_, s) in &summaries {
        ckpt.merge(&s.ckpt);
        halo.merge(&s.halo);
    }
    let final_hist = summaries[0].1;
    let t = Instant::now();
    black_box(tridiag_eigenvalues(
        black_box(&final_hist.alphas),
        &final_hist.betas[..final_hist.alphas.len() - 1],
    ));
    let eigen_ms = ms(t.elapsed());

    let epochs = &job.overhead.epochs;
    let per_failure = |f: &dyn Fn(&ft_telemetry::report::EpochTimeline) -> Duration| {
        if epochs.is_empty() {
            0.0
        } else {
            epochs.iter().map(|e| ms(f(e))).sum::<f64>() / epochs.len() as f64
        }
    };
    let redo = redo_iters(w, job);
    let redo_iters =
        if redo.is_empty() { 0.0 } else { redo.iter().sum::<i64>() as f64 / redo.len() as f64 };
    let scan = job.overhead.scan.unwrap_or_default();

    // The messages one Lanczos iteration waits on, back to back: the
    // largest halo block, then two allreduces of one slot per app rank,
    // each a binomial reduce and broadcast of ⌈log2 W⌉ hops apiece. The
    // strategy's own collectives are not included.
    let model = LatencyModel::default_sim();
    let max_recv = split.iter().map(|s| s.max_recv_bytes).max().unwrap_or(0) as usize;
    let hops = 2 * 2 * ceil_log2(w.workers);
    let floor = model.latency(max_recv) + model.latency(8 * w.workers as usize) * hops;

    let iters = w.iters as f64;
    vec![
        ("app.step_ms", step.mean_ms()),
        ("strategy.gap_ms", gap.mean_ms()),
        ("strategy.gap_share", gap.mean_ms() / iter_ms),
        ("ckpt.commit_ms", sum(recs, |r| r.checkpoint).mean_ms()),
        ("ckpt.commits", sum(recs, |r| r.checkpoint).n as f64),
        ("ckpt.bytes_local", ckpt.bytes_local as f64),
        ("ckpt.copy_bytes", ckpt.copy_bytes as f64),
        ("ckpt.dedup_ratio", ckpt.dedup_ratio()),
        ("ckpt.copy_failures", ckpt.copy_failures as f64),
        ("ckpt.restore_ms", sum(recs, |r| r.restore).mean_ms()),
        ("app.rescue_join_ms", sum(recs, |r| r.join).mean_ms()),
        ("app.rewire_ms", sum(recs, |r| r.rewire).mean_ms()),
        ("app.setup_ms", sum(recs, |r| r.setup).mean_ms()),
        ("app.finalize_ms", sum(recs, |r| r.finalize).mean_ms()),
        ("solver.eigen_ms", eigen_ms),
        ("job.teardown_ms", job.teardown_ms),
        ("sparse.spmv_local_ms", local.mean_ms()),
        ("sparse.spmv_remote_ms", remote.mean_ms()),
        ("sparse.spmv_share", (local.mean_ms() + remote.mean_ms()) / iter_ms),
        ("sparse.spmv_gflops", flops / (local.ns + remote.ns).max(1) as f64),
        ("sparse.spmv_flops", flops / spmvs * w.workers as f64),
        ("sparse.spmv_bytes", bytes / spmvs * w.workers as f64),
        ("sparse.halo_post_ms", post.mean_ms()),
        ("sparse.halo_wait_ms", wait.mean_ms()),
        ("halo.overlap_eff", halo.overlap_efficiency()),
        ("halo.stale_drops", halo.stale_drops as f64),
        ("sparse.allreduce_ms", allreduce.mean_ms()),
        ("solver.vector_ms", step.ns.saturating_sub(parts_ns) as f64 / step.n.max(1) as f64 / 1e6),
        ("fd.scans", scan.scans as f64),
        ("fd.scan_ms", ms(scan.mean)),
        ("fd.detect_ms", per_failure(&|e| e.detect())),
        ("recovery.rebuild_ms", per_failure(&|e| e.rebuild())),
        ("recovery.restore_ms", per_failure(&|e| e.restore())),
        ("recovery.redo_ms", per_failure(&|e| e.redo())),
        ("recovery.redo_iters", redo_iters),
        ("recovery_ms", recovery_ms(job)),
        ("transport.msgs_per_iter", job.transport.msg_posted as f64 / iters),
        ("transport.bytes_per_iter", job.transport.bytes_posted as f64 / iters),
        ("transport.pings", job.transport.pings as f64),
        ("transport.broken", job.transport.msg_broken as f64),
        ("transport.model_floor_ms", ms(floor)),
        ("gaspi.notifications_per_iter", job.gaspi.notifications_posted as f64 / iters),
        ("gaspi.flush_wait_ms", job.gaspi.queue_flush_wait_ns as f64 / 1e6 / iters),
        ("gaspi.group_commits", job.gaspi.group_commits as f64),
        ("gaspi.coll_resumes", (job.gaspi.barrier_resumes + job.gaspi.allreduce_resumes) as f64),
        ("iter.samples", intervals(job).len() as f64),
    ]
}

/// One `y = A·x` over the whole matrix as a single part, with no cluster:
/// the single-threaded kernel baseline. Returns GFLOP/s (median of
/// repeated products), computed bytes per flop, and the working set.
fn kernel_baseline(gen: &dyn RowGen) -> (f64, f64, u64) {
    let part = RowPartition::new(gen.dim(), 1);
    let needed = DistMatrix::needed_columns(gen, &part, 0);
    let dm = DistMatrix::assemble(gen, part, 0, CommPlan::receives_from_needs(0, 1, &needed));
    let n = dm.local_len();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let mut y = vec![0.0; n];
    dm.spmv_local(&x, &mut y);
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || (start.elapsed() < Duration::from_millis(300) && times.len() < 1000) {
        let t = Instant::now();
        dm.spmv_local(black_box(&x), black_box(&mut y));
        times.push(t.elapsed().as_nanos() as f64);
    }
    let flops = dm.flops_per_spmv() as f64;
    let bytes = csr_bytes(&dm.a_loc);
    (flops / median(times), bytes as f64 / flops, bytes)
}

/// All per-layer metrics of a traced run, in [`LAYERS`] order.
pub fn per_layer(
    w: &Workload,
    traced: &[Job],
    untraced: &[Job],
    twin_match: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let per_job: Vec<Vec<(&'static str, f64)>> = traced.iter().map(|j| job_layers(w, j)).collect();
    let solve = |jobs: &[Job]| median(jobs.iter().map(|j| j.solve_s).collect());
    let (gflops, bytes_per_flop, ws) = kernel_baseline(w.gen().as_ref());
    let rank_ws = ws as f64 / w.workers as f64;
    println!(
        "report kernel1t working_set={:.2} MB ({:.1}x a 2 MiB L2), per rank ~{:.2} MB ({:.1}x); \
         no DRAM-bandwidth claim: 4x the {:.0} MiB L3 would need arrays over {:.0} MB",
        ws as f64 / 1e6,
        ws as f64 / L2_BYTES,
        rank_ws / 1e6,
        rank_ws / L2_BYTES,
        L3_BYTES / 1024.0 / 1024.0,
        4.0 * L3_BYTES / 1e6
    );
    LAYERS
        .iter()
        .map(|&(name, unit, _, layer, moves)| {
            let value = match name {
                "trace.overhead_s" => solve(traced) - solve(untraced),
                "twin.alpha_beta_match" => twin_match,
                "kernel1t.gflops" => gflops,
                "kernel1t.bytes_per_flop" => bytes_per_flop,
                _ => median(
                    per_job
                        .iter()
                        .map(|vals| {
                            vals.iter()
                                .find(|(n, _)| *n == name)
                                .expect("every per-job layer is in LAYERS")
                                .1
                        })
                        .collect(),
                ),
            };
            println!("layer {name} [{layer}] moves: {moves}");
            (name, value, unit)
        })
        .collect()
}
