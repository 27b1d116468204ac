//! Timing wrapper around an [`FtApp`].
//!
//! Untraced, the wrapper reads the clock only at the start of each step,
//! which is all the end-to-end iteration-time metrics need. Traced, it
//! also times every other call the driver makes into the application
//! (setup, checkpoint, restore, rescue join, rewire, finalize) and the gap
//! between one step's end and the next step's start, which is the
//! strategy's `prepare` plus the driver's health check.
//!
//! Each rank's record is handed to a shared sink when the wrapper is
//! dropped, which also happens when a killed rank's thread unwinds, so
//! samples a victim took before it died are kept.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ft_checkpoint::Checkpointer;
use ft_core::{FtApp, FtCtx, FtResult, RecoveryPlan};
use ft_solver::{FtLanczos, LanczosSummary};

/// A count of calls and the time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub n: u64,
    pub ns: u64,
}

impl Acc {
    pub fn add(&mut self, d: Duration) {
        self.n += 1;
        self.ns += d.as_nanos() as u64;
    }

    pub fn merge(&mut self, o: &Acc) {
        self.n += o.n;
        self.ns += o.ns;
    }

    /// Mean milliseconds per call; 0 when there was no call.
    pub fn mean_ms(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64 / 1e6
        }
    }
}

/// Times of the calls inside one Lanczos step, filled by the traced twin
/// (see `twin.rs`); empty for the library's `FtLanczos`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    pub halo_post: Acc,
    pub spmv_local: Acc,
    pub halo_wait: Acc,
    pub spmv_remote: Acc,
    pub allreduce: Acc,
    /// `DistMatrix::flops_per_spmv` of this rank's chunk.
    pub flops_per_spmv: u64,
    /// Bytes one product of this chunk reads and writes, computed from
    /// the array sizes (CSR values, column indices, row pointers, input
    /// and output vectors).
    pub bytes_per_spmv: u64,
    /// Largest halo block this rank waits for, in bytes.
    pub max_recv_bytes: u64,
}

/// An application whose step the traced run can split into layers.
pub trait Traceable: FtApp<Summary = LanczosSummary> {
    fn take_split(&mut self) -> Split {
        Split::default()
    }
}

impl Traceable for FtLanczos {}

/// What one rank's wrapper measured.
#[derive(Debug, Clone, Default)]
pub struct RankRecord {
    /// Start of one step to the start of the next on this rank, in
    /// nanoseconds; intervals that span a recovery are left out.
    pub intervals_ns: Vec<u64>,
    // The fields below stay empty unless traced.
    pub step: Acc,
    pub gap: Acc,
    pub setup: Acc,
    pub checkpoint: Acc,
    pub restore: Acc,
    pub join: Acc,
    pub rewire: Acc,
    pub finalize: Acc,
    pub split: Split,
}

pub type Sink = Arc<Mutex<Vec<RankRecord>>>;

pub struct Probe<A: Traceable> {
    inner: A,
    traced: bool,
    sink: Sink,
    rec: RankRecord,
    last_start: Option<(u64, Instant)>,
    last_end: Option<Instant>,
    recovered: bool,
}

impl<A: Traceable> Probe<A> {
    pub fn new(inner: A, traced: bool, sink: Sink) -> Self {
        Self {
            inner,
            traced,
            sink,
            rec: RankRecord::default(),
            last_start: None,
            last_end: None,
            recovered: false,
        }
    }

    fn timed<T>(
        &mut self,
        pick: fn(&mut RankRecord) -> &mut Acc,
        f: impl FnOnce(&mut A) -> T,
    ) -> T {
        if !self.traced {
            return f(&mut self.inner);
        }
        let t = Instant::now();
        let out = f(&mut self.inner);
        pick(&mut self.rec).add(t.elapsed());
        out
    }
}

impl<A: Traceable> Drop for Probe<A> {
    fn drop(&mut self) {
        let mut rec = std::mem::take(&mut self.rec);
        rec.split = self.inner.take_split();
        // A poisoned sink means another rank thread panicked; the job
        // reports that rank as failed, so losing this record is harmless.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(rec);
        }
    }
}

impl<A: Traceable> FtApp for Probe<A> {
    type Summary = LanczosSummary;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.timed(|r| &mut r.setup, |a| a.setup(ctx))
    }

    fn join_as_rescue(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.timed(|r| &mut r.join, |a| a.join_as_rescue(ctx))
    }

    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        let start = Instant::now();
        if let Some((prev, prev_start)) = self.last_start {
            if prev + 1 == iter && !self.recovered {
                self.rec.intervals_ns.push(start.duration_since(prev_start).as_nanos() as u64);
                if let Some(end) = self.last_end {
                    self.rec.gap.add(start.duration_since(end));
                }
            }
        }
        self.recovered = false;
        self.last_start = Some((iter, start));
        self.last_end = None;
        let out = self.inner.step(ctx, iter);
        if self.traced && out.is_ok() {
            let end = Instant::now();
            self.rec.step.add(end.duration_since(start));
            self.last_end = Some(end);
        }
        out
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        self.inner.state_stream()
    }

    fn export_state(&self, ctx: &FtCtx, iter: u64) -> FtResult<Option<Vec<u8>>> {
        self.inner.export_state(ctx, iter)
    }

    fn load_state(&mut self, ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        self.inner.load_state(ctx, data)
    }

    fn reset_state(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.inner.reset_state(ctx)
    }

    fn checkpoint(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<()> {
        self.timed(|r| &mut r.checkpoint, |a| a.checkpoint(ctx, iter))
    }

    fn restore(&mut self, ctx: &FtCtx) -> FtResult<u64> {
        self.timed(|r| &mut r.restore, |a| a.restore(ctx))
    }

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        // Every recovery rewires, survivors and rescues alike: the next
        // step-to-step interval spans it and is not a sample.
        self.recovered = true;
        self.timed(|r| &mut r.rewire, |a| a.rewire(ctx, plan))
    }

    fn finalize(&mut self, ctx: &FtCtx) -> FtResult<LanczosSummary> {
        self.timed(|r| &mut r.finalize, |a| a.finalize(ctx))
    }
}
