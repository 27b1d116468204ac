//! The traced run's stand-in for `ft_solver::FtLanczos`.
//!
//! The driver offers no seam inside `FtLanczos::step`, so the traced run
//! swaps in this twin: the same application built from the same public
//! calls (`LanczosState`, `DistMatrix`, `SpmvComm`, `det_allreduce_sum`,
//! `CommPlan::negotiate`, `Checkpointer`) with a timer around each call of
//! the step. It must reproduce `FtLanczos`'s α/β bit for bit; the
//! benchmark checks that on every traced job, so any drift between the
//! twin and the library shows up as a failed job rather than as quietly
//! wrong layer numbers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_checkpoint::{Checkpointer, CheckpointerConfig, CopyPolicy};
use ft_core::{FtApp, FtCtx, FtError, FtResult, RecoveryPlan};
use ft_gaspi::{GaspiError, SegId, Timeout};
use ft_solver::{FtLanczosConfig, LanczosState, LanczosSummary};
use ft_sparse::{det_allreduce_sum, CommPlan, Csr, DistMatrix, RowPartition, SpmvComm};

use crate::probe::{Split, Traceable};

// The library's stream tags, segments and queue, so the twin's traffic
// and checkpoint layout match `FtLanczos` exactly.
const STATE_TAG: u32 = 0x10;
const PLAN_TAG: u32 = 0x11;
const SEG_HALO: SegId = 1;
const SEG_STAGE: SegId = 2;
const HALO_QUEUE: u16 = 1;

pub struct Twin {
    cfg: Arc<FtLanczosConfig>,
    state_ck: Checkpointer,
    plan_ck: Checkpointer,
    dm: Option<DistMatrix>,
    comm: Option<SpmvComm>,
    state: Option<LanczosState>,
    halo: Vec<f64>,
    split: Split,
}

/// Bytes one product over `a` reads and writes: values, column indices
/// and row pointers, the input vector once, and the output vector once.
pub fn csr_bytes(a: &Csr) -> u64 {
    let rows = a.row_ptr.len().saturating_sub(1);
    let nnz = a.nnz();
    (nnz * (8 + 4) + a.row_ptr.len() * 8 + a.ncols * 8 + rows * 8) as u64
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl Twin {
    pub fn new(ctx: &FtCtx, cfg: Arc<FtLanczosConfig>) -> Self {
        assert!(
            cfg.conv_check_every == 0 && cfg.sell.is_none() && cfg.kernel.is_none(),
            "the twin mirrors the fixed-iteration CSR configuration only"
        );
        let state_ck =
            Checkpointer::new(&ctx.proc, CheckpointerConfig::for_tag(STATE_TAG), cfg.pfs.clone());
        let plan_ck = Checkpointer::new(
            &ctx.proc,
            CheckpointerConfig {
                keep_versions: 1,
                pfs_every: cfg.pfs.as_ref().map(|_| 1),
                ..CheckpointerConfig::for_tag(PLAN_TAG)
            },
            cfg.pfs.clone(),
        );
        Self {
            cfg,
            state_ck,
            plan_ck,
            dm: None,
            comm: None,
            state: None,
            halo: Vec::new(),
            split: Split::default(),
        }
    }

    fn partition(&self, ctx: &FtCtx) -> RowPartition {
        RowPartition::new(self.cfg.gen.dim(), ctx.num_app_ranks())
    }

    fn install_plan(&mut self, ctx: &FtCtx, plan: CommPlan) -> FtResult<()> {
        let dm =
            DistMatrix::assemble(self.cfg.gen.as_ref(), self.partition(ctx), ctx.app_rank(), plan);
        let comm = SpmvComm::new(&ctx.proc, &dm.plan, SEG_HALO, SEG_STAGE, HALO_QUEUE)?;
        self.split.flops_per_spmv = dm.flops_per_spmv();
        self.split.bytes_per_spmv = csr_bytes(&dm.a_loc) + csr_bytes(&dm.a_rem);
        self.split.max_recv_bytes =
            dm.plan.recvs.iter().map(|r| 8 * r.cols.len() as u64).max().unwrap_or(0);
        self.dm = Some(dm);
        self.comm = Some(comm);
        Ok(())
    }

    fn fresh_state(&self, ctx: &FtCtx) -> FtResult<LanczosState> {
        let part = self.partition(ctx);
        let me = ctx.app_rank();
        let mut st = LanczosState::init(part.range(me).start, part.len(me), self.cfg.seed);
        st.normalize(ctx)?;
        Ok(st)
    }
}

impl Traceable for Twin {
    fn take_split(&mut self) -> Split {
        std::mem::take(&mut self.split)
    }
}

impl FtApp for Twin {
    type Summary = LanczosSummary;

    fn setup(&mut self, ctx: &FtCtx) -> FtResult<()> {
        let part = self.partition(ctx);
        let me = ctx.app_rank();
        let needed = DistMatrix::needed_columns(self.cfg.gen.as_ref(), &part, me);
        let plan = CommPlan::receives_from_needs(me, part.parts(), &needed).negotiate(
            &ctx.proc,
            &|a| ctx.gaspi_of(a),
            part.range(me).start,
            Timeout::Ms(30_000),
        )?;
        self.plan_ck.commit(0, plan.encode(), CopyPolicy::Replicate);
        self.install_plan(ctx, plan)?;
        self.state = Some(self.fresh_state(ctx)?);
        ctx.barrier_ft()?;
        Ok(())
    }

    fn join_as_rescue(&mut self, ctx: &FtCtx) -> FtResult<()> {
        let blob = self
            .plan_ck
            .restore_latest(ctx.restore_source(), self.cfg.fetch_timeout)
            .hit()
            .ok_or(FtError::Gaspi(GaspiError::Timeout))?;
        let plan = CommPlan::decode(&blob.data)
            .ok_or(FtError::Gaspi(GaspiError::InvalidArg("corrupt plan checkpoint")))?;
        if plan.me != ctx.app_rank() {
            return Err(FtError::Gaspi(GaspiError::InvalidArg("adopted the wrong plan")));
        }
        self.plan_ck.commit(0, blob.data, CopyPolicy::Replicate);
        self.install_plan(ctx, plan)
    }

    /// `LanczosState::step`, call for call, with a timer around each
    /// library call. The arithmetic between the calls is written exactly
    /// as in the library so the results agree bit for bit. Times are kept
    /// only for steps that complete: a step cut short by a failure blocks
    /// until the failure signal arrives and would be a recovery sample.
    fn step(&mut self, ctx: &FtCtx, iter: u64) -> FtResult<bool> {
        let dm = self.dm.as_ref().expect("step before setup");
        let comm = self.comm.as_ref().expect("step before setup");
        let st = self.state.as_mut().expect("step before setup");
        debug_assert_eq!(st.iter, iter, "driver and Lanczos state out of sync");

        let tag = SpmvComm::tag_for_iter(st.iter);
        let t0 = Instant::now();
        let pending = comm.post(ctx, &dm.plan, &st.v, tag)?;
        let t1 = Instant::now();
        let mut w = vec![0.0; st.v.len()];
        let t2 = Instant::now();
        dm.spmv_local(&st.v, &mut w);
        let t3 = Instant::now();
        comm.wait(ctx, &dm.plan, pending, &mut self.halo)?;
        let t4 = Instant::now();
        dm.spmv_remote_add(&self.halo, &mut w);
        let t5 = Instant::now();

        let local = dot(&w, &st.v);
        let t6 = Instant::now();
        let alpha = det_allreduce_sum(ctx, local)?;
        let t7 = Instant::now();
        let beta_prev = st.betas.last().copied().unwrap_or(0.0);
        for (i, wi) in w.iter_mut().enumerate() {
            *wi -= alpha * st.v[i] + beta_prev * st.v_prev[i];
        }
        let local = dot(&w, &w);
        let t8 = Instant::now();
        let beta = det_allreduce_sum(ctx, local)?.sqrt();
        let t9 = Instant::now();

        st.alphas.push(alpha);
        st.betas.push(beta);
        std::mem::swap(&mut st.v_prev, &mut st.v);
        if beta > 0.0 {
            for (vi, wi) in st.v.iter_mut().zip(&w) {
                *vi = wi / beta;
            }
        } else {
            st.v.iter_mut().for_each(|x| *x = 0.0);
        }
        st.iter += 1;

        let sp = &mut self.split;
        sp.halo_post.add(t1 - t0);
        sp.spmv_local.add(t3 - t2);
        sp.halo_wait.add(t4 - t3);
        sp.spmv_remote.add(t5 - t4);
        sp.allreduce.add((t7 - t6) + (t9 - t8));
        Ok(false)
    }

    fn state_stream(&self) -> Option<(&Checkpointer, Duration)> {
        Some((&self.state_ck, self.cfg.fetch_timeout))
    }

    fn export_state(&self, _ctx: &FtCtx, _iter: u64) -> FtResult<Option<Vec<u8>>> {
        Ok(self.state.as_ref().map(LanczosState::encode))
    }

    fn load_state(&mut self, _ctx: &FtCtx, data: &[u8]) -> FtResult<u64> {
        let st = LanczosState::decode(data)?;
        let iter = st.iter;
        self.state = Some(st);
        Ok(iter)
    }

    fn reset_state(&mut self, ctx: &FtCtx) -> FtResult<()> {
        self.state = Some(self.fresh_state(ctx)?);
        Ok(())
    }

    fn rewire(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.state_ck.refresh_failed(&plan.failed);
        self.plan_ck.refresh_failed(&plan.failed);
        if let (Some(comm), Some(dm)) = (&self.comm, &self.dm) {
            comm.rewire(&ctx.proc, &dm.plan)?;
        }
        Ok(())
    }

    fn finalize(&mut self, _ctx: &FtCtx) -> FtResult<LanczosSummary> {
        let state = self.state.take().expect("finalize before setup");
        self.state_ck.drain(self.cfg.fetch_timeout);
        self.plan_ck.drain(self.cfg.fetch_timeout);
        let mut ckpt = self.state_ck.stats();
        ckpt.merge(&self.plan_ck.stats());
        let halo = self.comm.as_ref().map(SpmvComm::stats).unwrap_or_default();
        Ok(LanczosSummary {
            iters: state.iter,
            eigenvalues: state.eigenvalues(),
            alphas: state.alphas,
            betas: state.betas,
            ckpt,
            halo,
        })
    }
}
