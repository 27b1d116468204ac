//! Pluggable recovery strategies (ROADMAP item 4).
//!
//! The paper's recovery model is checkpoint/restart: commit a consistent
//! checkpoint every N iterations, and after a failure vote the group back
//! to the newest version everyone can fetch, then redo the lost work.
//! That model used to be hardwired into the driver; this module turns the
//! recovery seam into a first-class API so three models can be compared
//! head-to-head under the same detector, group-reconstruction and
//! telemetry machinery:
//!
//! | Strategy | steady-state cost | failure cost |
//! |---|---|---|
//! | [`CheckpointRestart`] | one commit per interval | rollback + redo of the lost interval |
//! | [`Abft`] | one agreement round + XOR of the changed tiles per step | one parity allreduce; **no rollback, no redo** |
//! | [`Replicated`] | one replica push per step | fetch one blob from the mirror stream; no redo |
//!
//! [`Abft`] follows the algorithm-based fault-tolerance line of Bosilca
//! et al. (arXiv:0806.3121): each completed iteration the group XORs the
//! bit patterns of everyone's encoded state into a parity block that every
//! member keeps. After a single failure the survivors XOR their saved
//! blocks with the parity — the result *is* the failed rank's state,
//! bit-exact, because XOR is order-independent (no reduction-order
//! rounding). [`Replicated`] approximates replication-based FT (FTHP-MPI,
//! arXiv:2504.09989): state is pushed to a hot-standby mirror stream every
//! step and a *designated shadow* spare adopts a failed rank without a
//! group-wide restore vote over checkpoint versions.
//!
//! The driver calls the strategy at three points: [`RecoveryStrategy::
//! prepare`] after every completed iteration, [`RecoveryStrategy::
//! on_failure`] once a recovery plan is adopted, and [`RecoveryStrategy::
//! restore`] after the group is rebuilt and the app rewired. Applications
//! plug in through four small [`FtApp`] hooks
//! (`state_stream` / `export_state` / `load_state` / `reset_state`)
//! instead of hand-rolling the restore loop.

use std::collections::VecDeque;
use std::ops::Range;
use std::time::Duration;

use ft_checkpoint::{Checkpointer, CheckpointerConfig, CopyPolicy};
use ft_gaspi::{ReduceOp, ALLREDUCE_MAX_ELEMS};

use crate::driver::{FtApp, FtCtx};
use crate::error::{FtError, FtResult};
use crate::events::EventKind;
use crate::plan::RecoveryPlan;

/// What a strategy decided after a recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreDecision {
    /// Resume computing from this iteration (state already installed).
    Resume {
        /// First iteration to (re-)execute.
        iter: u64,
    },
    /// Collective fresh start from iteration 0: at least one member had
    /// nothing usable, and divergence would be worse than redone work.
    Fresh,
}

impl RestoreDecision {
    /// The iteration the worker loop continues from.
    pub fn resume_iter(self) -> u64 {
        match self {
            RestoreDecision::Resume { iter } => iter,
            RestoreDecision::Fresh => 0,
        }
    }
}

/// A pluggable recovery model, driven by the worker loop.
///
/// One instance exists per worker/rescue rank; all members of a job must
/// run the *same* strategy (the `prepare`/`restore` protocols are
/// collective).
pub trait RecoveryStrategy<A: FtApp> {
    /// Strategy name as it appears in reports.
    fn name(&self) -> &'static str;

    /// Called after every completed iteration (`iter` iterations done),
    /// *before* the failure-free path continues. This is where a strategy
    /// pays its steady-state cost: interval checkpoints, parity encoding,
    /// replica pushes.
    fn prepare(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()>;

    /// Called once a recovery plan is adopted, before `restore`: refresh
    /// strategy-owned resources (mirror streams, neighbor lists) for the
    /// new rank map.
    fn on_failure(&mut self, ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()>;

    /// Called after the worker group is rebuilt and the app rewired:
    /// bring every member (survivors and freshly adopted rescues) to one
    /// consistent state and decide where computation resumes.
    fn restore(&mut self, ctx: &FtCtx, app: &mut A) -> FtResult<RestoreDecision>;
}

/// Strategy selection, carried by [`FtConfig`](crate::driver::FtConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// The paper's model: interval checkpoints + group-consistent
    /// rollback (behavior-preserving default).
    #[default]
    CheckpointRestart,
    /// Checksum (XOR-parity) encoding; reconstruction instead of
    /// rollback.
    Abft,
    /// Hot-standby replication onto designated shadow spares.
    Replicated,
}

impl StrategyKind {
    /// Name as it appears in reports and config surfaces.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::CheckpointRestart => "checkpoint-restart",
            StrategyKind::Abft => "abft",
            StrategyKind::Replicated => "replicated",
        }
    }

    /// Construct the per-rank strategy instance for an `A`-typed job.
    pub fn build<A: FtApp>(self, ctx: &FtCtx) -> Box<dyn RecoveryStrategy<A>> {
        match self {
            StrategyKind::CheckpointRestart => Box::new(CheckpointRestart),
            StrategyKind::Abft => Box::new(Abft::new()),
            StrategyKind::Replicated => Box::new(Replicated::new(ctx)),
        }
    }
}

/// The driver-level restore helper every app used to hand-roll: agree on
/// the newest group-consistent checkpoint through the app's
/// [`state_stream`](crate::driver::FtApp::state_stream), install it via
/// [`load_state`](crate::driver::FtApp::load_state), or
/// [`reset_state`](crate::driver::FtApp::reset_state) on the collective
/// fresh-start vote. Returns the iteration to resume from.
pub fn checkpoint_restore<A: FtApp + ?Sized>(app: &mut A, ctx: &FtCtx) -> FtResult<u64> {
    let restored = {
        let (ck, timeout) = app.state_stream().ok_or(FtError::Unsupported("state_stream"))?;
        crate::ckpt::consistent_restore(ctx, ck, ctx.restore_source(), timeout)?
    };
    match restored {
        Some(r) => app.load_state(ctx, &r.data),
        None => {
            app.reset_state(ctx)?;
            Ok(0)
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint/restart
// ---------------------------------------------------------------------

/// The paper's recovery model, verbatim: checkpoint every
/// `checkpoint_every` iterations, restore by group vote, redo the lost
/// interval.
#[derive(Debug, Default)]
pub struct CheckpointRestart;

impl<A: FtApp> RecoveryStrategy<A> for CheckpointRestart {
    fn name(&self) -> &'static str {
        "checkpoint-restart"
    }

    fn prepare(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()> {
        if ctx.cfg.checkpoint_every > 0 && iter.is_multiple_of(ctx.cfg.checkpoint_every) {
            app.checkpoint(ctx, iter)?;
            ctx.proc.injection_site("driver.checkpoint.commit");
            let version = iter / ctx.cfg.checkpoint_every;
            ctx.events.record(ctx.proc.rank(), EventKind::Checkpoint { version, iter });
        }
        Ok(())
    }

    fn on_failure(&mut self, _ctx: &FtCtx, _plan: &RecoveryPlan) -> FtResult<()> {
        Ok(())
    }

    fn restore(&mut self, ctx: &FtCtx, app: &mut A) -> FtResult<RestoreDecision> {
        Ok(RestoreDecision::Resume { iter: app.restore(ctx)? })
    }
}

// ---------------------------------------------------------------------
// ABFT: XOR-parity checksum encoding
// ---------------------------------------------------------------------

/// One encoded generation: this rank's padded state block and the group
/// parity, both `len` `u64` words.
#[derive(Debug)]
struct Generation {
    iter: u64,
    block: Vec<u64>,
    parity: Vec<u64>,
}

/// Checksum-encoded recovery: every step the group XOR-reduces the bit
/// patterns of everyone's encoded state into a parity block; a single
/// lost rank's state is reconstructed from the survivors' blocks and the
/// parity — bit-exact, with no rollback and no redo.
///
/// The encode is incremental. XOR is linear, so
/// `parity_j = parity_{j-1} ⊕ XOR_ranks(block_j ⊕ block_{j-1})`, and only
/// words that changed on some rank need reducing. Each `prepare` runs one
/// fixed-length Max agreement round carrying the padded width, a
/// "no baseline" flag and one dirty flag per tile of the previous
/// generation ([`ParityDelta::offer`]); then every rank XOR-reduces just
/// the agreed dirty tiles plus any growth past the previous width and
/// patches a copy of the previous parity. The stored parity is bitwise
/// the one a full encode would produce. A rank without the previous
/// generation as its baseline — the first `prepare`, the first one after
/// any `restore` (a rescue, a re-aligned survivor, a fresh start) — raises
/// the flag, and the whole group falls back to the full encode.
///
/// Two generations are kept: the agreement round inside `prepare` is a
/// synchronization point, so survivors can only ever straddle *adjacent*
/// generations and the group minimum is always in everyone's window.
/// More than one simultaneous failure exceeds the single-erasure code and
/// degrades to a collective fresh start (still correct, just slower).
#[derive(Debug, Default)]
pub struct Abft {
    history: VecDeque<Generation>,
    /// Whether the newest generation may serve as the next delta's
    /// baseline; cleared by `restore`, set again by the next encode.
    baseline: bool,
}

impl Abft {
    /// A strategy instance with empty history.
    pub fn new() -> Self {
        Self::default()
    }

    fn generation(&self, iter: u64) -> Option<&Generation> {
        self.history.iter().find(|g| g.iter == iter)
    }
}

/// Pack a state blob into XOR-able `u64` words: `[byte_len ∥ bytes ∥
/// zero-pad]`. The length header makes the padded block self-describing,
/// so reconstruction can recover the exact blob even after padding to the
/// group-wide maximum.
pub fn pack_block(blob: &[u8]) -> Vec<u64> {
    let mut words = Vec::with_capacity(1 + blob.len().div_ceil(8));
    words.push(blob.len() as u64);
    for chunk in blob.chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(b));
    }
    words
}

/// Inverse of [`pack_block`]; `None` when the length header is torn.
fn unpack_block(words: &[u64]) -> Option<Vec<u8>> {
    let len = *words.first()? as usize;
    if len > (words.len() - 1) * 8 {
        return None;
    }
    let mut blob: Vec<u8> = words[1..].iter().flat_map(|w| w.to_le_bytes()).collect();
    blob.truncate(len);
    Some(blob)
}

/// Group XOR-allreduce of an arbitrary-length word block (chunked under
/// the GASPI 255-element collective cap).
fn xor_allreduce(ctx: &FtCtx, words: &[u64]) -> FtResult<Vec<u64>> {
    let mut out = Vec::with_capacity(words.len());
    for chunk in words.chunks(ALLREDUCE_MAX_ELEMS) {
        out.extend(ctx.allreduce_u64_ft(chunk, ReduceOp::BitXor)?);
    }
    Ok(out)
}

/// Tile flags in one agreement round, after the width and the no-baseline
/// flag.
const TILE_FLAGS: usize = ALLREDUCE_MAX_ELEMS - 2;

/// The words one ABFT delta encode reduces — the agreed dirty tiles of the
/// previous generation plus the growth past its width, clipped to the new
/// width — computed identically on every rank from the agreement round.
///
/// Tiles are cut from the previous generation's width, which every rank
/// holds identically. A tile is a power-of-two run of words counted from
/// the blob's first word (the packed length word rides with tile 0), so
/// tiles nest inside the chunk-aligned sections app encodings already use
/// for incremental checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParityDelta {
    ranges: Vec<Range<usize>>,
    width: usize,
}

impl ParityDelta {
    /// Tile length in words for a previous generation `prev_width` words
    /// wide: the smallest power of two that needs at most one agreement
    /// round's worth of tile flags.
    pub fn tile_len(prev_width: usize) -> usize {
        prev_width.saturating_sub(1).div_ceil(TILE_FLAGS).max(1).next_power_of_two()
    }

    /// Word range of tile `k` of a `prev_width`-word generation.
    fn tile(k: usize, prev_width: usize) -> Range<usize> {
        let t = Self::tile_len(prev_width);
        let start = if k == 0 { 0 } else { 1 + k * t };
        start..(1 + (k + 1) * t).min(prev_width)
    }

    /// This rank's contribution to the Max agreement round
    /// ([`ALLREDUCE_MAX_ELEMS`] words): `[0]` the packed width of `block`,
    /// `[1]` the no-baseline flag (set when `base` is `None`), then one
    /// 0/1 flag per tile of `base` whose words differ in `block` (words
    /// past either end count as zero). Max over 0/1 flags is an OR.
    pub fn offer(base: Option<&[u64]>, block: &[u64]) -> Vec<u64> {
        let mut offer = vec![0; ALLREDUCE_MAX_ELEMS];
        offer[0] = block.len() as u64;
        let Some(base) = base else {
            offer[1] = 1;
            return offer;
        };
        for (k, flag) in offer[2..].iter_mut().enumerate() {
            let mut tile = Self::tile(k, base.len());
            if tile.is_empty() {
                break;
            }
            let changed = tile.any(|i| base[i] != block.get(i).copied().unwrap_or(0));
            *flag = u64::from(changed);
        }
        offer
    }

    /// The delta plan from agreed tile `flags` (the agreement result past
    /// its first two words), the previous generation's width and the
    /// newly agreed `width`.
    pub fn new(flags: &[u64], prev_width: usize, width: usize) -> Self {
        let dirty = flags.iter().enumerate().filter(|(_, &f)| f != 0);
        let tiles = dirty.map(|(k, _)| Self::tile(k, prev_width));
        let mut ranges: Vec<Range<usize>> = Vec::new();
        for r in tiles.chain(std::iter::once(prev_width..width)) {
            let r = r.start..r.end.min(width);
            if r.is_empty() {
                continue;
            }
            match ranges.last_mut() {
                Some(last) if last.end == r.start => last.end = r.end,
                _ => ranges.push(r),
            }
        }
        Self { ranges, width }
    }

    /// Number of words this delta reduces.
    pub fn words(&self) -> usize {
        self.ranges.iter().map(ExactSizeIterator::len).sum()
    }

    fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranges.iter().flat_map(Clone::clone)
    }

    /// This rank's delta words, packed contiguously: `block ⊕ base` over
    /// the planned words (`block` padded to the new width; words past
    /// `base`'s end count as zero).
    pub fn gather(&self, base: &[u64], block: &[u64]) -> Vec<u64> {
        self.indices().map(|i| block[i] ^ base.get(i).copied().unwrap_or(0)).collect()
    }

    /// The new parity: the previous `parity` truncated or zero-extended to
    /// the new width, with the group-reduced delta XORed in.
    pub fn patch(&self, parity: &[u64], reduced: &[u64]) -> Vec<u64> {
        let mut out = parity[..parity.len().min(self.width)].to_vec();
        out.resize(self.width, 0);
        for (i, d) in self.indices().zip(reduced) {
            out[i] ^= d;
        }
        out
    }
}

impl<A: FtApp> RecoveryStrategy<A> for Abft {
    fn name(&self) -> &'static str {
        "abft"
    }

    fn prepare(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()> {
        let blob = app.export_state(ctx, iter)?.ok_or(FtError::Unsupported("export_state"))?;
        let mut block = pack_block(&blob);
        // Only the generation encoded right before this one, by this same
        // group, can be the delta's baseline.
        let base = self.history.back().filter(|g| self.baseline && g.iter + 1 == iter);
        // One agreement round: the common padded width (state sizes may
        // differ across ranks), whether anyone lacks a baseline, and which
        // tiles changed anywhere.
        let offer = ParityDelta::offer(base.map(|g| &g.block[..]), &block);
        let agreed = ctx.allreduce_u64_ft(&offer, ReduceOp::Max)?;
        let width = agreed[0] as usize;
        block.resize(width, 0);
        let parity = match base {
            Some(g) if agreed[1] == 0 => {
                let delta = ParityDelta::new(&agreed[2..], g.block.len(), width);
                let reduced = xor_allreduce(ctx, &delta.gather(&g.block, &block))?;
                delta.patch(&g.parity, &reduced)
            }
            _ => xor_allreduce(ctx, &block)?,
        };
        ctx.proc.injection_site("strategy.abft.encode");
        self.history.push_back(Generation { iter, block, parity });
        while self.history.len() > 2 {
            self.history.pop_front();
        }
        self.baseline = true;
        Ok(())
    }

    fn on_failure(&mut self, _ctx: &FtCtx, _plan: &RecoveryPlan) -> FtResult<()> {
        Ok(())
    }

    fn restore(&mut self, ctx: &FtCtx, app: &mut A) -> FtResult<RestoreDecision> {
        // The group may have changed: the next encode starts from scratch.
        self.baseline = false;
        let adopted = ctx.restore_source() != ctx.proc.rank();
        // One Min-agreement round carrying two values:
        //   [0] the generation vote — survivors offer their newest
        //       encoded generation (+1 so 0 means "nothing"), adopted
        //       rescues abstain with MAX;
        //   [1] the designated-parity bid — the lowest surviving app
        //       rank will fold the parity into its contribution.
        let newest = self.history.back().map(|g| g.iter);
        let vote = if adopted { u64::MAX } else { newest.map_or(0, |i| i + 1) };
        let bid = if adopted || newest.is_none() { u64::MAX } else { u64::from(ctx.app_rank()) };
        let agreed = ctx.allreduce_u64_ft(&[vote, bid], ReduceOp::Min)?;
        let (vote, designated) = (agreed[0], agreed[1]);
        if vote == 0 || vote == u64::MAX || designated == u64::MAX {
            self.history.clear();
            app.reset_state(ctx)?;
            return Ok(RestoreDecision::Fresh);
        }
        let gen = vote - 1;
        // Second round, now that the generation is fixed: how many ranks
        // need reconstruction (Sum of adopted flags), and the padded width
        // of the agreed generation (Max; the rescue abstains with 0 —
        // every survivor stored the same width, agreed collectively at
        // that generation's own `prepare`). More than one erasure exceeds
        // the parity code; zero (an unreplaced failure) means the
        // survivors just re-align to the agreed generation.
        let my_width =
            if adopted { 0 } else { self.generation(gen).map_or(0, |g| g.block.len() as u64) };
        let missing = ctx.allreduce_u64_ft(&[u64::from(adopted)], ReduceOp::Sum)?[0];
        let width = ctx.allreduce_u64_ft(&[my_width], ReduceOp::Max)?[0] as usize;
        if missing > 1 || width == 0 {
            self.history.clear();
            app.reset_state(ctx)?;
            return Ok(RestoreDecision::Fresh);
        }
        // The generation-spread argument (see the type docs): every
        // survivor that voted holds the agreed generation.
        let own: Option<&Generation> = if adopted {
            None
        } else {
            Some(self.generation(gen).ok_or(FtError::Unsupported("abft generation"))?)
        };
        if missing == 1 {
            // XOR of all survivor blocks and the parity = the lost block;
            // the rescue contributes zeros and reads its state out of the
            // reduction result. The designated survivor folds the parity
            // into its *contribution only* — what it loads afterwards is
            // its own unmodified block, like every other survivor.
            let contribution: Vec<u64> = match own {
                None => vec![0; width],
                Some(g) if u64::from(ctx.app_rank()) == designated => {
                    let mut c = g.block.clone();
                    for (b, p) in c.iter_mut().zip(&g.parity) {
                        *b ^= *p;
                    }
                    c
                }
                Some(g) => g.block.clone(),
            };
            let reconstructed = xor_allreduce(ctx, &contribution)?;
            let words = match own {
                None => &reconstructed,
                Some(g) => &g.block,
            };
            let blob = unpack_block(words).ok_or(FtError::Unsupported("abft reconstruction"))?;
            app.load_state(ctx, &blob)?;
        } else {
            // No erasure to decode (the failure was replaced without
            // adoption, e.g. an FD-only failure): survivors just re-align
            // to the agreed generation.
            let g = own.ok_or(FtError::Unsupported("abft generation"))?;
            let blob = unpack_block(&g.block).ok_or(FtError::Unsupported("abft reconstruction"))?;
            app.load_state(ctx, &blob)?;
        }
        // Drop generations newer than the agreed one: they are stale
        // relative to the rolled-to state. The rescue starts empty and
        // re-syncs at the next prepare.
        self.history.retain(|g| g.iter <= gen);
        Ok(RestoreDecision::Resume { iter: gen })
    }
}

// ---------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------

/// Checkpoint-stream tag of the replication mirror. Distinct from any
/// application tag; the high bit stays clear (it is reserved by the
/// chunk-store wire format).
pub const REPLICA_TAG: u32 = 0x7F00_0000;

/// How many recent generations each rank keeps locally (survivors restore
/// from memory, without touching the mirror stream).
const REPLICA_HISTORY: usize = 4;

/// Replication-based recovery: every step each rank pushes its encoded
/// state into a dedicated mirror checkpoint stream (its hot standby) and
/// keeps a short in-memory history. After a failure the designated shadow
/// spare adopts the lost rank, fetches the newest agreed generation from
/// the mirror, and the survivors re-align from local memory — no interval
/// rollback, no group-wide checkpoint vote on the app's own stream.
pub struct Replicated {
    mirror: Checkpointer,
    fetch_timeout: Duration,
    history: VecDeque<(u64, Vec<u8>)>,
}

impl Replicated {
    /// Build the per-rank mirror stream.
    pub fn new(ctx: &FtCtx) -> Self {
        let cfg = CheckpointerConfig::for_tag(REPLICA_TAG);
        Self {
            mirror: Checkpointer::new(&ctx.proc, cfg, None),
            fetch_timeout: Duration::from_secs(5),
            history: VecDeque::new(),
        }
    }
}

impl<A: FtApp> RecoveryStrategy<A> for Replicated {
    fn name(&self) -> &'static str {
        "replicated"
    }

    fn prepare(&mut self, ctx: &FtCtx, app: &mut A, iter: u64) -> FtResult<()> {
        let blob = app.export_state(ctx, iter)?.ok_or(FtError::Unsupported("export_state"))?;
        ctx.proc.injection_site("strategy.replica.push");
        self.mirror.commit(iter, blob.clone(), CopyPolicy::Replicate);
        // Synchronous push: the standby must hold this generation before
        // the next step can fail, or takeover would silently regress.
        self.mirror.drain(self.fetch_timeout);
        self.history.push_back((iter, blob));
        while self.history.len() > REPLICA_HISTORY {
            self.history.pop_front();
        }
        Ok(())
    }

    fn on_failure(&mut self, _ctx: &FtCtx, plan: &RecoveryPlan) -> FtResult<()> {
        self.mirror.refresh_failed(&plan.failed);
        Ok(())
    }

    fn restore(&mut self, ctx: &FtCtx, app: &mut A) -> FtResult<RestoreDecision> {
        let me = ctx.proc.rank();
        let source = ctx.restore_source();
        let adopted = source != me;
        // Vote: survivors offer their newest local generation, the rescue
        // offers what the failed rank's mirror still answers for.
        let newest = if adopted {
            self.mirror.latest_restorable(source, self.fetch_timeout).hit()
        } else {
            self.history.back().map(|(i, _)| *i)
        };
        let vote = newest.map_or(0, |i| i + 1);
        let agreed = ctx.allreduce_u64_ft(&[vote], ReduceOp::Min)?[0];
        if agreed == 0 {
            self.history.clear();
            app.reset_state(ctx)?;
            return Ok(RestoreDecision::Fresh);
        }
        let gen = agreed - 1;
        // Confirm: unlike `prepare` in the ABFT strategy, the replica
        // push is not a collective, so survivors can be more than one
        // generation apart — confirm everyone can actually produce the
        // agreed generation before installing anything.
        let fetched = if adopted {
            self.mirror.restore_exact(source, gen, self.fetch_timeout).hit().map(|r| r.data)
        } else {
            self.history.iter().find(|(i, _)| *i == gen).map(|(_, b)| b.clone())
        };
        let ok = u64::from(fetched.is_some());
        if ctx.allreduce_u64_ft(&[ok], ReduceOp::Min)?[0] == 0 {
            self.history.clear();
            app.reset_state(ctx)?;
            return Ok(RestoreDecision::Fresh);
        }
        let blob = fetched.expect("confirmed fetch");
        if adopted {
            // Re-home the adopted generation under this rank so the next
            // failure resolves against the new standby directly.
            self.mirror.commit(gen, blob.clone(), CopyPolicy::Replicate);
            self.mirror.drain(self.fetch_timeout);
        }
        app.load_state(ctx, &blob)?;
        self.history.retain(|(i, _)| *i <= gen);
        if adopted {
            self.history.push_back((gen, blob));
        }
        Ok(RestoreDecision::Resume { iter: gen })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_packing_round_trips() {
        for len in [0usize, 1, 7, 8, 9, 64, 65] {
            let blob: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let mut packed = pack_block(&blob);
            packed.resize(packed.len() + 5, 0); // group padding
            assert_eq!(unpack_block(&packed).unwrap(), blob, "len {len}");
        }
    }

    #[test]
    fn torn_length_header_is_rejected() {
        assert!(unpack_block(&[]).is_none());
        assert!(unpack_block(&[9, 0]).is_none()); // claims 9 bytes, holds 8
    }

    #[test]
    fn xor_parity_reconstructs_the_missing_block() {
        let blocks: Vec<Vec<u64>> =
            (0..4u64).map(|r| pack_block(&vec![r as u8 + 1; 24 + r as usize])).collect();
        let width = blocks.iter().map(Vec::len).max().unwrap();
        let mut parity = vec![0u64; width];
        for b in &blocks {
            for (p, w) in parity.iter_mut().zip(b.iter().chain(std::iter::repeat(&0))) {
                *p ^= *w;
            }
        }
        // Reconstruct block 2 from the other three + parity.
        let mut rec = parity.clone();
        for (r, b) in blocks.iter().enumerate() {
            if r != 2 {
                for (x, w) in rec.iter_mut().zip(b.iter().chain(std::iter::repeat(&0))) {
                    *x ^= *w;
                }
            }
        }
        assert_eq!(unpack_block(&rec).unwrap(), vec![3u8; 26]);
    }

    /// A deterministic stand-in for one rank's encoded state.
    fn blob(rank: u64, gen: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| (i * 31 + rank * 7 + gen * 13) as u8).collect()
    }

    fn full_parity(blocks: &[Vec<u64>], width: usize) -> Vec<u64> {
        let mut parity = vec![0u64; width];
        for b in blocks {
            for (p, w) in parity.iter_mut().zip(b) {
                *p ^= *w;
            }
        }
        parity
    }

    /// Replays `prepare`'s agreement and delta rounds over simulated
    /// ranks. `bases[r]` is rank r's previous block (`None`: no baseline);
    /// returns the new parity, the padded blocks and the delta's word
    /// count (`None` when the group fell back to the full encode).
    fn encode(
        bases: &[Option<Vec<u64>>],
        parity: &[u64],
        blobs: &[Vec<u8>],
    ) -> (Vec<u64>, Vec<Vec<u64>>, Option<usize>) {
        let mut blocks: Vec<Vec<u64>> = blobs.iter().map(|b| pack_block(b)).collect();
        let mut agreed = vec![0u64; ALLREDUCE_MAX_ELEMS];
        for (base, block) in bases.iter().zip(&blocks) {
            let offer = ParityDelta::offer(base.as_deref(), block);
            for (a, o) in agreed.iter_mut().zip(offer) {
                *a = (*a).max(o);
            }
        }
        let width = agreed[0] as usize;
        blocks.iter_mut().for_each(|b| b.resize(width, 0));
        if agreed[1] != 0 {
            return (full_parity(&blocks, width), blocks, None);
        }
        let prev_width = bases[0].as_ref().unwrap().len();
        let delta = ParityDelta::new(&agreed[2..], prev_width, width);
        let mut reduced = vec![0u64; delta.words()];
        for (base, block) in bases.iter().zip(&blocks) {
            let mine = delta.gather(base.as_ref().unwrap(), block);
            assert_eq!(mine.len(), reduced.len());
            for (x, d) in reduced.iter_mut().zip(mine) {
                *x ^= d;
            }
        }
        (delta.patch(parity, &reduced), blocks, Some(delta.words()))
    }

    #[test]
    fn chained_delta_encodes_match_the_full_encode_bitwise() {
        const RANKS: usize = 4;
        let mut lens: Vec<usize> = (0..RANKS).map(|r| 3000 + 40 * r).collect();
        let mut blobs: Vec<Vec<u8>> = (0..RANKS).map(|r| blob(r as u64, 0, lens[r])).collect();
        let mut bases: Vec<Option<Vec<u64>>> = vec![None; RANKS];
        let mut parity = Vec::new();
        let (mut deltas, mut fulls, mut grew, mut shrank) = (0, 0, 0, 0);
        for gen in 1..=60u64 {
            let width_before = lens.iter().max().unwrap().div_ceil(8) + 1;
            match gen % 6 {
                // Unchanged lengths: every rank rewrites a middle stretch.
                0 => {
                    for (r, b) in blobs.iter_mut().enumerate() {
                        let at = (gen as usize * 97 + r * 11) % (b.len() - 64);
                        b[at..at + 64].copy_from_slice(&blob(r as u64, gen, 64));
                    }
                }
                // Only one rank changes one byte.
                1 => blobs[gen as usize % RANKS][5] ^= 0x5A,
                // The longest rank appends (α/β-style growth).
                2 | 3 => {
                    let r = (0..RANKS).max_by_key(|&r| lens[r]).unwrap();
                    lens[r] += 16 + gen as usize;
                    blobs[r].extend(blob(r as u64, gen, 16 + gen as usize));
                }
                // Every rank shrinks, so the agreed width drops.
                4 => {
                    for (len, b) in lens.iter_mut().zip(&mut blobs) {
                        *len -= 24;
                        b.truncate(*len);
                    }
                }
                // One rank lost its baseline (a rescue, a restore).
                _ => bases[gen as usize % RANKS] = None,
            }
            let width = lens.iter().max().unwrap().div_ceil(8) + 1;
            grew += usize::from(width > width_before);
            shrank += usize::from(width < width_before);
            let (next, blocks, words) = encode(&bases, &parity, &blobs);
            assert_eq!(next, full_parity(&blocks, width), "generation {gen}");
            match words {
                Some(w) => {
                    deltas += 1;
                    assert!(w < width, "generation {gen}: a delta must skip clean tiles");
                }
                None => fulls += 1,
            }
            if gen % 6 == 1 && gen > 1 {
                // One byte of one rank: the delta is one tile.
                let tile = ParityDelta::tile_len(bases[0].as_ref().map_or(0, Vec::len));
                assert_eq!(words, Some(tile + 1), "generation {gen}");
            }
            parity = next;
            bases = blocks.into_iter().map(Some).collect();
            // Decoding still works off a delta-built parity.
            let lost = gen as usize % RANKS;
            let mut rec = parity.clone();
            for (r, b) in bases.iter().enumerate() {
                if r != lost {
                    for (x, w) in rec.iter_mut().zip(b.as_ref().unwrap()) {
                        *x ^= *w;
                    }
                }
            }
            assert_eq!(unpack_block(&rec).unwrap(), blobs[lost], "generation {gen}");
        }
        assert!(deltas >= 40 && fulls >= 10, "deltas {deltas}, fulls {fulls}");
        assert!(grew >= 10 && shrank >= 5, "grew {grew}, shrank {shrank}");
    }

    #[test]
    fn delta_plan_merges_tiles_and_clips_to_the_width() {
        // 1 + 1024 words: tiles of 8 (⌈1024/253⌉ = 5 → 8), tile 0 also
        // carries the length word.
        let prev_width = 1025;
        assert_eq!(ParityDelta::tile_len(prev_width), 8);
        let mut flags = vec![0u64; TILE_FLAGS];
        flags[0] = 1;
        flags[3] = 1;
        flags[4] = 1;
        flags[127] = 1;
        let grow = ParityDelta::new(&flags, prev_width, 1030);
        assert_eq!(grow.ranges, vec![0..9, 25..41, 1017..1030]);
        assert_eq!(grow.words(), 9 + 16 + 13);
        let shrink = ParityDelta::new(&flags, prev_width, 1020);
        assert_eq!(shrink.ranges, vec![0..9, 25..41, 1017..1020]);
        let parity: Vec<u64> = (0..prev_width as u64).collect();
        let patched = shrink.patch(&parity, &vec![0; shrink.words()]);
        assert_eq!(patched, parity[..1020]);
        // An empty blob is one word, one tile.
        assert_eq!(ParityDelta::tile_len(1), 1);
        let offer = ParityDelta::offer(Some(&[0]), &[8, 1]);
        assert_eq!(offer[..4], [2, 0, 1, 0]);
        assert_eq!(ParityDelta::offer(None, &[0])[..3], [1, 1, 0]);
    }

    #[test]
    fn strategy_kind_names() {
        assert_eq!(StrategyKind::default(), StrategyKind::CheckpointRestart);
        assert_eq!(StrategyKind::CheckpointRestart.name(), "checkpoint-restart");
        assert_eq!(StrategyKind::Abft.name(), "abft");
        assert_eq!(StrategyKind::Replicated.name(), "replicated");
    }
}
