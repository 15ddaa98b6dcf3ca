//! The TCG optimizer.
//!
//! Passes (§2.3, §5.4, §6.1):
//!
//! * constant propagation & folding (incl. the false-dependency
//!   simplifications `x*0 ↝ 0`, `x⊕x ↝ 0` of §6.1),
//! * copy propagation,
//! * memory-access eliminations — RAR / RAW / WAW forwarding with the
//!   Fig. 10 fence side conditions ([`OptPolicy::Verified`]) or QEMU's
//!   historical fence-oblivious behavior ([`OptPolicy::QemuUnsound`],
//!   which the FMR example shows incorrect),
//! * fence merging: adjacent fences with no intervening memory access
//!   merge into their join, placed at the earliest position,
//! * dead code elimination (temp liveness + redundant `SetReg` removal —
//!   this is what kills the eagerly-computed flag updates that a later
//!   `CMP` overwrites).
//!
//! Blocks are in SSA form (the frontend allocates a fresh temp per def);
//! every pass preserves that invariant.

use crate::ir::{TbExit, TcgBlock, TcgOp, Temp};
use risotto_memmodel::FenceKind;

/// Which elimination side conditions the memory-forwarding pass uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptPolicy {
    /// Fig. 10: RAW may cross `Fsc`/`Fww`, RAR may cross `Frm`/`Fww`, and
    /// WAW (which deletes a *write*) only fences with a read-only
    /// predecessor class — `Frr`/`Frw`/`Frm`. See [`elim_may_cross`].
    Verified,
    /// QEMU's fence-oblivious eliminations (unsound across `Fmr`, §3.2).
    QemuUnsound,
}

/// Statistics from one optimization run (exposed for tests and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Constants folded.
    pub folded: usize,
    /// Loads forwarded (RAW + RAR).
    pub loads_forwarded: usize,
    /// Dead stores removed (WAW).
    pub stores_eliminated: usize,
    /// Fences merged away.
    pub fences_merged: usize,
    /// Fences merged away, by the kind of the removed fence; indexed by
    /// [`FenceKind::tcg_index`] over [`FenceKind::TCG_ALL`]. The entries
    /// sum to `fences_merged`.
    pub fences_merged_by_kind: [usize; 12],
    /// The subset of `fences_merged` whose merge crossed a former TB
    /// boundary (a [`TcgOp::TbBoundary`] or [`TcgOp::SideExit`] marker
    /// sat between the two fences). Always zero for tier-1 blocks,
    /// which contain no markers.
    pub fences_merged_cross: usize,
    /// Ops removed by DCE.
    pub dce_removed: usize,
}

impl std::ops::AddAssign for OptStats {
    fn add_assign(&mut self, rhs: OptStats) {
        self.folded += rhs.folded;
        self.loads_forwarded += rhs.loads_forwarded;
        self.stores_eliminated += rhs.stores_eliminated;
        self.fences_merged += rhs.fences_merged;
        for (a, b) in self.fences_merged_by_kind.iter_mut().zip(rhs.fences_merged_by_kind) {
            *a += b;
        }
        self.fences_merged_cross += rhs.fences_merged_cross;
        self.dce_removed += rhs.dce_removed;
    }
}

/// Which passes run — the ablation knob for the `ablation_passes` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Constant folding + copy propagation (+ false-dependency elim).
    pub constant_fold: bool,
    /// RAR/RAW/WAW memory forwarding.
    pub forward_memory: bool,
    /// Fence merging (§6.1).
    pub merge_fences: bool,
    /// Dead code elimination.
    pub dce: bool,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig { constant_fold: true, forward_memory: true, merge_fences: true, dce: true }
    }
}

impl PassConfig {
    /// Everything on (the production pipeline).
    pub fn all() -> PassConfig {
        PassConfig::default()
    }

    /// Everything off (raw frontend output).
    pub fn none() -> PassConfig {
        PassConfig { constant_fold: false, forward_memory: false, merge_fences: false, dce: false }
    }

    /// All passes except one, by name (for ablations).
    ///
    /// # Panics
    ///
    /// Panics on an unknown pass name.
    pub fn all_except(pass: &str) -> PassConfig {
        let mut c = PassConfig::all();
        match pass {
            "constant_fold" => c.constant_fold = false,
            "forward_memory" => c.forward_memory = false,
            "merge_fences" => c.merge_fences = false,
            "dce" => c.dce = false,
            other => panic!("unknown pass `{other}`"),
        }
        c
    }
}

/// Facts an IR-level value-range analysis proved about a block, to be
/// applied by [`apply_hints`] before the regular pass pipeline runs.
/// Produced by `risotto-analysis::ir_hints` (known-bits over the
/// straight-line IR); defined here so the optimizer does not depend on
/// the analysis crate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IrHints {
    /// Temps proven to hold a single possible value, with that value.
    /// Only temps defined by a *pure* op (`Mov`/`Bin`/`Setcond`) may be
    /// listed — replacing the def of a memory access or helper would
    /// change the event sequence.
    pub const_temps: Vec<(Temp, u64)>,
    /// The exit's `CondJump` flag is proven always non-zero (`Some(true)`)
    /// or always zero (`Some(false)`) — the dead branch can be pruned.
    pub exit_flag: Option<bool>,
}

/// Statistics from one [`apply_hints`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HintStats {
    /// Pure ops replaced by `MovI` constants.
    pub folded: u32,
    /// Conditional exits rewritten to unconditional jumps.
    pub branches_pruned: u32,
}

/// Applies analysis-derived [`IrHints`] to a block in place: each listed
/// pure op is replaced with a `MovI` of its proven value, and a decided
/// `CondJump` exit becomes a `Jump` to the surviving target (dead-branch
/// pruning). Run before [`optimize`] so folding/DCE can exploit the new
/// constants. Memory events and fences are never touched, so verifier
/// Pass 2 is oblivious to hint application.
pub fn apply_hints(block: &mut TcgBlock, hints: &IrHints) -> HintStats {
    let mut stats = HintStats::default();
    for &(t, v) in &hints.const_temps {
        for op in block.ops.iter_mut() {
            let pure_def = match op {
                TcgOp::Mov { dst, .. } | TcgOp::Bin { dst, .. } | TcgOp::Setcond { dst, .. } => {
                    *dst == t
                }
                _ => false,
            };
            if pure_def {
                *op = TcgOp::MovI { dst: t, val: v };
                stats.folded += 1;
                break;
            }
        }
    }
    if let Some(flag) = hints.exit_flag {
        if let TbExit::CondJump { taken, fallthrough, .. } = block.exit {
            block.exit = TbExit::Jump(if flag { taken } else { fallthrough });
            stats.branches_pruned += 1;
        }
    }
    stats
}

/// Runs the full pass pipeline in place.
pub fn optimize(block: &mut TcgBlock, policy: OptPolicy) -> OptStats {
    optimize_with(block, policy, PassConfig::all())
}

/// Runs a configurable pass pipeline in place.
pub fn optimize_with(block: &mut TcgBlock, policy: OptPolicy, passes: PassConfig) -> OptStats {
    let mut stats = OptStats::default();
    // No pass introduces a temp, so one bound serves the whole pipeline.
    let bound = block.temp_bound();
    if passes.constant_fold {
        stats.folded += fold(block, bound);
    }
    if passes.forward_memory {
        forward_memory(block, policy, &mut stats);
    }
    if passes.merge_fences {
        let mut cross = 0usize;
        stats.fences_merged +=
            merge_fences_region(block, &mut stats.fences_merged_by_kind, &mut cross);
        stats.fences_merged_cross += cross;
    }
    if passes.dce {
        stats.dce_removed += dce_bounded(block, bound);
    }
    // A second fold round cleans up values exposed by forwarding.
    if passes.constant_fold {
        stats.folded += fold(block, bound);
    }
    if passes.dce {
        stats.dce_removed += dce_bounded(block, bound);
    }
    stats
}

// ---------------------------------------------------------------------
// Constant folding + copy propagation.
// ---------------------------------------------------------------------

/// Folds constants and propagates copies; returns the number of ops
/// rewritten.
pub fn constant_fold(block: &mut TcgBlock) -> usize {
    fold(block, block.temp_bound())
}

/// [`constant_fold`] with the block's [`TcgBlock::temp_bound`] given.
/// Every op is rewritten in place: the pass maps each op to exactly one
/// op.
fn fold(block: &mut TcgBlock, bound: usize) -> usize {
    use crate::ir::BinOp;
    // Dense per-temp tables: temp → known constant, temp → the copy
    // source it aliases.
    let mut konst: Vec<Option<u64>> = vec![None; bound];
    let mut alias: Vec<Option<Temp>> = vec![None; bound];
    // Track which temp (if any) currently holds each env register's value,
    // so constants and copies propagate through SetReg/GetReg round-trips.
    let mut env_alias: [Option<Temp>; crate::ir::env::COUNT] = [None; crate::ir::env::COUNT];
    let mut changed = 0usize;

    for op in block.ops.iter_mut() {
        // Canonicalize uses through the alias map.
        rewrite_uses(op, &alias);
        // Env-register forwarding: rewrite GetReg into a copy of the temp
        // last stored to that register.
        if let TcgOp::GetReg { dst, reg } = *op {
            if let Some(src) = env_alias[reg as usize] {
                changed += 1;
                *op = TcgOp::Mov { dst, src };
            }
        }
        if let TcgOp::SetReg { reg, src } = *op {
            env_alias[reg as usize] = Some(resolve(&alias, src));
        }
        // A copy of `src` into `dst`: a constant when `src` is one,
        // else an alias.
        let mut copy = |dst: Temp, src: Temp, konst: &mut [Option<u64>]| match konst[src.0 as usize]
        {
            Some(v) => {
                konst[dst.0 as usize] = Some(v);
                Some(TcgOp::MovI { dst, val: v })
            }
            None => {
                alias[dst.0 as usize] = Some(resolve(&alias, src));
                None
            }
        };
        let rewritten = match *op {
            TcgOp::MovI { dst, val } => {
                konst[dst.0 as usize] = Some(val);
                None
            }
            TcgOp::Mov { dst, src } => {
                let folded = copy(dst, src, &mut konst);
                changed += folded.is_some() as usize;
                folded
            }
            TcgOp::Bin { op: bop, dst, a, b } => {
                let ka = konst[a.0 as usize];
                let kb = konst[b.0 as usize];
                if let (Some(x), Some(y)) = (ka, kb) {
                    let v = bop.apply(x, y);
                    konst[dst.0 as usize] = Some(v);
                    changed += 1;
                    Some(TcgOp::MovI { dst, val: v })
                } else {
                    // Algebraic simplifications (false-dependency
                    // elimination, §6.1): results that no longer depend
                    // on the variable operand.
                    let zero = Some(TcgOp::MovI { dst, val: 0 });
                    let simplified: Option<TcgOp> = match bop {
                        BinOp::Mul if ka == Some(0) || kb == Some(0) => zero,
                        BinOp::And if ka == Some(0) || kb == Some(0) => zero,
                        BinOp::Xor | BinOp::Sub if a == b => zero,
                        BinOp::Add | BinOp::Or | BinOp::Xor if ka == Some(0) => {
                            Some(TcgOp::Mov { dst, src: b })
                        }
                        BinOp::Add
                        | BinOp::Sub
                        | BinOp::Or
                        | BinOp::Xor
                        | BinOp::Shl
                        | BinOp::Shr
                            if kb == Some(0) =>
                        {
                            Some(TcgOp::Mov { dst, src: a })
                        }
                        BinOp::Mul if kb == Some(1) => Some(TcgOp::Mov { dst, src: a }),
                        BinOp::Mul if ka == Some(1) => Some(TcgOp::Mov { dst, src: b }),
                        _ => None,
                    };
                    match simplified {
                        Some(TcgOp::MovI { dst, val }) => {
                            changed += 1;
                            konst[dst.0 as usize] = Some(val);
                            Some(TcgOp::MovI { dst, val })
                        }
                        Some(TcgOp::Mov { dst, src }) => {
                            changed += 1;
                            Some(copy(dst, src, &mut konst).unwrap_or(TcgOp::Mov { dst, src }))
                        }
                        _ => None,
                    }
                }
            }
            TcgOp::Setcond { cond, dst, a, b } => {
                match (konst[a.0 as usize], konst[b.0 as usize]) {
                    (Some(x), Some(y)) => {
                        let v = cond.apply(x, y);
                        konst[dst.0 as usize] = Some(v);
                        changed += 1;
                        Some(TcgOp::MovI { dst, val: v })
                    }
                    _ => None,
                }
            }
            _ => None,
        };
        if let Some(new) = rewritten {
            *op = new;
        }
    }
    // Exit operands also go through the alias map.
    match &mut block.exit {
        TbExit::JumpReg(t) => *t = resolve(&alias, *t),
        TbExit::CondJump { flag, taken, fallthrough } => {
            let f = resolve(&alias, *flag);
            *flag = f;
            // A constant flag turns the conditional exit into a jump.
            if let Some(v) = konst[f.0 as usize] {
                let target = if v != 0 { *taken } else { *fallthrough };
                block.exit = TbExit::Jump(target);
                changed += 1;
            }
        }
        _ => {}
    }
    changed
}

fn resolve(alias: &[Option<Temp>], t: Temp) -> Temp {
    let mut cur = t;
    while let Some(next) = alias[cur.0 as usize] {
        cur = next;
    }
    cur
}

fn rewrite_uses(op: &mut TcgOp, alias: &[Option<Temp>]) {
    let fix = |t: &mut Temp| *t = resolve(alias, *t);
    match op {
        TcgOp::Mov { src, .. } | TcgOp::SetReg { src, .. } => fix(src),
        TcgOp::Ld { addr, .. } | TcgOp::Ld8 { addr, .. } => fix(addr),
        TcgOp::St { addr, src } | TcgOp::St8 { addr, src } => {
            fix(addr);
            fix(src);
        }
        TcgOp::Bin { a, b, .. } | TcgOp::Setcond { a, b, .. } => {
            fix(a);
            fix(b);
        }
        TcgOp::Cas { addr, expect, new, .. } => {
            fix(addr);
            fix(expect);
            fix(new);
        }
        TcgOp::AtomicAdd { addr, val, .. } => {
            fix(addr);
            fix(val);
        }
        TcgOp::CallHelper { args, .. } => args.iter_mut().for_each(fix),
        TcgOp::SideExit { flag, .. } => fix(flag),
        TcgOp::MovI { .. } | TcgOp::GetReg { .. } | TcgOp::Fence(_) | TcgOp::TbBoundary { .. } => {}
    }
}

// ---------------------------------------------------------------------
// Memory-access eliminations (RAR / RAW / WAW).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrackedKind {
    Store { value: Temp },
    Load { value: Temp },
}

#[derive(Debug, Clone)]
struct Tracked {
    addr: Temp,
    kind: TrackedKind,
    /// The kinds of the fences encountered since this access, one bit
    /// per kind ([`fence_bit`]).
    fences_since: u32,
    /// A superblock side exit was crossed since this access. Forwarding
    /// a *read* past a side exit stays sound (the value was already
    /// architecturally committed when the exit is taken), but deleting a
    /// store that the off-trace continuation would observe is not, so
    /// WAW elimination refuses when this is set.
    escaped: bool,
}

/// Which Fig. 10 memory-access elimination is being attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElimKind {
    /// Forward a store's value into a later load of the same address.
    Raw,
    /// Forward an earlier load's value into a later load.
    Rar,
    /// Delete an earlier store overwritten by a later one.
    Waw,
}

/// `true` when an elimination of `kind` may cross the fence `f` under the
/// verified policy (Fig. 10 side conditions).
///
/// RAW and RAR move a *read* of the location earlier (to the forwarded
/// def), so the fences they may cross are the ones whose ordering the
/// surviving access still provides: `Fsc`/`Fww` for RAW, `Frm`/`Fww` for
/// RAR. WAW deletes the *first write*: every `[W];po;[F];po;[post(F)]`
/// edge that write contributed disappears, and the surviving same-address
/// write (coherence-after it) only inherits the in-edges. So deleting a
/// store across `f` is sound exactly when writes are not in `f`'s
/// predecessor class — `Frr`/`Frw`/`Frm`. In particular `Fww` (which the
/// read eliminations may cross) makes WAW *unsound*: with
/// `St x; Fww; St x; St y` the deleted store carries the `Fww` edge into
/// `St y`, and dropping it lets an observer see `y` new but `x` stale
/// (`tests/opt_soundness.rs` exercises the counterexample exhaustively).
pub fn elim_may_cross(kind: ElimKind, f: FenceKind) -> bool {
    match kind {
        ElimKind::Raw => matches!(f, FenceKind::Fsc | FenceKind::Fww),
        ElimKind::Rar => matches!(f, FenceKind::Frm | FenceKind::Fww),
        ElimKind::Waw => f.tcg_order().is_some_and(|(pre, _)| !pre.writes),
    }
}

fn fence_bit(f: FenceKind) -> u32 {
    1 << f as u32
}

/// The fence kinds an elimination of `kind` may cross under `policy`,
/// one bit per kind. Only TCG fences can qualify: neither policy lets an
/// elimination cross any other kind.
fn crossable(kind: ElimKind, policy: OptPolicy) -> u32 {
    FenceKind::TCG_ALL
        .into_iter()
        .filter(|&f| match policy {
            OptPolicy::QemuUnsound => true,
            OptPolicy::Verified => elim_may_cross(kind, f),
        })
        .fold(0, |bits, f| bits | fence_bit(f))
}

/// Forwards loads and removes dead stores. Two addresses are considered
/// the same only when they are the *same temp* (SSA makes this sound);
/// distinct temps conservatively alias, flushing the tracking state.
fn forward_memory(block: &mut TcgBlock, policy: OptPolicy, stats: &mut OptStats) {
    // An elimination is allowed when every fence crossed is crossable.
    let allowed = |kind: ElimKind| crossable(kind, policy);
    let (raw, rar, waw) = (allowed(ElimKind::Raw), allowed(ElimKind::Rar), allowed(ElimKind::Waw));
    let mut tracked: Vec<Tracked> = Vec::new();
    let ops = std::mem::take(&mut block.ops);
    let mut out: Vec<TcgOp> = Vec::with_capacity(ops.len());

    for op in ops {
        match &op {
            TcgOp::Fence(k) => {
                for t in &mut tracked {
                    t.fences_since |= fence_bit(*k);
                }
                out.push(op);
            }
            TcgOp::SideExit { .. } => {
                for t in &mut tracked {
                    t.escaped = true;
                }
                out.push(op);
            }
            TcgOp::Ld { dst, addr } => {
                if let Some(t) = tracked.iter().find(|t| t.addr == *addr) {
                    let (value, may_cross) = match t.kind {
                        TrackedKind::Store { value } => (value, raw),
                        TrackedKind::Load { value } => (value, rar),
                    };
                    if t.fences_since & !may_cross == 0 {
                        stats.loads_forwarded += 1;
                        out.push(TcgOp::Mov { dst: *dst, src: value });
                        continue;
                    }
                }
                // A load from a different temp-address may alias a tracked
                // store… loads don't invalidate stores; track this load.
                tracked.retain(|t| t.addr != *addr);
                tracked.push(Tracked {
                    addr: *addr,
                    kind: TrackedKind::Load { value: *dst },
                    fences_since: 0,
                    escaped: false,
                });
                out.push(op);
            }
            TcgOp::St { addr, src } => {
                // WAW: a previous store to the same temp-address with no
                // blocking fence and no intervening load of that address.
                if let Some(pos) = tracked.iter().position(|t| t.addr == *addr) {
                    let t = &tracked[pos];
                    if let TrackedKind::Store { .. } = t.kind {
                        if !t.escaped && t.fences_since & !waw == 0 {
                            // Find the previous store in `out` and drop it.
                            if let Some(idx) = out
                                .iter()
                                .rposition(|o| matches!(o, TcgOp::St { addr: a, .. } if a == addr))
                            {
                                out.remove(idx);
                                stats.stores_eliminated += 1;
                            }
                        }
                    }
                    tracked.remove(pos);
                }
                // Stores to *other* addresses may alias (different temps
                // can hold the same address): invalidate everything except
                // same-temp entries we just handled.
                tracked.retain(|t| t.addr == *addr);
                tracked.push(Tracked {
                    addr: *addr,
                    kind: TrackedKind::Store { value: *src },
                    fences_since: 0,
                    escaped: false,
                });
                out.push(op);
            }
            TcgOp::Ld8 { .. }
            | TcgOp::St8 { .. }
            | TcgOp::Cas { .. }
            | TcgOp::AtomicAdd { .. }
            | TcgOp::CallHelper { .. } => {
                // Byte accesses may partially overlap tracked 64-bit
                // locations; RMWs and helpers clobber arbitrarily.
                tracked.clear();
                out.push(op);
            }
            _ => out.push(op),
        }
    }
    block.ops = out;
}

// ---------------------------------------------------------------------
// Fence merging (§6.1).
// ---------------------------------------------------------------------

/// Merges runs of fences with no intervening memory access into a single
/// fence (their join, `Fsc`-absorbing) at the earliest position. Returns
/// the number of fences removed.
pub fn merge_fences(block: &mut TcgBlock) -> usize {
    merge_fences_counted(block, &mut [0; 12])
}

/// [`merge_fences`], additionally tallying each removed fence by kind
/// into `by_kind` (indexed per [`FenceKind::tcg_index`]).
pub fn merge_fences_counted(block: &mut TcgBlock, by_kind: &mut [usize; 12]) -> usize {
    merge_fences_region(block, by_kind, &mut 0)
}

/// Region-scoped [`merge_fences_counted`] for superblocks: merges may
/// cross [`TcgOp::TbBoundary`] seams and [`TcgOp::SideExit`] guards
/// (hoisting a later fence to an earlier position only *strengthens* the
/// ordering an off-trace continuation observes), and each merge that did
/// cross such a marker is additionally tallied into `cross` — the
/// paper's intra-block pass can never perform these.
pub fn merge_fences_region(
    block: &mut TcgBlock,
    by_kind: &mut [usize; 12],
    cross: &mut usize,
) -> usize {
    let ops = std::mem::take(&mut block.ops);
    let mut out: Vec<TcgOp> = Vec::with_capacity(ops.len());
    let mut removed = 0usize;
    // The last fence kept in `out`, and what was kept after it: a
    // memory access (which blocks merging into it) and a superblock
    // marker (which makes a merge cross-boundary).
    let mut last_fence: Option<usize> = None;
    let (mut access_since, mut marker_since) = (false, false);
    for op in ops {
        match op {
            TcgOp::Fence(k) => {
                debug_assert!(k.is_tcg(), "non-TCG fence in IR");
                match last_fence {
                    Some(idx) if !access_since => {
                        let TcgOp::Fence(prev) = out[idx] else { unreachable!("fence index") };
                        out[idx] = TcgOp::Fence(prev.tcg_join(k));
                        removed += 1;
                        if let Some(i) = k.tcg_index() {
                            by_kind[i] += 1;
                        }
                        if marker_since {
                            *cross += 1;
                        }
                    }
                    _ => {
                        last_fence = Some(out.len());
                        (access_since, marker_since) = (false, false);
                        out.push(TcgOp::Fence(k));
                    }
                }
            }
            other => {
                access_since |= other.is_memory_access();
                marker_since |= matches!(other, TcgOp::TbBoundary { .. } | TcgOp::SideExit { .. });
                out.push(other);
            }
        }
    }
    block.ops = out;
    removed
}

// ---------------------------------------------------------------------
// Dead code elimination.
// ---------------------------------------------------------------------

/// Removes ops whose results are unused (including irrelevant loads) and
/// `SetReg`s overwritten before any read. Returns the number removed.
pub fn dce(block: &mut TcgBlock) -> usize {
    dce_bounded(block, block.temp_bound())
}

/// [`dce`] with the block's [`TcgBlock::temp_bound`] given.
fn dce_bounded(block: &mut TcgBlock, bound: usize) -> usize {
    let mut live = vec![false; bound];
    if let Some(t) = block.exit.use_temp() {
        live[t.0 as usize] = true;
    }
    let mut keep = vec![true; block.ops.len()];
    let mut env_overwritten = [false; crate::ir::env::COUNT];
    for (i, op) in block.ops.iter().enumerate().rev() {
        let needed = match op {
            TcgOp::SetReg { reg, .. } => {
                let r = *reg as usize;
                let needed = !env_overwritten[r];
                env_overwritten[r] = true;
                needed
            }
            TcgOp::GetReg { dst, reg } => {
                env_overwritten[*reg as usize] = false;
                live[dst.0 as usize]
            }
            TcgOp::SideExit { .. } => {
                // The off-trace continuation re-enters the dispatcher and
                // reads the whole env, so every `SetReg` above the exit
                // is observable no matter what the on-trace suffix
                // overwrites.
                env_overwritten = [false; crate::ir::env::COUNT];
                true
            }
            TcgOp::St { .. }
            | TcgOp::Fence(_)
            | TcgOp::Cas { .. }
            | TcgOp::AtomicAdd { .. }
            | TcgOp::CallHelper { .. }
            | TcgOp::TbBoundary { .. } => true,
            other => other.def().map(|d| live[d.0 as usize]).unwrap_or(true),
        };
        if needed {
            op.for_each_use(|u| live[u.0 as usize] = true);
        } else {
            keep[i] = false;
        }
    }
    let before = block.ops.len();
    let mut i = 0;
    block.ops.retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
    before - block.ops.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_block;
    use crate::frontend::{translate_block, FrontendConfig};
    use crate::ir::{env, Helper};
    use risotto_guest_x86::{AluOp, Assembler, Gpr, SparseMem};

    fn fetcher(bytes: Vec<u8>, base: u64) -> impl Fn(u64) -> [u8; 16] {
        move |addr| {
            let mut out = [0u8; 16];
            let off = (addr - base) as usize;
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = bytes.get(off + i).copied().unwrap_or(0);
            }
            out
        }
    }

    fn translate(f: impl FnOnce(&mut Assembler), cfg: FrontendConfig) -> TcgBlock {
        let mut a = Assembler::new(0x1000);
        f(&mut a);
        let (bytes, _) = a.finish().unwrap();
        translate_block(0x1000, cfg, fetcher(bytes, 0x1000)).unwrap()
    }

    /// Optimized and unoptimized blocks must agree on env and memory.
    fn check_equivalent(block: &TcgBlock, optimized: &TcgBlock) {
        for seed in 0..4u64 {
            let mut env1 = [0u64; env::COUNT];
            for (i, r) in env1.iter_mut().enumerate() {
                *r = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i as u64 * 13) % 1000;
            }
            env1[Gpr::RSP.index()] = 0x7000_0000;
            let mut env2 = env1;
            let mut m1 = SparseMem::new();
            m1.write_u64(env1[Gpr::RDI.index()], 77);
            let mut m2 = m1.clone();
            let e1 = eval_block(block, &mut env1, &mut m1);
            let e2 = eval_block(optimized, &mut env2, &mut m2);
            assert_eq!(e1, e2);
            assert_eq!(env1, env2, "env mismatch (seed {seed})");
        }
    }

    #[test]
    fn constant_folding_collapses_address_arithmetic() {
        let mut b = translate(
            |a| {
                a.mov_ri(Gpr::RAX, 21);
                a.alu_ri(AluOp::Mul, Gpr::RAX, 2);
                a.hlt();
            },
            FrontendConfig::risotto(),
        );
        let orig = b.clone();
        let stats = optimize(&mut b, OptPolicy::Verified);
        assert!(stats.folded > 0);
        check_equivalent(&orig, &b);
        // The multiply folded to a constant 42 somewhere.
        assert!(b.ops.iter().any(|o| matches!(o, TcgOp::MovI { val: 42, .. })));
        assert!(b.count_ops(|o| matches!(o, TcgOp::Bin { .. })) == 0);
    }

    #[test]
    fn dce_removes_overwritten_flag_updates() {
        let mut b = translate(
            |a| {
                a.alu_ri(AluOp::Add, Gpr::RAX, 1); // flags dead
                a.alu_ri(AluOp::Add, Gpr::RBX, 2); // flags dead
                a.cmp_ri(Gpr::RAX, 5); // flags live (block exit)
                a.hlt();
            },
            FrontendConfig::risotto(),
        );
        let orig = b.clone();
        let setregs_before = b.count_ops(|o| matches!(o, TcgOp::SetReg { .. }));
        let stats = optimize(&mut b, OptPolicy::Verified);
        let setregs_after = b.count_ops(|o| matches!(o, TcgOp::SetReg { .. }));
        assert!(stats.dce_removed > 0);
        assert!(setregs_after < setregs_before);
        check_equivalent(&orig, &b);
    }

    #[test]
    fn raw_forwarding_under_verified_policy() {
        // store [rdi]; load [rdi] — same address temp only when the
        // frontend reuses it; here both compute rdi+0 ⇒ same GetReg? No:
        // each instruction re-reads the env, producing different temps.
        // Build the IR by hand to exercise the forwarding machinery.
        let mut b =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        let addr = b.new_temp();
        let val = b.new_temp();
        let loaded = b.new_temp();
        b.ops = vec![
            TcgOp::GetReg { dst: addr, reg: 7 },
            TcgOp::MovI { dst: val, val: 99 },
            TcgOp::St { addr, src: val },
            TcgOp::Fence(FenceKind::Fww),
            TcgOp::Ld { dst: loaded, addr },
            TcgOp::SetReg { reg: 0, src: loaded },
        ];
        let orig = b.clone();
        let mut stats = OptStats::default();
        forward_memory(&mut b, OptPolicy::Verified, &mut stats);
        assert_eq!(stats.loads_forwarded, 1, "RAW across Fww is allowed");
        assert_eq!(b.count_ops(|o| matches!(o, TcgOp::Ld { .. })), 0);
        check_equivalent(&orig, &b);

        // Across an Fmr, the verified policy must refuse…
        let mut c = orig.clone();
        c.ops[3] = TcgOp::Fence(FenceKind::Fmr);
        let mut stats = OptStats::default();
        forward_memory(&mut c, OptPolicy::Verified, &mut stats);
        assert_eq!(stats.loads_forwarded, 0, "RAW across Fmr is unsound (FMR)");

        // …while QEMU's policy (unsoundly) forwards.
        let mut d = orig.clone();
        d.ops[3] = TcgOp::Fence(FenceKind::Fmr);
        let mut stats = OptStats::default();
        forward_memory(&mut d, OptPolicy::QemuUnsound, &mut stats);
        assert_eq!(stats.loads_forwarded, 1);
    }

    #[test]
    fn waw_elimination_drops_first_store() {
        let mut b =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        let addr = b.new_temp();
        let v1 = b.new_temp();
        let v2 = b.new_temp();
        b.ops = vec![
            TcgOp::GetReg { dst: addr, reg: 7 },
            TcgOp::MovI { dst: v1, val: 1 },
            TcgOp::MovI { dst: v2, val: 2 },
            TcgOp::St { addr, src: v1 },
            TcgOp::St { addr, src: v2 },
        ];
        let orig = b.clone();
        let mut stats = OptStats::default();
        forward_memory(&mut b, OptPolicy::Verified, &mut stats);
        assert_eq!(stats.stores_eliminated, 1);
        assert_eq!(b.count_ops(|o| matches!(o, TcgOp::St { .. })), 1);
        check_equivalent(&orig, &b);
    }

    /// `St addr, 1; Fence(f); St addr, 2` — may the first store go?
    fn waw_across(f: FenceKind, policy: OptPolicy) -> usize {
        let mut b =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        let addr = b.new_temp();
        let v1 = b.new_temp();
        let v2 = b.new_temp();
        b.ops = vec![
            TcgOp::GetReg { dst: addr, reg: 7 },
            TcgOp::MovI { dst: v1, val: 1 },
            TcgOp::MovI { dst: v2, val: 2 },
            TcgOp::St { addr, src: v1 },
            TcgOp::Fence(f),
            TcgOp::St { addr, src: v2 },
        ];
        let mut stats = OptStats::default();
        forward_memory(&mut b, policy, &mut stats);
        stats.stores_eliminated
    }

    #[test]
    fn waw_only_crosses_read_predecessor_fences() {
        use FenceKind::*;
        // Sound: the fence orders nothing the deleted write participates
        // in (read-only predecessor class).
        for f in [Frr, Frw, Frm] {
            assert_eq!(waw_across(f, OptPolicy::Verified), 1, "{f:?} blocks a sound WAW");
        }
        // Unsound: the deleted write is in the fence's predecessor class —
        // in particular Fww, which the pre-fix RAR predicate wrongly
        // allowed (single-threaded evaluation cannot see the difference;
        // tests/opt_soundness.rs shows the multi-threaded counterexample).
        for f in [Fwr, Fww, Fwm, Fmr, Fmw, Fmm, Fsc] {
            assert_eq!(waw_across(f, OptPolicy::Verified), 0, "{f:?} must block WAW");
        }
        // The QEMU policy ignores fences entirely — that is the modelled
        // unsoundness, not a bug.
        assert_eq!(waw_across(Fmm, OptPolicy::QemuUnsound), 1);
    }

    #[test]
    fn rar_forwarding_aliases_loads() {
        let mut b =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        let addr = b.new_temp();
        let l1 = b.new_temp();
        let l2 = b.new_temp();
        b.ops = vec![
            TcgOp::GetReg { dst: addr, reg: 7 },
            TcgOp::Ld { dst: l1, addr },
            TcgOp::Ld { dst: l2, addr },
            TcgOp::SetReg { reg: 0, src: l1 },
            TcgOp::SetReg { reg: 1, src: l2 },
        ];
        let orig = b.clone();
        let mut stats = OptStats::default();
        forward_memory(&mut b, OptPolicy::Verified, &mut stats);
        assert_eq!(stats.loads_forwarded, 1);
        check_equivalent(&orig, &b);
    }

    #[test]
    fn fence_merging_reproduces_section_6_1() {
        // a = X; Y = 1 under the verified mapping: ld; Frm; Fww; st —
        // the Frm/Fww pair merges into one full fence.
        let mut b = translate(
            |a| {
                a.load(Gpr::RAX, Gpr::RDI, 0);
                a.store(Gpr::RSI, 0, Gpr::RAX);
                a.hlt();
            },
            FrontendConfig::risotto(),
        );
        let orig = b.clone();
        let merged = merge_fences(&mut b);
        assert_eq!(merged, 1);
        assert_eq!(b.count_ops(|o| matches!(o, TcgOp::Fence(_))), 1);
        // The merged fence is Fmm (≡ DMB FF on Arm, like the paper's Fsc).
        assert_eq!(b.count_fences(FenceKind::Fmm), 1);
        check_equivalent(&orig, &b);
    }

    #[test]
    fn fences_do_not_merge_across_memory_accesses() {
        let mut b = translate(
            |a| {
                a.load(Gpr::RAX, Gpr::RDI, 0);
                a.load(Gpr::RBX, Gpr::RSI, 0);
                a.hlt();
            },
            FrontendConfig::risotto(),
        );
        let merged = merge_fences(&mut b);
        assert_eq!(merged, 0, "Frm · Ld · Frm must not merge");
        assert_eq!(b.count_fences(FenceKind::Frm), 2);
    }

    /// `Fence(Frm); <mid ops>; Fence(Fww)` in a hand-built block: how
    /// many fences merge away?
    fn merge_with_between(mk_mid: impl FnOnce(&mut TcgBlock) -> Vec<TcgOp>) -> usize {
        let mut b =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        let mid = mk_mid(&mut b);
        b.ops = vec![TcgOp::Fence(FenceKind::Frm)];
        b.ops.extend(mid);
        b.ops.push(TcgOp::Fence(FenceKind::Fww));
        merge_fences(&mut b)
    }

    #[test]
    fn fences_merge_across_non_memory_ops_only() {
        // Pure register traffic between the fences: still mergeable.
        assert_eq!(
            merge_with_between(|b| {
                let t = b.new_temp();
                vec![TcgOp::MovI { dst: t, val: 9 }, TcgOp::SetReg { reg: 3, src: t }]
            }),
            1,
            "non-memory ops must not break a fence run"
        );
    }

    #[test]
    fn fences_do_not_merge_across_helper_calls() {
        // A helper can touch arbitrary memory (CmpxchgSc *is* an access):
        // merging the surrounding fences past it would reorder its
        // accesses out of their fence classes.
        assert_eq!(
            merge_with_between(|b| {
                let a = b.new_temp();
                let e = b.new_temp();
                let n = b.new_temp();
                let r = b.new_temp();
                vec![
                    TcgOp::GetReg { dst: a, reg: 7 },
                    TcgOp::GetReg { dst: e, reg: 0 },
                    TcgOp::GetReg { dst: n, reg: 1 },
                    TcgOp::CallHelper {
                        helper: Helper::CmpxchgSc,
                        args: vec![a, e, n],
                        ret: Some(r),
                    },
                ]
            }),
            0,
            "CallHelper is a memory access for fence merging"
        );
    }

    #[test]
    fn fences_do_not_merge_across_cas() {
        assert_eq!(
            merge_with_between(|b| {
                let a = b.new_temp();
                let e = b.new_temp();
                let n = b.new_temp();
                let d = b.new_temp();
                vec![
                    TcgOp::GetReg { dst: a, reg: 7 },
                    TcgOp::GetReg { dst: e, reg: 0 },
                    TcgOp::GetReg { dst: n, reg: 1 },
                    TcgOp::Cas { dst: d, addr: a, expect: e, new: n },
                ]
            }),
            0,
            "Cas is a memory access for fence merging"
        );
    }

    #[test]
    fn full_pipeline_on_realistic_block() {
        let mut b = translate(
            |a| {
                a.mov_ri(Gpr::RDI, 0x4000);
                a.load(Gpr::RAX, Gpr::RDI, 0);
                a.alu_ri(AluOp::Add, Gpr::RAX, 5);
                a.store(Gpr::RDI, 8, Gpr::RAX);
                a.alu_ri(AluOp::Mul, Gpr::RBX, 0); // false dependency
                a.cmp_ri(Gpr::RAX, 0);
                a.jcc_to(risotto_guest_x86::Cond::E, "out");
                a.label("out");
                a.hlt();
            },
            FrontendConfig::risotto(),
        );
        let orig = b.clone();
        let before = b.ops.len();
        let stats = optimize(&mut b, OptPolicy::Verified);
        assert!(b.ops.len() < before, "pipeline should shrink the block");
        assert!(stats.folded > 0);
        check_equivalent(&orig, &b);
        // The false dependency rbx*0 folded to a plain constant.
        assert!(!b.ops.iter().any(|o| matches!(o, TcgOp::Bin { op: crate::ir::BinOp::Mul, .. })));
    }
}
