//! The TCG-style intermediate representation.
//!
//! Guest basic blocks are translated into [`TcgBlock`]s: straight-line
//! sequences of [`TcgOp`]s over virtual temporaries, ending in a
//! [`TbExit`]. Guest CPU state (16 GPRs + 4 flags) lives in an "env" that
//! `GetReg`/`SetReg` access; shared memory is reached through `Ld`/`St`,
//! the `Cas`/`AtomicAdd` RMW ops (Risotto's §6.3 fast path), helper calls
//! (QEMU's RMW/soft-float path) and the nine-fence TCG barrier alphabet of
//! the paper's Fig. 6.

use risotto_memmodel::FenceKind;
use std::fmt;

/// A virtual temporary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Temp(pub u32);

/// Guest-state register indices (the "env").
pub mod env {
    /// First GPR index (RAX). GPR `i` is env register `i`.
    pub const GPR0: u8 = 0;
    /// Zero flag.
    pub const ZF: u8 = 16;
    /// Sign flag.
    pub const SF: u8 = 17;
    /// Carry flag.
    pub const CF: u8 = 18;
    /// Overflow flag.
    pub const OF: u8 = 19;
    /// Number of env registers.
    pub const COUNT: usize = 20;
}

/// Binary operations on temps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (count masked).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Wrapping multiplication.
    Mul,
    /// High 64 bits of the unsigned 128-bit product.
    MulHi,
    /// Unsigned division (x ÷ 0 = 0).
    Divu,
    /// Unsigned remainder (x mod 0 = x).
    Remu,
}

impl BinOp {
    /// Applies the operation.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Sar => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::MulHi => ((a as u128 * b as u128) >> 64) as u64,
            BinOp::Divu => a.checked_div(b).unwrap_or(0),
            BinOp::Remu => a.checked_rem(b).unwrap_or(a),
        }
    }
}

/// Comparison conditions for `Setcond`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CondOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    LtU,
    /// Signed less-than.
    LtS,
}

impl CondOp {
    /// Evaluates to 1 or 0.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        let r = match self {
            CondOp::Eq => a == b,
            CondOp::Ne => a != b,
            CondOp::LtU => a < b,
            CondOp::LtS => (a as i64) < (b as i64),
        };
        r as u64
    }
}

/// Runtime helper functions (QEMU-style out-of-line code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Helper {
    /// Sequentially consistent compare-and-swap; returns the old value.
    /// args: `[addr, expected, new]`.
    CmpxchgSc,
    /// Sequentially consistent fetch-and-add; returns the old value.
    /// args: `[addr, addend]`.
    XaddSc,
    /// Soft-float f64 binary op; args `[a, b]`, bit patterns.
    FpAdd,
    /// Soft-float subtraction.
    FpSub,
    /// Soft-float multiplication.
    FpMul,
    /// Soft-float division.
    FpDiv,
    /// Soft-float square root of `args[1]`.
    FpSqrt,
    /// Int → f64 conversion of `args[1]`.
    FpCvtIF,
    /// f64 → int conversion of `args[1]`.
    FpCvtFI,
}

/// One IR operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcgOp {
    /// `dst = imm`.
    MovI {
        /// Destination temp.
        dst: Temp,
        /// Immediate value.
        val: u64,
    },
    /// `dst = src`.
    Mov {
        /// Destination temp.
        dst: Temp,
        /// Source temp.
        src: Temp,
    },
    /// `dst = env[reg]`.
    GetReg {
        /// Destination temp.
        dst: Temp,
        /// Env register index.
        reg: u8,
    },
    /// `env[reg] = src`.
    SetReg {
        /// Env register index.
        reg: u8,
        /// Source temp.
        src: Temp,
    },
    /// `dst = *addr` (shared memory, 64-bit).
    Ld {
        /// Destination temp.
        dst: Temp,
        /// Address temp.
        addr: Temp,
    },
    /// `*addr = src`.
    St {
        /// Address temp.
        addr: Temp,
        /// Source temp.
        src: Temp,
    },
    /// `dst = zero_extend(*(u8*)addr)`.
    Ld8 {
        /// Destination temp.
        dst: Temp,
        /// Address temp.
        addr: Temp,
    },
    /// `*(u8*)addr = low8(src)`.
    St8 {
        /// Address temp.
        addr: Temp,
        /// Source temp.
        src: Temp,
    },
    /// `dst = a op b`.
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination.
        dst: Temp,
        /// Left operand.
        a: Temp,
        /// Right operand.
        b: Temp,
    },
    /// `dst = (a cond b) ? 1 : 0`.
    Setcond {
        /// Condition.
        cond: CondOp,
        /// Destination.
        dst: Temp,
        /// Left operand.
        a: Temp,
        /// Right operand.
        b: Temp,
    },
    /// A TCG memory fence (must satisfy [`FenceKind::is_tcg`]).
    Fence(FenceKind),
    /// Risotto's direct CAS op (§6.3): `dst = *addr; if dst == expect
    /// { *addr = new }`, SC semantics.
    Cas {
        /// Receives the old value.
        dst: Temp,
        /// Address.
        addr: Temp,
        /// Expected value.
        expect: Temp,
        /// Replacement value.
        new: Temp,
    },
    /// Atomic fetch-and-add with SC semantics: `dst = *addr; *addr += val`.
    AtomicAdd {
        /// Receives the old value.
        dst: Temp,
        /// Address.
        addr: Temp,
        /// Addend.
        val: Temp,
    },
    /// Out-of-line helper call (QEMU path for RMWs and soft-float).
    CallHelper {
        /// Which helper.
        helper: Helper,
        /// Arguments.
        args: Vec<Temp>,
        /// Optional result.
        ret: Option<Temp>,
    },
    /// Superblock guard: leave the trace at `target` unless `flag`'s
    /// truth matches the profiled direction. Only the superblock
    /// stitcher emits this (from a constituent block's `CondJump`); it
    /// never appears in tier-1 blocks. The optimizer treats it as a
    /// partial barrier: env state and earlier stores must be
    /// architecturally complete here (the off-trace continuation
    /// observes them), but fences may still merge across it
    /// (strengthening the exit path is sound).
    SideExit {
        /// Condition temp (0 or 1) from the original `CondJump`.
        flag: Temp,
        /// Execution stays on the trace when `(flag != 0) == stay_if`.
        stay_if: bool,
        /// Guest pc of the off-trace continuation.
        target: u64,
    },
    /// Seam left where two translation blocks were stitched into a
    /// superblock. Generates no host code; kept so cross-boundary
    /// optimizations are attributable (and countable) in stats.
    TbBoundary {
        /// Guest pc of the block that starts here.
        pc: u64,
    },
}

impl TcgOp {
    /// The temp this op defines, if any.
    pub fn def(&self) -> Option<Temp> {
        match self {
            TcgOp::MovI { dst, .. }
            | TcgOp::Mov { dst, .. }
            | TcgOp::GetReg { dst, .. }
            | TcgOp::Ld { dst, .. }
            | TcgOp::Ld8 { dst, .. }
            | TcgOp::Bin { dst, .. }
            | TcgOp::Setcond { dst, .. }
            | TcgOp::Cas { dst, .. }
            | TcgOp::AtomicAdd { dst, .. } => Some(*dst),
            TcgOp::CallHelper { ret, .. } => *ret,
            TcgOp::SetReg { .. }
            | TcgOp::St { .. }
            | TcgOp::St8 { .. }
            | TcgOp::Fence(_)
            | TcgOp::SideExit { .. }
            | TcgOp::TbBoundary { .. } => None,
        }
    }

    /// Calls `f` on every temp this op reads, in operand order (a temp
    /// read twice is visited twice). Allocation-free: the optimizer,
    /// the register allocator's liveness prepass and the IR lint walk
    /// every op of every block through this.
    pub fn for_each_use(&self, mut f: impl FnMut(Temp)) {
        match self {
            TcgOp::MovI { .. }
            | TcgOp::GetReg { .. }
            | TcgOp::Fence(_)
            | TcgOp::TbBoundary { .. } => {}
            TcgOp::SideExit { flag, .. } => f(*flag),
            TcgOp::Mov { src, .. } | TcgOp::SetReg { src, .. } => f(*src),
            TcgOp::Ld { addr, .. } | TcgOp::Ld8 { addr, .. } => f(*addr),
            TcgOp::St { addr, src } | TcgOp::St8 { addr, src } => {
                f(*addr);
                f(*src);
            }
            TcgOp::Bin { a, b, .. } | TcgOp::Setcond { a, b, .. } => {
                f(*a);
                f(*b);
            }
            TcgOp::Cas { addr, expect, new, .. } => {
                f(*addr);
                f(*expect);
                f(*new);
            }
            TcgOp::AtomicAdd { addr, val, .. } => {
                f(*addr);
                f(*val);
            }
            TcgOp::CallHelper { args, .. } => args.iter().copied().for_each(f),
        }
    }

    /// `true` if the op touches shared memory or guest state, calls out,
    /// or is a fence — i.e. must not be dead-code-eliminated even if its
    /// result is unused. (Plain `Ld`s *are* removable: irrelevant-read
    /// elimination is sound in the TCG model.)
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            TcgOp::SetReg { .. }
                | TcgOp::St { .. }
                | TcgOp::St8 { .. }
                | TcgOp::Fence(_)
                | TcgOp::Cas { .. }
                | TcgOp::AtomicAdd { .. }
                | TcgOp::CallHelper { .. }
                | TcgOp::SideExit { .. }
                | TcgOp::TbBoundary { .. }
        )
    }

    /// `true` for shared-memory access ops (used by the fence merger:
    /// fences may only merge when no access sits between them).
    pub fn is_memory_access(&self) -> bool {
        matches!(
            self,
            TcgOp::Ld { .. }
                | TcgOp::St { .. }
                | TcgOp::Ld8 { .. }
                | TcgOp::St8 { .. }
                | TcgOp::Cas { .. }
                | TcgOp::AtomicAdd { .. }
                | TcgOp::CallHelper { .. }
        )
    }
}

/// How a translation block ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TbExit {
    /// Fall through / jump to a known guest pc.
    Jump(u64),
    /// Indirect jump to the address in a temp.
    JumpReg(Temp),
    /// Conditional: if `flag != 0` go to `taken`, else `fallthrough`.
    CondJump {
        /// Condition temp (0 or 1).
        flag: Temp,
        /// Target when non-zero.
        taken: u64,
        /// Target when zero.
        fallthrough: u64,
    },
    /// Guest executed `HLT`.
    Halt,
    /// Guest executed `SYSCALL`; the engine services it and resumes at the
    /// given pc.
    Syscall {
        /// Resume pc.
        next: u64,
    },
}

/// A translated basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcgBlock {
    /// Guest pc of the first instruction.
    pub guest_pc: u64,
    /// Number of guest bytes consumed.
    pub guest_len: usize,
    /// The operations.
    pub ops: Vec<TcgOp>,
    /// Block exit.
    pub exit: TbExit,
    /// Number of temps allocated (`Temp(0)..Temp(n_temps)`).
    pub n_temps: u32,
}

impl TbExit {
    /// The temp this exit reads, if any.
    pub fn use_temp(&self) -> Option<Temp> {
        match self {
            TbExit::JumpReg(t) | TbExit::CondJump { flag: t, .. } => Some(*t),
            TbExit::Jump(_) | TbExit::Halt | TbExit::Syscall { .. } => None,
        }
    }
}

impl TcgBlock {
    /// The size every dense per-temp table of a pass over this block
    /// needs: the larger of `n_temps` and one past the largest temp any
    /// op or the exit references. Equal to `n_temps` for well-formed
    /// blocks; passes size by this rather than trusting `n_temps`, so a
    /// block that under-reports it cannot index out of bounds.
    pub fn temp_bound(&self) -> usize {
        let mut bound = self.n_temps as usize;
        let mut note = |t: Temp| bound = bound.max(t.0 as usize + 1);
        for op in &self.ops {
            op.for_each_use(&mut note);
            if let Some(d) = op.def() {
                note(d);
            }
        }
        if let Some(t) = self.exit.use_temp() {
            note(t);
        }
        bound
    }

    /// Allocates a fresh temp.
    pub fn new_temp(&mut self) -> Temp {
        let t = Temp(self.n_temps);
        self.n_temps += 1;
        t
    }

    /// Counts ops matching a predicate (handy in tests and stats).
    pub fn count_ops<F: Fn(&TcgOp) -> bool>(&self, pred: F) -> usize {
        self.ops.iter().filter(|o| pred(o)).count()
    }

    /// Counts fence ops of a given kind.
    pub fn count_fences(&self, kind: FenceKind) -> usize {
        self.count_ops(|o| matches!(o, TcgOp::Fence(k) if *k == kind))
    }
}

impl fmt::Display for TcgBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TB @ {:#x} ({} guest bytes):", self.guest_pc, self.guest_len)?;
        for op in &self.ops {
            writeln!(f, "  {op:?}")?;
        }
        writeln!(f, "  exit: {:?}", self.exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uses(op: &TcgOp) -> Vec<Temp> {
        let mut out = Vec::new();
        op.for_each_use(|t| out.push(t));
        out
    }

    #[test]
    fn def_use_classification() {
        let op = TcgOp::Bin { op: BinOp::Add, dst: Temp(2), a: Temp(0), b: Temp(1) };
        assert_eq!(op.def(), Some(Temp(2)));
        assert_eq!(uses(&op), vec![Temp(0), Temp(1)]);
        assert!(!op.has_side_effect());
        let st = TcgOp::St { addr: Temp(0), src: Temp(1) };
        assert!(st.has_side_effect());
        assert!(st.is_memory_access());
        assert_eq!(st.def(), None);
        let ld = TcgOp::Ld { dst: Temp(3), addr: Temp(0) };
        assert!(!ld.has_side_effect(), "irrelevant loads are removable");
        assert!(ld.is_memory_access());
    }

    #[test]
    fn superblock_marker_classification() {
        let se = TcgOp::SideExit { flag: Temp(4), stay_if: true, target: 0x2000 };
        assert_eq!(se.def(), None);
        assert_eq!(uses(&se), vec![Temp(4)], "guard flag must stay live");
        assert!(se.has_side_effect(), "side exits are never DCE'd");
        assert!(!se.is_memory_access(), "fences may merge across a side exit");
        let tb = TcgOp::TbBoundary { pc: 0x2000 };
        assert_eq!(tb.def(), None);
        assert!(uses(&tb).is_empty());
        assert!(tb.has_side_effect());
        assert!(!tb.is_memory_access(), "seams don't block fence merging");
    }

    #[test]
    fn binop_semantics_match_guest() {
        assert_eq!(BinOp::Divu.apply(10, 0), 0);
        assert_eq!(BinOp::Remu.apply(10, 0), 10);
        assert_eq!(BinOp::Sar.apply(u64::MAX, 1), u64::MAX);
        assert_eq!(BinOp::Shl.apply(1, 64), 1, "masked count");
        assert_eq!(CondOp::LtS.apply(u64::MAX, 0), 1);
        assert_eq!(CondOp::LtU.apply(u64::MAX, 0), 0);
    }

    #[test]
    fn temp_bound_covers_every_referenced_temp() {
        let mut b = TcgBlock {
            guest_pc: 0,
            guest_len: 0,
            ops: vec![TcgOp::Mov { dst: Temp(1), src: Temp(0) }],
            exit: TbExit::Halt,
            n_temps: 2,
        };
        assert_eq!(b.temp_bound(), 2, "a correctly counted block is bounded by n_temps");
        b.n_temps = 0;
        assert_eq!(b.temp_bound(), 2, "an under-reporting block is bounded by its defs");
        b.exit = TbExit::JumpReg(Temp(5));
        assert_eq!(b.temp_bound(), 6, "the exit's temp counts too");
        b.n_temps = 9;
        assert_eq!(b.temp_bound(), 9);
    }

    #[test]
    fn temp_allocation() {
        let mut b =
            TcgBlock { guest_pc: 0, guest_len: 0, ops: vec![], exit: TbExit::Halt, n_temps: 0 };
        assert_eq!(b.new_temp(), Temp(0));
        assert_eq!(b.new_temp(), Temp(1));
        assert_eq!(b.n_temps, 2);
    }
}
