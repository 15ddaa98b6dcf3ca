//! Guest lint pass: static smells over the recovered image.
//!
//! Four lint kinds, all engineered for **zero false positives** on
//! well-formed programs (the CI gate asserts a clean 16-kernel corpus):
//!
//! * [`LintKind::UnreachableCode`] — text bytes no reachable block
//!   covers. Suppressed entirely when the CFG has unresolved
//!   indirection (coverage is then a lower bound, not a fact).
//! * [`LintKind::MisalignedAtomic`] — an RMW whose address is a static
//!   singleton not 8-byte aligned. Only fires on singletons: hulls and
//!   wild addresses prove nothing.
//! * [`LintKind::MixedSizeAtomic`] — an RMW cell definitely overlapped
//!   by a byte-sized access elsewhere (both addresses singletons).
//!   Mixed-size concurrent access is the classic weak-memory trap the
//!   paper's fence schemes cannot paper over.
//! * [`LintKind::FenceBeforeExit`] — an `mfence` after which no memory
//!   access can execute before the core exits: the fence orders
//!   nothing. Detected with a backward may-access-after dataflow over
//!   the CFG ([`crate::dataflow::solve_on_graph`]); `ret`, unresolved
//!   indirection and undecodable terminators are conservatively "may
//!   access", so the lint never fires on uncertain continuations.

use crate::cfg::{Cfg, Term};
use crate::dataflow::{solve_on_graph, Direction, Lattice};
use crate::escape::{AccessKind, EscapeFacts, Region};
use risotto_guest_x86::{syscalls, Gpr, GuestBinary, Insn, TEXT_BASE};

/// What a lint finding complains about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintKind {
    /// Bytes in the text section no reachable block covers.
    UnreachableCode,
    /// An RMW on a non-8-byte-aligned address.
    MisalignedAtomic,
    /// An RMW cell also touched by a byte-sized access.
    MixedSizeAtomic,
    /// An `mfence` with no later memory access to order.
    FenceBeforeExit,
}

impl LintKind {
    /// Stable lowercase tag (used in JSON reports).
    pub fn tag(&self) -> &'static str {
        match self {
            LintKind::UnreachableCode => "unreachable-code",
            LintKind::MisalignedAtomic => "misaligned-atomic",
            LintKind::MixedSizeAtomic => "mixed-size-atomic",
            LintKind::FenceBeforeExit => "fence-before-exit",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The lint that fired.
    pub kind: LintKind,
    /// Guest pc the finding anchors to (gap start for unreachable code).
    pub pc: u64,
    /// Byte length of the region (gap size; instruction length
    /// otherwise is reported as 0 — the pc identifies the site).
    pub len: u64,
    /// Human-readable detail.
    pub detail: String,
}

/// May-access-after flag for the backward fence lint.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct MayAccess(bool);

impl Lattice for MayAccess {
    fn join_from(&mut self, other: &Self) -> bool {
        let changed = other.0 && !self.0;
        self.0 |= other.0;
        changed
    }
}

/// Does this instruction touch guest memory (including the stack)?
fn touches_memory(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Load { .. }
            | Insn::LoadB { .. }
            | Insn::Store { .. }
            | Insn::StoreB { .. }
            | Insn::Push { .. }
            | Insn::Pop { .. }
            | Insn::LockCmpxchg { .. }
            | Insn::LockXadd { .. }
            | Insn::Call { .. }
            | Insn::CallReg { .. }
            | Insn::Ret
    )
}

/// Does this instruction clobber `RAX` (other than `mov rax, imm`)?
fn kills_rax(insn: &Insn) -> bool {
    match *insn {
        Insn::MovRR { dst, .. }
        | Insn::Load { dst, .. }
        | Insn::LoadB { dst, .. }
        | Insn::Lea { dst, .. }
        | Insn::Pop { dst }
        | Insn::Alu { dst, .. }
        | Insn::Fp { dst, .. } => dst == Gpr::RAX,
        Insn::MulWide { .. } | Insn::Div { .. } | Insn::LockCmpxchg { .. } => true,
        Insn::LockXadd { src, .. } => src == Gpr::RAX,
        _ => false,
    }
}

/// Block-local constant scan for the syscall number at a syscall
/// terminator (same discipline as CFG recovery).
fn syscall_nr(block: &crate::cfg::Block) -> Option<u64> {
    let mut rax: Option<u64> = None;
    for ci in &block.insns {
        match ci.insn {
            Insn::MovRI { dst, imm } if dst == Gpr::RAX => rax = Some(imm),
            Insn::Syscall => return rax,
            ref other => {
                if kills_rax(other) {
                    rax = None;
                }
            }
        }
    }
    rax
}

/// Runs all lints.
pub fn lint(bin: &GuestBinary, cfg: &Cfg, facts: &EscapeFacts) -> Vec<Finding> {
    let mut out = Vec::new();
    let reachable = cfg.reachable();

    // --- Unreachable code: byte-coverage gaps. ---
    if !cfg.unresolved {
        let mut covered: Vec<(u64, u64)> = reachable
            .iter()
            .filter_map(|pc| cfg.blocks.get(pc))
            .map(|b| (b.start, b.end()))
            .collect();
        covered.sort_unstable();
        let text_end = TEXT_BASE + bin.text.len() as u64;
        let mut cursor = TEXT_BASE;
        for (s, e) in covered {
            if s > cursor {
                out.push(Finding {
                    kind: LintKind::UnreachableCode,
                    pc: cursor,
                    len: s - cursor,
                    detail: format!("{} unreachable text bytes", s - cursor),
                });
            }
            cursor = cursor.max(e);
        }
        if cursor < text_end {
            out.push(Finding {
                kind: LintKind::UnreachableCode,
                pc: cursor,
                len: text_end - cursor,
                detail: format!("{} unreachable text bytes", text_end - cursor),
            });
        }
    }

    // --- Misaligned + mixed-size atomics (singleton evidence only). ---
    let singleton = |r: Region| match r {
        Region::Abs(lo, hi) => (lo == hi || hi == lo + 7).then_some(lo),
        _ => None,
    };
    for (&pc, site) in &facts.sites {
        if site.kind != AccessKind::Atomic {
            continue;
        }
        let Some(addr) = singleton(site.region) else { continue };
        if addr % 8 != 0 {
            out.push(Finding {
                kind: LintKind::MisalignedAtomic,
                pc,
                len: 0,
                detail: format!("atomic at {addr:#x} is not 8-byte aligned"),
            });
        }
        for (&other_pc, other) in &facts.sites {
            if other_pc == pc || other.width != 1 {
                continue;
            }
            if let Region::Abs(b_lo, b_hi) = other.region {
                if b_lo == b_hi && b_lo >= addr && b_lo < addr + 8 {
                    out.push(Finding {
                        kind: LintKind::MixedSizeAtomic,
                        pc,
                        len: 0,
                        detail: format!(
                            "atomic cell {addr:#x} overlapped by byte access at {other_pc:#x}"
                        ),
                    });
                }
            }
        }
    }

    // --- Fence-before-exit: backward may-access-after analysis. ---
    let succs = cfg.direct_succs();
    // Seed every block with its terminator's conservatism: unresolved
    // continuations and memory-touching terminators count as accesses.
    let seeds: Vec<(u64, MayAccess)> = cfg
        .blocks
        .iter()
        .map(|(&start, b)| {
            let term_access = match b.term {
                Term::Ret | Term::Indirect { .. } | Term::Bad => true,
                Term::Call { .. } => true, // pushes the return address
                Term::Syscall { .. } => match syscall_nr(b) {
                    Some(syscalls::EXIT) => false,
                    Some(syscalls::SPAWN) | Some(syscalls::JOIN) | Some(syscalls::GETTID) => false,
                    // WRITE reads its buffer; unknown numbers are
                    // conservatively accesses.
                    _ => true,
                },
                _ => false,
            };
            (start, MayAccess(term_access))
        })
        .collect();
    let sol = solve_on_graph(
        &succs,
        Direction::Backward,
        &seeds,
        |node, input: &MayAccess| {
            let has = cfg
                .blocks
                .get(&node)
                .map(|b| b.insns.iter().any(|ci| touches_memory(&ci.insn)))
                .unwrap_or(true);
            MayAccess(has || input.0)
        },
        100_000,
    );
    if !sol.hit_limit {
        for &start in &reachable {
            let Some(b) = cfg.blocks.get(&start) else { continue };
            // Can any access still execute once this block's straight-
            // line part is done? The backward fixpoint input at the
            // block already joins the terminator seed with every
            // successor's at-or-after flag.
            let after_block = sol.inputs.get(&start).map(|m| m.0).unwrap_or(true);
            // Walk backwards through the block: a fence is dead iff no
            // access follows it inside the block and none after.
            let mut access_after = after_block;
            for ci in b.insns.iter().rev() {
                match ci.insn {
                    Insn::Mfence if !access_after => {
                        out.push(Finding {
                            kind: LintKind::FenceBeforeExit,
                            pc: ci.pc,
                            len: 0,
                            detail: "mfence with no later memory access before exit".into(),
                        });
                    }
                    ref i if touches_memory(i) => access_after = true,
                    _ => {}
                }
            }
        }
    }

    out.sort_by_key(|f| (f.pc, f.kind));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::recover;
    use crate::escape;
    use risotto_guest_x86::GelfBuilder;

    fn run(build: impl FnOnce(&mut GelfBuilder)) -> Vec<Finding> {
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        build(&mut b);
        let bin = b.finish().expect("valid image");
        let cfg = recover(&bin);
        let facts = escape::analyze(&bin, &cfg);
        lint(&bin, &cfg, &facts)
    }

    #[test]
    fn clean_program_has_no_findings() {
        let findings = run(|b| {
            let cell = b.data_u64(&[0]);
            let a = &mut b.asm;
            a.mov_ri(Gpr::RBX, cell);
            a.mov_ri(Gpr::RAX, 1);
            a.store(Gpr::RBX, 0, Gpr::RAX);
            a.mfence();
            a.load(Gpr::RCX, Gpr::RBX, 0);
            a.mov_ri(Gpr::RAX, syscalls::EXIT);
            a.mov_ri(Gpr::RDI, 0);
            a.syscall();
        });
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn dead_code_after_exit_is_flagged() {
        let findings = run(|b| {
            let a = &mut b.asm;
            a.mov_ri(Gpr::RAX, syscalls::EXIT);
            a.mov_ri(Gpr::RDI, 0);
            a.syscall();
            // Never reached: nothing jumps here.
            a.mov_ri(Gpr::RBX, 1);
            a.hlt();
        });
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, LintKind::UnreachableCode);
        assert!(findings[0].len > 0);
    }

    #[test]
    fn misaligned_atomic_is_flagged() {
        let findings = run(|b| {
            let cell = b.data_u64(&[0, 0]);
            let a = &mut b.asm;
            a.mov_ri(Gpr::RBX, cell + 4); // straddles the cell boundary
            a.mov_ri(Gpr::RCX, 1);
            a.insn(Insn::LockXadd { base: Gpr::RBX, disp: 0, src: Gpr::RCX });
            a.hlt();
        });
        assert!(findings.iter().any(|f| f.kind == LintKind::MisalignedAtomic));
    }

    #[test]
    fn mixed_size_atomic_is_flagged() {
        let findings = run(|b| {
            let cell = b.data_u64(&[0]);
            let a = &mut b.asm;
            a.mov_ri(Gpr::RBX, cell);
            a.mov_ri(Gpr::RCX, 1);
            a.insn(Insn::LockXadd { base: Gpr::RBX, disp: 0, src: Gpr::RCX });
            a.load_b(Gpr::RDX, Gpr::RBX, 2); // byte poke inside the cell
            a.hlt();
        });
        assert!(findings.iter().any(|f| f.kind == LintKind::MixedSizeAtomic));
    }

    #[test]
    fn fence_before_exit_is_flagged() {
        let findings = run(|b| {
            let cell = b.data_u64(&[0]);
            let a = &mut b.asm;
            a.mov_ri(Gpr::RBX, cell);
            a.mov_ri(Gpr::RAX, 1);
            a.store(Gpr::RBX, 0, Gpr::RAX);
            a.mfence(); // nothing to order: only the exit follows
            a.mov_ri(Gpr::RAX, syscalls::EXIT);
            a.mov_ri(Gpr::RDI, 0);
            a.syscall();
        });
        assert!(findings.iter().any(|f| f.kind == LintKind::FenceBeforeExit));
    }

    #[test]
    fn fence_is_not_flagged_when_a_later_path_accesses() {
        let findings = run(|b| {
            let cell = b.data_u64(&[0]);
            let a = &mut b.asm;
            a.mov_ri(Gpr::RBX, cell);
            a.mfence();
            a.cmp_ri(Gpr::RDI, 0);
            a.jcc_to(risotto_guest_x86::Cond::E, "skip");
            a.load(Gpr::RCX, Gpr::RBX, 0); // one successor path accesses
            a.label("skip");
            a.mov_ri(Gpr::RAX, syscalls::EXIT);
            a.mov_ri(Gpr::RDI, 0);
            a.syscall();
        });
        assert!(
            !findings.iter().any(|f| f.kind == LintKind::FenceBeforeExit),
            "findings: {findings:?}"
        );
    }
}
