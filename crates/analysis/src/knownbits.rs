//! Known-bits / value-range analysis over a single TCG block.
//!
//! A forward abstract interpretation of the block's op list tracking,
//! per temp **and per guest env register**, an unsigned interval
//! `[lo, hi]` plus a known-zero-bits mask. Tracking env slots is the
//! point: the frontend materializes flags with `SetReg`/`GetReg`
//! round-trips, so deciding a conditional exit requires following
//! values through the env, which the peephole constant folder in
//! `risotto_tcg::opt` cannot do (it only sees `MovI` feeding `Bin`).
//!
//! The result is an [`IrHints`]: temps proven to hold a single value
//! (fed to `apply_hints` for stronger constant folding) and, when the
//! exit condition itself is decided, a dead-branch pruning hint.
//!
//! Soundness: every transfer over-approximates the concrete op
//! semantics in `BinOp::apply` / `CondOp::apply` (including the
//! divide-by-zero and shift-masking conventions), so a singleton means
//! the op *always* produces that value and replacing it with `MovI` is
//! behavior-preserving.

use risotto_tcg::{env, BinOp, CondOp, IrHints, TbExit, TcgBlock, TcgOp, Temp};

/// Known bits + unsigned range for one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kb {
    /// Smallest possible value.
    pub lo: u64,
    /// Largest possible value.
    pub hi: u64,
    /// Mask of bits known to be zero.
    pub zeros: u64,
}

impl Kb {
    /// Completely unknown.
    pub const TOP: Kb = Kb { lo: 0, hi: u64::MAX, zeros: 0 };

    /// Exactly `v`.
    pub fn constant(v: u64) -> Kb {
        Kb { lo: v, hi: v, zeros: !v }
    }

    /// An inclusive range `[lo, hi]`.
    pub fn range(lo: u64, hi: u64) -> Kb {
        Kb { lo, hi, zeros: 0 }.normalized()
    }

    /// The single possible value, if any.
    pub fn singleton(self) -> Option<u64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Tightens the two representations against each other: bits above
    /// the range's msb are zero, and the known-zero mask caps the range.
    fn normalized(mut self) -> Kb {
        if self.hi > 0 {
            let msb = 63 - self.hi.leading_zeros();
            if msb < 63 {
                self.zeros |= !((1u64 << (msb + 1)) - 1);
            }
        } else {
            self.zeros = u64::MAX;
        }
        self.hi = self.hi.min(!self.zeros);
        if self.lo > self.hi {
            // Inconsistent inputs collapse to the only safe answer.
            return Kb::TOP;
        }
        if self.lo == self.hi {
            self.zeros = !self.lo;
        }
        self
    }
}

/// Applies `op` to abstract operands.
fn bin(op: BinOp, a: Kb, b: Kb) -> Kb {
    if let (Some(x), Some(y)) = (a.singleton(), b.singleton()) {
        return Kb::constant(op.apply(x, y));
    }
    match op {
        BinOp::Add => match (a.hi.checked_add(b.hi), a.lo.checked_add(b.lo)) {
            (Some(hi), Some(lo)) => Kb::range(lo, hi),
            _ => Kb::TOP,
        },
        BinOp::Sub => match (a.lo.checked_sub(b.hi), a.hi.checked_sub(b.lo)) {
            (Some(lo), Some(hi)) => Kb::range(lo, hi),
            _ => Kb::TOP,
        },
        BinOp::And => Kb { lo: 0, hi: a.hi.min(b.hi), zeros: a.zeros | b.zeros }.normalized(),
        BinOp::Or => Kb { lo: a.lo.max(b.lo), hi: !(a.zeros & b.zeros), zeros: a.zeros & b.zeros }
            .normalized(),
        BinOp::Xor => Kb { lo: 0, hi: !(a.zeros & b.zeros), zeros: a.zeros & b.zeros }.normalized(),
        BinOp::Shl => match b.singleton() {
            Some(k) => {
                let k = (k & 63) as u32;
                match (a.lo.checked_shl(k), a.hi.checked_shl(k)) {
                    (Some(lo), Some(hi)) if (hi >> k) == a.hi => {
                        Kb { lo, hi, zeros: (a.zeros << k) | ((1u64 << k) - 1) }.normalized()
                    }
                    _ => Kb::TOP,
                }
            }
            None => Kb::TOP,
        },
        BinOp::Shr => match b.singleton() {
            Some(k) => {
                let k = (k & 63) as u32;
                Kb::range(a.lo >> k, a.hi >> k)
            }
            None => Kb::TOP,
        },
        BinOp::Sar => match b.singleton() {
            // Only the non-negative case is tractable.
            Some(k) if a.hi < 1 << 63 => {
                let k = (k & 63) as u32;
                Kb::range(a.lo >> k, a.hi >> k)
            }
            _ => Kb::TOP,
        },
        BinOp::Mul => {
            if (a.hi as u128) * (b.hi as u128) <= u64::MAX as u128 {
                Kb::range(a.lo.wrapping_mul(b.lo), a.hi.wrapping_mul(b.hi))
            } else {
                Kb::TOP
            }
        }
        BinOp::MulHi => {
            if (a.hi as u128) * (b.hi as u128) <= u64::MAX as u128 {
                Kb::constant(0)
            } else {
                Kb::TOP
            }
        }
        BinOp::Divu => match b.singleton() {
            // `apply` defines x/0 = 0.
            Some(0) => Kb::constant(0),
            Some(d) => Kb::range(a.lo / d, a.hi / d),
            None => Kb::TOP,
        },
        BinOp::Remu => match b.singleton() {
            // `apply` defines x%0 = x.
            Some(0) => a,
            Some(d) => Kb::range(0, (d - 1).min(a.hi)),
            None => Kb::TOP,
        },
    }
}

/// Decides `cond` over abstract operands, if possible.
fn setcond(cond: CondOp, a: Kb, b: Kb) -> Kb {
    let eq = if a.hi < b.lo || b.hi < a.lo {
        Some(false)
    } else if a.singleton().is_some() && a.singleton() == b.singleton() {
        Some(true)
    } else {
        None
    };
    let ltu = if a.hi < b.lo {
        Some(true)
    } else if a.lo >= b.hi {
        Some(false)
    } else {
        None
    };
    let no_straddle = (a.hi < 1 << 63 || a.lo >= 1 << 63) && (b.hi < 1 << 63 || b.lo >= 1 << 63);
    let lts = if no_straddle {
        let (al, ah, bl, bh) = (a.lo as i64, a.hi as i64, b.lo as i64, b.hi as i64);
        if ah < bl {
            Some(true)
        } else if al >= bh {
            Some(false)
        } else {
            None
        }
    } else {
        None
    };
    let decided = match cond {
        CondOp::Eq => eq,
        CondOp::Ne => eq.map(|v| !v),
        CondOp::LtU => ltu,
        CondOp::LtS => lts,
    };
    match decided {
        Some(v) => Kb::constant(v as u64),
        None => Kb::range(0, 1),
    }
}

/// Computes constant-folding and branch-pruning hints for one block.
///
/// Run this on the *frontend* output, before the optimizer: hints are
/// matched to ops by their pure def, which optimization may remove.
pub fn ir_hints(block: &TcgBlock) -> IrHints {
    let mut temps: Vec<Kb> = vec![Kb::TOP; block.temp_bound()];
    let mut envs: [Kb; env::COUNT] = [Kb::TOP; env::COUNT];
    let mut hints = IrHints::default();
    let get = |temps: &[Kb], t: Temp| temps[t.0 as usize];
    let set = |temps: &mut [Kb], t: Temp, v: Kb| temps[t.0 as usize] = v;
    for op in &block.ops {
        match op {
            TcgOp::MovI { dst, val } => set(&mut temps, *dst, Kb::constant(*val)),
            TcgOp::Mov { dst, src } => {
                let v = get(&temps, *src);
                set(&mut temps, *dst, v);
            }
            TcgOp::GetReg { dst, reg } => {
                let v = envs.get(*reg as usize).copied().unwrap_or(Kb::TOP);
                set(&mut temps, *dst, v);
            }
            TcgOp::SetReg { reg, src } => {
                if let Some(slot) = envs.get_mut(*reg as usize) {
                    *slot = get(&temps, *src);
                }
            }
            TcgOp::Ld { dst, .. } => set(&mut temps, *dst, Kb::TOP),
            TcgOp::Ld8 { dst, .. } => set(&mut temps, *dst, Kb::range(0, 255)),
            TcgOp::Bin { op: b, dst, a, b: rhs } => {
                let v = bin(*b, get(&temps, *a), get(&temps, *rhs));
                set(&mut temps, *dst, v);
                if let Some(c) = v.singleton() {
                    hints.const_temps.push((*dst, c));
                }
            }
            TcgOp::Setcond { cond, dst, a, b } => {
                let v = setcond(*cond, get(&temps, *a), get(&temps, *b));
                set(&mut temps, *dst, v);
                if let Some(c) = v.singleton() {
                    hints.const_temps.push((*dst, c));
                }
            }
            TcgOp::Cas { dst, .. } | TcgOp::AtomicAdd { dst, .. } => set(&mut temps, *dst, Kb::TOP),
            TcgOp::CallHelper { ret: Some(r), .. } => set(&mut temps, *r, Kb::TOP),
            TcgOp::St { .. } | TcgOp::St8 { .. } | TcgOp::Fence(_) => {}
            // Control seams: no value effects on the on-trace path.
            _ => {}
        }
    }
    if let TbExit::CondJump { flag, .. } = block.exit {
        if let Some(v) = get(&temps, flag).singleton() {
            hints.exit_flag = Some(v != 0);
        }
    }
    hints
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_tcg::apply_hints;

    fn block(ops: Vec<TcgOp>, exit: TbExit, n_temps: u32) -> TcgBlock {
        TcgBlock { guest_pc: 0x1000, guest_len: 4, ops, exit, n_temps }
    }

    #[test]
    fn env_round_trip_keeps_constants() {
        // SetReg then GetReg must not lose the constant: the folded
        // comparison decides the exit.
        let b = block(
            vec![
                TcgOp::MovI { dst: Temp(0), val: 7 },
                TcgOp::SetReg { reg: 3, src: Temp(0) },
                TcgOp::GetReg { dst: Temp(1), reg: 3 },
                TcgOp::MovI { dst: Temp(2), val: 7 },
                TcgOp::Setcond { cond: CondOp::Eq, dst: Temp(3), a: Temp(1), b: Temp(2) },
            ],
            TbExit::CondJump { flag: Temp(3), taken: 0x2000, fallthrough: 0x1004 },
            4,
        );
        let h = ir_hints(&b);
        assert_eq!(h.exit_flag, Some(true));
        assert!(h.const_temps.contains(&(Temp(3), 1)));
    }

    #[test]
    fn under_reported_n_temps_gives_the_counted_hints() {
        let ops = vec![
            TcgOp::MovI { dst: Temp(0), val: 6 },
            TcgOp::MovI { dst: Temp(1), val: 7 },
            TcgOp::Setcond { cond: CondOp::LtU, dst: Temp(2), a: Temp(0), b: Temp(1) },
        ];
        let exit = TbExit::CondJump { flag: Temp(2), taken: 0x2000, fallthrough: 0x1004 };
        let counted = ir_hints(&block(ops.clone(), exit.clone(), 3));
        assert_eq!(counted.exit_flag, Some(true));
        assert_eq!(ir_hints(&block(ops, exit, 1)), counted);
    }

    #[test]
    fn byte_load_range_decides_comparison() {
        // Ld8 yields [0,255]; comparing < 256 is always true even
        // though the loaded value is unknown.
        let b = block(
            vec![
                TcgOp::MovI { dst: Temp(0), val: 0x4000 },
                TcgOp::Ld8 { dst: Temp(1), addr: Temp(0) },
                TcgOp::MovI { dst: Temp(2), val: 256 },
                TcgOp::Setcond { cond: CondOp::LtU, dst: Temp(3), a: Temp(1), b: Temp(2) },
            ],
            TbExit::Jump(0x1004),
            4,
        );
        let h = ir_hints(&b);
        assert!(h.const_temps.contains(&(Temp(3), 1)));
        assert_eq!(h.exit_flag, None);
    }

    #[test]
    fn masked_value_bounds_propagate() {
        // (⊤ & 0xff) + 1 ∈ [1, 256]: LtU 257 decides true.
        let b = block(
            vec![
                TcgOp::MovI { dst: Temp(0), val: 0x4000 },
                TcgOp::Ld { dst: Temp(1), addr: Temp(0) },
                TcgOp::MovI { dst: Temp(2), val: 0xff },
                TcgOp::Bin { op: BinOp::And, dst: Temp(3), a: Temp(1), b: Temp(2) },
                TcgOp::MovI { dst: Temp(4), val: 1 },
                TcgOp::Bin { op: BinOp::Add, dst: Temp(5), a: Temp(3), b: Temp(4) },
                TcgOp::MovI { dst: Temp(6), val: 257 },
                TcgOp::Setcond { cond: CondOp::LtU, dst: Temp(7), a: Temp(5), b: Temp(6) },
            ],
            TbExit::Jump(0x1004),
            8,
        );
        let h = ir_hints(&b);
        assert!(h.const_temps.contains(&(Temp(7), 1)));
    }

    #[test]
    fn undecidable_comparison_yields_no_hint() {
        let b = block(
            vec![
                TcgOp::MovI { dst: Temp(0), val: 0x4000 },
                TcgOp::Ld { dst: Temp(1), addr: Temp(0) },
                TcgOp::MovI { dst: Temp(2), val: 5 },
                TcgOp::Setcond { cond: CondOp::Eq, dst: Temp(3), a: Temp(1), b: Temp(2) },
            ],
            TbExit::CondJump { flag: Temp(3), taken: 0x2000, fallthrough: 0x1004 },
            4,
        );
        let h = ir_hints(&b);
        assert!(h.const_temps.is_empty());
        assert_eq!(h.exit_flag, None);
    }

    #[test]
    fn hints_apply_and_prune_the_exit() {
        let mut b = block(
            vec![
                TcgOp::MovI { dst: Temp(0), val: 3 },
                TcgOp::SetReg { reg: 0, src: Temp(0) },
                TcgOp::GetReg { dst: Temp(1), reg: 0 },
                TcgOp::MovI { dst: Temp(2), val: 3 },
                TcgOp::Setcond { cond: CondOp::Ne, dst: Temp(3), a: Temp(1), b: Temp(2) },
            ],
            TbExit::CondJump { flag: Temp(3), taken: 0x2000, fallthrough: 0x1004 },
            4,
        );
        let h = ir_hints(&b);
        assert_eq!(h.exit_flag, Some(false));
        let stats = apply_hints(&mut b, &h);
        assert_eq!(stats.branches_pruned, 1);
        assert_eq!(b.exit, TbExit::Jump(0x1004));
        assert!(stats.folded >= 1);
        assert!(b.ops.iter().any(|o| matches!(o, TcgOp::MovI { dst: Temp(3), val: 0 })));
    }

    #[test]
    fn division_follows_apply_conventions() {
        // x / 0 is defined as 0 by BinOp::apply; known-bits must agree.
        let b = block(
            vec![
                TcgOp::MovI { dst: Temp(0), val: 0x4000 },
                TcgOp::Ld { dst: Temp(1), addr: Temp(0) },
                TcgOp::MovI { dst: Temp(2), val: 0 },
                TcgOp::Bin { op: BinOp::Divu, dst: Temp(3), a: Temp(1), b: Temp(2) },
            ],
            TbExit::Jump(0x1004),
            4,
        );
        let h = ir_hints(&b);
        assert!(h.const_temps.contains(&(Temp(3), 0)));
    }
}
