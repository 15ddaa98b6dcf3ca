//! Liveness analysis and the deterministic block-scoped register
//! allocator behind the TCG→MiniArm backend.
//!
//! The allocator manages one unified *value* space per block: TCG temps
//! (`0..n_temps`) and — in DBT mode — the guest env registers
//! (`n_temps..n_temps + env::COUNT`). A liveness prepass records, for
//! every value, the sorted list of read positions (op index, with
//! `ops.len()` standing for the block exit) and the last position that
//! references the value at all. During lowering the allocator keeps
//! values in the host register pool and:
//!
//! * serves `GetReg` by *aliasing* the destination temp to the pinned
//!   env value — no code at all; the env slot is `LDR`-ed once on the
//!   first actual read and the value stays resident across the whole TB
//!   (and across `TbBoundary` seams inside superblocks, where the
//!   residency compounds). Aliases are broken — materialized into their
//!   own register — only when the env register is overwritten while the
//!   alias is still live, which real frontend IR almost never does;
//! * turns `SetReg` into a *dirty* bit: when the source temp dies at
//!   the write (the common compute-into-fresh-temp pattern) its
//!   register is transferred to the env value outright, otherwise one
//!   register move remains. The env `STR` is deferred to the next flush
//!   point (block exits, `CallHelper`, `Cas`/exclusive sequences,
//!   `SideExit` deopt paths), so the interpreter and fault-fallback
//!   paths always observe a coherent env while straight-line code pays
//!   no store traffic. The *final* write to an env register in a block
//!   stores the source directly instead — deferring it would only
//!   prepend a register copy to the same `STR`;
//! * treats `MovI` as a zero-cost constant definition: the `MOV`
//!   immediate is emitted at the first read, equal constants in one
//!   block share a single host register (flag materialization makes
//!   duplicate 0/1 immediates ubiquitous), and constants are
//!   rematerialized under pressure rather than spilled;
//! * spills under pressure with a true Belady (furthest *next use*)
//!   policy over the precomputed read positions, preferring store-free
//!   victims among equals and breaking remaining ties on the lowest
//!   value id — every decision is over dense arrays in a fixed order,
//!   so the same IR always lowers to bit-identical host code.
//!
//! Temps spill to `SPILL_BASE + 8·temp`; env values write back to their
//! home slot `ENV_BASE + 8·reg`. Both regions are host-private: the
//! encoding verifier (Pass 3) filters them out of the ordering-point
//! stream and separately checks that every deferred env write-back lands
//! before the exit anchor that could observe it.

use crate::backend::{BackendError, HostAsm, ENV_BASE, SPILL_BASE};
use crate::insn::{HostInsn, MemOrder, Xreg};
use risotto_tcg::{env, TcgBlock, TcgOp, Temp};

/// Per-block register-allocation statistics, summed by the engine into
/// the `regalloc.*` registry metrics (docs/METRICS.md).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Env-area `LDR`s emitted (first-use fills and post-eviction
    /// refills). Naive per-op codegen emits one per `GetReg`.
    pub env_loads: u64,
    /// Env-area `STR`s emitted (deferred write-backs at flush points
    /// plus dirty evictions). Naive codegen emits one per `SetReg`.
    pub env_stores: u64,
    /// `GetReg` ops served from an already-pinned host register — each
    /// one is an env `LDR` the allocator eliminated.
    pub env_loads_eliminated: u64,
    /// `SetReg` ops whose write-back was coalesced into a deferred
    /// flush — each one is an env `STR` the allocator eliminated.
    pub env_stores_eliminated: u64,
    /// Temp values stored to the spill area under register pressure.
    pub spills: u64,
    /// Temp values reloaded from the spill area.
    pub reloads: u64,
    /// Distinct guest env registers pinned in host registers for at
    /// least part of the block.
    pub pinned_regs: u64,
}

impl std::ops::AddAssign for AllocStats {
    fn add_assign(&mut self, rhs: AllocStats) {
        self.env_loads += rhs.env_loads;
        self.env_stores += rhs.env_stores;
        self.env_loads_eliminated += rhs.env_loads_eliminated;
        self.env_stores_eliminated += rhs.env_stores_eliminated;
        self.spills += rhs.spills;
        self.reloads += rhs.reloads;
        self.pinned_regs += rhs.pinned_regs;
    }
}

/// The read positions and live ranges of every value in a block.
#[derive(Debug)]
struct Liveness {
    /// Number of temp values ([`TcgBlock::temp_bound`], robust against
    /// blocks whose `n_temps` under-reports — the backend must not rely
    /// on the IR lint having run).
    n_temps: usize,
    /// Every value's read positions, grouped by value id: value `v`
    /// owns `reads[starts[v]..starts[v + 1]]`, in ascending op order
    /// (`ops.len()` is the block exit).
    reads: Vec<usize>,
    /// value id → start of its run in `reads`; one extra trailing entry.
    starts: Vec<usize>,
    /// value id → last position referencing the value (read or write).
    last_ref: Vec<usize>,
}

impl Liveness {
    fn of(block: &TcgBlock, manage_env: bool) -> Liveness {
        let n_temps = block.temp_bound();
        let n_values = n_temps + if manage_env { env::COUNT } else { 0 };
        let mut last_ref = vec![0; n_values];
        // `(value, pos)` for every read, in op order. A stable counting
        // sort by value then groups them without disturbing each
        // value's ascending positions.
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(3 * block.ops.len() + 2);
        // `aliases` mirrors the allocator's GetReg aliasing: while a
        // temp aliases an env value, its reads are the env value's reads
        // (the deferred pin fill happens at the first such read). The
        // chain breaks when the temp is redefined or the env register
        // is overwritten — exactly as it will during lowering, so the
        // next-use information the Belady policy sees is exact.
        let mut aliases = EnvAliases::new(n_temps);
        let read = |pairs: &mut Vec<(usize, usize)>,
                    last_ref: &mut [usize],
                    aliases: &EnvAliases,
                    t: Temp,
                    i: usize| {
            let t = t.0 as usize;
            pairs.push((t, i));
            last_ref[t] = i;
            if let Some(v) = aliases.of(t) {
                pairs.push((v, i));
                last_ref[v] = i;
            }
        };
        for (i, op) in block.ops.iter().enumerate() {
            op.for_each_use(|u| read(&mut pairs, &mut last_ref, &aliases, u, i));
            if manage_env {
                match op {
                    TcgOp::GetReg { dst, reg } => {
                        aliases.set(dst.0 as usize, *reg);
                        last_ref[dst.0 as usize] = i;
                        continue;
                    }
                    TcgOp::SetReg { reg, src } => {
                        let v = n_temps + *reg as usize;
                        // A self-copy (`src` aliases this very register)
                        // leaves the value unchanged: aliases survive.
                        if aliases.of(src.0 as usize) != Some(v) {
                            aliases.overwrite(*reg);
                        }
                        last_ref[v] = i;
                    }
                    _ => {}
                }
            }
            if let Some(d) = op.def() {
                let t = d.0 as usize;
                last_ref[t] = i;
                aliases.clear(t);
            }
        }
        if let Some(t) = block.exit.use_temp() {
            read(&mut pairs, &mut last_ref, &aliases, t, block.ops.len());
        }
        // Counting sort: count per value, prefix-sum into run starts,
        // then place each position at its value's cursor. The cursors
        // end one run further on, so shifting them by one restores the
        // starts.
        let mut starts = vec![0; n_values + 1];
        for &(v, _) in &pairs {
            starts[v + 1] += 1;
        }
        for v in 0..n_values {
            starts[v + 1] += starts[v];
        }
        let mut reads = vec![0; pairs.len()];
        for &(v, pos) in &pairs {
            reads[starts[v]] = pos;
            starts[v] += 1;
        }
        starts.rotate_right(1);
        starts[0] = 0;
        Liveness { n_temps, reads, starts, last_ref }
    }

    /// Number of values (temps, then env registers in DBT mode).
    fn n_values(&self) -> usize {
        self.last_ref.len()
    }

    /// `v`'s read positions, ascending.
    fn reads_of(&self, v: usize) -> &[usize] {
        &self.reads[self.starts[v]..self.starts[v + 1]]
    }
}

/// The `GetReg` aliases of the liveness walk. Each alias records the
/// write generation of its env register; overwriting the register bumps
/// the generation, which breaks every alias of it at once.
struct EnvAliases {
    n_temps: usize,
    /// temp id → (env value id, generation when aliased).
    alias: Vec<Option<(usize, u32)>>,
    /// env index → write generation.
    generation: [u32; env::COUNT],
}

impl EnvAliases {
    fn new(n_temps: usize) -> EnvAliases {
        EnvAliases { n_temps, alias: vec![None; n_temps], generation: [0; env::COUNT] }
    }

    /// The env value temp `t` currently aliases, if any.
    fn of(&self, t: usize) -> Option<usize> {
        self.alias[t].filter(|&(v, g)| self.generation[v - self.n_temps] == g).map(|(v, _)| v)
    }

    /// `t` now aliases env register `reg`.
    fn set(&mut self, t: usize, reg: u8) {
        self.alias[t] = Some((self.n_temps + reg as usize, self.generation[reg as usize]));
    }

    /// `t` was redefined.
    fn clear(&mut self, t: usize) {
        self.alias[t] = None;
    }

    /// Env register `reg` was overwritten.
    fn overwrite(&mut self, reg: u8) {
        self.generation[reg as usize] += 1;
    }
}

/// The deterministic block-scoped allocator (see the module docs).
#[derive(Debug)]
pub(crate) struct Allocator {
    live: Liveness,
    pool: &'static [Xreg],
    /// Whether env registers participate (false in native/direct mode).
    manage_env: bool,
    /// value id → currently assigned host register.
    loc: Vec<Option<Xreg>>,
    /// host register number → value id held.
    holder: [Option<usize>; 32],
    /// Bit `r` set ⇔ `holder[r]` is `Some`: the occupied registers.
    held: u32,
    /// value id → register copy is newer than the value's memory home.
    dirty: Vec<bool>,
    /// temp id → the temp has been defined (in a register or its slot).
    defined: Vec<bool>,
    /// temp id → the spill slot holds the current value.
    in_slot: Vec<bool>,
    /// temp id → env value the temp currently aliases (set by `GetReg`,
    /// broken by redefinition of either side).
    alias: Vec<Option<usize>>,
    /// value id → the value is a known constant (`MovI`, possibly
    /// propagated through `Mov`). Constant temps are rematerialized
    /// with a 1-cycle `MovImm` instead of being spilled/reloaded, and
    /// equal constants share one host register.
    const_val: Vec<Option<u64>>,
    /// host register number → constant the register is known to hold
    /// right now. Maintained at every instruction that writes a pool
    /// register; rebinding alone never changes register contents, so
    /// the knowledge survives ownership transfers and evictions.
    reg_const: [Option<u64>; 32],
    /// value id → monotone cursor into `live.reads` (next-use scan).
    cursor: Vec<usize>,
    /// env index → was ever pinned in a host register.
    pinned: Vec<bool>,
    stats: AllocStats,
}

impl Allocator {
    pub(crate) fn new(block: &TcgBlock, pool: &'static [Xreg], manage_env: bool) -> Allocator {
        let live = Liveness::of(block, manage_env);
        let n_values = live.n_values();
        let n_temps = live.n_temps;
        Allocator {
            live,
            pool,
            manage_env,
            loc: vec![None; n_values],
            holder: [None; 32],
            held: 0,
            dirty: vec![false; n_values],
            defined: vec![false; n_temps],
            in_slot: vec![false; n_temps],
            alias: vec![None; n_temps],
            const_val: vec![None; n_values],
            reg_const: [None; 32],
            cursor: vec![0; n_values],
            pinned: vec![false; env::COUNT],
            stats: AllocStats::default(),
        }
    }

    fn is_env(&self, v: usize) -> bool {
        v >= self.live.n_temps
    }

    /// First read position of `v` at or after `idx` (`usize::MAX` when
    /// the value is never read again).
    fn next_use(&mut self, v: usize, idx: usize) -> usize {
        let c = &mut self.cursor[v];
        let reads = self.live.reads_of(v);
        while *c < reads.len() && reads[*c] < idx {
            *c += 1;
        }
        reads.get(*c).copied().unwrap_or(usize::MAX)
    }

    fn bind(&mut self, r: Xreg, v: usize) {
        self.loc[v] = Some(r);
        self.holder[r.0 as usize] = Some(v);
        self.held |= 1 << r.0;
    }

    /// Empties register `r` (the caller updates its former value).
    fn unbind(&mut self, r: Xreg) {
        self.holder[r.0 as usize] = None;
        self.held &= !(1 << r.0);
    }

    /// Frees registers whose value is dead (past its last reference).
    /// Dirty env values survive — their deferred write-back is still
    /// owed at the next flush point. Only occupied registers are
    /// visited; each is decided on its own, so the order is immaterial.
    pub(crate) fn free_dead(&mut self, idx: usize) {
        let mut held = self.held;
        while held != 0 {
            let r = Xreg(held.trailing_zeros() as u8);
            held &= held - 1;
            let Some(v) = self.holder[r.0 as usize] else { continue };
            if self.live.last_ref[v] < idx && !(self.is_env(v) && self.dirty[v]) {
                self.loc[v] = None;
                self.dirty[v] = false;
                self.unbind(r);
            }
        }
    }

    /// Evicts `v` from `r`, storing it to its memory home if that home
    /// is stale (env: dirty write-back; temp: spill).
    fn evict(&mut self, asm: &mut HostAsm, r: Xreg, v: usize) {
        if self.is_env(v) {
            if self.dirty[v] {
                let reg = (v - self.live.n_temps) as i32;
                asm.push(HostInsn::Str {
                    src: r,
                    base: ENV_BASE,
                    off: reg * 8,
                    order: MemOrder::Plain,
                });
                self.stats.env_stores += 1;
                self.dirty[v] = false;
            }
        } else if !self.in_slot[v] && self.const_val[v].is_none() {
            // Known constants are rematerialized by `MovImm` on the
            // next read — cheaper than a spill/reload round trip.
            asm.push(HostInsn::Str {
                src: r,
                base: SPILL_BASE,
                off: v as i32 * 8,
                order: MemOrder::Plain,
            });
            self.stats.spills += 1;
            self.in_slot[v] = true;
            self.dirty[v] = false;
        }
        self.loc[v] = None;
        self.unbind(r);
    }

    /// Claims a register: the first free pool register in pool order,
    /// else the Belady victim — furthest next use, store-free preferred
    /// among equals, lowest value id as the final (deterministic)
    /// tie-break.
    fn take_reg(
        &mut self,
        asm: &mut HostAsm,
        idx: usize,
        at_op: usize,
        forbid: &[Xreg],
    ) -> Result<Xreg, BackendError> {
        for i in 0..self.pool.len() {
            let r = self.pool[i];
            if self.holder[r.0 as usize].is_none() && !forbid.contains(&r) {
                return Ok(r);
            }
        }
        let mut best: Option<(Xreg, usize, usize, bool)> = None;
        for i in 0..self.pool.len() {
            let r = self.pool[i];
            if forbid.contains(&r) {
                continue;
            }
            let Some(v) = self.holder[r.0 as usize] else { continue };
            let nu = self.next_use(v, idx);
            let store_free = if self.is_env(v) {
                !self.dirty[v]
            } else {
                self.in_slot[v] || self.const_val[v].is_some()
            };
            let better = match best {
                None => true,
                Some((_, bv, bnu, bfree)) => {
                    nu > bnu
                        || (nu == bnu
                            && ((store_free && !bfree) || (store_free == bfree && v < bv)))
                }
            };
            if better {
                best = Some((r, v, nu, store_free));
            }
        }
        let (r, v, _, _) = best.ok_or(BackendError::RegisterPressure { at_op })?;
        self.evict(asm, r, v);
        Ok(r)
    }

    /// Register holding temp `t`: the aliased env value's register for
    /// `GetReg` results, a spill-slot reload otherwise. A temp that was
    /// never defined is a typed error — the backend must not silently
    /// reload garbage even when the IR lint did not run.
    pub(crate) fn read_temp(
        &mut self,
        asm: &mut HostAsm,
        idx: usize,
        at_op: usize,
        t: Temp,
        forbid: &[Xreg],
    ) -> Result<Xreg, BackendError> {
        let v = t.0 as usize;
        if let Some(ev) = self.alias[v] {
            // Aliased temps live in the env value's register; a missing
            // residence means the env value was evicted (its slot is
            // current — dirty values are never unbound) and refills here.
            let reg = (ev - self.live.n_temps) as u8;
            return self.read_env(asm, idx, at_op, reg, forbid);
        }
        if let Some(c) = self.const_val[v] {
            // Constants share registers: any pool register already known
            // to hold these bits serves the read (ownership unchanged —
            // register contents only change at writes, and the caller's
            // forbid list protects the register for the whole op).
            for i in 0..self.pool.len() {
                let r = self.pool[i];
                if self.reg_const[r.0 as usize] == Some(c) && !forbid.contains(&r) {
                    return Ok(r);
                }
            }
            let r = self.take_reg(asm, idx, at_op, forbid)?;
            asm.push(HostInsn::MovImm { dst: r, imm: c });
            self.reg_const[r.0 as usize] = Some(c);
            self.bind(r, v);
            return Ok(r);
        }
        if let Some(r) = self.loc[v] {
            return Ok(r);
        }
        if !self.defined[v] {
            return Err(BackendError::UndefinedTemp { temp: t.0, at_op });
        }
        let r = self.take_reg(asm, idx, at_op, forbid)?;
        asm.push(HostInsn::Ldr {
            dst: r,
            base: SPILL_BASE,
            off: v as i32 * 8,
            order: MemOrder::Plain,
        });
        self.stats.reloads += 1;
        self.dirty[v] = false;
        self.reg_const[r.0 as usize] = None;
        self.bind(r, v);
        Ok(r)
    }

    /// Register for (re)defining temp `t` — no reload, breaks any env
    /// alias (the redefinition overwrites the whole value).
    pub(crate) fn def_temp(
        &mut self,
        asm: &mut HostAsm,
        idx: usize,
        at_op: usize,
        t: Temp,
        forbid: &[Xreg],
    ) -> Result<Xreg, BackendError> {
        let v = t.0 as usize;
        self.alias[v] = None;
        self.const_val[v] = None;
        let r = match self.loc[v] {
            Some(r) => r,
            None => {
                let r = self.take_reg(asm, idx, at_op, forbid)?;
                self.bind(r, v);
                r
            }
        };
        self.defined[v] = true;
        self.dirty[v] = true;
        self.in_slot[v] = false;
        // The caller writes `r` next; whatever constant it held is gone.
        self.reg_const[r.0 as usize] = None;
        Ok(r)
    }

    /// Lowers `MovI { dst, val }`: records the constant and emits
    /// nothing. The value is materialized (`MovImm`) at its first read,
    /// shares a register with any other value holding the same bits,
    /// and is rematerialized rather than spilled under pressure.
    pub(crate) fn def_const(&mut self, dst: Temp, val: u64) {
        let v = dst.0 as usize;
        // MovI (re)defines dst: drop any register or alias it held (the
        // old register still holds its old bits — no write happened).
        if let Some(r) = self.loc[v] {
            self.unbind(r);
            self.loc[v] = None;
        }
        self.alias[v] = None;
        self.const_val[v] = Some(val);
        self.defined[v] = true;
        self.dirty[v] = false;
        self.in_slot[v] = false;
    }

    /// The constant a temp is currently known to hold, if any.
    pub(crate) fn const_of(&self, t: Temp) -> Option<u64> {
        self.const_val[t.0 as usize]
    }

    /// Register holding guest env register `reg`, `LDR`-ing its env
    /// slot on first use (the pin fill).
    pub(crate) fn read_env(
        &mut self,
        asm: &mut HostAsm,
        idx: usize,
        at_op: usize,
        reg: u8,
        forbid: &[Xreg],
    ) -> Result<Xreg, BackendError> {
        debug_assert!(self.manage_env);
        let v = self.live.n_temps + reg as usize;
        if let Some(r) = self.loc[v] {
            return Ok(r);
        }
        let r = self.take_reg(asm, idx, at_op, forbid)?;
        asm.push(HostInsn::Ldr {
            dst: r,
            base: ENV_BASE,
            off: reg as i32 * 8,
            order: MemOrder::Plain,
        });
        self.stats.env_loads += 1;
        self.pinned[reg as usize] = true;
        self.reg_const[r.0 as usize] = None;
        self.bind(r, v);
        Ok(r)
    }

    /// Lowers `GetReg { dst, reg }`: aliases `dst` to the env value.
    /// Emits nothing — the pin fill is deferred to the first read.
    pub(crate) fn alias_env(&mut self, dst: Temp, reg: u8) {
        debug_assert!(self.manage_env);
        let t = dst.0 as usize;
        // GetReg (re)defines dst: drop any register it held.
        if let Some(r) = self.loc[t] {
            self.unbind(r);
            self.loc[t] = None;
        }
        self.alias[t] = Some(self.live.n_temps + reg as usize);
        self.const_val[t] = None;
        self.defined[t] = true;
        self.dirty[t] = false;
        self.in_slot[t] = false;
    }

    /// Lowers `SetReg { reg, src }` given `rs = read_temp(src)`: marks
    /// the env value dirty for the next flush, transferring `rs` to it
    /// outright when `src` dies here, copying otherwise. Live aliases of
    /// the overwritten value are materialized into their own registers
    /// first.
    pub(crate) fn write_env(
        &mut self,
        asm: &mut HostAsm,
        idx: usize,
        at_op: usize,
        reg: u8,
        src: Temp,
        rs: Xreg,
    ) -> Result<(), BackendError> {
        debug_assert!(self.manage_env);
        let v = self.live.n_temps + reg as usize;
        let src_v = src.0 as usize;
        self.pinned[reg as usize] = true;
        // Self-copy: `src` aliases this very register, so the value is
        // unchanged and every alias stays valid. `read_temp` has just
        // made the env value resident (`rs` is its register).
        if self.alias[src_v] == Some(v) {
            debug_assert_eq!(self.loc[v], Some(rs));
            self.dirty[v] = true;
            return Ok(());
        }
        // The old value dies: materialize live aliases into their own
        // registers (ascending temp order — deterministic) and break
        // the dead ones. The first live alias inherits the dying
        // value's register outright (zero code); the rest copy from it.
        let mut home: Option<Xreg> = None;
        for t in 0..self.alias.len() {
            if self.alias[t] != Some(v) {
                continue;
            }
            self.alias[t] = None;
            if self.live.last_ref[t] <= idx {
                continue;
            }
            if home.is_none() {
                if let Some(rv) = self.loc[v] {
                    // Rebind: the env value is about to be overwritten,
                    // so its register simply becomes the alias's home.
                    self.loc[v] = None;
                    self.dirty[v] = false;
                    self.bind(rv, t);
                    self.in_slot[t] = false;
                    home = Some(rv);
                    continue;
                }
            }
            let forbid = [Some(rs), home];
            let forbid: Vec<Xreg> = forbid.into_iter().flatten().collect();
            let rt = self.take_reg(asm, idx, at_op, &forbid)?;
            match home {
                Some(rh) => {
                    asm.push(HostInsn::MovReg { dst: rt, src: rh });
                    self.reg_const[rt.0 as usize] = self.reg_const[rh.0 as usize];
                }
                None => {
                    // Non-resident env values always have a current
                    // slot (dirty ones are never unbound).
                    asm.push(HostInsn::Ldr {
                        dst: rt,
                        base: ENV_BASE,
                        off: reg as i32 * 8,
                        order: MemOrder::Plain,
                    });
                    self.stats.env_loads += 1;
                    self.reg_const[rt.0 as usize] = None;
                    home = Some(rt);
                }
            }
            self.bind(rt, t);
            self.in_slot[t] = false;
        }
        // Final write: nothing later reads or rewrites this register,
        // so deferring would only add a register copy ahead of the same
        // `STR`. Store the source directly — exactly what naive per-op
        // codegen does — and leave nothing for the flush to do.
        if self.live.last_ref[v] <= idx {
            if let Some(r_old) = self.loc[v] {
                self.unbind(r_old);
                self.loc[v] = None;
            }
            asm.push(HostInsn::Str {
                src: rs,
                base: ENV_BASE,
                off: reg as i32 * 8,
                order: MemOrder::Plain,
            });
            self.stats.env_stores += 1;
            self.dirty[v] = false;
            return Ok(());
        }
        // Transfer: `src` owns `rs` and dies at this op — the register
        // simply becomes the env value's home.
        if self.alias[src_v].is_none()
            && self.holder[rs.0 as usize] == Some(src_v)
            && self.live.last_ref[src_v] <= idx
        {
            if let Some(r_old) = self.loc[v] {
                self.unbind(r_old);
            }
            self.loc[src_v] = None;
            self.bind(rs, v);
            self.dirty[v] = true;
            return Ok(());
        }
        // Copy: ensure the env value has a register distinct from `rs`.
        let re = match self.loc[v] {
            Some(r) => r,
            None => {
                let r = self.take_reg(asm, idx, at_op, &[rs])?;
                self.bind(r, v);
                r
            }
        };
        if re != rs {
            asm.push(HostInsn::MovReg { dst: re, src: rs });
            self.reg_const[re.0 as usize] = self.reg_const[rs.0 as usize];
        }
        self.dirty[v] = true;
        Ok(())
    }

    /// Writes every dirty env register back to its env slot, in
    /// ascending env order (deterministic emission).
    ///
    /// `clear_dirty: true` is the in-line form (helper calls, atomic
    /// sequences, unconditional exits): the write-back happened on the
    /// continuing path, so the registers become clean. `clear_dirty:
    /// false` is the *off-path* form used on `SideExit` leave paths —
    /// the stores execute only when the exit is taken, so on the
    /// fall-through path the registers are still dirty and the next
    /// flush point owes them again.
    pub(crate) fn flush_env(&mut self, asm: &mut HostAsm, clear_dirty: bool) {
        if !self.manage_env {
            return;
        }
        for reg in 0..env::COUNT {
            let v = self.live.n_temps + reg;
            if self.dirty[v] {
                if let Some(r) = self.loc[v] {
                    asm.push(HostInsn::Str {
                        src: r,
                        base: ENV_BASE,
                        off: reg as i32 * 8,
                        order: MemOrder::Plain,
                    });
                    self.stats.env_stores += 1;
                    if clear_dirty {
                        self.dirty[v] = false;
                    }
                }
            }
        }
    }

    /// Final statistics; `pinned_regs` is the count of distinct env
    /// registers that were ever resident.
    pub(crate) fn into_stats(self) -> AllocStats {
        let mut s = self.stats;
        s.pinned_regs = self.pinned.iter().filter(|&&p| p).count() as u64;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risotto_tcg::{BinOp, TbExit};

    fn block_with(ops: Vec<TcgOp>, exit: TbExit, n_temps: u32) -> TcgBlock {
        TcgBlock { guest_pc: 0x1000, guest_len: 4, ops, exit, n_temps }
    }

    #[test]
    fn liveness_records_reads_and_exit_uses() {
        let t0 = Temp(0);
        let t1 = Temp(1);
        let b = block_with(
            vec![
                TcgOp::MovI { dst: t0, val: 1 },
                TcgOp::GetReg { dst: t1, reg: 3 },
                TcgOp::Bin { op: BinOp::Add, dst: t0, a: t0, b: t1 },
            ],
            TbExit::JumpReg(t0),
            2,
        );
        let l = Liveness::of(&b, true);
        assert_eq!(l.reads_of(0), [2, 3], "t0 read by the Bin op and the exit");
        assert_eq!(l.reads_of(1), [2]);
        // The GetReg defers the env read to t1's actual use (the Bin op
        // at position 2) via the alias chain.
        assert_eq!(l.reads_of(l.n_temps + 3), [2], "env 3 is read where its alias t1 is used");
        assert_eq!(l.last_ref[l.n_temps + 3], 2);
        assert_eq!(l.last_ref[0], 3);
    }

    #[test]
    fn liveness_is_robust_to_underreported_n_temps() {
        let b = block_with(vec![TcgOp::MovI { dst: Temp(7), val: 0 }], TbExit::Halt, 1);
        let l = Liveness::of(&b, true);
        assert!(l.n_temps >= 8, "temp ids beyond n_temps must still be representable");
    }
}
