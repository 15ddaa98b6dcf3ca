//! A reference interpreter for MiniX86.
//!
//! The interpreter executes guest binaries directly (no translation) under
//! sequentially consistent interleaving. It is the *functional oracle* of
//! the DBT test-suite: for data-race-free programs its results must match
//! the translated program running on the weak host simulator, whatever the
//! schedule. (Weak-memory behaviors are covered by the axiomatic layer,
//! not by this interpreter.)

use crate::gelf::{GuestBinary, DATA_BASE, STACK_SIZE, STACK_TOP, TEXT_BASE};
use crate::insn::{syscalls, Insn, Operand};
use crate::regs::{Flags, Gpr};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE: usize = 4096;

/// A `HashMap` keyed by integers, hashed with [`IntHasher`] instead of
/// SipHash. For maps probed on every simulated memory access.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A multiplicative hasher for integer keys: one multiply by an odd
/// constant, then a rotate so the bucket index (the low bits) depends on
/// every key bit — page numbers and 8-aligned addresses both spread.
/// Unlike SipHash it does not resist crafted collisions; a guest that
/// crafts colliding addresses only slows its own emulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Sparse byte-addressed guest memory (zero-filled on first touch).
#[derive(Debug, Clone, Default)]
pub struct SparseMem {
    pages: IntMap<u64, Box<[u8; PAGE]>>,
}

/// Splits an address into (page number, offset in page).
fn split(addr: u64) -> (u64, usize) {
    (addr / PAGE as u64, (addr % PAGE as u64) as usize)
}

impl SparseMem {
    /// Creates empty memory.
    pub fn new() -> SparseMem {
        SparseMem::default()
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE] {
        self.pages.entry(page).or_insert_with(|| Box::new([0u8; PAGE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (page, off) = split(addr);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let (page, off) = split(addr);
        self.page_mut(page)[off] = val;
    }

    /// Reads a little-endian u64 (unaligned allowed).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let (page, off) = split(addr);
        if off <= PAGE - 8 {
            return self
                .pages
                .get(&page)
                .map_or(0, |p| u64::from_le_bytes(p[off..off + 8].try_into().unwrap()));
        }
        // Straddles two pages: compose byte by byte.
        let mut b = [0u8; 8];
        for (i, slot) in b.iter_mut().enumerate() {
            *slot = self.read_u8(addr + i as u64);
        }
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        let (page, off) = split(addr);
        if off <= PAGE - 8 {
            self.page_mut(page)[off..off + 8].copy_from_slice(&val.to_le_bytes());
            return;
        }
        for (i, byte) in val.to_le_bytes().iter().enumerate() {
            self.write_u8(addr + i as u64, *byte);
        }
    }

    /// Copies a byte slice in, one page lookup per page touched.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let (page, off) = split(addr);
            let n = bytes.len().min(PAGE - off);
            self.page_mut(page)[off..off + n].copy_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Copies `len` bytes out.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr + i as u64)).collect()
    }

    /// Loads a guest binary's sections.
    pub fn load_binary(&mut self, bin: &GuestBinary) {
        self.write_bytes(TEXT_BASE, &bin.text);
        self.write_bytes(DATA_BASE, &bin.data);
    }
}

/// One guest thread.
#[derive(Debug, Clone)]
struct ThreadState {
    regs: [u64; Gpr::COUNT],
    flags: Flags,
    pc: u64,
    halted: bool,
    exit_val: u64,
    /// Set while blocked in `join(tid)`.
    joining: Option<usize>,
}

impl ThreadState {
    fn new(entry: u64, stack_top: u64) -> ThreadState {
        let mut regs = [0u64; Gpr::COUNT];
        regs[Gpr::RSP.index()] = stack_top;
        ThreadState {
            regs,
            flags: Flags::default(),
            pc: entry,
            halted: false,
            exit_val: 0,
            joining: None,
        }
    }
}

/// Interpreter errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Instruction decoding failed at the given pc.
    Decode {
        /// Faulting program counter.
        pc: u64,
        /// Underlying decode error.
        cause: crate::insn::DecodeError,
    },
    /// The step budget was exhausted (runaway program).
    OutOfFuel,
    /// All live threads are blocked in `join`.
    Deadlock,
    /// Unknown syscall number.
    BadSyscall(u64),
    /// `join` on an invalid thread id.
    BadJoin(u64),
    /// `step` was asked to run a thread that is out of range or halted.
    NotRunnable {
        /// The offending thread id.
        tid: usize,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Decode { pc, cause } => write!(f, "decode fault at {pc:#x}: {cause}"),
            InterpError::OutOfFuel => write!(f, "step budget exhausted"),
            InterpError::Deadlock => write!(f, "all threads blocked in join"),
            InterpError::BadSyscall(n) => write!(f, "unknown syscall {n}"),
            InterpError::BadJoin(t) => write!(f, "join on invalid thread {t}"),
            InterpError::NotRunnable { tid } => {
                write!(f, "thread {tid} is not runnable (halted or out of range)")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// The reference interpreter.
#[derive(Debug)]
pub struct Interp {
    /// Guest memory (public so tests can inspect results).
    pub mem: SparseMem,
    threads: Vec<ThreadState>,
    /// Bytes written via the `WRITE` syscall.
    pub output: Vec<u8>,
    steps_executed: u64,
}

impl Interp {
    /// Loads a binary and prepares thread 0 at its entry point.
    pub fn new(bin: &GuestBinary) -> Interp {
        let mut mem = SparseMem::new();
        mem.load_binary(bin);
        Interp {
            mem,
            threads: vec![ThreadState::new(bin.entry, STACK_TOP)],
            output: Vec::new(),
            steps_executed: 0,
        }
    }

    /// Number of instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps_executed
    }

    /// Register of a thread (for assertions).
    pub fn reg(&self, tid: usize, r: Gpr) -> u64 {
        self.threads[tid].regs[r.index()]
    }

    /// Exit value of a halted thread.
    pub fn exit_val(&self, tid: usize) -> u64 {
        self.threads[tid].exit_val
    }

    /// `true` if every thread has halted.
    pub fn finished(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// Runs round-robin (quantum 1) until all threads halt or `fuel`
    /// instructions have executed.
    ///
    /// # Errors
    ///
    /// Propagates decode faults, bad syscalls, deadlock, or fuel
    /// exhaustion.
    pub fn run(&mut self, fuel: u64) -> Result<(), InterpError> {
        self.run_with_schedule(fuel, |step, n| (step as usize) % n)
    }

    /// Runs with a seeded pseudo-random schedule (for interleaving
    /// robustness tests).
    ///
    /// # Errors
    ///
    /// Same as [`Interp::run`].
    pub fn run_seeded(&mut self, fuel: u64, seed: u64) -> Result<(), InterpError> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        self.run_with_schedule(fuel, move |_, n| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % n
        })
    }

    fn run_with_schedule<F>(&mut self, fuel: u64, mut pick: F) -> Result<(), InterpError>
    where
        F: FnMut(u64, usize) -> usize,
    {
        let mut budget = fuel;
        loop {
            if self.finished() {
                return Ok(());
            }
            if budget == 0 {
                return Err(InterpError::OutOfFuel);
            }
            let runnable: Vec<usize> =
                (0..self.threads.len()).filter(|&t| !self.threads[t].halted).collect();
            // Resolve joins (a join on a halted thread unblocks).
            let mut progressed = false;
            for &t in &runnable {
                if let Some(target) = self.threads[t].joining {
                    if self.threads[target].halted {
                        let val = self.threads[target].exit_val;
                        self.threads[t].joining = None;
                        self.threads[t].regs[Gpr::RAX.index()] = val;
                        progressed = true;
                    }
                }
            }
            let ready: Vec<usize> =
                runnable.iter().copied().filter(|&t| self.threads[t].joining.is_none()).collect();
            if ready.is_empty() {
                if progressed {
                    continue;
                }
                return Err(InterpError::Deadlock);
            }
            let choice = pick(self.steps_executed, ready.len()) % ready.len();
            let t = ready[choice];
            self.step(t)?;
            budget -= 1;
        }
    }

    /// Executes one instruction of thread `tid`.
    ///
    /// # Errors
    ///
    /// Decode faults, bad syscalls, and [`InterpError::NotRunnable`] if
    /// `tid` is out of range or the thread has already halted.
    pub fn step(&mut self, tid: usize) -> Result<(), InterpError> {
        match self.threads.get(tid) {
            Some(th) if !th.halted => {}
            _ => return Err(InterpError::NotRunnable { tid }),
        }
        let pc = self.threads[tid].pc;
        let window = self.mem.read_bytes(pc, 16);
        let (insn, len) =
            Insn::decode(&window).map_err(|cause| InterpError::Decode { pc, cause })?;
        let next = pc + len as u64;
        self.steps_executed += 1;

        let get = |t: &ThreadState, r: Gpr| t.regs[r.index()];
        let operand = |t: &ThreadState, o: Operand| match o {
            Operand::Reg(r) => t.regs[r.index()],
            Operand::Imm(i) => i,
        };

        let th = &mut self.threads[tid];
        th.pc = next;
        match insn {
            Insn::MovRI { dst, imm } => th.regs[dst.index()] = imm,
            Insn::MovRR { dst, src } => th.regs[dst.index()] = get(th, src),
            Insn::Load { dst, base, disp } => {
                let addr = get(th, base).wrapping_add(disp as i64 as u64);
                th.regs[dst.index()] = self.mem.read_u64(addr);
            }
            Insn::Store { base, disp, src } => {
                let addr = get(th, base).wrapping_add(disp as i64 as u64);
                let v = get(th, src);
                self.mem.write_u64(addr, v);
            }
            Insn::LoadB { dst, base, disp } => {
                let addr = get(th, base).wrapping_add(disp as i64 as u64);
                th.regs[dst.index()] = self.mem.read_u8(addr) as u64;
            }
            Insn::StoreB { base, disp, src } => {
                let addr = get(th, base).wrapping_add(disp as i64 as u64);
                let v = get(th, src) as u8;
                self.mem.write_u8(addr, v);
            }
            Insn::MulWide { src } => {
                let a = get(th, Gpr::RAX) as u128;
                let b = get(th, src) as u128;
                let p = a * b;
                th.regs[Gpr::RAX.index()] = p as u64;
                th.regs[Gpr::RDX.index()] = (p >> 64) as u64;
            }
            Insn::Lea { dst, base, disp } => {
                th.regs[dst.index()] = get(th, base).wrapping_add(disp as i64 as u64);
            }
            Insn::Alu { op, dst, src } => {
                let a = get(th, dst);
                let b = operand(th, src);
                let r = op.apply(a, b);
                th.regs[dst.index()] = r;
                th.flags = match op {
                    crate::insn::AluOp::Add => Flags::from_add(a, b),
                    crate::insn::AluOp::Sub => Flags::from_sub(a, b),
                    _ => Flags::from_logic(r),
                };
            }
            Insn::Div { src } => {
                let d = get(th, src);
                let a = get(th, Gpr::RAX);
                // Div-by-zero yields (0, a) uniformly across all layers of
                // this project (Arm-style), documented in DESIGN.md.
                let (q, r) = (a.checked_div(d).unwrap_or(0), a.checked_rem(d).unwrap_or(a));
                th.regs[Gpr::RAX.index()] = q;
                th.regs[Gpr::RDX.index()] = r;
            }
            Insn::Fp { op, dst, src } => {
                let a = get(th, dst);
                let b = get(th, src);
                th.regs[dst.index()] = op.apply(a, b);
            }
            Insn::Cmp { a, b } => {
                th.flags = Flags::from_sub(get(th, a), operand(th, b));
            }
            Insn::Test { a, b } => {
                th.flags = Flags::from_logic(get(th, a) & operand(th, b));
            }
            Insn::Jcc { cond, rel } => {
                if cond.eval(th.flags) {
                    th.pc = next.wrapping_add(rel as i64 as u64);
                }
            }
            Insn::Jmp { rel } => th.pc = next.wrapping_add(rel as i64 as u64),
            Insn::JmpReg { reg } => th.pc = get(th, reg),
            Insn::Call { rel } => {
                th.regs[Gpr::RSP.index()] = th.regs[Gpr::RSP.index()].wrapping_sub(8);
                let sp = th.regs[Gpr::RSP.index()];
                self.mem.write_u64(sp, next);
                self.threads[tid].pc = next.wrapping_add(rel as i64 as u64);
            }
            Insn::CallReg { reg } => {
                let target = get(th, reg);
                th.regs[Gpr::RSP.index()] = th.regs[Gpr::RSP.index()].wrapping_sub(8);
                let sp = th.regs[Gpr::RSP.index()];
                self.mem.write_u64(sp, next);
                self.threads[tid].pc = target;
            }
            Insn::Ret => {
                let sp = th.regs[Gpr::RSP.index()];
                th.regs[Gpr::RSP.index()] = sp.wrapping_add(8);
                let ra = self.mem.read_u64(sp);
                self.threads[tid].pc = ra;
            }
            Insn::Push { src } => {
                let v = get(th, src);
                th.regs[Gpr::RSP.index()] = th.regs[Gpr::RSP.index()].wrapping_sub(8);
                let sp = th.regs[Gpr::RSP.index()];
                self.mem.write_u64(sp, v);
            }
            Insn::Pop { dst } => {
                let sp = th.regs[Gpr::RSP.index()];
                th.regs[dst.index()] = self.mem.read_u64(sp);
                th.regs[Gpr::RSP.index()] = sp.wrapping_add(8);
            }
            Insn::LockCmpxchg { base, disp, src } => {
                let addr = get(th, base).wrapping_add(disp as i64 as u64);
                let expected = get(th, Gpr::RAX);
                let newval = get(th, src);
                let cur = self.mem.read_u64(addr);
                if cur == expected {
                    self.mem.write_u64(addr, newval);
                    self.threads[tid].flags = Flags::from_sub(0, 0); // ZF=1
                } else {
                    self.threads[tid].regs[Gpr::RAX.index()] = cur;
                    self.threads[tid].flags = Flags::from_sub(1, 0); // ZF=0
                }
            }
            Insn::LockXadd { base, disp, src } => {
                let addr = get(th, base).wrapping_add(disp as i64 as u64);
                let add = get(th, src);
                let cur = self.mem.read_u64(addr);
                self.mem.write_u64(addr, cur.wrapping_add(add));
                self.threads[tid].regs[src.index()] = cur;
            }
            Insn::Mfence | Insn::Nop => {}
            Insn::Hlt => {
                th.halted = true;
                th.exit_val = th.regs[Gpr::RAX.index()];
            }
            Insn::Syscall => {
                let n = get(th, Gpr::RAX);
                let a1 = get(th, Gpr::RDI);
                let a2 = get(th, Gpr::RSI);
                let a3 = get(th, Gpr::RDX);
                match n {
                    syscalls::EXIT => {
                        th.halted = true;
                        th.exit_val = a1;
                    }
                    syscalls::WRITE => {
                        let _fd = a1;
                        let buf = self.mem.read_bytes(a2, a3 as usize);
                        self.output.extend_from_slice(&buf);
                        self.threads[tid].regs[Gpr::RAX.index()] = a3;
                    }
                    syscalls::SPAWN => {
                        let new_tid = self.threads.len();
                        let stack_top = STACK_TOP - new_tid as u64 * STACK_SIZE;
                        let mut t = ThreadState::new(a1, stack_top);
                        t.regs[Gpr::RDI.index()] = a2;
                        self.threads.push(t);
                        self.threads[tid].regs[Gpr::RAX.index()] = new_tid as u64;
                    }
                    syscalls::JOIN => {
                        let target = a1 as usize;
                        if target >= self.threads.len() || target == tid {
                            return Err(InterpError::BadJoin(a1));
                        }
                        if self.threads[target].halted {
                            let v = self.threads[target].exit_val;
                            self.threads[tid].regs[Gpr::RAX.index()] = v;
                        } else {
                            self.threads[tid].joining = Some(target);
                            // Stay on the syscall… no: block at the *next*
                            // pc; the scheduler delivers the result.
                        }
                    }
                    syscalls::GETTID => {
                        self.threads[tid].regs[Gpr::RAX.index()] = tid as u64;
                    }
                    other => return Err(InterpError::BadSyscall(other)),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gelf::GelfBuilder;
    use crate::insn::AluOp;

    fn run(bin: &GuestBinary) -> Interp {
        let mut i = Interp::new(bin);
        i.run(1_000_000).unwrap();
        i
    }

    #[test]
    fn loop_and_arithmetic() {
        // Sum 1..=10 into RAX.
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RAX, 0);
        b.asm.mov_ri(Gpr::RCX, 10);
        b.asm.label("loop");
        b.asm.alu_rr(AluOp::Add, Gpr::RAX, Gpr::RCX);
        b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
        b.asm.cmp_ri(Gpr::RCX, 0);
        b.asm.jcc_to(crate::regs::Cond::Ne, "loop");
        b.asm.hlt();
        let i = run(&b.finish().unwrap());
        assert_eq!(i.exit_val(0), 55);
    }

    #[test]
    fn call_ret_and_stack() {
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RDI, 20);
        b.asm.call_to("double");
        b.asm.hlt();
        b.asm.label("double");
        b.asm.mov_rr(Gpr::RAX, Gpr::RDI);
        b.asm.alu_rr(AluOp::Add, Gpr::RAX, Gpr::RDI);
        b.asm.ret();
        let i = run(&b.finish().unwrap());
        assert_eq!(i.exit_val(0), 40);
    }

    #[test]
    fn memory_and_data_section() {
        let mut b = GelfBuilder::new("main");
        let tbl = b.data_u64(&[7, 8, 9]);
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RSI, tbl);
        b.asm.load(Gpr::RAX, Gpr::RSI, 8); // 8
        b.asm.load(Gpr::RBX, Gpr::RSI, 16); // 9
        b.asm.alu_rr(AluOp::Mul, Gpr::RAX, Gpr::RBX);
        b.asm.store(Gpr::RSI, 0, Gpr::RAX);
        b.asm.hlt();
        let i = run(&b.finish().unwrap());
        assert_eq!(i.exit_val(0), 72);
        assert_eq!(i.mem.read_u64(DATA_BASE), 72);
    }

    #[test]
    fn cmpxchg_success_and_failure() {
        let mut b = GelfBuilder::new("main");
        let cell = b.data_u64(&[5]);
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RDI, cell);
        b.asm.mov_ri(Gpr::RAX, 5); // expected — matches
        b.asm.mov_ri(Gpr::RSI, 6);
        b.asm.cmpxchg(Gpr::RDI, 0, Gpr::RSI);
        b.asm.jcc_to(crate::regs::Cond::Ne, "fail");
        b.asm.mov_ri(Gpr::RAX, 100); // success path
        b.asm.hlt();
        b.asm.label("fail");
        b.asm.mov_ri(Gpr::RAX, 200);
        b.asm.hlt();
        let i = run(&b.finish().unwrap());
        assert_eq!(i.exit_val(0), 100);
        assert_eq!(i.mem.read_u64(DATA_BASE), 6);
    }

    #[test]
    fn spawn_join_threads() {
        // Child doubles its argument; parent joins and returns it.
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RAX, syscalls::SPAWN);
        b.asm.mov_label(Gpr::RDI, "child");
        b.asm.mov_ri(Gpr::RSI, 21);
        b.asm.syscall();
        b.asm.mov_rr(Gpr::RDI, Gpr::RAX); // tid
        b.asm.mov_ri(Gpr::RAX, syscalls::JOIN);
        b.asm.syscall();
        b.asm.hlt(); // RAX = child's exit value
        b.asm.label("child");
        b.asm.mov_rr(Gpr::RAX, Gpr::RDI);
        b.asm.alu_rr(AluOp::Add, Gpr::RAX, Gpr::RDI);
        b.asm.mov_rr(Gpr::RDI, Gpr::RAX);
        b.asm.mov_ri(Gpr::RAX, syscalls::EXIT);
        b.asm.syscall();
        let i = run(&b.finish().unwrap());
        assert_eq!(i.exit_val(0), 42);
    }

    #[test]
    fn write_syscall_collects_output() {
        let mut b = GelfBuilder::new("main");
        let msg = b.data_bytes(b"hello");
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RAX, syscalls::WRITE);
        b.asm.mov_ri(Gpr::RDI, 1);
        b.asm.mov_ri(Gpr::RSI, msg);
        b.asm.mov_ri(Gpr::RDX, 5);
        b.asm.syscall();
        b.asm.hlt();
        let i = run(&b.finish().unwrap());
        assert_eq!(i.output, b"hello");
    }

    #[test]
    fn seeded_schedules_agree_on_synchronized_counter() {
        // Two threads xadd a shared counter 100 times each; any schedule
        // must end with 200.
        let mut b = GelfBuilder::new("main");
        let counter = b.data_u64(&[0]);
        b.asm.label("main");
        b.asm.mov_ri(Gpr::RAX, syscalls::SPAWN);
        b.asm.mov_label(Gpr::RDI, "worker");
        b.asm.mov_ri(Gpr::RSI, 0);
        b.asm.syscall();
        b.asm.mov_rr(Gpr::RBX, Gpr::RAX);
        b.asm.call_to("worker_body");
        b.asm.mov_rr(Gpr::RDI, Gpr::RBX);
        b.asm.mov_ri(Gpr::RAX, syscalls::JOIN);
        b.asm.syscall();
        b.asm.mov_ri(Gpr::RDI, counter);
        b.asm.load(Gpr::RAX, Gpr::RDI, 0);
        b.asm.hlt();
        b.asm.label("worker");
        b.asm.call_to("worker_body");
        b.asm.mov_ri(Gpr::RAX, syscalls::EXIT);
        b.asm.syscall();
        b.asm.label("worker_body");
        b.asm.mov_ri(Gpr::RDI, counter);
        b.asm.mov_ri(Gpr::RCX, 100);
        b.asm.label("loop");
        b.asm.mov_ri(Gpr::RDX, 1);
        b.asm.xadd(Gpr::RDI, 0, Gpr::RDX);
        b.asm.alu_ri(AluOp::Sub, Gpr::RCX, 1);
        b.asm.cmp_ri(Gpr::RCX, 0);
        b.asm.jcc_to(crate::regs::Cond::Ne, "loop");
        b.asm.ret();
        let bin = b.finish().unwrap();
        for seed in 0..5 {
            let mut i = Interp::new(&bin);
            i.run_seeded(1_000_000, seed).unwrap();
            assert_eq!(i.exit_val(0), 200, "seed {seed}");
        }
    }

    /// Seeded property: the one-page u64 fast paths agree with the
    /// byte-wise composition at every offset 4080..=4095 (the last
    /// one-page offset is 4088) and at random addresses; reads of
    /// unmapped memory return 0 and never create a page.
    #[test]
    fn u64_access_matches_bytewise_composition() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let bytewise = |m: &SparseMem, a: u64| {
            u64::from_le_bytes(std::array::from_fn(|i| m.read_u8(a + i as u64)))
        };
        let mut addrs: Vec<u64> = (4080..4096).map(|off| 7 * PAGE as u64 + off).collect();
        addrs.extend((0..500).map(|_| 8 + next() % (1 << 40)));
        for a in addrs {
            let (v, old) = (next(), next());
            let mut fast = SparseMem::new();
            let mut slow = SparseMem::new();
            // Surround the target with known bytes so a stray or short
            // write shows up in the neighbourhood comparison.
            for i in 0..24 {
                fast.write_u8(a - 8 + i, (old >> (i % 8 * 8)) as u8);
                slow.write_u8(a - 8 + i, (old >> (i % 8 * 8)) as u8);
            }
            assert_eq!(fast.read_u64(a), bytewise(&slow, a), "read at {a:#x}");
            fast.write_u64(a, v);
            for (i, b) in v.to_le_bytes().iter().enumerate() {
                slow.write_u8(a + i as u64, *b);
            }
            for i in 0..24 {
                assert_eq!(fast.read_u8(a - 8 + i), slow.read_u8(a - 8 + i), "write at {a:#x}");
            }
            assert_eq!(fast.read_u64(a), v);

            let pages = fast.pages.len();
            let far = a ^ (1 << 45);
            assert_eq!(fast.read_u64(far), 0, "unmapped read at {far:#x}");
            assert_eq!(fast.pages.len(), pages, "a read must not create a page");
            let empty = SparseMem::new();
            assert_eq!(empty.read_u64(a), 0);
            assert!(empty.pages.is_empty());
        }
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let mut b = GelfBuilder::new("main");
        b.asm.label("main");
        b.asm.jmp_to("main");
        let bin = b.finish().unwrap();
        let mut i = Interp::new(&bin);
        assert_eq!(i.run(100), Err(InterpError::OutOfFuel));
    }
}
