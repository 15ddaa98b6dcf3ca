//! The multi-core weak-memory host machine simulator.
//!
//! Cores execute MiniArm code from a shared code cache against shared
//! memory, with per-core FIFO *store buffers* (stores become globally
//! visible when drained; loads forward from the own buffer), per-core
//! exclusive monitors for `LDXR`/`STXR`, and a calibrated cycle-cost
//! model. Scheduling is discrete-event: the core with the smallest local
//! clock runs next, so the reported runtime is the maximum core clock —
//! a parallel-execution time.
//!
//! Operationally the machine is TSO-like (store buffering only). The
//! *additional* Arm weakness (load-load reordering etc.) is covered
//! exactly by the axiomatic layer (`risotto-memmodel`/`risotto-litmus`);
//! see DESIGN.md §10. Fences, acquire/release and atomics still have
//! their architectural *costs* and their buffer-drain semantics here.

use crate::cost::CostModel;
#[cfg(test)]
use crate::insn::ACond;
use crate::insn::{AOp, Dmb, HostInsn, MemOrder, Nzcv, TbExitKind, Xreg, JUMP_CHAIN_OFFSET};
use risotto_guest_x86::{softfloat, IntMap, SparseMem};
use std::collections::{HashMap, HashSet, VecDeque};

/// Base address where translated host code lives (outside guest ranges).
pub const CODE_BASE: u64 = 0x4000_0000;

/// Entries in each core's direct-mapped indirect-branch lookup cache
/// (guest pc → host pc; the QEMU `tb_jmp_cache` analogue).
const JCACHE_SIZE: usize = 64;

/// Store-buffer capacity per core.
const STORE_BUFFER_CAP: usize = 16;
/// Age (cycles) after which a buffered store drains on its own.
const DRAIN_AGE: u64 = 96;

/// A result returned by a registered native host function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeResult {
    /// Return value (goes to X0).
    pub ret: u64,
    /// Cycles charged for the native execution.
    pub cost: u64,
}

/// A native host library function: receives shared memory and the six
/// argument registers.
pub type NativeFn = Box<dyn FnMut(&mut SparseMem, &[u64; 6]) -> NativeResult>;

/// Events that suspend the machine back to the DBT engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Every started core has halted.
    AllHalted,
    /// A TB exit targeted a guest pc with no installed translation; the
    /// engine must translate and [`Machine::map_tb`] it, then resume.
    TranslationMiss {
        /// Core that missed.
        core: usize,
        /// Guest pc needing translation.
        guest_pc: u64,
    },
    /// A guest syscall; the engine services it and redirects the core.
    GuestSyscall {
        /// Core performing the syscall.
        core: usize,
        /// Guest pc following the syscall.
        next: u64,
    },
    /// The global step budget was exhausted (runaway guest).
    OutOfFuel,
    /// A profiled block's execution count crossed the hotness threshold
    /// (see [`Machine::set_hot_threshold`]); the engine may promote it
    /// to a tier-2 superblock. The triggering transfer has already
    /// completed — the core continues from its (tier-1) target when the
    /// machine resumes, so this event never perturbs execution.
    HotTb {
        /// Core whose transfer crossed the threshold.
        core: usize,
        /// Guest pc of the hot block (candidate superblock head).
        guest_pc: u64,
    },
    /// A core hit unexecutable host state (undecodable code bytes, an
    /// unknown helper index, an out-of-range native function index).
    /// The faulting core is left un-advanced at `host_pc`; the engine
    /// decides whether to re-translate, fall back, or abort.
    HostFault {
        /// The faulting core.
        core: usize,
        /// Host pc of the faulting instruction.
        host_pc: u64,
        /// What kind of fault occurred.
        kind: HostFaultKind,
    },
}

/// Classification of a [`Event::HostFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostFaultKind {
    /// The bytes at `host_pc` did not decode as a MiniArm instruction
    /// (or lay outside the installed code cache).
    Decode,
    /// A `Hcall` named a helper index the machine does not implement.
    UnknownHelper(u8),
    /// A `NativeCall` named an unregistered native function index.
    UnknownNative(u16),
}

/// How [`Machine::run`] picks the next core to step.
///
/// All three policies are deterministic (the random policy is seeded),
/// so any schedule-dependent failure reproduces exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Discrete-event order: the runnable core with the smallest local
    /// clock runs next (the default; reported runtime = max core clock).
    Deterministic,
    /// Seeded pseudo-random choice among runnable cores.
    Random(u64),
    /// Adversarial: always run the *most advanced* runnable core,
    /// maximizing clock skew between cores (worst case for code that
    /// polls cross-core state).
    Adversarial,
}

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions executed.
    pub insns: u64,
    /// `DMB` barriers executed, by kind (LD, ST, FF).
    pub dmb: [u64; 3],
    /// Atomic RMW instructions executed.
    pub atomics: u64,
    /// Helper calls.
    pub helper_calls: u64,
    /// Native library calls.
    pub native_calls: u64,
    /// Cycles attributed to barriers.
    pub fence_cycles: u64,
}

/// One atomic read-modify-write recorded by the machine's atomic-access
/// log (see [`Machine::set_atomic_log`]). Every successful or failed
/// hardware RMW — `casal`, `ldaddal`, a winning `stxr`, and the
/// sequentially-consistent helper atomics — appends one event in
/// execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicEvent {
    /// Core that executed the access.
    pub core: usize,
    /// Target memory address.
    pub addr: u64,
    /// Value the RMW read from memory.
    pub old: u64,
    /// Value the RMW left in memory (equals `old` for a failed
    /// compare-exchange).
    pub new: u64,
}

/// Counters for the translation-block code cache (machine-wide totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Code regions installed (one per translation, thunk included).
    pub installs: u64,
    /// Installs that reused a freed region instead of growing the cache.
    pub region_reuses: u64,
    /// Mappings removed by [`Machine::unmap_tb`] (evictions,
    /// invalidations, and link-library rebinds).
    pub evictions: u64,
    /// Superblocks installed via [`Machine::install_superblock`].
    pub sb_installs: u64,
    /// Tier-1 translations evicted because a superblock subsumed them
    /// (a subset of `evictions`).
    pub sb_subsumed: u64,
}

/// Per-translation-block execution profile entry (see
/// [`Machine::set_profiling`]). Keyed by guest pc in
/// [`Machine::tb_profile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TbProf {
    /// Times the block was entered via a machine-resolved transfer
    /// (patched chain, jump cache, or dispatcher lookup).
    pub execs: u64,
    /// Entries that missed the fast path (dispatcher lookup after an
    /// unpatched chain slot or a jump-cache miss).
    pub chain_misses: u64,
}

/// Counters for the TB-chaining machinery (machine-wide totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Direct-jump exits that followed an already-patched chain slot
    /// (no map lookup; charged `cost.tb_chain`).
    pub chain_hits: u64,
    /// Direct-jump exits resolved through the dispatcher and then patched
    /// (first traversal of a chain site; charged `cost.tb_dispatch`).
    pub chain_links: u64,
    /// Chain slots un-patched and jump-cache entries dropped because the
    /// block they pointed to was unmapped or replaced.
    pub chain_flushes: u64,
    /// Indirect (`JumpReg`) exits that hit the per-core jump cache.
    pub dispatch_hits: u64,
    /// Indirect exits that went through the full dispatcher lookup.
    pub dispatch_misses: u64,
    /// Machine-resolved transfers that entered a superblock head
    /// (tier-2 body executions; counted on every entry path).
    pub sb_entries: u64,
}

#[derive(Debug, Clone)]
struct Core {
    regs: [u64; Xreg::COUNT],
    nzcv: Nzcv,
    pc: u64,
    cycles: u64,
    halted: bool,
    started: bool,
    store_buffer: VecDeque<(u64, u64, u64)>, // (addr, value, insert_cycle)
    monitor: Option<u64>,
    stats: CoreStats,
    /// Direct-mapped guest-pc → host-pc cache for `JumpReg` exits.
    /// `(u64::MAX, _)` marks an empty slot (never a valid guest pc here).
    jcache: Vec<(u64, u64)>,
    /// Per-core deterministic jitter stream: real machines have timing
    /// noise that breaks the phase-lock a discrete-event simulator
    /// otherwise falls into on contended atomics.
    jitter: u64,
}

impl Core {
    fn new() -> Core {
        Core {
            regs: [0; Xreg::COUNT],
            nzcv: Nzcv::default(),
            pc: 0,
            cycles: 0,
            halted: true,
            started: false,
            store_buffer: VecDeque::new(),
            monitor: None,
            stats: CoreStats::default(),
            jcache: vec![(u64::MAX, 0); JCACHE_SIZE],
            jitter: 0x9E3779B97F4A7C15,
        }
    }

    /// Next jitter value in 0..16 (xorshift, seeded per construction and
    /// perturbed by the core's own execution history).
    fn next_jitter(&mut self) -> u64 {
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        self.jitter & 15
    }

    fn get(&self, r: Xreg) -> u64 {
        if r.0 == 31 {
            0
        } else {
            self.regs[r.index()]
        }
    }

    fn set(&mut self, r: Xreg, v: u64) {
        if r.0 != 31 {
            self.regs[r.index()] = v;
        }
    }
}

/// The host machine.
pub struct Machine {
    /// Shared memory (guest address space + runtime areas).
    pub mem: SparseMem,
    cores: Vec<Core>,
    code: Vec<u8>,
    /// Pre-decoded instructions, indexed by `code` offset (same length
    /// as `code`); `None` until first fetched. Every write into `code`
    /// clears the entries it overlaps (see DESIGN.md §6).
    decoded: Vec<Option<(HostInsn, u16)>>,
    tb_map: HashMap<u64, u64>,
    natives: Vec<NativeFn>,
    cost: CostModel,
    /// Recent RMW sites for the contention model: addr → (cycle, core).
    rmw_history: IntMap<u64, Vec<(u64, usize)>>,
    total_steps: u64,
    sched: SchedPolicy,
    sched_state: u64,
    /// TB chaining on/off. Off = every exit takes the dispatcher path
    /// (the reference configuration for differential checks).
    chaining: bool,
    chain_stats: ChainStats,
    cache_stats: CacheStats,
    /// Per-TB execution profile (guest pc → counts), `None` unless
    /// enabled — the common case pays only this `Option` check.
    profile: Option<HashMap<u64, TbProf>>,
    /// Reverse chain index: target guest pc → host pcs of the
    /// `ExitTb(Jump)` sites currently patched to point at its translation.
    /// Consulted on unmap so every chain into a dead TB is unlinked
    /// *before* the mapping (and the code bytes) go away.
    incoming: HashMap<u64, Vec<u64>>,
    /// Install regions: host start address → encoded byte length.
    regions: HashMap<u64, usize>,
    /// Reusable holes in `code`: (byte offset, length), unordered.
    free_list: Vec<(usize, usize)>,
    /// Regions whose free is deferred because a core was parked inside
    /// them when they were unmapped; retried on later installs/unmaps.
    pending_free: Vec<(u64, usize)>,
    /// Hotness threshold for [`Event::HotTb`]; `None` disables tier-2
    /// promotion signalling entirely (the default).
    hot_threshold: Option<u64>,
    /// Guest pcs whose current translation is a superblock. Suppresses
    /// re-promotion signals and feeds `ChainStats::sb_entries`.
    sb_heads: HashSet<u64>,
    /// Ordered atomic RMW event log; `None` (the default) disables
    /// recording entirely. See [`Machine::set_atomic_log`].
    atomic_log: Option<Vec<AtomicEvent>>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("code_bytes", &self.code.len())
            .field("tbs", &self.tb_map.len())
            .field("natives", &self.natives.len())
            .finish()
    }
}

impl Machine {
    /// Creates a machine with `n_cores` (all idle) and a cost model.
    pub fn new(n_cores: usize, cost: CostModel) -> Machine {
        Machine {
            mem: SparseMem::new(),
            cores: (0..n_cores)
                .map(|i| {
                    let mut c = Core::new();
                    c.jitter = c.jitter.wrapping_mul(i as u64 * 2 + 1);
                    c
                })
                .collect(),
            code: Vec::new(),
            decoded: Vec::new(),
            tb_map: HashMap::new(),
            natives: Vec::new(),
            cost,
            rmw_history: IntMap::default(),
            total_steps: 0,
            sched: SchedPolicy::Deterministic,
            sched_state: 0x243F_6A88_85A3_08D3,
            chaining: true,
            chain_stats: ChainStats::default(),
            cache_stats: CacheStats::default(),
            profile: None,
            incoming: HashMap::new(),
            regions: HashMap::new(),
            free_list: Vec::new(),
            pending_free: Vec::new(),
            hot_threshold: None,
            sb_heads: HashSet::new(),
            atomic_log: None,
        }
    }

    /// Enables or disables the ordered atomic-access event log (off by
    /// default; purely observational — never affects cycles, memory or
    /// scheduling). Differential harnesses use the per-core sequence of
    /// [`AtomicEvent`]s as an ordering oracle across translation
    /// configurations. Toggling in either direction clears the log.
    pub fn set_atomic_log(&mut self, on: bool) {
        self.atomic_log = if on { Some(Vec::new()) } else { None };
    }

    /// Drains and returns the recorded atomic events (empty when the log
    /// is disabled). Recording continues afterwards if enabled.
    pub fn take_atomic_log(&mut self) -> Vec<AtomicEvent> {
        self.atomic_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn log_atomic(&mut self, core: usize, addr: u64, old: u64, new: u64) {
        if let Some(log) = &mut self.atomic_log {
            log.push(AtomicEvent { core, addr, old, new });
        }
    }

    /// Enables or disables TB chaining and the indirect jump cache.
    ///
    /// Disabled, every exit resolves through the `tb_map` dispatcher
    /// (charged `cost.tb_dispatch`) — the reference configuration that
    /// chained runs are differentially checked against. Chain slots
    /// already patched keep being maintained (unmapping still unlinks
    /// them) but are ignored, so the flag can be toggled at any point.
    pub fn set_chaining(&mut self, on: bool) {
        self.chaining = on;
    }

    /// Machine-wide chaining/dispatch counters.
    pub fn chain_stats(&self) -> ChainStats {
        self.chain_stats
    }

    /// Machine-wide code-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// Enables or disables the per-TB execution profile (off by default;
    /// purely observational — never affects cycles or scheduling).
    /// Disabling discards any collected profile; re-enabling an already
    /// active profile keeps its counts.
    pub fn set_profiling(&mut self, on: bool) {
        if on {
            if self.profile.is_none() {
                self.profile = Some(HashMap::new());
            }
        } else {
            self.profile = None;
        }
    }

    /// The collected per-TB execution profile (guest pc → counts), or
    /// `None` if profiling was never enabled.
    pub fn tb_profile(&self) -> Option<&HashMap<u64, TbProf>> {
        self.profile.as_ref()
    }

    /// Records a block entry in the profile, if enabled. Returns `true`
    /// when the entry crossed the hotness threshold and the block is not
    /// already a superblock head — the caller turns that into
    /// [`Event::HotTb`] *after* completing the transfer.
    fn profile_entry(&mut self, guest_pc: u64, miss: bool) -> bool {
        if !self.sb_heads.is_empty() && self.sb_heads.contains(&guest_pc) {
            self.chain_stats.sb_entries += 1;
        }
        if let Some(p) = &mut self.profile {
            let e = p.entry(guest_pc).or_default();
            e.execs += 1;
            e.chain_misses += miss as u64;
            if let Some(t) = self.hot_threshold {
                return e.execs % t == 0 && !self.sb_heads.contains(&guest_pc);
            }
        }
        false
    }

    /// Sets the execution-count threshold at which a profiled block
    /// raises [`Event::HotTb`] (every `t` entries, so a declined
    /// promotion retriggers later). Requires profiling
    /// ([`Machine::set_profiling`]) to be on to have any effect;
    /// `None` (the default) never raises the event. Values are clamped
    /// to at least 1.
    pub fn set_hot_threshold(&mut self, threshold: Option<u64>) {
        self.hot_threshold = threshold.map(|t| t.max(1));
    }

    /// `true` if `guest_pc`'s current translation is a superblock.
    pub fn is_sb_head(&self, guest_pc: u64) -> bool {
        self.sb_heads.contains(&guest_pc)
    }

    /// Selects the scheduling policy (see [`SchedPolicy`]).
    pub fn set_sched_policy(&mut self, policy: SchedPolicy) {
        self.sched = policy;
        if let SchedPolicy::Random(seed) = policy {
            // Never let the xorshift state be zero.
            self.sched_state = seed | 1;
        }
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Installs encoded host instructions; returns their start address.
    ///
    /// Freed regions (from [`Machine::unmap_tb`]) are reused first-fit, so
    /// retranslation churn does not grow the code buffer without bound.
    pub fn install_code(&mut self, insns: &[HostInsn]) -> u64 {
        let mut bytes = Vec::new();
        for i in insns {
            i.encode(&mut bytes);
        }
        self.retry_pending_frees();
        self.cache_stats.installs += 1;
        let addr = match self.free_list.iter().position(|&(_, len)| len >= bytes.len()) {
            Some(slot) => {
                self.cache_stats.region_reuses += 1;
                let (off, len) = self.free_list.swap_remove(slot);
                self.code[off..off + bytes.len()].copy_from_slice(&bytes);
                self.forget_decoded(off, bytes.len());
                if len > bytes.len() {
                    self.free_list.push((off + bytes.len(), len - bytes.len()));
                }
                CODE_BASE + off as u64
            }
            None => {
                let off = self.code.len();
                self.code.extend_from_slice(&bytes);
                self.decoded.resize(self.code.len(), None);
                CODE_BASE + off as u64
            }
        };
        self.regions.insert(addr, bytes.len());
        addr
    }

    /// Total bytes of installed host code (code-cache footprint,
    /// including holes awaiting reuse).
    pub fn code_size(&self) -> usize {
        self.code.len()
    }

    /// Registers a translation: guest pc → host code address.
    ///
    /// Remapping a guest pc to a *different* host address first unlinks
    /// every chain and jump-cache entry into the old translation and
    /// releases its region (the engine's `link_library` rebinding path).
    pub fn map_tb(&mut self, guest_pc: u64, host_pc: u64) {
        if let Some(old) = self.tb_map.insert(guest_pc, host_pc) {
            if old != host_pc {
                self.unlink_incoming(guest_pc);
                self.flush_jcache(guest_pc);
                self.free_region(old);
                // A rebound pc is a fresh tier-1 body; demote it so the
                // profiler may promote the new translation later.
                self.sb_heads.remove(&guest_pc);
            }
        }
    }

    /// Looks up a translation.
    pub fn lookup_tb(&self, guest_pc: u64) -> Option<u64> {
        self.tb_map.get(&guest_pc).copied()
    }

    /// Removes a translation mapping (cache eviction / invalidation).
    ///
    /// Ordering is the safety argument (DESIGN.md §11): first every chain
    /// slot and jump-cache entry pointing into the dead translation is
    /// unlinked — so no core can reach the stale body without going
    /// through the dispatcher, which no longer finds it — and only then
    /// is the mapping dropped and the code region released for reuse.
    /// Returns `true` if a mapping existed.
    pub fn unmap_tb(&mut self, guest_pc: u64) -> bool {
        let Some(host) = self.tb_map.remove(&guest_pc) else {
            return false;
        };
        self.cache_stats.evictions += 1;
        self.sb_heads.remove(&guest_pc);
        self.unlink_incoming(guest_pc);
        self.flush_jcache(guest_pc);
        self.free_region(host);
        self.retry_pending_frees();
        true
    }

    /// Installs a tier-2 superblock: `code` replaces `head`'s tier-1
    /// translation, and every other trace member in `subsumed` is
    /// evicted so future transfers to those pcs dispatch into fresh
    /// tier-1 bodies (retranslated on miss) rather than stale copies.
    ///
    /// Uses only the existing [`Machine::unmap_tb`] / [`Machine::map_tb`]
    /// paths, so the chain-unlink ordering, jump-cache flushes, and
    /// deferred-free discipline all hold unchanged. Returns the host
    /// address of the installed superblock.
    pub fn install_superblock(&mut self, head: u64, code: &[HostInsn], subsumed: &[u64]) -> u64 {
        let host = self.install_code(code);
        self.cache_stats.sb_installs += 1;
        for &pc in subsumed {
            if pc != head && self.unmap_tb(pc) {
                self.cache_stats.sb_subsumed += 1;
            }
        }
        self.map_tb(head, host);
        // After map_tb: the remap branch demotes, then we promote.
        self.sb_heads.insert(head);
        host
    }

    /// Audits the chain graph: every recorded incoming site must hold a
    /// chain word that is either 0 (unlinked) or the current host address
    /// of its target translation. Returns `(target_guest_pc, site,
    /// stale_word)` for each violation — empty means no dangling chains.
    pub fn validate_chains(&self) -> Vec<(u64, u64, u64)> {
        let mut bad = Vec::new();
        for (&target, sites) in &self.incoming {
            let expect = self.tb_map.get(&target).copied();
            for &site in sites {
                let off = (site - CODE_BASE) as usize + JUMP_CHAIN_OFFSET;
                let word = u64::from_le_bytes(self.code[off..off + 8].try_into().unwrap());
                if word != 0 && Some(word) != expect {
                    bad.push((target, site, word));
                }
            }
        }
        bad
    }

    /// Writes `target` into the chain word of the `ExitTb(Jump)` encoded
    /// at host pc `site` and drops the now-stale pre-decoded entries.
    fn patch_chain(&mut self, site: u64, target: u64) {
        let start = (site - CODE_BASE) as usize;
        let off = start + JUMP_CHAIN_OFFSET;
        debug_assert!(off + 8 <= self.code.len(), "chain site outside code");
        self.code[off..off + 8].copy_from_slice(&target.to_le_bytes());
        self.forget_decoded(start, JUMP_CHAIN_OFFSET + 8);
    }

    /// Drops the pre-decoded entries of the `len` code bytes at offset
    /// `off` (called whenever those bytes change).
    fn forget_decoded(&mut self, off: usize, len: usize) {
        self.decoded[off..off + len].fill(None);
    }

    /// Un-patches every chain slot currently pointing at `guest_pc`'s
    /// translation (writes 0 = unresolved back into each site).
    fn unlink_incoming(&mut self, guest_pc: u64) {
        if let Some(sites) = self.incoming.remove(&guest_pc) {
            for site in sites {
                self.patch_chain(site, 0);
                self.chain_stats.chain_flushes += 1;
            }
        }
    }

    /// Drops `guest_pc` from every core's indirect jump cache.
    fn flush_jcache(&mut self, guest_pc: u64) {
        let idx = Self::jcache_idx(guest_pc);
        for c in &mut self.cores {
            if c.jcache[idx].0 == guest_pc {
                c.jcache[idx] = (u64::MAX, 0);
                self.chain_stats.chain_flushes += 1;
            }
        }
    }

    fn jcache_idx(guest_pc: u64) -> usize {
        ((guest_pc ^ (guest_pc >> 6)) as usize) & (JCACHE_SIZE - 1)
    }

    /// Releases the install region starting at `host_start`, deferring if
    /// a live core is still parked inside it.
    fn free_region(&mut self, host_start: u64) {
        let Some(len) = self.regions.remove(&host_start) else {
            return;
        };
        // Defensive: never free a region another mapping still targets.
        if self.tb_map.values().any(|&h| h == host_start) {
            self.regions.insert(host_start, len);
            return;
        }
        if self.core_in_range(host_start, len) {
            self.pending_free.push((host_start, len));
        } else {
            self.do_free(host_start, len);
        }
    }

    fn core_in_range(&self, start: u64, len: usize) -> bool {
        let end = start + len as u64;
        self.cores.iter().any(|c| c.started && !c.halted && c.pc >= start && c.pc < end)
    }

    /// Actually reclaims a region: purges pre-decoded entries and
    /// recorded chain sites inside it, then adds it to the free list.
    fn do_free(&mut self, start: u64, len: usize) {
        let end = start + len as u64;
        self.forget_decoded((start - CODE_BASE) as usize, len);
        // Chain sites *inside* the dead body must be forgotten, or a later
        // unmap of their target would patch bytes that now belong to a
        // different translation.
        for sites in self.incoming.values_mut() {
            sites.retain(|&s| s < start || s >= end);
        }
        self.incoming.retain(|_, v| !v.is_empty());
        self.free_list.push(((start - CODE_BASE) as usize, len));
    }

    fn retry_pending_frees(&mut self) {
        if self.pending_free.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_free);
        for (start, len) in pending {
            if self.core_in_range(start, len) {
                self.pending_free.push((start, len));
            } else {
                self.do_free(start, len);
            }
        }
    }

    /// Guest pcs with an installed translation, in unspecified order.
    pub fn mapped_tbs(&self) -> Vec<u64> {
        self.tb_map.keys().copied().collect()
    }

    /// The encoded bytes of the install region starting at `host_start`
    /// (as returned by [`Machine::install_code`]), or `None` if no such
    /// region exists. Used by the install-time encoding verifier to
    /// read back what actually landed in the code cache.
    pub fn code_bytes(&self, host_start: u64) -> Option<&[u8]> {
        let len = *self.regions.get(&host_start)?;
        let off = host_start.checked_sub(CODE_BASE)? as usize;
        self.code.get(off..off + len)
    }

    /// Releases an install region that was never mapped (or already
    /// unmapped) — the install-time verifier's rejection path, so a
    /// quarantined translation doesn't leak code-cache space.
    pub fn discard_region(&mut self, host_start: u64) {
        self.free_region(host_start);
    }

    /// Flips one byte (xor `0xff`) inside the install region at
    /// `host_start`, returning `true` if the offset was in bounds.
    /// This is the fault-injection hook modelling code-cache corruption
    /// *at install time* (bit flips between encoding and mapping);
    /// `VerifyLevel::Install` must catch it before dispatch.
    pub fn corrupt_code_byte(&mut self, host_start: u64, offset: usize) -> bool {
        let Some(&len) = self.regions.get(&host_start) else {
            return false;
        };
        if offset >= len {
            return false;
        }
        let start = (host_start - CODE_BASE) as usize;
        self.code[start + offset] ^= 0xff;
        self.forget_decoded(start, len);
        true
    }

    /// Registers a native host function; returns its index for
    /// [`HostInsn::NativeCall`].
    pub fn register_native(&mut self, f: NativeFn) -> u16 {
        self.natives.push(f);
        (self.natives.len() - 1) as u16
    }

    /// Starts (or restarts) a core at a host code address.
    pub fn start_core(&mut self, core: usize, host_pc: u64) {
        let c = &mut self.cores[core];
        c.pc = host_pc;
        c.halted = false;
        c.started = true;
    }

    /// Sets a core register (engine use: env pointers, arguments).
    pub fn set_reg(&mut self, core: usize, r: Xreg, v: u64) {
        self.cores[core].set(r, v);
    }

    /// Reads a core register.
    pub fn reg(&self, core: usize, r: Xreg) -> u64 {
        self.cores[core].get(r)
    }

    /// Redirects a core to another host pc (engine use after servicing an
    /// event).
    pub fn set_pc(&mut self, core: usize, host_pc: u64) {
        self.cores[core].pc = host_pc;
    }

    /// Halts a core (engine use: guest thread exit).
    pub fn halt_core(&mut self, core: usize) {
        let c = &mut self.cores[core];
        Self::drain_all_of(&mut c.store_buffer, &mut self.mem);
        c.halted = true;
    }

    /// `true` if the core has halted.
    pub fn core_halted(&self, core: usize) -> bool {
        self.cores[core].halted
    }

    /// The core's current host pc (diagnostics / state dumps).
    pub fn core_pc(&self, core: usize) -> u64 {
        self.cores[core].pc
    }

    /// Drains the core's store buffer to shared memory, invalidating
    /// foreign exclusive monitors — the same synchronization a helper or
    /// native call performs at its ABI boundary. The engine uses this
    /// before interpreting a guest block on the core's behalf.
    pub fn drain_store_buffer(&mut self, core: usize) {
        self.drain_all(core);
    }

    /// An idle core index (never started), if any.
    pub fn idle_core(&self) -> Option<usize> {
        self.cores.iter().position(|c| !c.started)
    }

    /// The core's local clock.
    pub fn core_cycles(&self, core: usize) -> u64 {
        self.cores[core].cycles
    }

    /// Advances a core's clock without executing (engine use: model a
    /// blocked wait, e.g. a guest `join` retry).
    pub fn add_cycles(&mut self, core: usize, cycles: u64) {
        self.cores[core].cycles += cycles;
    }

    /// Total executed machine steps across all cores.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// The machine clock: max over started cores (parallel runtime).
    pub fn clock(&self) -> u64 {
        self.cores.iter().filter(|c| c.started).map(|c| c.cycles).max().unwrap_or(0)
    }

    /// Per-core statistics.
    pub fn stats(&self, core: usize) -> CoreStats {
        self.cores[core].stats
    }

    /// Aggregated statistics over all cores.
    pub fn total_stats(&self) -> CoreStats {
        let mut t = CoreStats::default();
        for c in &self.cores {
            t.insns += c.stats.insns;
            for i in 0..3 {
                t.dmb[i] += c.stats.dmb[i];
            }
            t.atomics += c.stats.atomics;
            t.helper_calls += c.stats.helper_calls;
            t.native_calls += c.stats.native_calls;
            t.fence_cycles += c.stats.fence_cycles;
        }
        t
    }

    fn drain_all_of(buf: &mut VecDeque<(u64, u64, u64)>, mem: &mut SparseMem) {
        while let Some((a, v, _)) = buf.pop_front() {
            mem.write_u64(a, v);
        }
    }

    fn drain_all(&mut self, core: usize) {
        while let Some((a, v, _)) = self.cores[core].store_buffer.pop_front() {
            self.mem.write_u64(a, v);
            Self::invalidate_monitors(&mut self.cores, core, a);
        }
    }

    fn drain_aged(&mut self, core: usize) {
        if self.cores[core].store_buffer.is_empty() {
            return;
        }
        let now = self.cores[core].cycles;
        while let Some(&(a, v, t)) = self.cores[core].store_buffer.front() {
            if now.saturating_sub(t) < DRAIN_AGE
                && self.cores[core].store_buffer.len() <= STORE_BUFFER_CAP
            {
                break;
            }
            self.cores[core].store_buffer.pop_front();
            self.mem.write_u64(a, v);
            Self::invalidate_monitors(&mut self.cores, core, a);
        }
    }

    fn invalidate_monitors(cores: &mut [Core], writer: usize, addr: u64) {
        for (i, c) in cores.iter_mut().enumerate() {
            if i != writer && c.monitor == Some(addr) {
                c.monitor = None;
            }
        }
    }

    fn buffered_overlap(&self, core: usize, addr: u64) -> bool {
        self.cores[core].store_buffer.iter().any(|&(a, _, _)| a != addr && a.abs_diff(addr) < 8)
    }

    /// Cycle cost of an exclusive/atomic access to `addr`: `base` plus the
    /// cache-line ping-pong penalty per recently contending core plus a
    /// little seeded jitter. The penalty is physical (line ownership), so
    /// it applies to `casal`/`ldaddal`, helper atomics *and* `ldxr`.
    fn atomic_cost(&mut self, core: usize, addr: u64, base: u64) -> u64 {
        let now = self.cores[core].cycles;
        let window = self.cost.contend_window;
        let hist = self.rmw_history.entry(addr & !7).or_default();
        hist.retain(|&(t, _)| now.saturating_sub(t) <= window);
        // Distinct other cores: count each at its first occurrence.
        let others = (0..hist.len())
            .filter(|&i| {
                let c = hist[i].1;
                c != core && hist[..i].iter().all(|&(_, d)| d != c)
            })
            .count();
        hist.push((now, core));
        let jitter = self.cores[core].next_jitter();
        base + self.cost.atomic_contend * others as u64 + jitter
    }

    /// Runs until an [`Event`] occurs, executing at most `fuel` steps.
    ///
    /// The picked core keeps running while it would be picked again,
    /// i.e. while its clock stays below the limit `pick_core` returned.
    /// Stepping one core never changes another core's clock or run
    /// state, so this is exactly the step-by-step schedule.
    pub fn run(&mut self, fuel: u64) -> Event {
        let mut budget = fuel;
        loop {
            let Some((core, limit)) = self.pick_core() else {
                return Event::AllHalted;
            };
            loop {
                if budget == 0 {
                    return Event::OutOfFuel;
                }
                budget -= 1;
                if let Some(ev) = self.step(core) {
                    return ev;
                }
                let c = &self.cores[core];
                if c.halted || c.cycles >= limit {
                    break;
                }
            }
        }
    }

    /// Picks the next runnable core per the scheduling policy, with the
    /// clock below which it may keep running before the next pick. Only
    /// the deterministic policy runs a quantum; the others return limit
    /// 0 and re-pick after every step.
    fn pick_core(&mut self) -> Option<(usize, u64)> {
        let runnable = |c: &Core| c.started && !c.halted;
        match self.sched {
            SchedPolicy::Deterministic => {
                // Smallest and second-smallest `(cycles, index)` keys. The
                // winner stays smallest while its clock is below the
                // runner-up's, or equal to it if the winner's index is lower.
                const NONE: (u64, usize) = (u64::MAX, usize::MAX);
                let (mut best, mut runner_up) = (NONE, NONE);
                for (i, c) in self.cores.iter().enumerate().filter(|(_, c)| runnable(c)) {
                    let key = (c.cycles, i);
                    if key < best {
                        runner_up = best;
                        best = key;
                    } else if key < runner_up {
                        runner_up = key;
                    }
                }
                let limit = runner_up.0.saturating_add(u64::from(best.1 < runner_up.1));
                (best != NONE).then_some((best.1, limit))
            }
            SchedPolicy::Adversarial => {
                let mut pick: Option<usize> = None;
                for (i, c) in self.cores.iter().enumerate() {
                    if runnable(c) && pick.is_none_or(|p| c.cycles > self.cores[p].cycles) {
                        pick = Some(i);
                    }
                }
                pick.map(|p| (p, 0))
            }
            SchedPolicy::Random(_) => {
                let n = self.cores.iter().filter(|c| runnable(c)).count();
                if n == 0 {
                    return None;
                }
                let mut x = self.sched_state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.sched_state = x;
                let k = (x % n as u64) as usize;
                let pick = self.cores.iter().enumerate().filter(|(_, c)| runnable(c)).nth(k);
                pick.map(|(i, _)| (i, 0))
            }
        }
    }

    /// Decodes (with caching) at a host pc. `None` on undecodable bytes
    /// or a pc outside the installed code cache.
    fn fetch(&mut self, pc: u64) -> Option<(HostInsn, u16)> {
        let off = usize::try_from(pc.checked_sub(CODE_BASE)?).ok()?;
        let slot = self.decoded.get_mut(off)?;
        if slot.is_none() {
            let (insn, len) = HostInsn::decode(&self.code[off..]).ok()?;
            *slot = Some((insn, len as u16));
        }
        *slot
    }

    /// Executes one instruction on `core`; returns an event if the machine
    /// must suspend.
    fn step(&mut self, core: usize) -> Option<Event> {
        self.total_steps += 1;
        self.drain_aged(core);
        let pc = self.cores[core].pc;
        let Some((insn, len)) = self.fetch(pc) else {
            // Leave the core parked on the faulting pc; the engine owns
            // the recovery decision.
            return Some(Event::HostFault { core, host_pc: pc, kind: HostFaultKind::Decode });
        };
        let next = pc + len as u64;
        let cost = &{ self.cost };
        {
            let c = &mut self.cores[core];
            c.pc = next;
            c.stats.insns += 1;
        }
        use HostInsn::*;
        match insn {
            MovImm { dst, imm } => {
                self.cores[core].set(dst, imm);
                self.cores[core].cycles += cost.alu;
            }
            MovReg { dst, src } => {
                let v = self.cores[core].get(src);
                self.cores[core].set(dst, v);
                self.cores[core].cycles += cost.alu;
            }
            Ldr { dst, base, off, order } => {
                let addr = self.cores[core].get(base).wrapping_add(off as i64 as u64);
                // One newest-first scan: forward the newest exact match,
                // unless some entry overlaps `addr` without equalling it —
                // then drain the buffer and read memory.
                let mut hit = None;
                let mut overlap = false;
                for &(a, v, _) in self.cores[core].store_buffer.iter().rev() {
                    if a == addr {
                        hit = hit.or(Some(v));
                    } else if a.abs_diff(addr) < 8 {
                        overlap = true;
                        break;
                    }
                }
                if overlap {
                    self.drain_all(core);
                    hit = None;
                }
                let v = hit.unwrap_or_else(|| self.mem.read_u64(addr));
                self.cores[core].set(dst, v);
                self.cores[core].cycles +=
                    cost.load + if order == MemOrder::Plain { 0 } else { cost.acq_rel_extra };
            }
            Str { src, base, off, order } => {
                let addr = self.cores[core].get(base).wrapping_add(off as i64 as u64);
                let v = self.cores[core].get(src);
                if self.buffered_overlap(core, addr) {
                    self.drain_all(core);
                }
                // All stores go through the FIFO buffer; its order already
                // gives release stores their prior-store ordering (the
                // machine never delays loads), so `stlr` needs no drain —
                // only its extra latency.
                if order != MemOrder::Plain {
                    self.cores[core].cycles += cost.acq_rel_extra;
                }
                let cyc = self.cores[core].cycles;
                self.cores[core].store_buffer.push_back((addr, v, cyc));
                self.cores[core].cycles += cost.store;
            }
            LdrB { dst, base, off } => {
                let addr = self.cores[core].get(base).wrapping_add(off as i64 as u64);
                // Byte loads bypass the (u64-granular) store buffer: drain
                // any overlapping entries first.
                if self.cores[core].store_buffer.iter().any(|&(a, _, _)| a.abs_diff(addr) < 8) {
                    self.drain_all(core);
                }
                let v = self.mem.read_u8(addr) as u64;
                self.cores[core].set(dst, v);
                self.cores[core].cycles += cost.load;
            }
            StrB { src, base, off } => {
                let addr = self.cores[core].get(base).wrapping_add(off as i64 as u64);
                let v = self.cores[core].get(src) as u8;
                self.drain_all(core);
                self.mem.write_u8(addr, v);
                Self::invalidate_monitors(&mut self.cores, core, addr & !7);
                self.cores[core].cycles += cost.store;
            }
            Ldxr { dst, addr, acquire } => {
                let a = self.cores[core].get(addr);
                self.drain_all(core);
                let v = self.mem.read_u64(a);
                self.cores[core].set(dst, v);
                self.cores[core].monitor = Some(a);
                // Taking the line exclusively pays the same ping-pong
                // penalty as a single-instruction atomic.
                let ac = self.atomic_cost(core, a, cost.exclusive);
                self.cores[core].cycles += ac + if acquire { cost.acq_rel_extra } else { 0 };
            }
            Stxr { status, src, addr, release } => {
                let a = self.cores[core].get(addr);
                let v = self.cores[core].get(src);
                self.drain_all(core);
                let ok = self.cores[core].monitor == Some(a);
                self.cores[core].monitor = None;
                if ok {
                    if self.atomic_log.is_some() {
                        let prev = self.mem.read_u64(a);
                        self.log_atomic(core, a, prev, v);
                    }
                    self.mem.write_u64(a, v);
                    Self::invalidate_monitors(&mut self.cores, core, a);
                }
                self.cores[core].set(status, if ok { 0 } else { 1 });
                self.cores[core].stats.atomics += 1;
                self.cores[core].cycles +=
                    cost.exclusive + if release { cost.acq_rel_extra } else { 0 };
            }
            Cas { cmp_old, new, addr, acq_rel } => {
                let a = self.cores[core].get(addr);
                self.drain_all(core);
                let expected = self.cores[core].get(cmp_old);
                let newv = self.cores[core].get(new);
                let old = self.mem.read_u64(a);
                if old == expected {
                    self.mem.write_u64(a, newv);
                    Self::invalidate_monitors(&mut self.cores, core, a);
                }
                self.log_atomic(core, a, old, if old == expected { newv } else { old });
                self.cores[core].set(cmp_old, old);
                self.cores[core].stats.atomics += 1;
                let extra = if acq_rel { cost.acq_rel_extra } else { 0 };
                let ac = self.atomic_cost(core, a, cost.atomic);
                self.cores[core].cycles += ac + extra;
            }
            LdaddAl { old, addend, addr } => {
                let a = self.cores[core].get(addr);
                self.drain_all(core);
                let add = self.cores[core].get(addend);
                let prev = self.mem.read_u64(a);
                self.mem.write_u64(a, prev.wrapping_add(add));
                Self::invalidate_monitors(&mut self.cores, core, a);
                self.log_atomic(core, a, prev, prev.wrapping_add(add));
                self.cores[core].set(old, prev);
                self.cores[core].stats.atomics += 1;
                let ac = self.atomic_cost(core, a, cost.atomic);
                self.cores[core].cycles += ac;
            }
            Barrier(d) => {
                // Only the full barrier needs a drain: it orders prior
                // writes against later *reads*. `DMB ST` (write→write) is
                // free ordering under a FIFO buffer, and `DMB LD` orders
                // loads, which this machine never delays.
                match d {
                    Dmb::Ff => self.drain_all(core),
                    Dmb::Ld | Dmb::St => {}
                }
                let c = &mut self.cores[core];
                let cyc = match d {
                    Dmb::Ld => cost.dmb_ld,
                    Dmb::St => cost.dmb_st,
                    Dmb::Ff => cost.dmb_ff,
                };
                c.stats.dmb[d as usize] += 1;
                c.stats.fence_cycles += cyc;
                c.cycles += cyc;
            }
            Alu { op, dst, a, b } => {
                let c = &mut self.cores[core];
                let r = op.apply(c.get(a), c.get(b));
                c.set(dst, r);
                c.cycles += match op {
                    AOp::Mul => cost.mul,
                    AOp::Udiv | AOp::Urem => cost.div,
                    _ => cost.alu,
                };
            }
            AluImm { op, dst, a, imm } => {
                let c = &mut self.cores[core];
                let r = op.apply(c.get(a), imm);
                c.set(dst, r);
                c.cycles += match op {
                    AOp::Mul => cost.mul,
                    AOp::Udiv | AOp::Urem => cost.div,
                    _ => cost.alu,
                };
            }
            Cmp { a, b } => {
                let c = &mut self.cores[core];
                c.nzcv = Nzcv::from_cmp(c.get(a), c.get(b));
                c.cycles += cost.alu;
            }
            CmpImm { a, imm } => {
                let c = &mut self.cores[core];
                c.nzcv = Nzcv::from_cmp(c.get(a), imm);
                c.cycles += cost.alu;
            }
            Cset { dst, cond } => {
                let c = &mut self.cores[core];
                let v = cond.eval(c.nzcv) as u64;
                c.set(dst, v);
                c.cycles += cost.alu;
            }
            Fp { op, dst, a, b } => {
                let c = &mut self.cores[core];
                let r = op.apply(c.get(a), c.get(b));
                c.set(dst, r);
                c.cycles += cost.hardfloat;
            }
            BCond { cond, rel } => {
                let c = &mut self.cores[core];
                if cond.eval(c.nzcv) {
                    c.pc = next.wrapping_add(rel as i64 as u64);
                }
                c.cycles += cost.branch;
            }
            B { rel } => {
                let c = &mut self.cores[core];
                c.pc = next.wrapping_add(rel as i64 as u64);
                c.cycles += cost.branch;
            }
            Br { reg } => {
                let c = &mut self.cores[core];
                c.pc = c.get(reg);
                c.cycles += cost.branch;
            }
            Bl { rel } => {
                let c = &mut self.cores[core];
                c.set(Xreg::LR, next);
                c.pc = next.wrapping_add(rel as i64 as u64);
                c.cycles += cost.call;
            }
            Blr { reg } => {
                let c = &mut self.cores[core];
                c.set(Xreg::LR, next);
                c.pc = c.get(reg);
                c.cycles += cost.call;
            }
            Ret => {
                let c = &mut self.cores[core];
                c.pc = c.get(Xreg::LR);
                c.cycles += cost.call;
            }
            Hcall { helper } => {
                if let Some(ev) = self.exec_helper(core, pc, helper) {
                    return Some(ev);
                }
            }
            NativeCall { func } => {
                if self.natives.get(func as usize).is_none() {
                    self.cores[core].pc = pc;
                    return Some(Event::HostFault {
                        core,
                        host_pc: pc,
                        kind: HostFaultKind::UnknownNative(func),
                    });
                }
                let args = [
                    self.cores[core].get(Xreg(0)),
                    self.cores[core].get(Xreg(1)),
                    self.cores[core].get(Xreg(2)),
                    self.cores[core].get(Xreg(3)),
                    self.cores[core].get(Xreg(4)),
                    self.cores[core].get(Xreg(5)),
                ];
                // Native code runs with the host's own ordering; it
                // synchronizes through its ABI boundary — drain first.
                self.drain_all(core);
                let f = &mut self.natives[func as usize];
                let res = f(&mut self.mem, &args);
                self.cores[core].set(Xreg(0), res.ret);
                self.cores[core].stats.native_calls += 1;
                self.cores[core].cycles += res.cost + cost.call;
            }
            ExitTb(kind) => {
                return self.exit_tb(core, pc, kind);
            }
            Hlt => {
                self.drain_all(core);
                self.cores[core].halted = true;
            }
            Nop => self.cores[core].cycles += cost.alu,
        }
        None
    }

    fn exec_helper(&mut self, core: usize, pc: u64, helper: u8) -> Option<Event> {
        // Helper indices mirror risotto_tcg::Helper declaration order.
        let cost = self.cost;
        if helper > 8 {
            // Park the core on the Hcall itself, as for other host faults.
            self.cores[core].pc = pc;
            return Some(Event::HostFault {
                core,
                host_pc: pc,
                kind: HostFaultKind::UnknownHelper(helper),
            });
        }
        self.cores[core].stats.helper_calls += 1;
        self.cores[core].cycles += cost.helper_overhead;
        let a0 = self.cores[core].get(Xreg(0));
        let a1 = self.cores[core].get(Xreg(1));
        let a2 = self.cores[core].get(Xreg(2));
        let ret = match helper {
            0 => {
                // CmpxchgSc(addr, expected, new) — GCC builtin: casal.
                self.drain_all(core);
                let old = self.mem.read_u64(a0);
                if old == a1 {
                    self.mem.write_u64(a0, a2);
                    Self::invalidate_monitors(&mut self.cores, core, a0);
                }
                self.log_atomic(core, a0, old, if old == a1 { a2 } else { old });
                self.cores[core].stats.atomics += 1;
                let ac = self.atomic_cost(core, a0, cost.atomic);
                self.cores[core].cycles += ac;
                old
            }
            1 => {
                // XaddSc(addr, addend).
                self.drain_all(core);
                let old = self.mem.read_u64(a0);
                self.mem.write_u64(a0, old.wrapping_add(a1));
                Self::invalidate_monitors(&mut self.cores, core, a0);
                self.log_atomic(core, a0, old, old.wrapping_add(a1));
                self.cores[core].stats.atomics += 1;
                let ac = self.atomic_cost(core, a0, cost.atomic);
                self.cores[core].cycles += ac;
                old
            }
            // Soft-float helpers: the shared deterministic f64
            // semantics (risotto_guest_x86::softfloat), bit-identical
            // to the interpreter and the hardware-FP path.
            2 => {
                self.cores[core].cycles += cost.softfloat;
                softfloat::add(a0, a1)
            }
            3 => {
                self.cores[core].cycles += cost.softfloat;
                softfloat::sub(a0, a1)
            }
            4 => {
                self.cores[core].cycles += cost.softfloat;
                softfloat::mul(a0, a1)
            }
            5 => {
                self.cores[core].cycles += cost.softfloat;
                softfloat::div(a0, a1)
            }
            6 => {
                self.cores[core].cycles += cost.softfloat * 2;
                softfloat::sqrt(a1)
            }
            7 => {
                self.cores[core].cycles += cost.softfloat;
                softfloat::cvt_if(a1)
            }
            8 => {
                self.cores[core].cycles += cost.softfloat;
                softfloat::cvt_fi(a1)
            }
            // invariant: helper > 8 returned HostFault above.
            _ => unreachable!(),
        };
        self.cores[core].set(Xreg(0), ret);
        None
    }

    fn exit_tb(&mut self, core: usize, pc: u64, kind: TbExitKind) -> Option<Event> {
        let cost = self.cost;
        match kind {
            TbExitKind::Halt => {
                self.drain_all(core);
                self.cores[core].halted = true;
                None
            }
            TbExitKind::Syscall { next } => {
                self.drain_all(core);
                // Stay on this instruction; the engine redirects the pc.
                self.cores[core].pc = pc;
                Some(Event::GuestSyscall { core, next })
            }
            TbExitKind::Jump { guest_pc, chain } => {
                if self.chaining && chain != 0 {
                    // Patched chain slot: straight-line branch, no lookup.
                    self.chain_stats.chain_hits += 1;
                    let hot = self.profile_entry(guest_pc, false);
                    self.cores[core].pc = chain;
                    self.cores[core].cycles += cost.tb_chain;
                    if hot {
                        return Some(Event::HotTb { core, guest_pc });
                    }
                    return None;
                }
                match self.tb_map.get(&guest_pc).copied() {
                    Some(host) => {
                        self.cores[core].cycles += cost.tb_dispatch;
                        if self.chaining {
                            // Resolve once: patch the in-code chain word
                            // and record the site for later unlinking.
                            self.patch_chain(pc, host);
                            self.incoming.entry(guest_pc).or_default().push(pc);
                            self.chain_stats.chain_links += 1;
                        }
                        let hot = self.profile_entry(guest_pc, true);
                        self.cores[core].pc = host;
                        if hot {
                            return Some(Event::HotTb { core, guest_pc });
                        }
                        None
                    }
                    None => {
                        self.cores[core].pc = pc;
                        Some(Event::TranslationMiss { core, guest_pc })
                    }
                }
            }
            TbExitKind::JumpReg { reg } => {
                let guest_pc = self.cores[core].get(reg);
                let idx = Self::jcache_idx(guest_pc);
                if self.chaining {
                    let (g, h) = self.cores[core].jcache[idx];
                    if g == guest_pc {
                        self.chain_stats.dispatch_hits += 1;
                        let hot = self.profile_entry(guest_pc, false);
                        self.cores[core].pc = h;
                        self.cores[core].cycles += cost.tb_chain;
                        if hot {
                            return Some(Event::HotTb { core, guest_pc });
                        }
                        return None;
                    }
                }
                match self.tb_map.get(&guest_pc).copied() {
                    Some(host) => {
                        self.chain_stats.dispatch_misses += 1;
                        if self.chaining {
                            self.cores[core].jcache[idx] = (guest_pc, host);
                        }
                        let hot = self.profile_entry(guest_pc, true);
                        self.cores[core].pc = host;
                        self.cores[core].cycles += cost.tb_dispatch;
                        if hot {
                            return Some(Event::HotTb { core, guest_pc });
                        }
                        None
                    }
                    None => {
                        self.cores[core].pc = pc;
                        Some(Event::TranslationMiss { core, guest_pc })
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine_with(insns: &[HostInsn]) -> (Machine, u64) {
        let mut m = Machine::new(2, CostModel::uniform());
        let addr = m.install_code(insns);
        (m, addr)
    }

    #[test]
    fn straight_line_execution() {
        use HostInsn::*;
        let (mut m, a) = machine_with(&[
            MovImm { dst: Xreg(0), imm: 6 },
            MovImm { dst: Xreg(1), imm: 7 },
            Alu { op: AOp::Mul, dst: Xreg(2), a: Xreg(0), b: Xreg(1) },
            Hlt,
        ]);
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(2)), 42);
        assert_eq!(m.stats(0).insns, 4);
    }

    #[test]
    fn store_buffer_forwards_and_drains_on_dmb() {
        use HostInsn::*;
        let (mut m, a) = machine_with(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 99 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            // Own load sees the buffered store (forwarding).
            Ldr { dst: Xreg(3), base: Xreg(1), off: 0, order: MemOrder::Plain },
            Barrier(Dmb::Ff),
            Hlt,
        ]);
        m.start_core(0, a);
        m.run(100);
        assert_eq!(m.reg(0, Xreg(3)), 99);
        assert_eq!(m.mem.read_u64(0x5000), 99, "DMB FF drained the buffer");
        assert_eq!(m.stats(0).dmb[Dmb::Ff as usize], 1);
    }

    #[test]
    fn ldr_drains_an_overlapping_buffered_store() {
        use HostInsn::*;
        let (mut m, a) = machine_with(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 0x1111_1111_1111_1111 },
            MovImm { dst: Xreg(3), imm: 0x2222_2222_2222_2222 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            Str { src: Xreg(3), base: Xreg(1), off: 4, order: MemOrder::Plain },
            // The exact match at 0x5000 is older than the overlapping
            // store at 0x5004: forwarding it would miss the upper half.
            Ldr { dst: Xreg(4), base: Xreg(1), off: 0, order: MemOrder::Plain },
            Hlt,
        ]);
        m.start_core(0, a);
        m.run(100);
        assert_eq!(m.reg(0, Xreg(4)), 0x2222_2222_1111_1111);
    }

    #[test]
    fn store_buffering_is_visible_across_cores() {
        // Core 0 buffers a store; before any drain, core 1 still reads 0.
        use HostInsn::*;
        let mut m = Machine::new(2, CostModel::uniform());
        let w = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 1 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            // Read the *other* location immediately: SB-style.
            MovImm { dst: Xreg(3), imm: 0x6000 },
            Ldr { dst: Xreg(4), base: Xreg(3), off: 0, order: MemOrder::Plain },
            Hlt,
        ]);
        let r = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x6000 },
            MovImm { dst: Xreg(2), imm: 1 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            MovImm { dst: Xreg(3), imm: 0x5000 },
            Ldr { dst: Xreg(4), base: Xreg(3), off: 0, order: MemOrder::Plain },
            Hlt,
        ]);
        m.start_core(0, w);
        m.start_core(1, r);
        assert_eq!(m.run(1000), Event::AllHalted);
        // With unit costs and interleaved clocks both loads run before the
        // buffered stores age out: the classic a=b=0.
        assert_eq!(m.reg(0, Xreg(4)), 0);
        assert_eq!(m.reg(1, Xreg(4)), 0);
    }

    #[test]
    fn casal_is_atomic_and_clears_monitors() {
        use HostInsn::*;
        let (mut m, a) = machine_with(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(0), imm: 0 },  // expected
            MovImm { dst: Xreg(2), imm: 42 }, // new
            Cas { cmp_old: Xreg(0), new: Xreg(2), addr: Xreg(1), acq_rel: true },
            Hlt,
        ]);
        m.start_core(0, a);
        m.run(100);
        assert_eq!(m.reg(0, Xreg(0)), 0, "old value returned");
        assert_eq!(m.mem.read_u64(0x5000), 42);
        assert_eq!(m.stats(0).atomics, 1);
    }

    #[test]
    fn exclusive_pair_success_and_interference() {
        use HostInsn::*;
        let (mut m, a) = machine_with(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            Ldxr { dst: Xreg(2), addr: Xreg(1), acquire: true },
            AluImm { op: AOp::Add, dst: Xreg(2), a: Xreg(2), imm: 1 },
            Stxr { status: Xreg(3), src: Xreg(2), addr: Xreg(1), release: true },
            Hlt,
        ]);
        m.start_core(0, a);
        m.run(100);
        assert_eq!(m.reg(0, Xreg(3)), 0, "stxr succeeded");
        assert_eq!(m.mem.read_u64(0x5000), 1);
    }

    #[test]
    fn tb_exit_miss_and_resume() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let b1 = m.install_code(&[
            MovImm { dst: Xreg(0), imm: 5 },
            ExitTb(TbExitKind::Jump { guest_pc: 0x2000, chain: 0 }),
        ]);
        m.start_core(0, b1);
        match m.run(100) {
            Event::TranslationMiss { core: 0, guest_pc: 0x2000 } => {}
            other => panic!("unexpected event {other:?}"),
        }
        // Engine translates 0x2000 and resumes.
        let b2 = m.install_code(&[
            AluImm { op: AOp::Add, dst: Xreg(0), a: Xreg(0), imm: 1 },
            ExitTb(TbExitKind::Halt),
        ]);
        m.map_tb(0x2000, b2);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(0)), 6);
    }

    #[test]
    fn hot_tb_event_fires_at_threshold_and_after_transfer() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        m.set_profiling(true);
        m.set_hot_threshold(Some(4));
        // Self-loop: every iteration re-enters 0x2000 through the chain.
        let body = m.install_code(&[
            AluImm { op: AOp::Add, dst: Xreg(0), a: Xreg(0), imm: 1 },
            ExitTb(TbExitKind::Jump { guest_pc: 0x2000, chain: 0 }),
        ]);
        m.map_tb(0x2000, body);
        m.start_core(0, body);
        match m.run(10_000) {
            Event::HotTb { core: 0, guest_pc: 0x2000 } => {}
            other => panic!("expected HotTb, got {other:?}"),
        }
        assert_eq!(m.tb_profile().unwrap()[&0x2000].execs, 4, "fired at the threshold");
        // The transfer completed before the event: the core is parked at
        // the start of 0x2000's body with the iteration's work done, so
        // promotion never perturbs execution.
        assert_eq!(m.cores[0].pc, body);
        assert_eq!(m.reg(0, Xreg(0)), 4);
        // A declined promotion retriggers at the next threshold multiple.
        match m.run(10_000) {
            Event::HotTb { core: 0, guest_pc: 0x2000 } => {}
            other => panic!("expected second HotTb, got {other:?}"),
        }
        assert_eq!(m.tb_profile().unwrap()[&0x2000].execs, 8);
        // Once the pc is a superblock head, the event stops firing and
        // entries are counted instead.
        m.sb_heads.insert(0x2000);
        assert_eq!(m.run(50), Event::OutOfFuel);
        assert!(m.chain_stats().sb_entries > 0);
    }

    #[test]
    fn install_superblock_evicts_subsumed_and_keeps_chains_clean() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        // Two chained tier-1 blocks: A(0x2000) -> B(0x2008) -> halt.
        let a = m.install_code(&[
            MovImm { dst: Xreg(0), imm: 1 },
            ExitTb(TbExitKind::Jump { guest_pc: 0x2008, chain: 0 }),
        ]);
        let b = m.install_code(&[
            AluImm { op: AOp::Add, dst: Xreg(0), a: Xreg(0), imm: 2 },
            ExitTb(TbExitKind::Halt),
        ]);
        m.map_tb(0x2000, a);
        m.map_tb(0x2008, b);
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(0)), 3);
        assert_eq!(m.chain_stats().chain_links, 1, "A chained into B");

        // Promote: a fused body replaces A, B is subsumed.
        let sb = m.install_superblock(
            0x2000,
            &[
                MovImm { dst: Xreg(0), imm: 1 },
                AluImm { op: AOp::Add, dst: Xreg(0), a: Xreg(0), imm: 2 },
                ExitTb(TbExitKind::Halt),
            ],
            &[0x2000, 0x2008],
        );
        assert!(m.is_sb_head(0x2000));
        assert_eq!(m.lookup_tb(0x2000), Some(sb));
        assert_eq!(m.lookup_tb(0x2008), None, "subsumed TB evicted");
        assert_eq!(m.cache_stats().sb_installs, 1);
        assert_eq!(m.cache_stats().sb_subsumed, 1, "head not double-counted");
        assert!(m.validate_chains().is_empty(), "no dangling chain words");

        // The superblock still produces the architectural result, and the
        // machine counts entries into it.
        m.start_core(0, sb);
        m.cores[0].halted = false;
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(0)), 3);

        // Demotion: evicting the head clears sb status.
        assert!(m.unmap_tb(0x2000));
        assert!(!m.is_sb_head(0x2000));
    }

    #[test]
    fn native_call_invokes_registered_function() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let id = m.register_native(Box::new(|mem, args| {
            mem.write_u64(0x7000, args[0] + args[1]);
            NativeResult { ret: args[0] * args[1], cost: 10 }
        }));
        let a = m.install_code(&[
            MovImm { dst: Xreg(0), imm: 6 },
            MovImm { dst: Xreg(1), imm: 7 },
            NativeCall { func: id },
            Hlt,
        ]);
        m.start_core(0, a);
        m.run(100);
        assert_eq!(m.reg(0, Xreg(0)), 42);
        assert_eq!(m.mem.read_u64(0x7000), 13);
        assert_eq!(m.stats(0).native_calls, 1);
    }

    #[test]
    fn dmb_st_does_not_drain_but_dmb_ff_does() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 7 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            Barrier(Dmb::St),
            Hlt,
        ]);
        m.start_core(0, a);
        // Step up to (but not through) the Hlt: after the DMB ST the store
        // must still be invisible globally (FIFO gives W→W for free).
        // We detect it by checking memory before the halt drains: run with
        // tiny fuel so the Hlt hasn't executed yet.
        let ev = m.run(4); // 4 instructions: movs, str, barrier
        assert_eq!(ev, Event::OutOfFuel);
        assert_eq!(m.mem.read_u64(0x5000), 0, "DMB ST must not drain the buffer");
        assert_eq!(m.run(10), Event::AllHalted);
        assert_eq!(m.mem.read_u64(0x5000), 7, "halt drains");
    }

    #[test]
    fn release_store_keeps_fifo_order() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 1 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            MovImm { dst: Xreg(3), imm: 2 },
            Str { src: Xreg(3), base: Xreg(1), off: 8, order: MemOrder::AcqRel }, // stlr
            // Own reads forward from the buffer in order.
            Ldr { dst: Xreg(4), base: Xreg(1), off: 0, order: MemOrder::Plain },
            Ldr { dst: Xreg(5), base: Xreg(1), off: 8, order: MemOrder::Plain },
            Hlt,
        ]);
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(4)), 1);
        assert_eq!(m.reg(0, Xreg(5)), 2);
        assert_eq!(m.mem.read_u64(0x5000), 1);
        assert_eq!(m.mem.read_u64(0x5008), 2);
    }

    #[test]
    fn aged_stores_drain_without_fences() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        // Store, then spin long enough for the age-based drain.
        let a = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 9 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            MovImm { dst: Xreg(3), imm: 300 },
            AluImm { op: AOp::Sub, dst: Xreg(3), a: Xreg(3), imm: 1 },
            CmpImm { a: Xreg(3), imm: 0 },
            BCond { cond: ACond::Ne, rel: -28 },
            Nop, // memory must be visible before the halt-drain
            Hlt,
        ]);
        m.start_core(0, a);
        // Run until just before Hlt: 4 + 3*300 + 1 = 905 instructions.
        assert_eq!(m.run(905), Event::OutOfFuel);
        assert_eq!(m.mem.read_u64(0x5000), 9, "the store must age out of the buffer");
    }

    #[test]
    fn exclusive_monitor_cleared_by_foreign_drain() {
        use HostInsn::*;
        // Core 0 takes a monitor; core 1's buffered store to the same
        // address drains and must clear it, failing core 0's stxr.
        let mut m = Machine::new(2, CostModel::uniform());
        let c0 = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            Ldxr { dst: Xreg(2), addr: Xreg(1), acquire: false },
            // Spin to give core 1 time to write + drain.
            MovImm { dst: Xreg(3), imm: 400 },
            AluImm { op: AOp::Sub, dst: Xreg(3), a: Xreg(3), imm: 1 },
            CmpImm { a: Xreg(3), imm: 0 },
            BCond { cond: ACond::Ne, rel: -28 },
            MovImm { dst: Xreg(4), imm: 42 },
            Stxr { status: Xreg(5), src: Xreg(4), addr: Xreg(1), release: false },
            Hlt,
        ]);
        let c1 = m.install_code(&[
            MovImm { dst: Xreg(1), imm: 0x5000 },
            MovImm { dst: Xreg(2), imm: 7 },
            Str { src: Xreg(2), base: Xreg(1), off: 0, order: MemOrder::Plain },
            Barrier(Dmb::Ff),
            Hlt,
        ]);
        m.start_core(0, c0);
        m.start_core(1, c1);
        assert_eq!(m.run(10_000), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(5)), 1, "stxr must fail after foreign write");
        assert_eq!(m.mem.read_u64(0x5000), 7, "the foreign write survives");
    }

    #[test]
    fn contention_costs_more() {
        use HostInsn::*;
        let model = CostModel::thunderx2_like();
        // Two cores CAS the same address repeatedly vs different addresses.
        let build = |m: &mut Machine, addr: u64| {
            m.install_code(&[
                MovImm { dst: Xreg(1), imm: addr },
                MovImm { dst: Xreg(4), imm: 200 },
                // loop:
                Ldr { dst: Xreg(0), base: Xreg(1), off: 0, order: MemOrder::Plain },
                MovReg { dst: Xreg(2), src: Xreg(0) },
                AluImm { op: AOp::Add, dst: Xreg(2), a: Xreg(2), imm: 1 },
                Cas { cmp_old: Xreg(0), new: Xreg(2), addr: Xreg(1), acq_rel: true },
                AluImm { op: AOp::Sub, dst: Xreg(4), a: Xreg(4), imm: 1 },
                CmpImm { a: Xreg(4), imm: 0 },
                // Loop body size: 8+3+12+5+12+10+6 = 56 bytes back to the Ldr.
                BCond { cond: ACond::Ne, rel: -56 },
                Hlt,
            ])
        };
        let mut same = Machine::new(2, model);
        let c0 = build(&mut same, 0x5000);
        let c1 = build(&mut same, 0x5000);
        same.start_core(0, c0);
        same.start_core(1, c1);
        same.run(1_000_000);

        let mut diff = Machine::new(2, model);
        let d0 = build(&mut diff, 0x5000);
        let d1 = build(&mut diff, 0x9000);
        diff.start_core(0, d0);
        diff.start_core(1, d1);
        diff.run(1_000_000);

        assert!(
            same.clock() > diff.clock() + 1000,
            "contended CAS ({}) must be slower than uncontended ({})",
            same.clock(),
            diff.clock()
        );
    }

    /// A self-looping TB that decrements to a halt: 4 direct-jump exits
    /// (x0 = 1..=4 jump back, x0 = 5 halts).
    fn looping_tb(m: &mut Machine) -> u64 {
        use HostInsn::*;
        let a = m.install_code(&[
            AluImm { op: AOp::Add, dst: Xreg(0), a: Xreg(0), imm: 1 },
            CmpImm { a: Xreg(0), imm: 5 },
            BCond { cond: ACond::Eq, rel: 18 }, // over the 18-byte Jump exit
            ExitTb(TbExitKind::Jump { guest_pc: 0x1000, chain: 0 }),
            ExitTb(TbExitKind::Halt),
        ]);
        m.map_tb(0x1000, a);
        a
    }

    #[test]
    fn direct_jump_chains_after_first_dispatch() {
        let mut m = Machine::new(1, CostModel::uniform());
        let a = looping_tb(&mut m);
        m.start_core(0, a);
        assert_eq!(m.run(1000), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(0)), 5);
        let s = m.chain_stats();
        assert_eq!(s.chain_links, 1, "the exit is resolved exactly once");
        assert_eq!(s.chain_hits, 3, "every later traversal follows the patched slot");
    }

    #[test]
    fn chaining_disabled_is_pure_dispatch_with_identical_state() {
        let run = |chaining: bool| {
            let mut m = Machine::new(1, CostModel::uniform());
            m.set_chaining(chaining);
            let a = looping_tb(&mut m);
            m.start_core(0, a);
            assert_eq!(m.run(1000), Event::AllHalted);
            (m.reg(0, Xreg(0)), m.chain_stats())
        };
        let (on, s_on) = run(true);
        let (off, s_off) = run(false);
        assert_eq!(on, off, "architectural state must not depend on chaining");
        assert!(s_on.chain_hits > 0);
        assert_eq!(s_off.chain_hits + s_off.chain_links, 0);
    }

    #[test]
    fn jumpreg_exits_use_the_jump_cache() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[
            AluImm { op: AOp::Add, dst: Xreg(0), a: Xreg(0), imm: 1 },
            CmpImm { a: Xreg(0), imm: 5 },
            BCond { cond: ACond::Eq, rel: 3 }, // over the 3-byte JumpReg exit
            ExitTb(TbExitKind::JumpReg { reg: Xreg(9) }),
            ExitTb(TbExitKind::Halt),
        ]);
        m.map_tb(0x1000, a);
        m.set_reg(0, Xreg(9), 0x1000);
        m.start_core(0, a);
        assert_eq!(m.run(1000), Event::AllHalted);
        let s = m.chain_stats();
        assert_eq!(s.dispatch_misses, 1, "first indirect exit fills the cache");
        assert_eq!(s.dispatch_hits, 3);
    }

    #[test]
    fn unmap_unlinks_chains_and_stale_body_never_runs() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[ExitTb(TbExitKind::Jump { guest_pc: 0x2000, chain: 0 })]);
        let b = m.install_code(&[MovImm { dst: Xreg(1), imm: 42 }, ExitTb(TbExitKind::Halt)]);
        m.map_tb(0x1000, a);
        m.map_tb(0x2000, b);
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 42);
        assert_eq!(m.chain_stats().chain_links, 1);

        // Evict the chained-into TB. The chain slot in `a` must be
        // un-patched before the mapping disappears.
        assert!(m.unmap_tb(0x2000));
        assert!(m.chain_stats().chain_flushes >= 1);
        m.set_reg(0, Xreg(1), 0);
        m.start_core(0, a);
        match m.run(100) {
            Event::TranslationMiss { core: 0, guest_pc: 0x2000 } => {}
            other => panic!("stale chain was followed: {other:?}"),
        }
        assert_eq!(m.reg(0, Xreg(1)), 0, "the stale body must never execute");

        // The engine retranslates; possibly into the reclaimed region.
        let b2 = m.install_code(&[MovImm { dst: Xreg(1), imm: 43 }, ExitTb(TbExitKind::Halt)]);
        m.map_tb(0x2000, b2);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 43, "the new body executes after relink");
    }

    #[test]
    fn jcache_is_flushed_on_unmap() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[ExitTb(TbExitKind::JumpReg { reg: Xreg(9) })]);
        let b = m.install_code(&[MovImm { dst: Xreg(1), imm: 42 }, ExitTb(TbExitKind::Halt)]);
        m.map_tb(0x2000, b);
        m.set_reg(0, Xreg(9), 0x2000);
        m.start_core(0, a);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 42);

        assert!(m.unmap_tb(0x2000));
        m.set_reg(0, Xreg(1), 0);
        m.start_core(0, a);
        match m.run(100) {
            Event::TranslationMiss { core: 0, guest_pc: 0x2000 } => {}
            other => panic!("stale jump-cache entry was served: {other:?}"),
        }
        assert_eq!(m.reg(0, Xreg(1)), 0);
    }

    #[test]
    fn code_buffer_is_reclaimed_on_unmap() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let body = [MovImm { dst: Xreg(1), imm: 7 }, ExitTb(TbExitKind::Halt)];
        let a = m.install_code(&body);
        m.map_tb(0x1000, a);
        let size = m.code_size();
        for _ in 0..50 {
            assert!(m.unmap_tb(0x1000));
            let b = m.install_code(&body);
            assert_eq!(b, a, "same-size retranslation reuses the freed region");
            m.map_tb(0x1000, b);
        }
        assert_eq!(m.code_size(), size, "churn must not grow the code buffer");
    }

    /// `n` NOPs, one `ldaddal` on 0x5000, halt.
    fn nops_then_atomic(m: &mut Machine, n: usize) -> u64 {
        use HostInsn::*;
        let mut code = vec![MovImm { dst: Xreg(1), imm: 0x5000 }];
        code.extend(std::iter::repeat_n(Nop, n));
        code.push(MovImm { dst: Xreg(2), imm: 1 });
        code.push(LdaddAl { old: Xreg(0), addend: Xreg(2), addr: Xreg(1) });
        code.push(Hlt);
        m.install_code(&code)
    }

    #[test]
    fn equal_clocks_run_lowest_index_first() {
        for (n0, n1, order) in [(3, 3, [0, 1]), (4, 3, [1, 0]), (3, 4, [0, 1])] {
            let mut m = Machine::new(2, CostModel::uniform());
            m.set_atomic_log(true);
            let a = nops_then_atomic(&mut m, n0);
            let b = nops_then_atomic(&mut m, n1);
            m.start_core(0, a);
            m.start_core(1, b);
            assert_eq!(m.run(1000), Event::AllHalted);
            let cores: Vec<usize> = m.take_atomic_log().iter().map(|e| e.core).collect();
            assert_eq!(cores, order, "nops ({n0}, {n1})");
        }
    }

    #[test]
    fn run_quantum_matches_single_steps() {
        // Contended CASes and racy plain increments under the jittered
        // cost model, whose results depend on the exact interleaving.
        // `run(1)` re-picks before every step: the step-by-step schedule.
        let go = |quantum: bool| {
            let mut m = Machine::new(4, CostModel::thunderx2_like());
            m.set_atomic_log(true);
            for (core, skew) in [0, 0, 3, 40].into_iter().enumerate() {
                let body = cas_loop(&mut m, 0x5000, 50);
                m.start_core(core, body);
                m.add_cycles(core, skew);
            }
            if quantum {
                assert_eq!(m.run(1_000_000), Event::AllHalted);
            } else {
                while m.run(1) == Event::OutOfFuel {}
            }
            let cores: Vec<(u64, u64)> =
                (0..4).map(|c| (m.core_cycles(c), m.reg(c, Xreg(5)))).collect();
            let words = (m.mem.read_u64(0x5000), m.mem.read_u64(0x5008));
            (m.take_atomic_log(), cores, m.total_steps(), words)
        };
        let (log, cores, steps, words) = go(true);
        assert_eq!(words.0, 200);
        assert!(words.1 < 200, "some racy increments are lost");
        assert_eq!((log, cores, steps, words), go(false));
    }

    /// `iters` increments of the word at `addr` by an `ldr`/`casal` loop,
    /// each followed by a racy plain increment of the word at `addr + 8`.
    fn cas_loop(m: &mut Machine, addr: u64, iters: u64) -> u64 {
        use HostInsn::*;
        m.install_code(&[
            MovImm { dst: Xreg(1), imm: addr },
            MovImm { dst: Xreg(4), imm: iters },
            // loop:
            Ldr { dst: Xreg(0), base: Xreg(1), off: 0, order: MemOrder::Plain },
            MovReg { dst: Xreg(2), src: Xreg(0) },
            AluImm { op: AOp::Add, dst: Xreg(2), a: Xreg(2), imm: 1 },
            MovReg { dst: Xreg(3), src: Xreg(0) },
            Cas { cmp_old: Xreg(3), new: Xreg(2), addr: Xreg(1), acq_rel: true },
            Cmp { a: Xreg(3), b: Xreg(0) },
            // 8+3+12+3+5+3+6 = 40 bytes back to the Ldr on a lost race.
            BCond { cond: ACond::Ne, rel: -40 },
            Ldr { dst: Xreg(5), base: Xreg(1), off: 8, order: MemOrder::Plain },
            AluImm { op: AOp::Add, dst: Xreg(5), a: Xreg(5), imm: 1 },
            Str { src: Xreg(5), base: Xreg(1), off: 8, order: MemOrder::Plain },
            AluImm { op: AOp::Sub, dst: Xreg(4), a: Xreg(4), imm: 1 },
            CmpImm { a: Xreg(4), imm: 0 },
            // 40+8+12+8+12+10+6 = 96 bytes back on a remaining iteration.
            BCond { cond: ACond::Ne, rel: -96 },
            Hlt,
        ])
    }

    #[test]
    fn rewritten_code_is_never_run_from_stale_decodes() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let run_from = |m: &mut Machine, at: u64| {
            m.start_core(0, at);
            m.run(100)
        };

        // Region reuse: a same-length block installed into the freed hole
        // of an executed one runs its own instructions.
        let a = m.install_code(&[MovImm { dst: Xreg(1), imm: 1 }, ExitTb(TbExitKind::Halt)]);
        m.map_tb(0x1000, a);
        assert_eq!(run_from(&mut m, a), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 1);
        assert!(m.unmap_tb(0x1000));
        let b = m.install_code(&[MovImm { dst: Xreg(1), imm: 2 }, ExitTb(TbExitKind::Halt)]);
        assert_eq!(b, a, "the freed hole is reused");
        assert_eq!(run_from(&mut m, b), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 2, "stale decode of the old block ran");

        // Chain re-patch: an executed, patched chain site is relinked when
        // its target moves, and the next traversal follows the new word.
        let site = m.install_code(&[ExitTb(TbExitKind::Jump { guest_pc: 0x2000, chain: 0 })]);
        let t1 = m.install_code(&[MovImm { dst: Xreg(1), imm: 10 }, ExitTb(TbExitKind::Halt)]);
        m.map_tb(0x2000, t1);
        for _ in 0..2 {
            assert_eq!(run_from(&mut m, site), Event::AllHalted);
            assert_eq!(m.reg(0, Xreg(1)), 10);
        }
        assert_eq!(m.chain_stats().chain_hits, 1, "the patched slot was executed");
        let t2 = m.install_code(&[MovImm { dst: Xreg(1), imm: 11 }, Nop, ExitTb(TbExitKind::Halt)]);
        m.map_tb(0x2000, t2);
        assert_eq!(run_from(&mut m, site), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 11, "the stale chain word was followed");
        assert_eq!(m.chain_stats().chain_links, 2);
        assert!(m.validate_chains().is_empty());

        // Corruption of an executed region: flipping the immediate's low
        // byte must show, not the cached pre-corruption instruction.
        assert!(m.corrupt_code_byte(t2, 2));
        assert_eq!(run_from(&mut m, t2), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 11 ^ 0xff);
        // Corrupting the opcode makes the same pc undecodable.
        assert!(m.corrupt_code_byte(t2, 0));
        assert_eq!(
            run_from(&mut m, t2),
            Event::HostFault { core: 0, host_pc: t2, kind: HostFaultKind::Decode }
        );
    }

    #[test]
    fn parked_in_region_free_is_deferred() {
        use HostInsn::*;
        let mut m = Machine::new(1, CostModel::uniform());
        let a = m.install_code(&[ExitTb(TbExitKind::Jump { guest_pc: 0x2000, chain: 0 })]);
        m.map_tb(0x1000, a);
        m.start_core(0, a);
        assert!(matches!(m.run(100), Event::TranslationMiss { .. }));
        // Evict the TB the core is parked *inside*. Its 18-byte region
        // must not be handed to the next (12-byte) install while the core
        // still sits there.
        assert!(m.unmap_tb(0x1000));
        let b = m.install_code(&[MovImm { dst: Xreg(1), imm: 7 }, ExitTb(TbExitKind::Halt)]);
        assert_ne!(b, a, "a parked-in region must not be reused");
        m.map_tb(0x2000, b);
        assert_eq!(m.run(100), Event::AllHalted);
        assert_eq!(m.reg(0, Xreg(1)), 7);
        // Once the core has left, the deferred free is honoured.
        let c = m.install_code(&[ExitTb(TbExitKind::Jump { guest_pc: 0x3000, chain: 0 })]);
        assert_eq!(c, a, "deferred region is reclaimed after the core moves on");
    }
}
