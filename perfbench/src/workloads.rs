//! The three workloads: guest programs generated from a seed, each with
//! an independent reference result, and the one way every program is run
//! and checked.

use std::time::{Duration, Instant};

use risotto_core::{
    BackendKind, EmuError, Emulator, MetricsSnapshot, Report, Setup, SplitMix64, TierConfig,
    VerifyLevel,
};
use risotto_fuzz::diff::{run_interp, Outcome};
use risotto_fuzz::spec::{CELLS, SLOTS};
use risotto_fuzz::{generate, program_seed, GenConfig, Weights};
use risotto_guest_x86::{Gpr, GuestBinary, Interp, DATA_BASE};
use risotto_workloads::{cas, kernels};

/// Fuel for every emulator and reference-interpreter run; the workloads
/// finish far below it.
pub const FUEL: u64 = 20_000_000_000;

/// Simulated cores of every `kernels-hot` program (the Fig. 12 full-mode
/// thread count).
const KERNEL_CORES: usize = 4;

/// Generated programs per `fuzz-cold` pass.
const FUZZ_PROGRAMS: u64 = 2000;

/// CAS increments per thread in each `cas-ladder` program.
const CAS_ITERS: u64 = 1000;

/// The `cas-ladder` (threads, vars) configurations: maximal contention
/// at 8 and 16 cores, then 4 and 16 variables at 16 cores.
const CAS_CONFIGS: [(usize, usize); 4] = [(8, 1), (16, 1), (16, 4), (16, 16)];

/// Simulated cycles of each kernel in the risotto column of
/// `fig12_parsec_phoenix` (full mode: 4 threads, Arm backend, analysis on,
/// tier 1), as measured when this benchmark was defined. `kernels-hot`
/// reports its per-kernel cycles against these; a codegen change moves
/// them on purpose, so a difference is reported, not failed.
pub const FIG12_RISOTTO_CYCLES: [(&str, u64); 16] = [
    ("blackscholes", 1_961_085),
    ("bodytrack", 314_467),
    ("canneal", 501_896),
    ("facesim", 1_313_917),
    ("fluidanimate", 1_012_858),
    ("freqmine", 246_093),
    ("streamcluster", 1_107_059),
    ("swaptions", 80_506),
    ("vips", 611_567),
    ("histogram", 595_276),
    ("kmeans", 1_015_551),
    ("linearregression", 177_191),
    ("matrixmultiply", 2_341_717),
    ("pca", 191_527),
    ("stringmatch", 1_567_063),
    ("wordcount", 570_596),
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 16 Fig. 12 kernels at full-mode scale: execution-bound.
    KernelsHot,
    /// 2000 straight-line generated programs per pass, each translated
    /// once and run about once: translation-bound, analysis cache cold.
    FuzzCold,
    /// The Fig. 15 CAS micro-benchmark under the three-tier ladder.
    CasLadder,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::KernelsHot, Workload::FuzzCold, Workload::CasLadder];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelsHot => "kernels-hot",
            Workload::FuzzCold => "fuzz-cold",
            Workload::CasLadder => "cas-ladder",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether each pass needs programs no earlier pass ran. `fuzz-cold`
    /// measures cold translation, and the engine caches analysis facts
    /// process-wide by image content, so re-running an image would hide
    /// its analysis cost.
    pub fn fresh_programs_per_pass(self) -> bool {
        self == Workload::FuzzCold
    }

    /// Builds the programs of pass `pass` and computes their reference
    /// results. Only `fuzz-cold` programs depend on `seed` and `pass`; the
    /// other workloads are fixed program sets whose run order the seed
    /// picks (see [`pass_order`]).
    ///
    /// # Errors
    ///
    /// A message if a program cannot be built or its reference fails.
    pub fn build(self, seed: u64, pass: u64) -> Result<Vec<Program>, String> {
        match self {
            Workload::KernelsHot => build_kernels(),
            Workload::FuzzCold => build_fuzz(seed, pass),
            Workload::CasLadder => Ok(build_cas()),
        }
    }
}

/// What a program's run must produce.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Core 0's exit value: a kernel checksum from the reference
    /// interpreter, or the CAS closed form threads × iterations.
    Exit0(u64),
    /// The reference interpreter's observable outcome of a generated
    /// program.
    Interp(Box<Outcome>),
}

/// One guest program with everything needed to run and check it.
#[derive(Debug, Clone)]
pub struct Program {
    /// Kernel name, `cas-<threads>x<vars>`, or `fuzz-<seed>`.
    pub name: String,
    /// The guest image.
    pub bin: GuestBinary,
    /// Simulated cores.
    pub cores: usize,
    /// Tier ladder, or `None` for tier 1 only.
    pub tiering: Option<TierConfig>,
    /// Host-instruction watchdog for generated programs.
    pub watchdog: Option<u64>,
    /// The independent reference result.
    pub expect: Expect,
}

/// The order in which pass `pass` runs `n` programs: a shuffle driven by
/// the seed and the pass, so that no program always follows the same one.
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.usize_below(i + 1));
    }
    order
}

/// The Fig. 12 full-mode scale of a kernel.
fn fig12_scale(kernel: &str) -> u64 {
    match kernel {
        "matrixmultiply" => 24,
        "canneal" | "freqmine" | "histogram" | "vips" | "wordcount" | "stringmatch" => 4096,
        _ => 2048,
    }
}

/// The 16 kernels; each reference checksum comes from the guest
/// interpreter.
fn build_kernels() -> Result<Vec<Program>, String> {
    kernels::all()
        .iter()
        .map(|k| {
            let bin = (k.build)(fig12_scale(k.name), KERNEL_CORES);
            let mut interp = Interp::new(&bin);
            interp.run(FUEL).map_err(|e| format!("{}: reference interpreter: {e:?}", k.name))?;
            Ok(Program {
                name: k.name.to_string(),
                expect: Expect::Exit0(interp.exit_val(0)),
                bin,
                cores: KERNEL_CORES,
                tiering: None,
                watchdog: None,
            })
        })
        .collect()
}

/// Straight-line generated programs: no loops and no forced hot loop, so
/// every block is translated once and run about once.
fn fuzz_config() -> GenConfig {
    GenConfig {
        weights: Weights { loops: 0, ..Weights::default() },
        max_body: 40,
        ensure_hot_loop: false,
        ..GenConfig::default()
    }
}

/// Pass `pass` of `fuzz-cold`: programs `pass·N .. (pass+1)·N` of the
/// seed's program stream, each checked against the reference interpreter.
fn build_fuzz(seed: u64, pass: u64) -> Result<Vec<Program>, String> {
    let cfg = fuzz_config();
    (pass * FUZZ_PROGRAMS..(pass + 1) * FUZZ_PROGRAMS)
        .map(|i| {
            let pseed = program_seed(seed, i);
            let spec = generate(&cfg, pseed);
            let bin = spec.lower().map_err(|e| format!("fuzz-{pseed:#x}: lower: {e}"))?;
            let reference = run_interp(&spec, &bin).map_err(|e| format!("fuzz-{pseed:#x}: {e}"))?;
            // The fuzz harness's watchdog: a generous multiple of the
            // architectural step bound.
            let watchdog = (spec.max_interp_steps() * 2 + 10_000) * 64 + 1_000_000;
            Ok(Program {
                name: format!("fuzz-{pseed:#x}"),
                bin,
                cores: spec.cores(),
                tiering: None,
                watchdog: Some(watchdog),
                expect: Expect::Interp(Box::new(reference)),
            })
        })
        .collect()
}

/// The Fig. 15 CAS grid points under the three-tier ladder (templates,
/// tier 1 at 8 entries, superblocks at 64).
fn build_cas() -> Vec<Program> {
    let ladder = TierConfig { warm_threshold: Some(8), hot_threshold: 64, ..TierConfig::default() };
    CAS_CONFIGS
        .iter()
        .map(|&(threads, vars)| Program {
            name: format!("cas-{threads}x{vars}"),
            bin: cas::cas_bench(CAS_ITERS, threads, vars),
            cores: threads,
            tiering: Some(ladder),
            watchdog: None,
            expect: Expect::Exit0(threads as u64 * CAS_ITERS),
        })
        .collect()
}

/// Defines `Counts` and its field-wise sum from one list of `u64` fields.
macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Counters of one program run (or their sum over a pass). Every
        /// field is exact and must repeat on every run of the same program.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl std::ops::AddAssign for Counts {
            fn add_assign(&mut self, o: Counts) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

counts! {
    cycles,
    /// Σ cycles × cores, the denominator of the fence-cycle share.
    core_cycles,
    exec_insns,
    atomics,
    helper_calls,
    fence_cycles,
    tb_count,
    installs,
    code_bytes,
    guest_insns,
    fences_merged,
    loads_forwarded,
    stores_eliminated,
    sb_promotions,
    sb_tbs_merged,
    sb_fences_merged_cross,
    template_blocks,
    template_insns,
    chain_hits,
    chain_links,
    jcache_hits,
    jcache_misses,
    analysis_sites,
    analysis_relaxed,
    regalloc_spills,
    regalloc_reloads,
}

impl Counts {
    fn of(r: &Report, cores: usize, m: &MetricsSnapshot) -> Counts {
        Counts {
            cycles: r.cycles,
            core_cycles: r.cycles * cores as u64,
            exec_insns: r.stats.insns,
            atomics: r.stats.atomics,
            helper_calls: r.stats.helper_calls,
            fence_cycles: r.stats.fence_cycles,
            tb_count: r.tb_count as u64,
            installs: m.counter("tbcache.installs"),
            code_bytes: r.code_bytes as u64,
            guest_insns: m.counter("translate.insns"),
            fences_merged: r.opt.fences_merged as u64,
            loads_forwarded: r.opt.loads_forwarded as u64,
            stores_eliminated: r.opt.stores_eliminated as u64,
            sb_promotions: r.sb.promotions,
            sb_tbs_merged: r.sb.tbs_merged,
            sb_fences_merged_cross: r.sb.fences_merged_cross,
            template_blocks: r.template.blocks,
            template_insns: r.template.insns,
            chain_hits: r.chain.chain_hits,
            chain_links: r.chain.chain_links,
            jcache_hits: r.chain.dispatch_hits,
            jcache_misses: r.chain.dispatch_misses,
            analysis_sites: m.counter("analysis.sites"),
            analysis_relaxed: m.counter("analysis.relaxed"),
            regalloc_spills: m.counter("regalloc.spills"),
            regalloc_reloads: m.counter("regalloc.reloads"),
        }
    }
}

/// The outcome of one checked program run.
#[derive(Debug)]
pub struct Run {
    /// Host time from `Emulator::new` to the return of `run`.
    pub latency: Duration,
    /// The run's counters, or why it failed: an emulation error, a
    /// mismatch against the reference, or a verifier violation.
    pub result: Result<Counts, String>,
    /// Whether the analysis cache missed for this image.
    pub analysis_miss: bool,
}

/// Loads `p` with the configuration every run shares: `Setup::Risotto`
/// on the Arm backend, install-time verification, the program's tier
/// ladder and watchdog. Analysis is turned on by the caller.
pub fn new_emulator(p: &Program) -> Emulator {
    let mut emu = Emulator::new(&p.bin, Setup::Risotto, p.cores, BackendKind::Arm.cost_model());
    emu.set_backend(BackendKind::Arm);
    emu.set_verify(VerifyLevel::Install);
    emu.set_tiering(p.tiering);
    if let Some(w) = p.watchdog {
        emu.set_watchdog(w);
    }
    emu
}

/// Runs `p` untraced and checks it against its reference.
pub fn run_program(p: &Program) -> Run {
    let t0 = Instant::now();
    let mut emu = new_emulator(p);
    emu.set_analysis(true);
    let res = emu.run(FUEL);
    let latency = t0.elapsed();
    let (result, analysis_miss) = check(p, &mut emu, res);
    Run { latency, result, analysis_miss }
}

/// Compares a finished run with the program's reference and collects its
/// counters. Returns the counters (or the failure) and whether the
/// analysis cache missed.
pub fn check(
    p: &Program,
    emu: &mut Emulator,
    res: Result<Report, EmuError>,
) -> (Result<Counts, String>, bool) {
    let snap = emu.metrics();
    let miss = snap.counter("analysis.cache_misses") > 0;
    let report = match res {
        Ok(r) => r,
        Err(e) => return (Err(format!("{}: {e}", p.name)), miss),
    };
    let violations = snap.counter("verify.violations");
    let mismatch = if violations > 0 {
        Some(format!("{violations} verifier violations"))
    } else {
        match &p.expect {
            Expect::Exit0(v) => (report.exit_vals.first() != Some(&Some(*v)))
                .then(|| format!("exit value {:?}, expected {v}", report.exit_vals.first())),
            Expect::Interp(reference) => interp_mismatch(emu, &report, reference),
        }
    };
    let result = match mismatch {
        Some(what) => Err(format!("{}: {what}", p.name)),
        None => Ok(Counts::of(&report, p.cores, &snap)),
    };
    (result, miss)
}

/// The first observable difference between a generated program's run and
/// its reference-interpreter outcome: exit values, output, the program's
/// data words and, single-threaded, core 0's registers.
fn interp_mismatch(emu: &Emulator, report: &Report, reference: &Outcome) -> Option<String> {
    if report.exit_vals != reference.exit_vals {
        return Some(format!("exit values {:?} != {:?}", report.exit_vals, reference.exit_vals));
    }
    if report.output != reference.output {
        return Some("output differs".into());
    }
    let words = CELLS as usize + reference.exit_vals.len() * SLOTS as usize;
    if let Some(i) =
        (0..words).find(|&i| emu.mem().read_u64(DATA_BASE + i as u64 * 8) != reference.data[i])
    {
        return Some(format!("data word {i} differs"));
    }
    if reference.exit_vals.len() == 1 {
        if let Some(r) = (0..16).find(|&r| emu.guest_reg(0, Gpr(r as u8)) != reference.regs[0][r]) {
            return Some(format!("register {} differs", Gpr(r as u8)));
        }
    }
    None
}
