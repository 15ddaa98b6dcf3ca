//! Micro-benchmarks of the DBT pipeline itself: frontend
//! decode+translate, optimizer, backend lowering, whole-program
//! analysis, and machine execution throughput. These measure the *simulator's* speed (not guest
//! performance — that's the fig12–fig15 binaries).
//!
//! Self-contained timing harness (`harness = false`): each benchmark
//! runs a warmup pass then reports the best-of-N mean wall time, so the
//! binary works in offline environments without external crates.
//!
//! Besides the console table, the kernel-suite section writes
//! `BENCH_pipeline.json` (per-kernel simulated cycles and TB-chain hit
//! rate) for machine consumption. Pass `smoke` (or set
//! `PIPELINE_BENCH=smoke`) to run a fast CI-sized configuration:
//!
//! ```sh
//! cargo bench -p risotto-bench --bench pipeline -- smoke
//! ```

use std::hint::black_box;
use std::time::Instant;

use risotto_core::{BackendKind, Emulator, Report, Setup, TierConfig};
use risotto_fuzz::{generate, program_seed, GenConfig, Weights};
use risotto_guest_x86::{AluOp, Assembler, Cond, Gpr, GuestBinary};
use risotto_host_arm::{lower_block, BackendConfig, CostModel, Event, Machine, RmwStyle};
use risotto_tcg::{optimize, translate_block, FrontendConfig, OptPolicy};
use risotto_workloads::kernels;

/// Run `f` repeatedly for roughly `iters` iterations, three rounds, and
/// print the best mean-per-iteration time.
fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    // Warmup.
    for _ in 0..iters / 4 + 1 {
        black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let per = t0.elapsed().as_secs_f64() / f64::from(iters);
        if per < best {
            best = per;
        }
    }
    println!("{name:32} {:>12.1} ns/iter", best * 1e9);
}

fn hot_block_bytes() -> Vec<u8> {
    let mut a = Assembler::new(0x1000);
    a.load(Gpr::RAX, Gpr::RDI, 0);
    a.alu_ri(AluOp::Add, Gpr::RAX, 5);
    a.alu_ri(AluOp::Mul, Gpr::RAX, 3);
    a.store(Gpr::RDI, 8, Gpr::RAX);
    a.load(Gpr::RBX, Gpr::RDI, 16);
    a.alu_rr(AluOp::Xor, Gpr::RBX, Gpr::RAX);
    a.store(Gpr::RDI, 24, Gpr::RBX);
    a.cmp_ri(Gpr::RAX, 100);
    a.jcc_to(Cond::L, "out");
    a.label("out");
    a.hlt();
    a.finish().expect("assembling the hot block").0
}

fn fetcher(bytes: Vec<u8>) -> impl Fn(u64) -> [u8; 16] {
    move |addr| {
        let mut w = [0u8; 16];
        let off = (addr - 0x1000) as usize;
        for (i, slot) in w.iter_mut().enumerate() {
            *slot = bytes.get(off + i).copied().unwrap_or(0);
        }
        w
    }
}

fn bench_pipeline() {
    let bytes = hot_block_bytes();
    let fetch = fetcher(bytes);
    bench("template_translate_block", 10_000, || {
        risotto_template::translate_block_template(
            0x1000,
            FrontendConfig::risotto(),
            BackendConfig::dbt(RmwStyle::Casal),
            BackendKind::Arm.ordering(),
            &fetch,
        )
        .expect("template translate")
    });
    bench("frontend_translate_block", 10_000, || {
        translate_block(0x1000, FrontendConfig::risotto(), &fetch).expect("translate")
    });
    let block = translate_block(0x1000, FrontendConfig::risotto(), &fetch).expect("translate");
    bench("optimizer_full_pipeline", 10_000, || {
        let mut blk = block.clone();
        optimize(&mut blk, OptPolicy::Verified)
    });
    let mut opt = block.clone();
    optimize(&mut opt, OptPolicy::Verified);
    bench("backend_lower_block", 10_000, || {
        lower_block(&opt, BackendConfig::dbt(RmwStyle::Casal)).expect("lower")
    });
    // Whole-program analysis of one straight-line program generated
    // with the repository benchmark's `fuzz-cold` configuration.
    let cold = GenConfig {
        weights: Weights { loops: 0, ..Weights::default() },
        max_body: 40,
        ensure_hot_loop: false,
        ..GenConfig::default()
    };
    let bin = generate(&cold, program_seed(1, 0)).lower().expect("generated program lowers");
    bench("analysis_cfg_recover", 2_000, || risotto_analysis::cfg::recover(&bin));
    bench("analysis_analyze_image", 500, || risotto_analysis::analyze_image(&bin));
}

fn bench_machine() {
    // A tight host loop: measure simulated instructions per second.
    use risotto_host_arm::{ACond, AOp, HostInsn, Xreg};
    bench("machine_100k_steps", 20, || {
        let mut m = Machine::new(1, CostModel::uniform());
        let code = m.install_code(&HostInsn::encode_all(&[
            HostInsn::MovImm { dst: Xreg(0), imm: 100_000 },
            HostInsn::AluImm { op: AOp::Sub, dst: Xreg(0), a: Xreg(0), imm: 1 },
            HostInsn::CmpImm { a: Xreg(0), imm: 0 },
            HostInsn::BCond { cond: ACond::Ne, rel: -28 },
            HostInsn::Hlt,
        ]));
        m.start_core(0, code);
        assert_eq!(m.run(1_000_000), Event::AllHalted);
    });
    // The memory side: 4 cores each load, bump and store a private env
    // slot, then `DMB FF` — 7 instructions × 3,571 iterations × 4 cores.
    bench("machine_mem_4core_100k_steps", 20, || {
        use risotto_host_arm::{Dmb, MemOrder};
        let mut m = Machine::new(4, CostModel::thunderx2_like());
        let code = m.install_code(&HostInsn::encode_all(&[
            HostInsn::MovImm { dst: Xreg(0), imm: 3_571 },
            // loop:
            HostInsn::Ldr { dst: Xreg(1), base: Xreg(20), off: 8, order: MemOrder::Plain },
            HostInsn::AluImm { op: AOp::Add, dst: Xreg(1), a: Xreg(1), imm: 1 },
            HostInsn::Str { src: Xreg(1), base: Xreg(20), off: 8, order: MemOrder::Plain },
            HostInsn::Barrier(Dmb::Ff),
            HostInsn::AluImm { op: AOp::Sub, dst: Xreg(0), a: Xreg(0), imm: 1 },
            HostInsn::CmpImm { a: Xreg(0), imm: 0 },
            // 8+12+8+2+12+10+6 = 58 bytes back to the Ldr.
            HostInsn::BCond { cond: ACond::Ne, rel: -58 },
            HostInsn::Hlt,
        ]));
        for core in 0..4 {
            m.set_reg(core, Xreg(20), 0x10_0000 + 0x1000 * core as u64);
            m.start_core(core, code);
        }
        assert_eq!(m.run(1_000_000), Event::AllHalted);
        assert_eq!(m.mem.read_u64(0x10_0008), 3_571);
    });
}

/// Repetitions of each cold-start leg; the JSON reports their median
/// and range.
const COLD_REPS: usize = 5;

/// Median, minimum and maximum of `xs` (upper median for even counts).
fn spread(xs: &[u64]) -> (u64, u64, u64) {
    let mut v = xs.to_vec();
    v.sort_unstable();
    (v[v.len() / 2], v[0], v[v.len() - 1])
}

/// One stage-timed cold-start run of `bin`: every block translated once
/// and run once, through tier 0 (`tier0`: the template translator, both
/// promotion thresholds at MAX so nothing re-translates) or the tier-1
/// IR pipeline. Returns the report, the translation wall-ns and the
/// guest instructions translated.
fn cold_leg(bin: &GuestBinary, threads: usize, tier0: bool, name: &str) -> (Report, u64, u64) {
    let mut emu = Emulator::new(bin, Setup::Risotto, threads, CostModel::thunderx2_like());
    if tier0 {
        emu.set_tiering(Some(TierConfig {
            hot_threshold: u64::MAX,
            warm_threshold: Some(u64::MAX),
            ..TierConfig::default()
        }));
    }
    emu.set_stage_timing(true);
    let leg = if tier0 { "tier-0" } else { "tier-1" };
    let r = emu.run(20_000_000_000).unwrap_or_else(|e| panic!("{name} ({leg}): {e}"));
    let m = emu.metrics();
    if tier0 {
        assert!(m.counter("template.blocks") > 0, "{name}: tier-0 leg translated nothing");
        assert_eq!(m.counter("translate.insns"), 0, "{name}: tier-1 ran in the tier-0 leg");
        (r, m.histogram("stage.template_ns").sum, m.counter("template.insns"))
    } else {
        let ns = m.histogram("stage.decode_ns").sum
            + m.histogram("stage.opt_ns").sum
            + m.histogram("stage.encode_ns").sum;
        (r, ns, m.counter("translate.insns"))
    }
}

/// Runs the 16 Fig. 12 kernels end-to-end under the risotto setup and
/// writes per-kernel simulated cycles + chain-hit rate to
/// `BENCH_pipeline.json`, plus a tier-2 leg per kernel (superblock
/// promotion enabled) whose cycle delta and cross-boundary fence merges
/// land under the `"superblock"` key, a MiniTSO-backend leg whose
/// cycles and MFENCE count land under the `"tso"` key (results asserted
/// bit-identical to the Arm run), and a tier-0 cold-start leg whose
/// template counters and translation wall time land under the `"tier0"`
/// key. The cold-start comparison — every block translated exactly
/// once, run once, per tier, [`COLD_REPS`] times — is aggregated over
/// all kernels into the top-level `"cold_start"` object (median ns per
/// guest instruction with its range, tier-0 vs tier-1; ci.sh gates
/// tier-0 strictly cheaper). `smoke` shrinks the scale for CI.
fn bench_kernels(smoke: bool) {
    let (scale, threads) = if smoke { (4, 2) } else { (64, 2) };
    let mode = if smoke { "smoke" } else { "full" };
    println!("\nkernel suite ({mode}, scale {scale}, {threads} threads):");
    let mut entries = Vec::new();
    // Cold-start aggregates: translation wall-ns and guest instructions
    // covered, per tier, summed over every kernel.
    // Wall-ns are summed per repetition.
    let (mut cold_t0_ns, mut cold_t0_insns) = ([0u64; COLD_REPS], 0u64);
    let (mut cold_t1_ns, mut cold_t1_insns) = ([0u64; COLD_REPS], 0u64);
    for w in kernels::all() {
        let bin = (w.build)(scale, threads);
        let t0 = Instant::now();
        let mut emu = Emulator::new(&bin, Setup::Risotto, threads, CostModel::thunderx2_like());
        let r = emu.run(20_000_000_000).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let wall = t0.elapsed().as_secs_f64();
        let rate = r.chain_hit_rate();

        // Tier-2 leg: same kernel with superblock promotion on. The
        // architectural results must be bit-identical; only the cycle
        // count may move.
        let mut t2 = Emulator::new(&bin, Setup::Risotto, threads, CostModel::thunderx2_like());
        t2.set_tiering(Some(TierConfig { hot_threshold: 16, ..TierConfig::default() }));
        let r2 = t2.run(20_000_000_000).unwrap_or_else(|e| panic!("{} (tier-2): {e}", w.name));
        assert_eq!(r2.exit_vals, r.exit_vals, "{}: tier-2 exit values diverge", w.name);
        assert_eq!(r2.output, r.output, "{}: tier-2 output diverges", w.name);
        let delta = r.cycles as i64 - r2.cycles as i64;

        // MiniTSO leg: the same kernel lowered through the x86-TSO host
        // backend. Guest-visible results must be bit-identical to the Arm
        // tier-1 run; cycles and fence counts differ per backend (most
        // TCG fences are no-ops under TSO, only W→R orderings cost an
        // MFENCE, which executes as a full barrier: `fence.exec.dmb_ff`).
        let mut tso = Emulator::new(&bin, Setup::Risotto, threads, BackendKind::Tso.cost_model());
        tso.set_backend(BackendKind::Tso);
        let rt = tso.run(20_000_000_000).unwrap_or_else(|e| panic!("{} (tso): {e}", w.name));
        assert_eq!(rt.exit_vals, r.exit_vals, "{}: tso exit values diverge", w.name);
        assert_eq!(rt.output, r.output, "{}: tso output diverges", w.name);
        let tso_mfences = tso.metrics().counter("fence.exec.dmb_ff");
        let arm_full = emu.metrics().counter("fence.exec.dmb_ff");

        // Analysis leg: the same kernel with whole-program fence
        // relaxation on (docs/ANALYSIS.md). Results must be
        // bit-identical — the analysis only removes ordering that no
        // other core can observe — and cycles must never regress; the
        // delta and the `analysis.*` counters land under the
        // `"analysis"` key.
        let mut an = Emulator::new(&bin, Setup::Risotto, threads, CostModel::thunderx2_like());
        an.set_analysis(true);
        let ra = an.run(20_000_000_000).unwrap_or_else(|e| panic!("{} (analysis): {e}", w.name));
        assert_eq!(ra.exit_vals, r.exit_vals, "{}: analysis exit values diverge", w.name);
        assert_eq!(ra.output, r.output, "{}: analysis output diverges", w.name);
        assert!(
            ra.cycles <= r.cycles,
            "{}: analysis-on run regressed cycles ({} > {})",
            w.name,
            ra.cycles,
            r.cycles
        );
        let anm = an.metrics();
        let an_relaxed = anm.counter("analysis.relaxed");
        let an_relaxable = anm.counter("analysis.relaxable");
        let an_sites = anm.counter("analysis.sites");
        let an_private = anm.counter("analysis.private");
        let an_poisons = anm.counter("analysis.poisons");
        let an_folded = anm.counter("analysis.hint_folded");
        let an_pruned = anm.counter("analysis.branches_pruned");

        // Cold-start legs, tier 0 then tier 1, each repeated
        // `COLD_REPS` times: single-shot wall times move too much
        // between runs to compare. Simulated results never depend on
        // the wall-time histograms, so every repetition must stay
        // bit-identical to the tier-1 run above.
        let (mut t0_reps, mut t1_reps) = (Vec::new(), Vec::new());
        let (mut r0, mut t0_insns, mut t1_insns) = (None, 0, 0);
        for rep in 0..COLD_REPS {
            let (rt0, ns, insns) = cold_leg(&bin, threads, true, w.name);
            assert_eq!(rt0.exit_vals, r.exit_vals, "{}: tier-0 exit values diverge", w.name);
            assert_eq!(rt0.output, r.output, "{}: tier-0 output diverges", w.name);
            t0_reps.push(ns);
            t0_insns = insns;
            cold_t0_ns[rep] += ns;
            r0 = Some(rt0);
            let (rt1, ns, insns) = cold_leg(&bin, threads, false, w.name);
            assert_eq!(rt1.exit_vals, r.exit_vals, "{}: stage-timed tier-1 diverges", w.name);
            t1_reps.push(ns);
            t1_insns = insns;
            cold_t1_ns[rep] += ns;
        }
        let r0 = r0.expect("at least one cold-start repetition");
        cold_t0_insns += t0_insns;
        cold_t1_insns += t1_insns;
        // The insn counts are the same every repetition, so the median
        // wall time is the median ns/insn.
        let (t0_ns, t0_min, t0_max) = spread(&t0_reps);
        let (t1_ns, t1_min, t1_max) = spread(&t1_reps);
        let per = |ns: u64, insns: u64| if insns == 0 { 0.0 } else { ns as f64 / insns as f64 };

        println!(
            "{:32} {:>12} cycles   chain {:>5.1}%   sb {:+6} cy ({} prom, {} xfence)   an {:+6} cy ({} relax)   tso {:>12} cy ({} mfence)   t0 {:>6.1} vs t1 {:>6.1} ns/insn   {:>8.1} ms wall",
            w.name,
            r.cycles,
            100.0 * rate,
            delta,
            r2.sb.promotions,
            r2.sb.fences_merged_cross,
            r.cycles as i64 - ra.cycles as i64,
            an_relaxed,
            rt.cycles,
            tso_mfences,
            per(t0_ns, t0_insns),
            per(t1_ns, t1_insns),
            wall * 1e3
        );
        // The registry snapshot is read out after the run with every
        // observability feature still disabled, so the cycle numbers
        // above stay bit-identical to an uninstrumented build.
        entries.push(format!(
            concat!(
                "    {{\"kernel\": \"{}\", \"cycles\": {}, \"chain_hit_rate\": {:.4}, ",
                "\"chain_hits\": {}, \"chain_links\": {}, \"dispatch_hits\": {}, ",
                "\"dispatch_misses\": {}, \"wall_seconds\": {:.6},\n     ",
                "\"superblock\": {{\"tier1_cycles\": {}, \"tier2_cycles\": {}, ",
                "\"cycle_delta\": {}, \"promotions\": {}, \"tbs_merged\": {}, ",
                "\"side_exits\": {}, \"fences_merged_cross\": {}}},\n     ",
                "\"tso\": {{\"cycles\": {}, \"mfences\": {}, \"arm_dmb_ff\": {}, ",
                "\"cycle_delta_vs_arm\": {}}},\n     ",
                "\"analysis\": {{\"cycles\": {}, \"cycle_delta_vs_off\": {}, ",
                "\"relaxed\": {}, \"relaxable\": {}, \"sites\": {}, ",
                "\"private\": {}, \"poisons\": {}, \"hint_folded\": {}, ",
                "\"branches_pruned\": {}}},\n     ",
                "\"tier0\": {{\"cycles\": {}, \"blocks\": {}, \"insns\": {}, ",
                "\"translate_ns\": {}, \"ns_per_insn\": {:.2}, ",
                "\"ns_per_insn_min\": {:.2}, \"ns_per_insn_max\": {:.2}, ",
                "\"tier1_translate_ns\": {}, \"tier1_insns\": {}, ",
                "\"tier1_ns_per_insn\": {:.2}, \"tier1_ns_per_insn_min\": {:.2}, ",
                "\"tier1_ns_per_insn_max\": {:.2}}},\n     \"metrics\": {}}}"
            ),
            w.name,
            r.cycles,
            rate,
            r.chain.chain_hits,
            r.chain.chain_links,
            r.chain.dispatch_hits,
            r.chain.dispatch_misses,
            wall,
            r.cycles,
            r2.cycles,
            delta,
            r2.sb.promotions,
            r2.sb.tbs_merged,
            r2.sb.side_exits,
            r2.sb.fences_merged_cross,
            rt.cycles,
            tso_mfences,
            arm_full,
            r.cycles as i64 - rt.cycles as i64,
            ra.cycles,
            r.cycles as i64 - ra.cycles as i64,
            an_relaxed,
            an_relaxable,
            an_sites,
            an_private,
            an_poisons,
            an_folded,
            an_pruned,
            r0.cycles,
            r0.template.blocks,
            t0_insns,
            t0_ns,
            per(t0_ns, t0_insns),
            per(t0_min, t0_insns),
            per(t0_max, t0_insns),
            t1_ns,
            t1_insns,
            per(t1_ns, t1_insns),
            per(t1_min, t1_insns),
            per(t1_max, t1_insns),
            emu.metrics().to_json()
        ));
    }
    // The cold-start headline: wall-ns of translation per guest
    // instruction, aggregated over the whole suite, as the median (and
    // range) of the per-repetition aggregates. Template instantiation
    // skips IR building, optimization and register allocation, so it
    // must come out far cheaper than the tier-1 pipeline (ci.sh gates
    // `tier0 < tier1` on the medians; the paper-style target is ≥ 5×).
    let per_insn = |ns: [u64; COLD_REPS], insns: u64| {
        let (mid, lo, hi) = spread(&ns);
        let per = |ns: u64| if insns == 0 { 0.0 } else { ns as f64 / insns as f64 };
        (per(mid), per(lo), per(hi))
    };
    let (t0_per, t0_lo, t0_hi) = per_insn(cold_t0_ns, cold_t0_insns);
    let (t1_per, t1_lo, t1_hi) = per_insn(cold_t1_ns, cold_t1_insns);
    let ratio = if t0_per == 0.0 { 0.0 } else { t1_per / t0_per };
    println!(
        "\ncold start (median of {COLD_REPS}): tier-0 {t0_per:.1} ns/insn [{t0_lo:.1}, {t0_hi:.1}] ({cold_t0_insns} insns) vs tier-1 {t1_per:.1} ns/insn [{t1_lo:.1}, {t1_hi:.1}] ({cold_t1_insns} insns) — {ratio:.1}x cheaper"
    );
    let json = format!(
        concat!(
            "{{\n  \"mode\": \"{mode}\",\n  \"scale\": {scale},\n  \"threads\": {threads},\n",
            "  \"cold_start\": {{\"reps\": {reps}, \"tier0_ns_per_insn\": {t0:.2}, ",
            "\"tier0_ns_per_insn_min\": {t0_lo:.2}, \"tier0_ns_per_insn_max\": {t0_hi:.2}, ",
            "\"tier0_insns\": {t0i}, \"tier1_ns_per_insn\": {t1:.2}, ",
            "\"tier1_ns_per_insn_min\": {t1_lo:.2}, \"tier1_ns_per_insn_max\": {t1_hi:.2}, ",
            "\"tier1_insns\": {t1i}, \"speedup\": {sp:.2}}},\n",
            "  \"kernels\": [\n{kernels}\n  ]\n}}\n"
        ),
        mode = mode,
        scale = scale,
        threads = threads,
        reps = COLD_REPS,
        t0 = t0_per,
        t0_lo = t0_lo,
        t0_hi = t0_hi,
        t0i = cold_t0_insns,
        t1 = t1_per,
        t1_lo = t1_lo,
        t1_hi = t1_hi,
        t1i = cold_t1_insns,
        sp = ratio,
        kernels = entries.join(",\n")
    );
    // Cargo runs benches with the package dir as CWD; anchor the artifact
    // at the workspace root instead.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "smoke")
        || std::env::var("PIPELINE_BENCH").is_ok_and(|v| v == "smoke");
    if smoke {
        // CI-sized: skip the slow wall-time microbenches, keep the
        // end-to-end suite that produces the JSON artifact.
        bench_kernels(true);
        return;
    }
    bench_pipeline();
    bench_machine();
    bench_kernels(false);
}
