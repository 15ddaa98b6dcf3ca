//! Codegen determinism suite.
//!
//! The backend's register allocator makes every decision over dense
//! arrays in a fixed order (no hash-seeded iteration), so the same IR
//! must always lower to bit-identical host bytes — a property that
//! byte-identity verification, reproducible fault sweeps, and any
//! future content-hash TB sharing all rely on. This suite lowers every
//! block the real pipeline produces — the Fig. 12 kernel corpus, the
//! litmus programs, the checked-in fuzz corpus, and tier-2 superblocks
//! stitched from hot chains — **twice from fresh allocator state**,
//! under both `RmwStyle`s, and asserts the two encodings and the
//! reported allocation statistics are identical.
//!
//! `golden_outputs_match_pinned_digests` is the cross-commit half: it
//! pins digests of the analysis facts and the tier-1 codegen output, so
//! a refactor that claims bit-identical output is checked against the
//! output of the code before it, not only against itself.
//!
//! `RISOTTO_VERIFY_SMOKE=1` bounds the sweep for CI.

use risotto::analysis::{analyze_image, cfg as static_cfg, ir_hints};
use risotto::fuzz::{generate, parse_corpus, program_seed, GenConfig, Weights};
use risotto::guest::{GuestBinary, TEXT_BASE};
use risotto::host::{lower_block_with_stats, BackendConfig, HostInsn, RmwStyle};
use risotto::litmus::corpus;
use risotto::tcg::verify::relax_block;
use risotto::tcg::{
    apply_hints, optimize_with, superblock, translate_block, FrontendConfig, OptPolicy, PassConfig,
    TbExit, TcgBlock,
};
use risotto::workloads::kernels;
use risotto::workloads::litmus_compile::compile_litmus;

fn smoke() -> bool {
    std::env::var("RISOTTO_VERIFY_SMOKE").is_ok_and(|v| v == "1")
}

/// The frontend/optimizer pairings the engine's setups use.
fn configs() -> [(FrontendConfig, OptPolicy); 4] {
    [
        (FrontendConfig::risotto(), OptPolicy::Verified),
        (FrontendConfig::tcg_ver(), OptPolicy::Verified),
        (FrontendConfig::qemu(), OptPolicy::QemuUnsound),
        (FrontendConfig::no_fences(), OptPolicy::QemuUnsound),
    ]
}

fn backends() -> [BackendConfig; 2] {
    [BackendConfig::dbt(RmwStyle::Casal), BackendConfig::dbt(RmwStyle::Rmw2Fenced)]
}

fn fetcher(bin: &GuestBinary) -> impl Fn(u64) -> [u8; 16] + '_ {
    move |addr: u64| {
        let mut w = [0u8; 16];
        for (i, slot) in w.iter_mut().enumerate() {
            let byte = addr
                .checked_sub(TEXT_BASE)
                .and_then(|off| off.checked_add(i as u64))
                .and_then(|off| usize::try_from(off).ok())
                .and_then(|off| bin.text.get(off));
            if let Some(&b) = byte {
                *slot = b;
            }
        }
        w
    }
}

/// BFS over the static control flow from the entry point, like tier-1
/// translation would walk it.
fn discover_blocks(bin: &GuestBinary, cfg: FrontendConfig, cap: usize) -> Vec<TcgBlock> {
    let fetch = fetcher(bin);
    let mut seen = std::collections::HashSet::new();
    let mut queue = vec![bin.entry];
    let mut blocks = Vec::new();
    while let Some(pc) = queue.pop() {
        if blocks.len() >= cap || !seen.insert(pc) {
            continue;
        }
        let Ok(block) = translate_block(pc, cfg, &fetch) else {
            continue;
        };
        match block.exit {
            TbExit::Jump(t) => queue.push(t),
            TbExit::CondJump { taken, fallthrough, .. } => {
                queue.push(taken);
                queue.push(fallthrough);
            }
            TbExit::Syscall { next } => queue.push(next),
            TbExit::JumpReg(_) | TbExit::Halt => {}
        }
        blocks.push(block);
    }
    blocks
}

/// Lowers `block` twice from fresh allocator state and asserts the
/// encodings and allocation statistics agree bit-for-bit.
fn assert_deterministic(block: &TcgBlock, be: BackendConfig, what: &str) {
    let a = lower_block_with_stats(block, be)
        .unwrap_or_else(|e| panic!("{what}: first lowering failed: {e}"));
    let b = lower_block_with_stats(block, be)
        .unwrap_or_else(|e| panic!("{what}: second lowering failed: {e}"));
    assert_eq!(
        HostInsn::encode_all(&a.insns),
        HostInsn::encode_all(&b.insns),
        "{what}: two lowerings of the same IR produced different bytes"
    );
    assert_eq!(a.alloc, b.alloc, "{what}: allocation statistics diverged");
}

/// Every optimized tier-1 block of every kernel, under all four
/// frontend/policy pairings and both RMW styles, lowers to the same
/// bytes twice.
#[test]
fn kernel_corpus_lowers_bit_identically() {
    let scale = if smoke() { 16 } else { 64 };
    let cap = if smoke() { 10 } else { 48 };
    let mut checked = 0usize;
    for w in kernels::all() {
        let bin = (w.build)(scale, 2);
        for (cfg, policy) in configs() {
            for mut block in discover_blocks(&bin, cfg, cap) {
                optimize_with(&mut block, policy, PassConfig::all());
                for be in backends() {
                    assert_deterministic(&block, be, w.name);
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "the sweep must cover at least one block");
}

/// The litmus corpus — fence-dense, atomic-dense blocks — lowers
/// deterministically too.
#[test]
fn litmus_corpus_lowers_bit_identically() {
    for prog in [corpus::mp(), corpus::sb(), corpus::sb_fenced(), corpus::lb(), corpus::iriw()] {
        let compiled = compile_litmus(&prog, &[0, 0]);
        for (cfg, policy) in configs() {
            for mut block in discover_blocks(&compiled.binary, cfg, 32) {
                optimize_with(&mut block, policy, PassConfig::all());
                for be in backends() {
                    assert_deterministic(&block, be, &prog.name);
                }
            }
        }
    }
}

/// The checked-in fuzz reproducers (`tests/corpus/*.risotto`) lower
/// deterministically.
#[test]
fn fuzz_corpus_lowers_bit_identically() {
    let corpus: [(&str, &str); 6] = [
        ("store_store_fence", include_str!("corpus/store_store_fence.risotto")),
        ("spawn_cas_contention", include_str!("corpus/spawn_cas_contention.risotto")),
        ("hot_loop_promotion", include_str!("corpus/hot_loop_promotion.risotto")),
        ("cmpxchg_fail_path", include_str!("corpus/cmpxchg_fail_path.risotto")),
        ("fp_nan_chain", include_str!("corpus/fp_nan_chain.risotto")),
        ("fp_nan_cross_thread", include_str!("corpus/fp_nan_cross_thread.risotto")),
    ];
    for (name, text) in corpus {
        let spec = parse_corpus(text).unwrap_or_else(|e| panic!("corpus `{name}`: {e}"));
        let bin = spec.lower().unwrap_or_else(|e| panic!("corpus `{name}`: {e}"));
        for (cfg, policy) in configs() {
            for mut block in discover_blocks(&bin, cfg, 32) {
                optimize_with(&mut block, policy, PassConfig::all());
                for be in backends() {
                    assert_deterministic(&block, be, name);
                }
            }
        }
    }
}

/// Tier-2 superblocks — stitched multi-TB regions whose allocation
/// state crosses `TbBoundary` seams — lower deterministically.
#[test]
fn tier2_superblocks_lower_bit_identically() {
    let scale = if smoke() { 16 } else { 64 };
    let cap = if smoke() { 12 } else { 48 };
    let mut stitched = 0usize;
    for w in kernels::all() {
        let bin = (w.build)(scale, 2);
        for (cfg, policy) in configs() {
            let blocks = discover_blocks(&bin, cfg, cap);
            let by_pc: std::collections::BTreeMap<u64, &TcgBlock> =
                blocks.iter().map(|b| (b.guest_pc, b)).collect();
            // Chase direct-jump / fallthrough chains to form traces the
            // way tier-2 promotion would.
            for head in &blocks {
                let mut parts = vec![head.clone()];
                let mut cur = head;
                while parts.len() < 4 {
                    let next_pc = match cur.exit {
                        TbExit::Jump(t) => t,
                        TbExit::CondJump { fallthrough, .. } => fallthrough,
                        _ => break,
                    };
                    let Some(next) = by_pc.get(&next_pc) else { break };
                    if parts.iter().any(|p| p.guest_pc == next_pc) {
                        break;
                    }
                    parts.push((*next).clone());
                    cur = next;
                }
                if parts.len() < 2 {
                    continue;
                }
                let Ok(mut sb) = superblock::stitch(parts) else { continue };
                superblock::optimize_region(&mut sb, policy, PassConfig::all());
                for be in backends() {
                    assert_deterministic(&sb, be, w.name);
                }
                stitched += 1;
                if smoke() && stitched >= 24 {
                    return;
                }
            }
        }
    }
    assert!(stitched > 0, "the sweep must stitch at least one superblock");
}

/// 64-bit FNV-1a, fed in order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        // A separator, so concatenations of different pieces differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x100_0000_01b3);
    }
}

/// Digests of one image group: the `Debug` rendering of
/// `analyze_image`, the tier-1 codegen of every recovered CFG block, and
/// the codegen of superblocks stitched from those blocks.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    facts: u64,
    codegen: u64,
    superblocks: u64,
}

/// Folds `bins` into a [`Golden`]. Every CFG block is translated, then
/// (a) run through the engine's analysis-on tier-1 path — relaxation
/// mask, known-bits hints, `optimize` — and lowered under both RMW
/// styles, and (b) optimized without hints under each frontend/policy
/// pairing and lowered with `casal`. Chains of up to four (b)-input
/// blocks linked by jumps or fallthroughs are stitched into superblocks
/// and optimized as one region. Each lowering contributes the optimizer
/// statistics, the optimized IR, the encoded host bytes and the
/// `AllocStats`.
fn golden(bins: &[GuestBinary]) -> Golden {
    let (mut facts_h, mut code_h, mut sb_h) = (Fnv::new(), Fnv::new(), Fnv::new());
    for bin in bins {
        let facts = analyze_image(bin);
        facts_h.eat(format!("{facts:?}").as_bytes());
        let fetch = fetcher(bin);
        let mut plain_blocks = std::collections::BTreeMap::new();
        for &pc in static_cfg::recover(bin).blocks.keys() {
            let risotto = FrontendConfig::risotto();
            let Ok(mut block) = translate_block(pc, risotto, &fetch) else {
                code_h.eat(format!("decode error at {pc:#x}").as_bytes());
                continue;
            };
            plain_blocks.insert(pc, block.clone());
            let mask = facts.relax_mask(pc, block.guest_len as u64, &fetch);
            relax_block(&mut block, risotto.fences, &mask);
            let hints = ir_hints(&block);
            apply_hints(&mut block, &hints);
            let stats = optimize_with(&mut block, OptPolicy::Verified, PassConfig::all());
            code_h.eat(format!("{stats:?}").as_bytes());
            for be in backends() {
                digest_lowering(&mut code_h, &block, be);
            }
            for (cfg, policy) in configs() {
                let Ok(mut block) = translate_block(pc, cfg, &fetch) else { continue };
                let stats = optimize_with(&mut block, policy, PassConfig::all());
                code_h.eat(format!("{stats:?}").as_bytes());
                digest_lowering(&mut code_h, &block, backends()[0]);
            }
        }
        for head in plain_blocks.values() {
            let mut parts = vec![head.clone()];
            while parts.len() < 4 {
                let next_pc = match parts[parts.len() - 1].exit {
                    TbExit::Jump(t) => t,
                    TbExit::CondJump { fallthrough, .. } => fallthrough,
                    _ => break,
                };
                match plain_blocks.get(&next_pc) {
                    Some(next) if parts.iter().all(|p| p.guest_pc != next_pc) => {
                        parts.push(next.clone())
                    }
                    _ => break,
                }
            }
            let Ok(mut sb) = superblock::stitch(parts) else { continue };
            let stats =
                superblock::optimize_region(&mut sb, OptPolicy::Verified, PassConfig::all());
            sb_h.eat(format!("{stats:?}").as_bytes());
            digest_lowering(&mut sb_h, &sb, backends()[0]);
        }
    }
    Golden { facts: facts_h.0, codegen: code_h.0, superblocks: sb_h.0 }
}

/// Feeds the optimized IR, its host bytes and its `AllocStats` to `h`.
fn digest_lowering(h: &mut Fnv, block: &TcgBlock, be: BackendConfig) {
    h.eat(format!("{block:?}").as_bytes());
    match lower_block_with_stats(block, be) {
        Ok(out) => {
            h.eat(&HostInsn::encode_all(&out.insns));
            h.eat(format!("{:?}", out.alloc).as_bytes());
        }
        Err(e) => h.eat(format!("lower error: {e}").as_bytes()),
    }
}

/// Cross-commit golden oracle: the analysis facts, the tier-1 codegen
/// and the superblock codegen (optimizer statistics, optimized IR, host
/// bytes, allocation statistics) of the 16 kernels at smoke scale, the x86 litmus corpus and the first 200
/// straight-line programs of the `fuzz-cold` generator configuration
/// (seed 1) must hash to the pinned digests.
///
/// The digests pin the output of the code as it was when they were
/// taken. A change that is meant to alter codegen or analysis facts
/// must re-pin them (the assertion message prints the new values) and
/// explain in CHANGES.md why the output moved; a change that is meant
/// to be output-neutral must leave them alone.
#[test]
fn golden_outputs_match_pinned_digests() {
    let kernels: Vec<GuestBinary> = kernels::all().iter().map(|w| (w.build)(4, 2)).collect();
    let litmus: Vec<GuestBinary> =
        [corpus::mp(), corpus::sb(), corpus::sb_fenced(), corpus::lb(), corpus::iriw()]
            .iter()
            .map(|p| compile_litmus(p, &vec![0; p.threads.len()]).binary)
            .collect();
    let gen = GenConfig {
        weights: Weights { loops: 0, ..Weights::default() },
        max_body: 40,
        ensure_hot_loop: false,
        ..GenConfig::default()
    };
    let fuzz: Vec<GuestBinary> = (0..200)
        .map(|i| generate(&gen, program_seed(1, i)).lower().expect("generated program lowers"))
        .collect();
    let got = [golden(&kernels), golden(&litmus), golden(&fuzz)];
    let pinned = [
        Golden {
            facts: 0x2c38_35c9_8e07_a35a,
            codegen: 0x0bfd_a209_bebd_e91b,
            superblocks: 0xf671_d6b8_8e9a_d2ae,
        },
        Golden {
            facts: 0x6350_de87_8ac1_1dc2,
            codegen: 0x0752_affa_3a89_31eb,
            superblocks: 0x96ef_1522_090d_9abe,
        },
        Golden {
            facts: 0xdc94_b3af_3344_b937,
            codegen: 0x9332_ffed_5c9c_216b,
            superblocks: 0x761d_543e_a9cc_4a3b,
        },
    ];
    assert_eq!(got, pinned, "kernels, litmus, fuzz-cold: output moved from the pinned digests");
}
