//! The traced run: per-layer metrics from the engine's own spans (read
//! through a `TraceSink` with stage timing on), from timing the public
//! entry points from outside, and from replaying every translated block
//! through the public layer functions.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use risotto_analysis::{analyze_image, ir_hints};
use risotto_core::{TraceEvent, TraceSink, TraceStage};
use risotto_guest_x86::{GuestBinary, TEXT_BASE};
use risotto_host_arm::{
    check_encoding, lower_block_with_stats, ArmOrdering, BackendConfig, RmwStyle,
};
use risotto_tcg::verify::{check_obligations_masked, lint, relax_block};
use risotto_tcg::{apply_hints, optimize, translate_block, FrontendConfig, OptPolicy};
use risotto_template::translate_block_template;

use crate::workloads::{check, new_emulator, Counts, Program, FUEL};

/// Engine spans and translated pcs of one program, as seen by the sink.
#[derive(Debug, Default)]
struct Spans {
    /// Guest pcs translated by tier 1 (in translation order).
    tier1_pcs: Vec<u64>,
    /// Guest pcs translated by the tier-0 templates.
    template_pcs: Vec<u64>,
    decode_ns: u64,
    opt_ns: u64,
    encode_ns: u64,
    template_ns: u64,
}

/// A sink that keeps only the span totals and translated pcs.
struct SpanSink(Rc<RefCell<Spans>>);

impl TraceSink for SpanSink {
    fn record(&mut self, e: &TraceEvent) {
        let mut s = self.0.borrow_mut();
        let (ns, pc) = (e.dur_ns.unwrap_or(0), e.guest_pc.unwrap_or(0));
        match e.stage {
            // Tier 0 reports its whole template instantiation as one
            // decode event.
            TraceStage::Decode if e.detail.starts_with("tier-0 template") => {
                s.template_ns += ns;
                s.template_pcs.push(pc);
            }
            TraceStage::Decode => {
                s.decode_ns += ns;
                s.tier1_pcs.push(pc);
            }
            TraceStage::Opt => s.opt_ns += ns,
            TraceStage::Encode => s.encode_ns += ns,
            TraceStage::Install | TraceStage::Dispatch | TraceStage::Fault => {}
        }
    }
}

/// Per-layer totals over one traced pass. Times are in nanoseconds.
#[derive(Debug, Default)]
pub struct Layers {
    /// Wall time of the traced pass (programs run back to back).
    pub wall_ns: u64,
    /// `Emulator::new`, timed from outside.
    pub load_ns: u64,
    /// `Emulator::set_analysis`, timed from outside.
    pub set_analysis_ns: u64,
    /// `Emulator::run`, timed from outside.
    pub run_ns: u64,
    /// Engine spans read through the sink.
    pub decode_ns: u64,
    pub opt_ns: u64,
    pub encode_ns: u64,
    pub template_ns: u64,
    /// Engine spans read from the stage-timing histograms.
    pub install_ns: u64,
    pub sb_ns: u64,
    /// Tier-1 translations seen by the sink.
    pub tier1_blocks: u64,
    /// Analysis-cache misses inside the engine.
    pub analysis_misses: u64,
    /// `analyze_image`, timed directly.
    pub analysis_ns: u64,
    /// Replayed layer costs.
    pub replay_decode_ns: u64,
    pub replay_opt_ns: u64,
    pub replay_lower_ns: u64,
    /// Verifier Passes 1–2 (IR lint + fence obligations), replayed.
    pub verify_ir_ns: u64,
    /// Verifier Pass 3 with the encoding it checks, replayed.
    pub verify_encoding_ns: u64,
    /// IR ops entering and leaving the optimizer, replayed.
    pub ir_ops_in: u64,
    pub ir_ops_out: u64,
    /// Host instructions emitted by tier 1 and tier 0, replayed.
    pub insns_emitted: u64,
    /// Programs whose replay failed to translate or verify.
    pub replay_failures: Vec<String>,
}

impl Layers {
    /// Engine spans of translation work that happened inside `run`.
    pub fn translate_ns(&self) -> u64 {
        self.decode_ns
            + self.opt_ns
            + self.encode_ns
            + self.template_ns
            + self.install_ns
            + self.sb_ns
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs `programs` once with tracing and stage timing on, then replays
/// their translations. Returns the layer totals and each program's
/// counters (or failure).
pub fn traced_pass(programs: &[Program]) -> (Layers, Vec<Result<Counts, String>>) {
    let mut l = Layers::default();
    let mut results = Vec::with_capacity(programs.len());
    let mut spans = Vec::with_capacity(programs.len());
    let pass = Instant::now();
    for p in programs {
        let s = Rc::new(RefCell::new(Spans::default()));
        let t0 = Instant::now();
        let mut emu = new_emulator(p);
        l.load_ns += ns_since(t0);
        emu.set_trace_sink(Box::new(SpanSink(Rc::clone(&s))));
        emu.set_stage_timing(true);
        let t1 = Instant::now();
        emu.set_analysis(true);
        l.set_analysis_ns += ns_since(t1);
        let t2 = Instant::now();
        let res = emu.run(FUEL);
        l.run_ns += ns_since(t2);
        let (result, miss) = check(p, &mut emu, res);
        let snap = emu.metrics();
        let hist_sum = |name: &str| snap.histogram(name).sum;
        l.install_ns += hist_sum("stage.install_ns");
        l.sb_ns += hist_sum("sb.stage.select_ns")
            + hist_sum("sb.stage.opt_ns")
            + hist_sum("sb.stage.encode_ns");
        l.analysis_misses += u64::from(miss);
        results.push(result);
        spans.push(s);
    }
    l.wall_ns = ns_since(pass);
    for (p, s) in programs.iter().zip(&spans) {
        let s = s.borrow();
        l.decode_ns += s.decode_ns;
        l.opt_ns += s.opt_ns;
        l.encode_ns += s.encode_ns;
        l.template_ns += s.template_ns;
        l.tier1_blocks += s.tier1_pcs.len() as u64;
        if let Err(e) = replay(&p.bin, &s, &mut l) {
            l.replay_failures.push(format!("{}: replay: {e}", p.name));
        }
    }
    (l, results)
}

/// Re-translates every block the engine translated for `bin` through the
/// public layer functions, in the engine's tier-1 order: decode, analysis
/// relaxation and hints, optimize, lower; then verifier Passes 1–3 as
/// `VerifyLevel::Full` would run them. Tier-0 blocks replay the template
/// translator.
fn replay(bin: &GuestBinary, s: &Spans, l: &mut Layers) -> Result<(), String> {
    let t = Instant::now();
    let facts = analyze_image(bin);
    l.analysis_ns += ns_since(t);
    let text = &bin.text;
    let fetch = |addr: u64| -> [u8; 16] {
        let mut w = [0u8; 16];
        let off = addr.checked_sub(TEXT_BASE).and_then(|o| usize::try_from(o).ok());
        if let Some(off) = off.filter(|&o| o < text.len()) {
            let n = (text.len() - off).min(16);
            w[..n].copy_from_slice(&text[off..off + n]);
        }
        w
    };
    let frontend = FrontendConfig::risotto();
    let backend = BackendConfig::dbt(RmwStyle::Casal);
    let policy = OptPolicy::Verified;
    for &pc in &s.tier1_pcs {
        let t = Instant::now();
        let mut block = translate_block(pc, frontend, fetch).map_err(|e| format!("{e:?}"))?;
        l.replay_decode_ns += ns_since(t);
        let reference = block.clone();
        let mask = facts.relax_mask(pc, block.guest_len as u64, fetch);
        relax_block(&mut block, frontend.fences, &mask);
        let hints = ir_hints(&block);
        apply_hints(&mut block, &hints);
        l.ir_ops_in += block.ops.len() as u64;
        let t = Instant::now();
        optimize(&mut block, policy);
        l.replay_opt_ns += ns_since(t);
        l.ir_ops_out += block.ops.len() as u64;
        let t = Instant::now();
        let out = lower_block_with_stats(&block, backend).map_err(|e| format!("{e:?}"))?;
        l.replay_lower_ns += ns_since(t);
        l.insns_emitted += out.insns.len() as u64;
        let t = Instant::now();
        lint(&block, false)
            .and_then(|()| {
                check_obligations_masked(&reference, &block, frontend.fences, policy, &mask)
            })
            .map_err(|e| format!("Passes 1-2: {e:?}"))?;
        l.verify_ir_ns += ns_since(t);
        let t = Instant::now();
        let mut bytes = Vec::new();
        for i in &out.insns {
            i.encode(&mut bytes);
        }
        check_encoding(&block, &out.insns, &bytes, backend)
            .map_err(|e| format!("Pass 3: {e:?}"))?;
        l.verify_encoding_ns += ns_since(t);
    }
    for &pc in &s.template_pcs {
        let tb = translate_block_template(pc, frontend, backend, &ArmOrdering, fetch)
            .map_err(|e| format!("{e:?}"))?;
        l.insns_emitted += tb.code.len() as u64;
    }
    Ok(())
}
