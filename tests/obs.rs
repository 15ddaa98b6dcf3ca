//! Acceptance tests for the observability layer (metrics registry,
//! trace sinks, hot-TB profiler):
//!
//! * every registry counter equals its legacy `Report` source across the
//!   full 16-kernel Fig. 12 suite (the registry is a view, not a second
//!   set of books);
//! * a fully instrumented run (ring-buffer sink + stage timing + hot-TB
//!   profiling) is bit-identical in architectural results and simulated
//!   cycles to a default run — observability is passive;
//! * `RingBufferSink` is bounded and overwrites oldest-first;
//! * `docs/METRICS.md` documents 100% of the registry schema, and every
//!   metric a real run emits maps back into that schema;
//! * snapshots round-trip through their JSON exposition;
//! * the one translate pipeline reports each tier under that tier's own
//!   histogram names and trace events.

use std::cell::RefCell;
use std::rc::Rc;

use risotto::core::{
    Emulator, HotTbProfiler, MetricsRegistry, MetricsSnapshot, RingBufferSink, Setup, TierConfig,
    TraceEvent, TraceSink, TraceStage, VerifyLevel,
};
use risotto::host::CostModel;
use risotto::memmodel::FenceKind;
use risotto::workloads::kernels;

const FUEL: u64 = 400_000_000;

/// Forwards events into a shared ring buffer the test keeps a handle to
/// (the engine owns the installed sink, so inspection goes through `Rc`).
struct SharedSink(Rc<RefCell<RingBufferSink>>);

impl TraceSink for SharedSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0.borrow_mut().record(event);
    }
}

#[test]
fn registry_counters_equal_legacy_report_on_all_kernels() {
    for w in kernels::all() {
        let bin = (w.build)(8, 2);
        let mut emu = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
        emu.set_stage_timing(true);
        emu.set_profiling(true);
        let r = emu.run(FUEL).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let snap = emu.metrics();

        let expect = |metric: &str, legacy: u64| {
            assert_eq!(
                snap.counter(metric),
                legacy,
                "{}: metric `{metric}` diverged from its legacy Report source",
                w.name
            );
        };
        expect("translate.blocks", r.tb_count as u64);
        expect("translate.retranslations", r.retranslations as u64);
        expect("translate.fallback_blocks", r.fallback_blocks as u64);
        expect("opt.folded", r.opt.folded as u64);
        expect("opt.loads_forwarded", r.opt.loads_forwarded as u64);
        expect("opt.stores_eliminated", r.opt.stores_eliminated as u64);
        expect("opt.fences_merged", r.opt.fences_merged as u64);
        expect("opt.dce_removed", r.opt.dce_removed as u64);
        expect("chain.hits", r.chain.chain_hits);
        expect("chain.links", r.chain.chain_links);
        expect("chain.flushes", r.chain.chain_flushes);
        expect("jcache.hits", r.chain.dispatch_hits);
        expect("jcache.misses", r.chain.dispatch_misses);
        expect("fence.exec.dmb_ld", r.stats.dmb[0]);
        expect("fence.exec.dmb_st", r.stats.dmb[1]);
        expect("fence.exec.dmb_ff", r.stats.dmb[2]);
        expect("fence.exec.cycles", r.stats.fence_cycles);
        expect("exec.insns", r.stats.insns);
        assert_eq!(snap.gauge("exec.cycles"), r.cycles, "{}: exec.cycles gauge", w.name);
        assert_eq!(snap.gauge("exec.cores"), 2, "{}: exec.cores gauge", w.name);

        // Per-kind fence merges decompose the aggregate exactly.
        let merged_by_kind: u64 = FenceKind::TCG_ALL
            .iter()
            .map(|k| snap.counter(&format!("fence.merged.{}", k.tcg_name().unwrap())))
            .sum();
        assert_eq!(
            merged_by_kind, r.opt.fences_merged as u64,
            "{}: per-kind fence merges don't sum to opt.fences_merged",
            w.name
        );
        for (i, k) in FenceKind::TCG_ALL.iter().enumerate() {
            assert_eq!(
                snap.counter(&format!("fence.merged.{}", k.tcg_name().unwrap())),
                r.opt.fences_merged_by_kind[i] as u64,
                "{}: fence.merged.{} vs OptStats",
                w.name,
                k.tcg_name().unwrap()
            );
        }

        // Per-core gauge family materialized for both cores.
        assert!(snap.metrics.contains_key("core.0.insns"), "{}: core.0.insns missing", w.name);
        assert!(snap.metrics.contains_key("core.1.cycles"), "{}: core.1.cycles missing", w.name);

        // Stage timing was on: every successful decode is followed by
        // exactly one optimizer pass, and only lowered blocks leave
        // encode samples.
        let decode = snap.histogram("stage.decode_ns");
        let opt = snap.histogram("stage.opt_ns");
        let encode = snap.histogram("stage.encode_ns");
        assert!(decode.count > 0, "{}: no decode samples despite stage timing", w.name);
        assert_eq!(decode.count, opt.count, "{}: decode/opt sample counts differ", w.name);
        assert!(encode.count > 0 && encode.count <= decode.count, "{}: encode samples", w.name);
        assert!(decode.min <= decode.max && decode.sum >= decode.max, "{}: histogram", w.name);

        // The hot-TB profile covers real blocks and is sorted by execs.
        let hot = emu.hot_tbs(8);
        assert!(!hot.is_empty(), "{}: no hot TBs recorded", w.name);
        assert!(hot.windows(2).all(|p| p[0].execs >= p[1].execs), "{}: top_n not sorted", w.name);
        assert!(hot.iter().all(|t| t.execs > 0), "{}: zero-exec TB in profile", w.name);
    }
}

#[test]
fn instrumented_run_is_bit_identical_to_default_run() {
    for w in kernels::all() {
        let bin = (w.build)(8, 2);

        let mut plain = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
        let rp = plain.run(FUEL).unwrap_or_else(|e| panic!("{} (plain): {e}", w.name));

        let ring = Rc::new(RefCell::new(RingBufferSink::new(4096)));
        let mut traced = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
        traced.set_trace_sink(Box::new(SharedSink(Rc::clone(&ring))));
        traced.set_stage_timing(true);
        traced.set_profiling(true);
        let rt = traced.run(FUEL).unwrap_or_else(|e| panic!("{} (traced): {e}", w.name));

        assert_eq!(rp.cycles, rt.cycles, "{}: tracing changed simulated cycles", w.name);
        assert_eq!(rp.exit_vals, rt.exit_vals, "{}: tracing changed exit values", w.name);
        assert_eq!(rp.output, rt.output, "{}: tracing changed guest output", w.name);

        let ring = ring.borrow();
        assert!(!ring.is_empty(), "{}: no trace events recorded", w.name);
        assert!(
            ring.events().any(|e| e.stage == TraceStage::Dispatch),
            "{}: no dispatch events",
            w.name
        );
        assert!(
            ring.events().any(|e| e.stage == TraceStage::Decode && e.dur_ns.is_some()),
            "{}: no timed decode events",
            w.name
        );
    }
}

/// The per-tier contract of the staged translate pipeline on a ladder run
/// that reaches every tier: tier 0 reports template-prefixed `Decode`
/// events, tier 1 a timed `Decode`, `Opt`, `Encode`, `Install` run per
/// translation, tier 2 only `superblock:` installs plus its three
/// `sb.stage.*` histograms; installs of every tier land in
/// `stage.install_ns`, and `stage.verify_ns` samples exactly the
/// Full-level static verifications.
#[test]
fn translate_pipeline_reports_each_tier_under_its_own_names() {
    use TraceStage::{Decode, Encode, Install, Opt};
    let w = kernels::all().into_iter().find(|w| w.name == "matrixmultiply").unwrap();
    let bin = (w.build)(8, 2);
    for level in [VerifyLevel::Install, VerifyLevel::Full] {
        let ring = Rc::new(RefCell::new(RingBufferSink::new(1 << 16)));
        let mut emu = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
        let ladder =
            TierConfig { hot_threshold: 64, warm_threshold: Some(8), ..TierConfig::default() };
        emu.set_tiering(Some(ladder));
        emu.set_verify(level);
        emu.set_trace_sink(Box::new(SharedSink(Rc::clone(&ring))));
        emu.set_stage_timing(true);
        let r = emu.run(FUEL).unwrap_or_else(|e| panic!("{level:?}: {e}"));
        let (t0, t1, t2) = (r.template.blocks, r.template.promotions, r.sb.promotions);
        assert!(t0 > 0 && t1 > 0 && t2 > 0, "{level:?}: the ladder must reach every tier");
        let ring = ring.borrow();
        assert_eq!(ring.overwritten(), 0, "{level:?}: ring too small");
        let events: Vec<&TraceEvent> = ring.events().collect();
        let count = |stage| events.iter().filter(|e| e.stage == stage).count() as u64;
        let is_template =
            |e: &TraceEvent| e.stage == Decode && e.detail.starts_with("tier-0 template");

        let templates = events.iter().filter(|e| is_template(e)).count() as u64;
        assert_eq!(templates, t0, "{level:?}: one template Decode per tier-0 block");
        // Every tier-1 translation here is a tier-0 promotion; tier 2
        // adds no Decode, Opt or Encode event.
        assert_eq!((count(Decode), count(Opt), count(Encode)), (t0 + t1, t1, t1), "{level:?}");
        for (i, e) in
            events.iter().enumerate().filter(|(_, e)| e.stage == Decode && !is_template(e))
        {
            let run: Vec<_> = events[i..i + 4].iter().map(|e| (e.stage, e.guest_pc)).collect();
            let pc = e.guest_pc;
            assert_eq!(run, [(Decode, pc), (Opt, pc), (Encode, pc), (Install, pc)], "{level:?}");
            assert!(events[i..i + 4].iter().all(|e| e.dur_ns.is_some()), "{level:?}: untimed");
        }
        let superblocks: Vec<_> =
            events.iter().filter(|e| e.detail.starts_with("superblock:")).collect();
        assert_eq!(superblocks.len() as u64, t2, "{level:?}: one event per superblock");
        assert!(superblocks.iter().all(|e| e.stage == Install && e.dur_ns.is_some()), "{level:?}");

        let snap = emu.metrics();
        for h in ["sb.stage.select_ns", "sb.stage.opt_ns", "sb.stage.encode_ns"] {
            assert!(snap.histogram(h).count >= t2, "{level:?}: `{h}` lacks tier-2 samples");
        }
        let installs = snap.histogram("stage.install_ns").count;
        assert_eq!(installs, r.tb_count as u64 + t2, "{level:?}: install_ns misses superblocks");
        let verified = if level == VerifyLevel::Full { t1 + t2 } else { 0 };
        assert_eq!(snap.histogram("stage.verify_ns").count, verified, "{level:?}: verify_ns");
    }
}

#[test]
fn ring_buffer_sink_is_bounded_and_overwrites_oldest() {
    let mut ring = RingBufferSink::new(4);
    assert_eq!(ring.capacity(), 4);
    assert!(ring.is_empty());
    for seq in 0..10u64 {
        ring.record(&TraceEvent {
            seq,
            stage: TraceStage::Dispatch,
            core: Some(0),
            guest_pc: Some(0x1000 + seq),
            tb_id: None,
            dur_ns: None,
            detail: String::new(),
        });
    }
    assert_eq!(ring.len(), 4, "ring grew past its capacity");
    assert_eq!(ring.overwritten(), 6);
    let seqs: Vec<u64> = ring.events().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![6, 7, 8, 9], "ring must retain the newest events, oldest first");

    // Capacity 0 is clamped to 1 rather than buffering nothing.
    let zero = RingBufferSink::new(0);
    assert_eq!(zero.capacity(), 1);
}

#[test]
fn metrics_md_documents_the_entire_schema() {
    let doc = include_str!("../docs/METRICS.md");
    for s in MetricsRegistry::specs() {
        assert!(
            doc.contains(&format!("`{}`", s.name)),
            "docs/METRICS.md is missing metric `{}` — document it (name, type, unit, source)",
            s.name
        );
    }

    // And the schema is closed: everything a real run emits normalizes
    // back to a documented spec name.
    let documented: Vec<String> = MetricsRegistry::specs().into_iter().map(|s| s.name).collect();
    let bin = (kernels::all()[0].build)(8, 2);
    let mut emu = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
    emu.set_stage_timing(true);
    emu.set_profiling(true);
    emu.run(FUEL).expect("kernel runs");
    for name in emu.metrics().metrics.keys() {
        let doc_name = MetricsRegistry::doc_name(name);
        assert!(
            documented.contains(&doc_name),
            "run emitted `{name}` (documented form `{doc_name}`) which is not in the schema"
        );
    }
}

#[test]
fn snapshot_json_round_trips() {
    let bin = (kernels::all()[0].build)(8, 2);
    let mut emu = Emulator::new(&bin, Setup::Risotto, 2, CostModel::thunderx2_like());
    emu.set_stage_timing(true);
    emu.set_profiling(true);
    emu.run(FUEL).expect("kernel runs");
    let snap = emu.metrics();
    let back = MetricsSnapshot::from_json(&snap.to_json()).expect("snapshot JSON parses");
    assert_eq!(back, snap, "snapshot JSON exposition must round-trip losslessly");
    assert_eq!(back.version, 1);

    // Malformed input reports a position instead of panicking.
    assert!(MetricsSnapshot::from_json("{\"version\": 1").is_err());
    assert!(MetricsSnapshot::from_json("not json").is_err());
}

#[test]
fn hot_tb_profiler_default_is_empty_and_top_n_breaks_ties_by_pc() {
    // `Default` and `new` agree and start empty.
    let d = HotTbProfiler::default();
    assert!(d.is_empty());
    assert_eq!(d.len(), 0);
    assert!(d.top_n(8).is_empty());
    assert!(HotTbProfiler::new().is_empty());

    // Regression: equal execution counts must order by guest pc, so the
    // report is deterministic across HashMap iteration orders.
    let mut p = HotTbProfiler::new();
    p.record(3, 0x3000, 50, 0);
    p.record(1, 0x1000, 50, 2);
    p.record(4, 0x4000, 99, 1);
    p.record(2, 0x2000, 50, 0);
    let top = p.top_n(3);
    assert_eq!(top.len(), 3);
    assert_eq!(top[0].guest_pc, 0x4000, "hottest block first");
    assert_eq!(
        (top[1].guest_pc, top[2].guest_pc),
        (0x1000, 0x2000),
        "ties at 50 execs must order by ascending guest pc"
    );
    // The full report keeps the remaining tied block in pc order too.
    let all = p.top_n(10);
    assert_eq!(all.len(), 4);
    assert_eq!(all[3].guest_pc, 0x3000);

    // Re-recording accumulates instead of clobbering, and a real tb_id
    // upgrades an interpreted-only (id 0) entry.
    let mut q = HotTbProfiler::new();
    q.record(0, 0x5000, 1, 1);
    q.record(7, 0x5000, 2, 0);
    let only = q.top_n(1)[0];
    assert_eq!((only.tb_id, only.execs, only.chain_misses), (7, 3, 1));
}
