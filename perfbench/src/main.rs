//! The risotto-rs benchmark: three closed-loop workloads driven through
//! the public API on one host thread, every result checked against an
//! independent reference.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernels-hot|fuzz-cold|cas-ladder> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics untraced, its
//! times scaled to a reference host speed (see `calibrate.rs`); with
//! `--trace 1` it measures the per-layer metrics in raw host time (see
//! `perfbench/README.md` for both lists and the layer → metric → workload
//! map). Human-readable lines come first; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 0 when every check passed, 1 when a check
//! failed (the JSON line is still printed), 2 on bad arguments.

mod calibrate;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use calibrate::Calibrator;
use traced::Layers;
use workloads::{pass_order, run_program, Counts, Program, Run, Workload, FIG12_RISOTTO_CYCLES};

const USAGE: &str = "usage: risotto-perfbench --workload <kernels-hot|fuzz-cold|cas-ladder> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// A workload whose passes reuse one program set is set up at least
/// `SETUP_MIN_REPS` times and until `SETUP_MIN_SECONDS` have passed, so
/// that `setup_s`, their median, is steady even when one set-up takes
/// microseconds. (`fuzz-cold` sets up once per pass.)
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 0.5;

/// `fuzz-cold` re-runs every this-many-th program of its first pass after
/// the timed passes and requires identical counters.
const FUZZ_RERUN_STRIDE: usize = 10;

/// Failure messages printed before the result line.
const MAX_REPORTED_FAILURES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Programs attempted and the failures among them, plus every failed
/// run-level check (determinism, cold analysis cache, replay).
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    /// Counts one pass's results; returns each program's counters.
    fn add(
        &mut self,
        results: impl IntoIterator<Item = Result<Counts, String>>,
    ) -> Vec<Option<Counts>> {
        results
            .into_iter()
            .map(|r| {
                self.attempted += 1;
                r.map_err(|e| {
                    self.failed += 1;
                    self.problems.push(e);
                })
                .ok()
            })
            .collect()
    }

    /// Requires two runs of the same programs to agree on every counter.
    fn same_counts(
        &mut self,
        a: &[Option<Counts>],
        b: &[Option<Counts>],
        programs: &[Program],
        what: &str,
    ) {
        for ((x, y), p) in a.iter().zip(b).zip(programs) {
            if let (Some(x), Some(y)) = (x, y) {
                if x != y {
                    self.problems.push(format!("{}: counters differ between {what}", p.name));
                }
            }
        }
    }

    /// Requires every image of a `fuzz-cold` pass to miss the analysis
    /// cache, so the pass pays every analysis.
    fn cold_cache(&mut self, misses: usize, programs: usize, what: &str) {
        if misses != programs {
            self.problems
                .push(format!("{what}: {misses} analysis-cache misses for {programs} programs"));
        }
    }
}

fn sum(counts: &[Option<Counts>]) -> Counts {
    let mut total = Counts::default();
    for c in counts.iter().flatten() {
        total += *c;
    }
    total
}

/// Runs every program once, back to back, in pass `pass`'s order, with
/// calibration rounds in between. Returns the runs (indexed like
/// `programs`), the pass's host time without the rounds, and the factor
/// that scales it to the reference host.
fn run_pass(
    programs: &[Program],
    seed: u64,
    pass: u64,
    cal: &mut Calibrator,
) -> (Vec<Run>, Duration, f64) {
    let mut runs: Vec<Option<Run>> = programs.iter().map(|_| None).collect();
    let mut wall = Duration::ZERO;
    for i in pass_order(programs.len(), seed, pass) {
        cal.tick();
        let t = Instant::now();
        runs[i] = Some(run_program(&programs[i]));
        wall += t.elapsed();
    }
    let runs = runs.into_iter().map(|r| r.expect("a pass runs every program")).collect();
    (runs, wall, cal.factor())
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Percentile `p` (0–100) of `v`, interpolating linearly between the
/// closest ranks.
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process in MiB, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb: cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("peak_rss_mb: no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Sets up pass `pass`'s programs (repeatedly when passes reuse them);
/// returns them with each set-up time in reference-host seconds.
fn setup(args: &Args, pass: u64, cal: &mut Calibrator) -> Result<(Vec<Program>, Vec<f64>), String> {
    let once = args.workload.fresh_programs_per_pass();
    let mut times: Vec<f64> = Vec::new();
    loop {
        cal.tick();
        let t = Instant::now();
        let programs = args.workload.build(args.seed, pass)?;
        times.push(t.elapsed().as_secs_f64());
        if once || (times.len() >= SETUP_MIN_REPS && times.iter().sum::<f64>() >= SETUP_MIN_SECONDS)
        {
            let f = cal.factor();
            return Ok((programs, times.iter().map(|t| t * f).collect()));
        }
    }
}

/// The untraced run: closed-loop passes for `--seconds`, then the
/// end-to-end metrics. Their times are in reference-host seconds (see
/// `calibrate`).
fn end_to_end(args: &Args, out: &mut Outcome) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let fresh = w.fresh_programs_per_pass();
    let mut cal = Calibrator::new();
    let (programs0, mut setup_times) = setup(args, 0, &mut cal)?;
    let budget = Duration::from_secs(args.seconds);
    let (mut measured, mut walls, mut raw_walls) = (Duration::ZERO, Vec::new(), Vec::new());
    // Latency samples per program: one per pass over a reused program
    // set, one in all for programs that run once.
    let mut latencies_ms: Vec<Vec<f64>> = vec![Vec::new(); if fresh { 0 } else { programs0.len() }];
    let mut pass0: Vec<Option<Counts>> = Vec::new();
    let mut pass = 0u64;
    while pass == 0 || measured < budget {
        let built;
        let programs: &[Program] = if fresh && pass > 0 {
            let (b, times) = setup(args, pass, &mut cal)?;
            setup_times.extend(times);
            built = b;
            &built
        } else {
            &programs0
        };
        let (runs, wall, factor) = run_pass(programs, args.seed, pass, &mut cal);
        measured += wall;
        raw_walls.push(wall.as_secs_f64());
        walls.push(wall.as_secs_f64() * factor);
        let ms = runs.iter().map(|r| r.latency.as_secs_f64() * 1e3 * factor);
        if fresh {
            latencies_ms.extend(ms.map(|m| vec![m]));
        } else {
            latencies_ms.iter_mut().zip(ms).for_each(|(v, m)| v.push(m));
        }
        let misses = runs.iter().filter(|r| r.analysis_miss).count();
        let counts = out.add(runs.into_iter().map(|r| r.result));
        if fresh {
            out.cold_cache(misses, programs.len(), &format!("pass {pass}"));
        }
        if pass == 0 {
            pass0 = counts;
        } else if !fresh {
            out.same_counts(&pass0, &counts, programs, &format!("pass 0 and pass {pass}"));
        }
        pass += 1;
    }
    if fresh {
        // Determinism of distinct-per-pass programs: re-run a sample of
        // pass 0 and require the same counters.
        let sample: Vec<Program> = programs0.iter().step_by(FUZZ_RERUN_STRIDE).cloned().collect();
        let expected: Vec<Option<Counts>> =
            pass0.iter().step_by(FUZZ_RERUN_STRIDE).copied().collect();
        let (runs, ..) = run_pass(&sample, args.seed, pass, &mut cal);
        let again = out.add(runs.into_iter().map(|r| r.result));
        out.same_counts(&expected, &again, &sample, "pass 0 and its re-run");
    }
    let total = sum(&pass0);
    let program_ms: Vec<f64> = latencies_ms.iter().map(|v| median(v)).collect();
    let walls_text: Vec<String> = raw_walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "{}: seed {}, {} programs per pass, {} set-ups, {} timed passes of {} host s",
        w.name(),
        args.seed,
        programs0.len(),
        setup_times.len(),
        walls.len(),
        walls_text.join(" "),
    );
    println!(
        "median pass {:.4} host s = {:.4} reference-host s",
        median(&raw_walls),
        median(&walls)
    );
    if w == Workload::KernelsHot {
        report_fig12(&programs0, &pass0);
    }
    println!(
        "failed_frac {} ({} failed of {} attempted)",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    Ok(vec![
        metric("wall_s", median(&walls), "s"),
        metric("sim_cycles", total.cycles as f64, "cycles"),
        metric("p50_ms", percentile(&program_ms, 50.0), "ms"),
        metric("p99_ms", percentile(&program_ms, 99.0), "ms"),
        metric("peak_rss_mb", peak_rss_mb()?, "MiB"),
        metric("setup_s", median(&setup_times), "s"),
    ])
}

/// Prints each kernel's simulated cycles next to the risotto column of
/// `fig12_parsec_phoenix` (full mode).
fn report_fig12(programs: &[Program], counts: &[Option<Counts>]) {
    let mut matched = 0;
    println!("kernel cycles vs fig12_parsec_phoenix risotto column (full mode):");
    for (p, c) in programs.iter().zip(counts) {
        let fig12 = FIG12_RISOTTO_CYCLES.iter().find(|(k, _)| *k == p.name).map(|&(_, c)| c);
        let cycles = c.map(|c| c.cycles);
        let verdict = match (cycles, fig12) {
            (Some(a), Some(b)) if a == b => {
                matched += 1;
                "match".to_string()
            }
            (Some(a), Some(b)) => format!("differs by {}", a as i64 - b as i64),
            _ => "no result".to_string(),
        };
        println!(
            "  {:<16} {:>10} {:>10}  {verdict}",
            p.name,
            cycles.unwrap_or(0),
            fig12.unwrap_or(0)
        );
    }
    println!("  {matched} of {} kernels match", programs.len());
}

/// The traced run: untraced passes for half of `--seconds` (the baseline
/// for the tracing overhead), then one traced pass over pass 0's programs
/// with its replay.
fn per_layer(args: &Args, out: &mut Outcome) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let fresh = w.fresh_programs_per_pass();
    let programs0 = w.build(args.seed, 0)?;
    let mut cal = Calibrator::new();
    let budget = Duration::from_secs(args.seconds) / 2;
    let (mut measured, mut walls) = (Duration::ZERO, Vec::new());
    let mut untraced: Vec<Option<Counts>> = Vec::new();
    // Untraced passes of `fuzz-cold` take the program sets after pass 0,
    // so the traced pass still meets a cold analysis cache.
    let mut pass = 1u64;
    while pass == 1 || measured < budget {
        let built;
        let programs: &[Program] = if fresh {
            built = w.build(args.seed, pass)?;
            &built
        } else {
            &programs0
        };
        let (runs, wall, _) = run_pass(programs, args.seed, pass, &mut cal);
        measured += wall;
        walls.push(wall.as_secs_f64());
        let counts = out.add(runs.into_iter().map(|r| r.result));
        if pass == 1 {
            untraced = counts;
        }
        pass += 1;
    }
    let (l, results) = traced::traced_pass(&programs0);
    let traced = out.add(results);
    if fresh {
        out.cold_cache(l.analysis_misses as usize, programs0.len(), "traced pass");
    } else {
        out.same_counts(&untraced, &traced, &programs0, "the untraced and the traced run");
    }
    out.problems.extend(l.replay_failures.iter().cloned());
    let c = sum(&traced);
    let metrics = layer_metrics(&l, &c, median(&walls));
    println!(
        "{}: seed {}, {} programs, traced pass {:.3} s, {} untraced passes (median {:.3} s)",
        w.name(),
        args.seed,
        programs0.len(),
        l.wall_ns as f64 / 1e9,
        walls.len(),
        median(&walls)
    );
    Ok(metrics)
}

/// The per-layer metrics of one traced pass. `untraced_wall` is the
/// median untraced pass time over the same workload.
fn layer_metrics(l: &Layers, c: &Counts, untraced_wall: f64) -> Vec<Metric> {
    let s = |ns: u64| ns as f64 / 1e9;
    let wall = s(l.wall_ns);
    let translate = s(l.translate_ns());
    let run_other = s(l.run_ns.saturating_sub(l.translate_ns()));
    let tier1_translate = s(l.decode_ns + l.opt_ns + l.encode_ns + l.install_ns);
    vec![
        metric("core.load_s", s(l.load_ns), "s"),
        metric("core.set_analysis_s", s(l.set_analysis_ns), "s"),
        metric("core.run_s", s(l.run_ns), "s"),
        metric("core.install_s", s(l.install_ns), "s"),
        metric("core.installs", c.installs as f64, "count"),
        metric("core.run_other_s", run_other, "s"),
        metric(
            "core.chain_hit_rate",
            ratio(c.chain_hits as f64, (c.chain_hits + c.chain_links) as f64),
            "ratio",
        ),
        metric(
            "core.jcache_miss_rate",
            ratio(c.jcache_misses as f64, (c.jcache_hits + c.jcache_misses) as f64),
            "ratio",
        ),
        metric("analysis.s", s(l.analysis_ns), "s"),
        metric("analysis.sites", c.analysis_sites as f64, "count"),
        metric("analysis.relaxed", c.analysis_relaxed as f64, "count"),
        metric("analysis.cache_misses", l.analysis_misses as f64, "count"),
        metric("tcg.decode_s", s(l.decode_ns), "s"),
        metric("tcg.opt_s", s(l.opt_ns), "s"),
        metric("tcg.blocks", l.tier1_blocks as f64, "count"),
        metric("tcg.guest_insns", c.guest_insns as f64, "count"),
        metric(
            "tcg.ns_per_guest_insn",
            ratio(tier1_translate * 1e9, c.guest_insns as f64),
            "ns/insn",
        ),
        metric("tcg.ir_ops_in", l.ir_ops_in as f64, "count"),
        metric("tcg.ir_ops_out", l.ir_ops_out as f64, "count"),
        metric("tcg.fences_merged", c.fences_merged as f64, "count"),
        metric("tcg.loads_forwarded", c.loads_forwarded as f64, "count"),
        metric("tcg.stores_eliminated", c.stores_eliminated as f64, "count"),
        metric("tcg.verify_full_s", s(l.verify_ir_ns), "s"),
        metric(
            "tcg.decode_replay_ratio",
            ratio(l.replay_decode_ns as f64, l.decode_ns as f64),
            "ratio",
        ),
        metric("tcg.opt_replay_ratio", ratio(l.replay_opt_ns as f64, l.opt_ns as f64), "ratio"),
        metric("tcg.sb.s", s(l.sb_ns), "s"),
        metric("tcg.sb.promotions", c.sb_promotions as f64, "count"),
        metric("tcg.sb.tbs_merged", c.sb_tbs_merged as f64, "count"),
        metric("tcg.sb.fences_merged_cross", c.sb_fences_merged_cross as f64, "count"),
        metric("template.s", s(l.template_ns), "s"),
        metric("template.blocks", c.template_blocks as f64, "count"),
        metric("template.insns", c.template_insns as f64, "count"),
        metric("host-arm.lower_s", s(l.encode_ns), "s"),
        metric(
            "host-arm.lower_replay_ratio",
            ratio(l.replay_lower_ns as f64, l.encode_ns as f64),
            "ratio",
        ),
        metric("host-arm.insns_emitted", l.insns_emitted as f64, "count"),
        metric("host-arm.code_bytes", c.code_bytes as f64, "bytes"),
        metric("host-arm.regalloc_spills", c.regalloc_spills as f64, "count"),
        metric("host-arm.regalloc_reloads", c.regalloc_reloads as f64, "count"),
        metric("host-arm.verify_full_s", s(l.verify_encoding_ns), "s"),
        metric("host-arm.exec_insns", c.exec_insns as f64, "count"),
        metric("host-arm.exec_ns_per_insn", ratio(run_other * 1e9, c.exec_insns as f64), "ns/insn"),
        metric(
            "host-arm.fence_cycle_share",
            ratio(c.fence_cycles as f64, c.core_cycles as f64),
            "ratio",
        ),
        metric("host-arm.atomics", c.atomics as f64, "count"),
        metric("host-arm.helper_calls", c.helper_calls as f64, "count"),
        metric("trace.wall_s", wall, "s"),
        metric("trace.untraced_wall_s", untraced_wall, "s"),
        metric("trace.overhead_s", wall - untraced_wall, "s"),
        metric("trace.translate_share", ratio(translate, wall), "ratio"),
        metric("trace.analysis_share", ratio(s(l.analysis_ns), wall), "ratio"),
        metric("trace.load_share", ratio(s(l.load_ns), wall), "ratio"),
        metric("trace.run_other_share", ratio(run_other, wall), "ratio"),
    ]
}

/// What each ratio metric divides by, printed beside it.
fn base_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "core.chain_hit_rate" => "chain hits / (hits + links)",
        "core.jcache_miss_rate" => "jump-cache misses / (hits + misses)",
        "tcg.ns_per_guest_insn" => "(decode + opt + lower + install spans) / tcg.guest_insns",
        "tcg.decode_replay_ratio" => "replayed decode / engine stage.decode_ns",
        "tcg.opt_replay_ratio" => "replayed opt / engine stage.opt_ns",
        "host-arm.lower_replay_ratio" => "replayed lower / engine stage.encode_ns",
        "host-arm.exec_ns_per_insn" => "core.run_other_s / host-arm.exec_insns",
        "host-arm.fence_cycle_share" => "fence cycles / (sim cycles x cores)",
        n if n.ends_with("_share") => "span / trace.wall_s",
        _ => return None,
    })
}

fn print_result(correct: bool, out: &Outcome, metrics: &[Metric]) {
    for m in metrics {
        match base_of(m.name) {
            Some(base) => {
                println!("  {:<30} {:>16.6} {:<8} (base: {base})", m.name, m.value, m.unit)
            }
            None => println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    for p in out.problems.iter().take(MAX_REPORTED_FAILURES) {
        println!("FAILED: {p}");
    }
    if out.problems.len() > MAX_REPORTED_FAILURES {
        println!("FAILED: … and {} more", out.problems.len() - MAX_REPORTED_FAILURES);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("risotto-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let metrics = if args.trace { per_layer(&args, &mut out) } else { end_to_end(&args, &mut out) };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("risotto-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = out.problems.is_empty();
    print_result(correct, &out, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
