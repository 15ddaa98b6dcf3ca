//! # risotto-bench
//!
//! The evaluation harness: shared runners and table formatting for the
//! figure-regenerating binaries (`fig12_parsec_phoenix`,
//! `fig13_openssl_sqlite`, `fig14_mathlib`, `fig15_cas`,
//! `verify_mappings`) and the Criterion micro-benchmarks.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::OnceLock;

use risotto_core::obs::{HotTb, MetricsSnapshot};
use risotto_core::{
    BackendKind, Emulator, HostLibrary, Idl, Report, Setup, TierConfig, VerifyLevel,
};
use risotto_guest_x86::GuestBinary;

/// Simulated host clock (the paper's testbed runs at 2.0 GHz).
pub const CLOCK_HZ: f64 = 2.0e9;

/// How many hot TBs each workload records in the metrics artifact.
pub const HOT_TB_TOP_N: usize = 10;

/// The tier pin selected by `--tiers` for this process, applied by the
/// shared runners to every DBT emulator they construct. Set once by
/// [`BenchCli::parse_with`]; `None` (flag absent, or `--tiers 1`) keeps
/// today's tier-1-only default.
static TIER_POLICY: OnceLock<Option<TierConfig>> = OnceLock::new();

/// The process-wide tier pin from `--tiers`, if one was selected.
pub fn tier_policy() -> Option<TierConfig> {
    TIER_POLICY.get().copied().flatten()
}

/// The analysis toggle selected by `--analysis` for this process,
/// applied by the shared runners to every DBT emulator they construct.
/// Set once by [`BenchCli::parse_with`]; benchmarks default to **on**
/// (the flag exists to measure the unrelaxed baseline).
static ANALYSIS_POLICY: OnceLock<bool> = OnceLock::new();

/// The process-wide analysis toggle from `--analysis` (default `true`).
pub fn analysis_policy() -> bool {
    ANALYSIS_POLICY.get().copied().unwrap_or(true)
}

/// Runs a binary under a setup, optionally linking the standard host
/// libraries (libm + libcrypto + libkv).
///
/// # Panics
///
/// Panics on any emulation error — benchmarks must run clean.
pub fn run(bin: &GuestBinary, setup: Setup, cores: usize, link: bool) -> Report {
    run_on(bin, setup, cores, link, BackendKind::Arm)
}

/// The backend actually used for a setup: the native oracle models
/// Arm-compiled binaries and stays on Arm whatever `--backend` says;
/// every DBT setup honours the requested backend.
pub fn effective_backend(setup: Setup, requested: BackendKind) -> BackendKind {
    if setup == Setup::Native {
        BackendKind::Arm
    } else {
        requested
    }
}

/// Like [`run`], but on an explicit host backend (docs/BACKENDS.md).
/// The machine is priced with that backend's cost model, so cycle
/// numbers are comparable only within one backend.
///
/// # Panics
///
/// Panics on any emulation error — benchmarks must run clean.
pub fn run_on(
    bin: &GuestBinary,
    setup: Setup,
    cores: usize,
    link: bool,
    backend: BackendKind,
) -> Report {
    let backend = effective_backend(setup, backend);
    let mut emu = Emulator::new(bin, setup, cores, backend.cost_model());
    emu.set_backend(backend);
    // Install-time read-back is free (no simulated cycles), so every
    // benchmark run keeps it on: `verify.violations` must be zero in
    // any artifact the harness produces.
    emu.set_verify(VerifyLevel::Install);
    // A `--tiers` pin and the `--analysis` toggle apply to every DBT
    // setup; the native oracle runs precompiled host code and has
    // neither translation tiers nor fence obligations to relax.
    if setup != Setup::Native {
        if let Some(cfg) = tier_policy() {
            emu.set_tiering(Some(cfg));
        }
        emu.set_analysis(analysis_policy());
    }
    if link {
        let idl = Idl::parse(risotto_nativelib::hostlibs::IDL_TEXT).expect("IDL parses");
        for lib in [
            risotto_nativelib::hostlibs::libm(),
            risotto_nativelib::hostlibs::libcrypto(),
            risotto_nativelib::hostlibs::libkv(),
        ] {
            let lib: HostLibrary = lib;
            emu.link_library(bin, &idl, lib).expect("standard libraries match the IDL");
        }
    }
    emu.run(20_000_000_000).unwrap_or_else(|e| panic!("{}: {e}", setup.name()))
}

/// Like [`run`], but with full observability enabled (stage timing +
/// hot-TB profiling): returns the legacy [`Report`] alongside a
/// [`MetricsSnapshot`] and the hottest TBs.
///
/// The snapshot is cross-checked against the report before returning —
/// every fence / chain / fallback counter in the registry must equal its
/// legacy `Report` source, so a `--metrics-json` run is self-verifying.
///
/// # Panics
///
/// Panics on any emulation error or on a registry/`Report` mismatch.
pub fn run_with_metrics(
    bin: &GuestBinary,
    setup: Setup,
    cores: usize,
    link: bool,
) -> (Report, MetricsSnapshot, Vec<HotTb>) {
    run_with_metrics_on(bin, setup, cores, link, BackendKind::Arm)
}

/// Like [`run_with_metrics`], but on an explicit host backend. On the
/// TSO backend the `fence.exec.dmb_ff` counter counts executed
/// `MFENCE`s (the only barrier MiniTSO emits); `dmb_ld`/`dmb_st` stay 0.
///
/// # Panics
///
/// Panics on any emulation error or on a registry/`Report` mismatch.
pub fn run_with_metrics_on(
    bin: &GuestBinary,
    setup: Setup,
    cores: usize,
    link: bool,
    backend: BackendKind,
) -> (Report, MetricsSnapshot, Vec<HotTb>) {
    let backend = effective_backend(setup, backend);
    let mut emu = Emulator::new(bin, setup, cores, backend.cost_model());
    emu.set_backend(backend);
    emu.set_verify(VerifyLevel::Install);
    emu.set_stage_timing(true);
    emu.set_profiling(true);
    if setup != Setup::Native {
        if let Some(cfg) = tier_policy() {
            emu.set_tiering(Some(cfg));
        }
        emu.set_analysis(analysis_policy());
    }
    if link {
        let idl = Idl::parse(risotto_nativelib::hostlibs::IDL_TEXT).expect("IDL parses");
        for lib in [
            risotto_nativelib::hostlibs::libm(),
            risotto_nativelib::hostlibs::libcrypto(),
            risotto_nativelib::hostlibs::libkv(),
        ] {
            let lib: HostLibrary = lib;
            emu.link_library(bin, &idl, lib).expect("standard libraries match the IDL");
        }
    }
    let report = emu.run(20_000_000_000).unwrap_or_else(|e| panic!("{}: {e}", setup.name()));
    let snap = emu.metrics();
    let hot = emu.hot_tbs(HOT_TB_TOP_N);
    for (metric, legacy) in [
        ("translate.blocks", report.tb_count as u64),
        ("translate.retranslations", report.retranslations as u64),
        ("translate.fallback_blocks", report.fallback_blocks as u64),
        ("opt.fences_merged", report.opt.fences_merged as u64),
        ("opt.loads_forwarded", report.opt.loads_forwarded as u64),
        ("opt.stores_eliminated", report.opt.stores_eliminated as u64),
        ("chain.hits", report.chain.chain_hits),
        ("chain.links", report.chain.chain_links),
        ("chain.flushes", report.chain.chain_flushes),
        ("jcache.hits", report.chain.dispatch_hits),
        ("jcache.misses", report.chain.dispatch_misses),
        ("fence.exec.dmb_ld", report.stats.dmb[0]),
        ("fence.exec.dmb_st", report.stats.dmb[1]),
        ("fence.exec.dmb_ff", report.stats.dmb[2]),
        ("fence.exec.cycles", report.stats.fence_cycles),
        ("exec.insns", report.stats.insns),
    ] {
        assert_eq!(
            snap.counter(metric),
            legacy,
            "metric `{metric}` diverged from its legacy Report source"
        );
    }
    assert_eq!(snap.gauge("exec.cycles"), report.cycles, "exec.cycles gauge diverged");
    (report, snap, hot)
}

/// Runs `bin` under [`Setup::Risotto`] on `backend`, collecting a
/// [`MetricsEntry`] into `metrics` when it is `Some` (i.e. when
/// `--metrics-json` was requested) and falling back to a plain
/// [`run_on`] otherwise.
pub fn run_risotto_collecting(
    bin: &GuestBinary,
    name: &str,
    cores: usize,
    link: bool,
    metrics: &mut Option<Vec<MetricsEntry>>,
    backend: BackendKind,
) -> Report {
    match metrics {
        Some(entries) => {
            let (report, snapshot, hot_tbs) =
                run_with_metrics_on(bin, Setup::Risotto, cores, link, backend);
            entries.push(MetricsEntry {
                name: name.to_string(),
                setup: Setup::Risotto.name(),
                snapshot,
                hot_tbs,
            });
            report
        }
        None => run_on(bin, Setup::Risotto, cores, link, backend),
    }
}

/// One workload's entry in a `--metrics-json` artifact.
#[derive(Debug)]
pub struct MetricsEntry {
    /// Workload name.
    pub name: String,
    /// Setup the metrics were collected under.
    pub setup: &'static str,
    /// The registry snapshot.
    pub snapshot: MetricsSnapshot,
    /// The hottest TBs ([`HOT_TB_TOP_N`]), hottest first.
    pub hot_tbs: Vec<HotTb>,
}

/// The common command line every `risotto-bench` binary accepts: the
/// shared flags (`--smoke`, `--metrics-json <path>` /
/// `--metrics-json=<path>`, `--backend arm|tso`, `--tiers 0|1|2`), any
/// value-carrying flags the binary declares up front (e.g. the fuzzer's
/// `--seed` / `--iters`), plus whatever positional arguments the binary
/// itself defines. Unknown `--flags` are rejected uniformly.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BenchCli {
    /// `--smoke` was passed (bounded quick mode).
    pub smoke: bool,
    /// Path from `--metrics-json`, when requested.
    pub metrics_json: Option<String>,
    /// Host backend from `--backend` (docs/BACKENDS.md); Arm when the
    /// flag is absent. The native-oracle setup always stays on Arm
    /// (see [`effective_backend`]).
    pub backend: BackendKind,
    /// Tier ceiling from `--tiers` (docs/ARCHITECTURE.md): `0` pins
    /// every block to the tier-0 template translator, `1` is today's
    /// tier-1-only default, `2` enables the full three-tier ladder
    /// (templates → IR pipeline → superblocks). `None` when absent.
    pub tiers: Option<u8>,
    /// Whole-program analysis toggle from `--analysis on|off`
    /// (docs/ANALYSIS.md). `None` when absent — the shared runners
    /// default to on.
    pub analysis: Option<bool>,
    /// Positional (non-flag) arguments, in order.
    pub positional: Vec<String>,
    /// Values of the declared extra flags, in the order given
    /// (last occurrence wins via [`BenchCli::value`]).
    pub values: Vec<(String, String)>,
}

impl BenchCli {
    /// Parses the process arguments; prints an error naming `tool` and
    /// exits with status 2 on an unknown flag or a missing flag value.
    pub fn parse(tool: &str) -> BenchCli {
        Self::parse_with(tool, &[])
    }

    /// Like [`BenchCli::parse`], but additionally accepting the declared
    /// value-carrying flags (each named with its leading `--`, accepted
    /// as `--flag v` or `--flag=v`).
    pub fn parse_with(tool: &str, declared: &[&str]) -> BenchCli {
        match Self::try_parse_with(std::env::args().skip(1), declared) {
            Ok(cli) => {
                // Publish the tier pin and analysis toggle for the
                // shared runners; first parse in the process wins
                // (binaries parse once).
                let _ = TIER_POLICY.set(cli.tier_config());
                let _ = ANALYSIS_POLICY.set(cli.analysis.unwrap_or(true));
                cli
            }
            Err(msg) => {
                eprintln!("{tool}: {msg}");
                let extra: String = declared.iter().map(|f| format!(", {f} <value>")).collect();
                eprintln!(
                    "{tool}: supported flags: --smoke, --metrics-json <path>, --backend arm|tso, --tiers 0|1|2, --analysis on|off{extra}"
                );
                std::process::exit(2);
            }
        }
    }

    /// Flag parsing behind [`BenchCli::parse`], separated for testing.
    pub fn try_parse(args: impl Iterator<Item = String>) -> Result<BenchCli, String> {
        Self::try_parse_with(args, &[])
    }

    /// Flag parsing behind [`BenchCli::parse_with`], separated for
    /// testing.
    pub fn try_parse_with(
        args: impl Iterator<Item = String>,
        declared: &[&str],
    ) -> Result<BenchCli, String> {
        let mut cli = BenchCli::default();
        let mut args = args;
        'arg: while let Some(a) = args.next() {
            if a == "--smoke" {
                cli.smoke = true;
            } else if a == "--metrics-json" {
                cli.metrics_json =
                    Some(args.next().ok_or("--metrics-json requires a path".to_owned())?);
            } else if let Some(p) = a.strip_prefix("--metrics-json=") {
                cli.metrics_json = Some(p.to_owned());
            } else if a == "--backend" {
                let v = args.next().ok_or("--backend requires `arm` or `tso`".to_owned())?;
                cli.backend = BackendKind::parse(&v)
                    .ok_or(format!("--backend `{v}`: expected `arm` or `tso`"))?;
            } else if let Some(v) = a.strip_prefix("--backend=") {
                cli.backend = BackendKind::parse(v)
                    .ok_or(format!("--backend `{v}`: expected `arm` or `tso`"))?;
            } else if a == "--tiers" {
                let v = args.next().ok_or("--tiers requires `0`, `1` or `2`".to_owned())?;
                cli.tiers = Some(Self::parse_tiers(&v)?);
            } else if let Some(v) = a.strip_prefix("--tiers=") {
                cli.tiers = Some(Self::parse_tiers(v)?);
            } else if a == "--analysis" {
                let v = args.next().ok_or("--analysis requires `on` or `off`".to_owned())?;
                cli.analysis = Some(Self::parse_analysis(&v)?);
            } else if let Some(v) = a.strip_prefix("--analysis=") {
                cli.analysis = Some(Self::parse_analysis(v)?);
            } else if a.starts_with("--") {
                for f in declared {
                    if a == *f {
                        let v = args.next().ok_or(format!("{f} requires a value"))?;
                        cli.values.push((f.to_string(), v));
                        continue 'arg;
                    }
                    if let Some(v) = a.strip_prefix(&format!("{f}=")) {
                        cli.values.push((f.to_string(), v.to_owned()));
                        continue 'arg;
                    }
                }
                return Err(format!("unknown flag `{a}`"));
            } else {
                cli.positional.push(a);
            }
        }
        Ok(cli)
    }

    fn parse_tiers(v: &str) -> Result<u8, String> {
        match v {
            "0" => Ok(0),
            "1" => Ok(1),
            "2" => Ok(2),
            _ => Err(format!("--tiers `{v}`: expected `0`, `1` or `2`")),
        }
    }

    fn parse_analysis(v: &str) -> Result<bool, String> {
        match v {
            "on" => Ok(true),
            "off" => Ok(false),
            _ => Err(format!("--analysis `{v}`: expected `on` or `off`")),
        }
    }

    /// The tier policy the `--tiers` selection pins on every DBT
    /// emulator the shared runners build:
    ///
    /// * `--tiers 0` — templates only: every block stays tier-0 forever
    ///   (both thresholds at `u64::MAX` never fire, so nothing is ever
    ///   re-translated through the IR pipeline or promoted).
    /// * `--tiers 1` (or no flag) — today's default: the IR pipeline
    ///   translates everything, no tiering at all (`None`).
    /// * `--tiers 2` — the full ladder: cold blocks via templates, warm
    ///   blocks re-translated at 32 entries, hot traces promoted to
    ///   superblocks at the default threshold.
    pub fn tier_config(&self) -> Option<TierConfig> {
        match self.tiers {
            Some(0) => Some(TierConfig {
                hot_threshold: u64::MAX,
                warm_threshold: Some(u64::MAX),
                ..TierConfig::default()
            }),
            Some(2) => Some(TierConfig { warm_threshold: Some(32), ..TierConfig::default() }),
            _ => None,
        }
    }

    /// The value of a declared flag (last occurrence wins).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    /// Parses a declared flag's value as an integer, with a default when
    /// the flag was not passed.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the value does not parse.
    pub fn u64_value(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => {
                let (src, radix) = match v.strip_prefix("0x") {
                    Some(hex) => (hex, 16),
                    None => (v, 10),
                };
                u64::from_str_radix(src, radix).map_err(|e| format!("{flag} `{v}`: {e}"))
            }
        }
    }
}

/// Writes the versioned metrics artifact shared by every `fig*` binary
/// and `fault_sweep`:
/// `{"version":1,"tool":…,"workloads":[{name,setup,hot_tbs,metrics},…]}`.
///
/// # Panics
///
/// Panics if the file cannot be written — a requested artifact that
/// silently fails to appear would be worse.
pub fn write_metrics_json(path: &str, tool: &str, entries: &[MetricsEntry]) {
    let mut workloads = Vec::with_capacity(entries.len());
    for e in entries {
        let hot: Vec<String> = e
            .hot_tbs
            .iter()
            .map(|t| {
                format!(
                    "{{\"tb_id\": {}, \"guest_pc\": {}, \"execs\": {}, \"chain_misses\": {}}}",
                    t.tb_id, t.guest_pc, t.execs, t.chain_misses
                )
            })
            .collect();
        workloads.push(format!(
            "    {{\"name\": \"{}\", \"setup\": \"{}\", \"hot_tbs\": [{}],\n     \"metrics\": {}}}",
            e.name,
            e.setup,
            hot.join(", "),
            e.snapshot.to_json()
        ));
    }
    let json = format!(
        "{{\n  \"version\": 1,\n  \"tool\": \"{tool}\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n")
    );
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote metrics artifact: {path}");
}

/// Converts simulated cycles to operations per second for `ops`
/// operations.
pub fn ops_per_sec(ops: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    ops as f64 * CLOCK_HZ / cycles as f64
}

/// Prints an aligned table: header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a speedup.
pub fn speedup(base: u64, new: u64) -> String {
    format!("{:.2}x", base as f64 / new as f64)
}

#[cfg(test)]
mod tests {
    use super::BenchCli;

    fn parse(args: &[&str]) -> Result<BenchCli, String> {
        BenchCli::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn shared_flags_and_positionals_parse_in_any_order() {
        let cli = parse(&["120", "--smoke", "--metrics-json", "out.json", "extra"]).unwrap();
        assert!(cli.smoke);
        assert_eq!(cli.metrics_json.as_deref(), Some("out.json"));
        assert_eq!(cli.positional, vec!["120", "extra"]);
        let cli = parse(&["--metrics-json=m.json"]).unwrap();
        assert_eq!(cli.metrics_json.as_deref(), Some("m.json"));
        assert_eq!(parse(&[]).unwrap(), BenchCli::default());
    }

    #[test]
    fn unknown_flags_and_missing_values_are_rejected() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--smokey"]).is_err());
        assert!(parse(&["--metrics-json"]).is_err());
    }

    #[test]
    fn backend_flag_parses_and_rejects_unknown_hosts() {
        use risotto_core::BackendKind;
        assert_eq!(parse(&[]).unwrap().backend, BackendKind::Arm);
        assert_eq!(parse(&["--backend", "tso"]).unwrap().backend, BackendKind::Tso);
        assert_eq!(parse(&["--backend=arm"]).unwrap().backend, BackendKind::Arm);
        assert!(parse(&["--backend"]).is_err());
        assert!(parse(&["--backend", "riscv"]).is_err());
        assert!(parse(&["--backend=x86"]).is_err());
    }

    #[test]
    fn tiers_flag_parses_and_rejects_invalid_combinations() {
        use risotto_core::TierConfig;
        assert_eq!(parse(&[]).unwrap().tiers, None);
        assert_eq!(parse(&["--tiers", "0"]).unwrap().tiers, Some(0));
        assert_eq!(parse(&["--tiers=2"]).unwrap().tiers, Some(2));
        assert!(parse(&["--tiers"]).is_err(), "missing value");
        assert!(parse(&["--tiers", "3"]).is_err(), "out-of-range tier");
        assert!(parse(&["--tiers=templates"]).is_err(), "non-numeric tier");
        assert!(parse(&["--tiers=01"]).is_err(), "non-canonical spelling");

        // Tier 1 (and the flag's absence) keep the engine default; 0
        // pins templates forever; 2 opens the whole ladder.
        assert_eq!(parse(&[]).unwrap().tier_config(), None);
        assert_eq!(parse(&["--tiers", "1"]).unwrap().tier_config(), None);
        let t0 = parse(&["--tiers", "0"]).unwrap().tier_config().unwrap();
        assert_eq!(t0.hot_threshold, u64::MAX);
        assert_eq!(t0.warm_threshold, Some(u64::MAX));
        let t2 = parse(&["--tiers", "2"]).unwrap().tier_config().unwrap();
        assert_eq!(t2.hot_threshold, TierConfig::default().hot_threshold);
        assert_eq!(t2.warm_threshold, Some(32));
    }

    #[test]
    fn analysis_flag_parses_and_rejects_invalid_values() {
        assert_eq!(parse(&[]).unwrap().analysis, None);
        assert_eq!(parse(&["--analysis", "on"]).unwrap().analysis, Some(true));
        assert_eq!(parse(&["--analysis=off"]).unwrap().analysis, Some(false));
        assert!(parse(&["--analysis"]).is_err(), "missing value");
        assert!(parse(&["--analysis", "maybe"]).is_err(), "invalid value");
        assert!(parse(&["--analysis=1"]).is_err(), "numeric spelling rejected");
    }

    #[test]
    fn declared_flags_parse_in_both_spellings_and_last_wins() {
        let parse_with = |args: &[&str]| {
            BenchCli::try_parse_with(args.iter().map(|s| s.to_string()), &["--seed", "--iters"])
        };
        let cli =
            parse_with(&["--seed", "7", "--iters=100", "--smoke", "--seed=0x2a", "pos"]).unwrap();
        assert!(cli.smoke);
        assert_eq!(cli.value("--seed"), Some("0x2a"));
        assert_eq!(cli.u64_value("--seed", 1).unwrap(), 0x2a);
        assert_eq!(cli.u64_value("--iters", 1).unwrap(), 100);
        assert_eq!(cli.u64_value("--unset", 9).unwrap(), 9);
        assert_eq!(cli.positional, vec!["pos"]);
        assert!(parse_with(&["--seed"]).is_err(), "declared flag with no value");
        assert!(parse_with(&["--seeds=1"]).is_err(), "near-miss flag still unknown");
        assert!(parse_with(&["--seed=zz"]).unwrap().u64_value("--seed", 0).is_err());
    }
}
