//! `semloc-perf` command line.
//!
//! ```text
//! semloc-perf --workload <matrix|mc-shared|arena> --seed <n> --seconds <s> --trace <0|1>
//!             [--write-refs]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when
//! any cell fails its digest or replay check, 2 on a usage error or a
//! refused environment. `--write-refs` rewrites the workload's reference
//! digests (at the default seed) instead of checking them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use semloc_context::CstBanditPolicy;
use semloc_harness::{arena_run, default_cells, ArenaOpts, PrefetcherKind, TraceStore, VerifyMode};
use semloc_mem::NoPrefetch;
use semloc_perf::names::{is_valid, sanitize};
use semloc_perf::now_ns;
use semloc_perf::probe::{self, Probe};
use semloc_perf::record::{
    accesses, feature_log, replay_features, replay_policy, replay_prefetcher, Replay,
};
use semloc_perf::spans::{Tracer, NO_CELL};
use semloc_perf::stats::{geomean, median, quartiles, tail};
use semloc_perf::workload::{
    measure_fork, run_cell, run_traced, setup, CellRun, CellSpec, Setup, Workload, ARENA_BUDGET,
    ARENA_KERNELS, ARENA_WARM, DEFAULT_SEED,
};
use semloc_workloads::kernel_by_name;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Probe samples after each set-up, which give that set-up its scale.
const SETUP_SAMPLES: u64 = 8;
/// Cells beyond the tail percentile.
const TAIL_BEYOND: usize = 10;
/// Knobs that change what gets timed: a run refuses to start under them.
const REFUSED_ENV: [&str; 3] = [
    "SEMLOC_CKPT_DIR",
    "SEMLOC_TRACE_DIR",
    "SEMLOC_DECODE_CACHE_MB",
];

const REFS_MATRIX: &str = include_str!("../refs/matrix.txt");
const REFS_MC: &str = include_str!("../refs/mc-shared.txt");
const REFS_ARENA: &str = include_str!("../refs/arena.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_refs: bool,
}

fn usage() -> &'static str {
    "usage: semloc-perf --workload <matrix|mc-shared|arena> --seed <n> --seconds <s> --trace <0|1> [--write-refs]"
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut write_refs = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            "--write-refs" => write_refs = true,
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        write_refs,
    })
}

/// One reported number.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// What the number rests on (sample or base counts), for the report.
    note: String,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    value: f64,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        note: note.into(),
    }
}

/// `num / den`, 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn refs_for(workload: Workload, seed: u64) -> BTreeMap<String, u64> {
    let text = match workload {
        Workload::Matrix => REFS_MATRIX,
        Workload::Arena => REFS_ARENA,
        // Scenarios depend on the seed; only the default seed's are pinned.
        Workload::McShared if seed == DEFAULT_SEED => REFS_MC,
        Workload::McShared => "",
    };
    text.lines()
        .filter_map(|l| {
            let (label, hex) = l.rsplit_once(' ')?;
            let digest = u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()?;
            Some((label.to_string(), digest))
        })
        .collect()
}

fn refs_path(workload: Workload) -> String {
    format!(
        "{}/refs/{}.txt",
        env!("CARGO_MANIFEST_DIR"),
        workload.name()
    )
}

fn out_dir() -> String {
    format!("{}/out", env!("CARGO_MANIFEST_DIR"))
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".into(), |v| {
            v.trim_start_matches([' ', '\t', ':']).to_string()
        })
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory when there is one.
fn git_commit() -> String {
    let git = format!("{}/../.git", env!("CARGO_MANIFEST_DIR"));
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Failure bookkeeping: every cell run attempted, every mismatch.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }
}

/// The untraced phase's per-cell record.
struct CellTimes {
    first: Option<CellRun>,
    ns: Vec<f64>,
}

/// Run `cell` once, counting a panic or a digest other than `expected` as
/// a failure. Returns the run and its host time.
fn checked_run(
    setup: &Setup,
    c: usize,
    expected: Option<u64>,
    checks: &mut Checks,
) -> Option<(CellRun, u64)> {
    let cell = &setup.cells[c];
    checks.attempted += 1;
    let t0 = now_ns();
    let run = catch_unwind(AssertUnwindSafe(|| run_cell(setup, cell, None)));
    let ns = now_ns() - t0;
    let Ok(run) = run else {
        checks.fail(format!("{}: panicked", cell.label));
        return None;
    };
    match expected {
        Some(d) if d != run.digest => checks.fail(format!(
            "{}: digest {:#018x}, expected {d:#018x}",
            cell.label, run.digest
        )),
        _ => {}
    }
    Some((run, ns))
}

/// One untimed sweep that checks every cell against its reference digest
/// and warms the host's caches, then timed sweeps in a seeded order until
/// `seconds` have passed, each run checked against the first and followed
/// by one probe sample. Returns the per-cell records, every timed sweep's
/// host time, and the probe's total ns and sample count.
fn timed_phase(
    setup: &Setup,
    seed: u64,
    seconds: u64,
    refs: &BTreeMap<String, u64>,
    checks: &mut Checks,
    probe: &mut Probe,
) -> (Vec<CellTimes>, Vec<f64>, (u64, u64)) {
    let mut cells: Vec<CellTimes> = (0..setup.cells.len())
        .map(|c| CellTimes {
            first: checked_run(setup, c, refs.get(&setup.cells[c].label).copied(), checks)
                .map(|(run, _)| run),
            ns: Vec::new(),
        })
        .collect();
    let mut order: Vec<usize> = (0..setup.cells.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0de7_0a5e);
    let deadline = seconds.saturating_mul(1_000_000_000);
    let start = now_ns();
    let mut sweeps = Vec::new();
    let mut probed = (0, 0);
    loop {
        let sweep_start = now_ns();
        // A seeded order per sweep, so no cell always runs after the same
        // neighbour.
        order.shuffle(&mut rng);
        for &c in &order {
            let Some(expected) = cells[c].first.as_ref().map(|f| f.digest) else {
                continue;
            };
            if let Some((_, ns)) = checked_run(setup, c, Some(expected), checks) {
                cells[c].ns.push(ns as f64);
            }
            probed.0 += probe.sample();
            probed.1 += 1;
        }
        sweeps.push((now_ns() - sweep_start) as f64);
        if now_ns() - start >= deadline {
            break;
        }
    }
    (cells, sweeps, probed)
}

/// Per-cell mean host time (ns) over the timed sweeps, and instruction
/// counts, for cells that ran. The mean makes `sim_instr_per_s` the
/// instructions simulated per host second over the whole timed phase.
fn cell_means(times: &[CellTimes]) -> Vec<(usize, f64, u64)> {
    times
        .iter()
        .enumerate()
        .filter_map(|(i, t)| {
            let instrs = t.first.as_ref()?.instrs();
            (!t.ns.is_empty()).then(|| (i, t.ns.iter().sum::<f64>() / t.ns.len() as f64, instrs))
        })
        .collect()
}

/// The end-to-end metrics: host times are the timed phase's, multiplied
/// by its probe `scale` (see [`probe`]); `setup_s` comes scaled.
fn end_to_end(
    setup: &Setup,
    times: &[CellTimes],
    setup_s: f64,
    scale: f64,
) -> (Vec<Metric>, Vec<Metric>) {
    let means = cell_means(times);
    let ns_per_instr: Vec<f64> = means
        .iter()
        .map(|&(_, ns, n)| ns * scale / n as f64)
        .collect();
    let total_ns: f64 = means.iter().map(|m| m.1 * scale).sum();
    let total_instrs: u64 = means.iter().map(|m| m.2).sum();
    let p50 = median(&ns_per_instr).unwrap_or(0.0);
    let (tail_p, tail_v, beyond) = tail(&ns_per_instr, TAIL_BEYOND).unwrap_or((0, 0.0, 0));
    let ipcs: Vec<f64> = times
        .iter()
        .filter_map(|t| Some(t.first.as_ref()?.ipc()))
        .collect();
    let out = vec![
        metric(
            "sim_instr_per_s",
            "1/s",
            ratio(total_instrs as f64 * 1e9, total_ns),
            format!(
                "{total_instrs} instrs of one sweep over the sum of {} scaled cell means",
                means.len()
            ),
        ),
        metric(
            "cell_ns_per_instr_p50",
            "ns",
            p50,
            format!("median over {} cells", ns_per_instr.len()),
        ),
        metric(
            "cell_ns_per_instr_tail",
            "ns",
            tail_v,
            format!(
                "p{tail_p} over {} cells, {beyond} beyond",
                ns_per_instr.len()
            ),
        ),
        metric(
            "setup_s",
            "s",
            setup_s,
            format!("median of {SETUP_REPEATS} scaled set-ups"),
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb(), "VmHWM"),
        metric(
            "sim_ipc_geomean",
            "instr/cycle",
            geomean(&ipcs).unwrap_or(0.0),
            format!("simulated; geomean over {} cells", ipcs.len()),
        ),
    ];
    // Reported but kept out of the JSON: the context speed-up does not
    // exist on mc-shared.
    let mut extra = Vec::new();
    if let Some((s, n)) = speedup_context(setup, times) {
        extra.push(metric(
            "sim_speedup_context",
            "ratio",
            s,
            format!("simulated; geomean over {n} context cells of IPC over the kernel's none cell"),
        ));
    }
    (out, extra)
}

/// Geomean over every context cell of its IPC over the same kernel's
/// `none` cell.
fn speedup_context(setup: &Setup, times: &[CellTimes]) -> Option<(f64, usize)> {
    let mut none_ipc = BTreeMap::new();
    for (cell, t) in setup.cells.iter().zip(times) {
        if let (
            CellSpec::Single {
                input,
                kind: PrefetcherKind::None,
                ..
            },
            Some(r),
        ) = (&cell.spec, &t.first)
        {
            none_ipc.insert(*input, r.results[0].cpu.ipc());
        }
    }
    let ratios: Vec<f64> = setup
        .cells
        .iter()
        .zip(times)
        .filter_map(|(cell, t)| match (&cell.spec, &t.first) {
            (
                CellSpec::Single {
                    input,
                    kind: PrefetcherKind::Context(_),
                    ..
                },
                Some(r),
            ) => Some(r.results[0].cpu.ipc() / none_ipc.get(input)?),
            _ => None,
        })
        .collect();
    Some((geomean(&ratios)?, ratios.len()))
}

/// Per-prefetcher-kind replay totals.
#[derive(Default)]
struct KindAgg {
    accesses: u64,
    replay: Replay,
    issued: u64,
    cell_ns: f64,
}

/// Context-pipeline stage totals.
#[derive(Default)]
struct CtxAgg {
    features: Replay,
    policy: Replay,
    predictions: u64,
    shadow: u64,
    hits: u64,
    expired: u64,
    timely: u64,
}

fn stream_decode_ns_per_instr(setup: &Setup) -> f64 {
    let mut ns = 0;
    let mut n = 0;
    for input in &setup.inputs {
        let t0 = now_ns();
        let mut acc = 0u64;
        for i in input.replay.trace().buf.iter() {
            acc ^= i.pc ^ i.result;
        }
        std::hint::black_box(acc);
        ns += now_ns() - t0;
        n += input.replay.trace().buf.len() as u64;
    }
    ratio(ns as f64, n as f64)
}

/// The traced phase: every cell once more through recording wrappers,
/// then one timed replay per layer. Returns the JSON per-layer metrics and
/// the report-only ones.
fn traced_phase(
    setup: &Setup,
    times: &[CellTimes],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (Vec<Metric>, Vec<Metric>) {
    let means: BTreeMap<usize, f64> = cell_means(times)
        .into_iter()
        .map(|(i, ns, _)| (i, ns))
        .collect();
    let mut kinds: BTreeMap<String, KindAgg> = BTreeMap::new();
    let mut ctx = CtxAgg::default();
    let mut none_replay = Replay::default();
    let mut record_ns = 0u64;
    let mut traced_cell_ns = 0.0;
    let mut traced_instrs = 0u64;
    let mut none_cell_ns = 0.0;
    let mut none_instrs = 0u64;
    let mut forks = Vec::new();
    let mut snapshot_bytes = 0u64;
    let mut quanta = Vec::new();

    tracer.begin("workload", NO_CELL);
    for (c, cell) in setup.cells.iter().enumerate() {
        let (Some(first), Some(&cell_ns)) = (times[c].first.as_ref(), means.get(&c)) else {
            continue;
        };
        let id = c as u32;
        tracer.begin("cell", id);
        checks.attempted += 1;
        if let CellSpec::Mc(_) = cell.spec {
            let run = tracer.span("mc.engine", id, || {
                run_cell(setup, cell, Some(&mut |ns| quanta.push(ns as f64)))
            });
            if run.digest != first.digest {
                checks.fail(format!("{}: quantum-timed run diverged", cell.label));
            }
        }
        if let CellSpec::Single { warm: Some(_), .. } = cell.spec {
            let probe = tracer.span("engine.fork_probe", id, || measure_fork(setup, cell));
            if let Some((ns, bytes)) = probe {
                forks.push(ns as f64);
                snapshot_bytes += bytes;
            }
        }
        let t0 = now_ns();
        let traced = tracer.span("cell.record", id, || {
            catch_unwind(AssertUnwindSafe(|| run_traced(setup, cell)))
        });
        record_ns += now_ns() - t0;
        let Ok(traced) = traced else {
            checks.fail(format!("{}: traced run panicked", cell.label));
            tracer.end();
            continue;
        };
        if traced.run.digest != first.digest {
            checks.fail(format!(
                "{}: traced digest {:#018x} differs from untraced {:#018x}",
                cell.label, traced.run.digest, first.digest
            ));
        }
        traced_cell_ns += cell_ns;
        traced_instrs += first.instrs();
        let pf_instrs: u64 = traced.run.results.iter().map(|r| r.cpu.instructions).sum();
        for (log, r) in traced.logs.iter().zip(&traced.run.results) {
            let n_acc = accesses(&log.pf);
            let label = sanitize(log.kind.label());
            if let PrefetcherKind::None = log.kind {
                let rep = tracer.span("replay.overhead", id, || {
                    replay_prefetcher(&mut NoPrefetch, &log.pf)
                });
                none_replay.ns += rep.ns;
                none_replay.calls += rep.calls;
                if let CellSpec::Single { .. } = cell.spec {
                    none_cell_ns += cell_ns;
                    none_instrs += r.cpu.instructions;
                }
                continue;
            }
            let mut fresh = log.kind.build();
            let rep = tracer.span("replay.pf", id, || {
                replay_prefetcher(fresh.as_mut(), &log.pf)
            });
            if rep.outputs != log.pf_outputs {
                checks.fail(format!("{}: {} replay diverged", cell.label, label));
            }
            let agg = kinds.entry(label).or_default();
            agg.accesses += n_acc;
            agg.replay.ns += rep.ns;
            agg.replay.calls += rep.calls;
            agg.issued += r.pf.issued;
            // A scenario's host time is shared by its cores in proportion
            // to the instructions each ran.
            agg.cell_ns += cell_ns * r.cpu.instructions as f64 / pf_instrs.max(1) as f64;

            if let (PrefetcherKind::Context(cfg), Some((plog, pout))) = (&log.kind, &log.policy) {
                let flog = tracer.span("bench.prep", id, || {
                    feature_log(cfg.features, cfg.block_shift, &log.pf, plog)
                });
                let Some(flog) = flog else {
                    checks.fail(format!("{}: feature log does not pair up", cell.label));
                    continue;
                };
                let frep = tracer.span("replay.features", id, || {
                    replay_features(cfg.features, cfg.block_shift, &flog)
                });
                let mut fresh_policy = CstBanditPolicy::new(cfg);
                let prep = tracer.span("replay.policy", id, || {
                    replay_policy(&mut fresh_policy, plog)
                });
                if frep.outputs != flog.outputs || prep.outputs != *pout {
                    checks.fail(format!("{}: context stage replay diverged", cell.label));
                }
                ctx.features.ns += frep.ns;
                ctx.features.calls += frep.calls;
                ctx.policy.ns += prep.ns;
                ctx.policy.calls += prep.calls;
                if let Some(l) = &r.learn {
                    ctx.predictions += l.real_issued + l.shadow_issued;
                    ctx.shadow += l.shadow_issued;
                    ctx.hits += l.hits;
                    ctx.expired += l.expired;
                    ctx.timely += l.timely_hits;
                }
            }
        }
        tracer.end();
    }
    tracer.end();

    // The replay loop's own cost per call, measured on `none` logs (a
    // no-op prefetcher), is subtracted from every replay.
    let overhead = ratio(none_replay.ns as f64, none_replay.calls as f64);
    let mut unresolved = Vec::new();
    let mut net = |name: &str, r: &Replay| {
        let v = r.ns as f64 - overhead * r.calls as f64;
        if r.calls > 0 && v <= 0.0 {
            unresolved.push(name.to_string());
        }
        v.max(0.0)
    };

    let mut layer = Vec::new();
    let mut extra = Vec::new();
    let captured = setup.captured_instrs() as f64;
    layer.push(metric(
        "workloads.capture_ns_per_instr",
        "ns",
        ratio(setup.capture_ns() as f64, captured),
        format!("{captured} instrs captured"),
    ));
    layer.push(metric(
        "trace.decoded_bytes",
        "bytes",
        setup.decoded_bytes() as f64,
        format!("{} instrs decoded", setup.decoded_instrs()),
    ));
    if setup.decoded_instrs() > 0 {
        extra.push(metric(
            "trace.decode_ns_per_instr",
            "ns",
            ratio(setup.decode_ns() as f64, setup.decoded_instrs() as f64),
            format!("{} instrs decoded", setup.decoded_instrs()),
        ));
    }
    layer.push(metric(
        "trace.stream_decode_ns_per_instr",
        "ns",
        tracer.span("trace.stream_decode", NO_CELL, || {
            stream_decode_ns_per_instr(setup)
        }),
        "decode-only pass over every input",
    ));

    let pf_net: BTreeMap<&str, f64> = kinds
        .iter()
        .map(|(label, agg)| (label.as_str(), net(&format!("pf.{label}"), &agg.replay)))
        .collect();
    let pf_net_total: f64 = pf_net.values().sum();
    let pf_acc_total: u64 = kinds.values().map(|a| a.accesses).sum();
    for (label, agg) in &kinds {
        extra.push(metric(
            format!("pf.{label}.ns_per_access"),
            "ns",
            ratio(pf_net[label.as_str()], agg.accesses as f64),
            format!("{} accesses", agg.accesses),
        ));
    }
    for k in [
        PrefetcherKind::Stride,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::GhbPcdc,
        PrefetcherKind::Sms,
        PrefetcherKind::context(),
    ] {
        let label = sanitize(k.label());
        let (share, issued, acc) = match kinds.get(&label) {
            Some(agg) => (
                ratio(pf_net[label.as_str()], agg.cell_ns),
                agg.issued as f64,
                agg.accesses,
            ),
            None => (0.0, 0.0, 0),
        };
        layer.push(metric(
            format!("pf.{label}.share_of_cell"),
            "ratio",
            share,
            format!("{acc} accesses"),
        ));
        layer.push(metric(
            format!("pf.{label}.issued_per_access"),
            "ratio",
            ratio(issued, acc as f64),
            format!("{issued} issued of {acc} accesses"),
        ));
    }
    layer.push(metric(
        "pf.ns_per_access",
        "ns",
        ratio(pf_net_total, pf_acc_total as f64),
        format!("{pf_acc_total} accesses over every prefetcher that ran"),
    ));
    layer.push(metric("pf.accesses", "count", pf_acc_total as f64, ""));
    layer.push(metric(
        "cpu_mem.self_ns_per_instr",
        "ns",
        ratio(traced_cell_ns - pf_net_total, traced_instrs as f64),
        format!("{traced_instrs} instrs; cell time minus prefetcher time"),
    ));
    if none_instrs > 0 {
        extra.push(metric(
            "cpu_mem.none_ns_per_instr",
            "ns",
            ratio(none_cell_ns, none_instrs as f64),
            format!("cross-check: {none_instrs} instrs of none cells"),
        ));
    }

    let ctx_pf = pf_net.get("context").copied().unwrap_or(0.0);
    let acc = kinds.get("context").map_or(0.0, |a| a.accesses as f64);
    let f_net = net("ctx.features", &ctx.features);
    let p_net = net("ctx.policy", &ctx.policy);
    let rest = ctx_pf - f_net - p_net;
    if acc > 0.0 && rest <= 0.0 {
        unresolved.push("ctx.rest".into());
    }
    if acc > 0.0 {
        for (name, v) in [
            ("ctx.features_ns_per_access", f_net),
            ("ctx.policy_ns_per_access", p_net),
            ("ctx.rest_ns_per_access", rest.max(0.0)),
        ] {
            extra.push(metric(name, "ns", ratio(v, acc), format!("{acc} accesses")));
        }
    }
    for (name, v) in [
        ("ctx.features_share_of_pf", f_net),
        ("ctx.policy_share_of_pf", p_net),
        ("ctx.rest_share_of_pf", rest.max(0.0)),
    ] {
        layer.push(metric(
            name,
            "ratio",
            ratio(v, ctx_pf),
            format!("of {ctx_pf:.0} ns context time"),
        ));
    }
    layer.push(metric(
        "ctx.policy_calls_per_access",
        "ratio",
        ratio(ctx.policy.calls as f64, acc),
        format!("{} calls over {acc} accesses", ctx.policy.calls),
    ));
    let preds = ctx.predictions as f64;
    for (name, num) in [
        ("ctx.hits_per_prediction", ctx.hits),
        ("ctx.shadow_per_prediction", ctx.shadow),
        ("ctx.expired_per_prediction", ctx.expired),
    ] {
        layer.push(metric(
            name,
            "ratio",
            ratio(num as f64, preds),
            format!("{num} of {preds} predictions"),
        ));
    }
    layer.push(metric(
        "ctx.timely_per_hit",
        "ratio",
        ratio(ctx.timely as f64, ctx.hits as f64),
        format!("{} of {} hits", ctx.timely, ctx.hits),
    ));
    layer.push(metric(
        "ctx.predictions",
        "count",
        preds,
        "real plus shadow",
    ));
    layer.push(metric(
        "sim.speedup_context",
        "ratio",
        speedup_context(setup, times).map_or(0.0, |s| s.0),
        "simulated; 0 where no context cell runs",
    ));

    layer.push(metric("engine.forks", "count", forks.len() as f64, ""));
    layer.push(metric(
        "engine.snapshot_bytes",
        "bytes",
        ratio(snapshot_bytes as f64, forks.len() as f64),
        "mean checkpoint payload per fork",
    ));
    if let Some(f) = median(&forks) {
        extra.push(metric(
            "engine.fork_ns",
            "ns",
            f,
            format!("median of {} forks", forks.len()),
        ));
    }
    layer.push(metric("mc.quanta", "count", quanta.len() as f64, ""));
    if let Some(q) = median(&quanta) {
        extra.push(metric(
            "mc.quantum_ns_p50",
            "ns",
            q,
            format!("median of {} quanta", quanta.len()),
        ));
    }

    // Simulated counts over the first untraced run of every cell.
    let results: Vec<_> = times
        .iter()
        .filter_map(|t| t.first.as_ref())
        .flat_map(|r| r.results.iter())
        .collect();
    let sum = |f: &dyn Fn(&semloc_harness::RunResult) -> u64| {
        results.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    for (name, v) in [
        ("cpu.instructions", sum(&|r| r.cpu.instructions)),
        ("cpu.cycles", sum(&|r| r.cpu.cycles)),
        ("mem.demand_accesses", sum(&|r| r.mem.demand_accesses)),
        ("mem.l1_misses", sum(&|r| r.mem.l1_misses)),
        ("mem.l1_mshr_merges", sum(&|r| r.mem.l1_mshr_merges)),
        ("mem.l2_misses", sum(&|r| r.mem.l2_misses)),
        ("mem.prefetches_issued", sum(&|r| r.mem.prefetches_issued)),
        (
            "mem.prefetches_rejected",
            sum(&|r| r.mem.prefetches_rejected),
        ),
        (
            "mem.prefetches_filtered",
            sum(&|r| r.mem.prefetches_filtered),
        ),
    ] {
        layer.push(metric(name, "count", v, "simulated"));
    }
    let shared: Vec<_> = times
        .iter()
        .filter_map(|t| t.first.as_ref()?.shared)
        .collect();
    for (name, unit, v) in [
        (
            "shared_l2.demand_lookups",
            "count",
            shared.iter().map(|s| s.demand_lookups).sum::<u64>(),
        ),
        (
            "shared_l2.demand_misses",
            "count",
            shared.iter().map(|s| s.demand_misses).sum(),
        ),
        (
            "shared_l2.dram_queue_cycles",
            "cycles",
            shared.iter().map(|s| s.dram_queue_cycles).sum(),
        ),
    ] {
        layer.push(metric(name, unit, v as f64, "simulated"));
    }

    layer.push(metric(
        "trace.overhead_ns_per_instr",
        "ns",
        ratio(record_ns as f64 - traced_cell_ns, traced_instrs as f64),
        "recorded run minus untraced mean",
    ));
    layer.push(metric(
        "trace.replay_overhead_ns_per_call",
        "ns",
        overhead,
        format!(
            "{} calls replayed through a no-op prefetcher",
            none_replay.calls
        ),
    ));
    let self_times = tracer.self_times();
    let root: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "workload")
        .map(|s| s.end - s.start)
        .sum();
    let unattributed = self_times.get("workload").copied().unwrap_or(0)
        + self_times.get("cell").copied().unwrap_or(0);
    layer.push(metric(
        "trace.unattributed_share",
        "ratio",
        ratio(unattributed as f64, root as f64),
        format!(
            "of {:.3} s traced phase outside every layer span",
            root as f64 / 1e9
        ),
    ));
    for (name, ns) in &self_times {
        extra.push(metric(
            format!("span.{name}.self_s"),
            "s",
            *ns as f64 / 1e9,
            "span self time",
        ));
    }
    if !unresolved.is_empty() {
        extra.push(metric(
            "trace.unresolved_layers",
            "count",
            unresolved.len() as f64,
            format!(
                "replay overhead exceeds measured time: {}",
                unresolved.join(", ")
            ),
        ));
    }
    (layer, extra)
}

/// Compare every cell with `arena_run`'s own result for it (threads 1,
/// verification off): the benchmark's arena cells must be the arena's.
fn arena_cross_check(setup: &Setup, times: &[CellTimes], checks: &mut Checks) {
    let kernels: Vec<_> = ARENA_KERNELS
        .iter()
        .map(|n| kernel_by_name(n).expect("arena kernels are registered"))
        .collect();
    let opts = ArenaOpts {
        budget: ARENA_BUDGET,
        warm: ARENA_WARM,
        threads: 1,
        verify: VerifyMode::Off,
    };
    let store = TraceStore::without_result_memo();
    let report = arena_run(&store, &kernels, &default_cells(), &opts);
    let ipc: BTreeMap<&str, f64> = setup
        .cells
        .iter()
        .zip(times)
        .filter_map(|(c, t)| Some((c.label.as_str(), t.first.as_ref()?.results[0].cpu.ipc())))
        .collect();
    for cell in &report.cells {
        for k in &cell.kernels {
            checks.attempted += 1;
            let label = format!("{}:{}", k.kernel, cell.label);
            match ipc.get(label.as_str()) {
                Some(v) if v.to_bits() == k.ipc.to_bits() => {}
                other => checks.fail(format!(
                    "{label}: arena_run IPC {} vs cell {other:?}",
                    k.ipc
                )),
            }
        }
    }
}

fn stamp(args: &Args, setup: &Setup, sweeps: usize) -> Vec<(String, String)> {
    vec![
        ("workload".into(), args.workload.name().into()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("budget".into(), args.workload.budget().to_string()),
        ("cells".into(), setup.cells.len().to_string()),
        ("sweeps".into(), sweeps.to_string()),
        ("threads".into(), "1".into()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model".into(), cpu_model()),
        ("accel_tier".into(), format!("{:?}", semloc_accel::tier())),
        ("git_commit".into(), git_commit()),
    ]
}

fn write_ledger(
    args: &Args,
    stamp: &[(String, String)],
    metrics: &[&Metric],
    digests: &[(String, u64)],
    tracer: &Tracer,
) -> std::io::Result<String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let base = format!(
        "{dir}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    let mut j = String::from("{\n  \"stamp\": {");
    let fields: Vec<String> = stamp
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    j.push_str(&fields.join(", "));
    j.push_str("},\n  \"metrics\": [\n");
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"note\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                json_str(&m.note)
            )
        })
        .collect();
    j.push_str(&rows.join(",\n"));
    j.push_str("\n  ],\n  \"digests\": {");
    let ds: Vec<String> = digests
        .iter()
        .map(|(l, d)| format!("{}: \"{d:#018x}\"", json_str(l)))
        .collect();
    j.push_str(&ds.join(", "));
    j.push_str("}\n}\n");
    std::fs::write(format!("{base}.json"), j)?;
    if args.trace {
        std::fs::write(format!("{base}-spans.jsonl"), tracer.to_jsonl())?;
    }
    Ok(base)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("semloc-perf: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("semloc-perf: refusing to run with {var} set: it changes what gets timed");
            return ExitCode::from(2);
        }
    }

    let mut tracer = Tracer::new(args.trace);
    let mut probe = Probe::new();
    let mut setup_ns = Vec::new();
    let mut setup_scaled_ns = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first, so peak memory holds one.
        drop(built.take());
        let t0 = now_ns();
        let s = tracer.span("setup", NO_CELL, || setup(args.workload, args.seed));
        let ns = (now_ns() - t0) as f64;
        let probe_ns: u64 = (0..SETUP_SAMPLES).map(|_| probe.sample()).sum();
        setup_ns.push(ns);
        setup_scaled_ns.push(ns * probe::scale(probe_ns, SETUP_SAMPLES));
        built = Some(s);
    }
    let setup = built.expect("at least one set-up ran");
    let setup_s = median(&setup_scaled_ns).unwrap_or(0.0) / 1e9;

    let refs = if args.write_refs {
        BTreeMap::new()
    } else {
        refs_for(args.workload, args.seed)
    };
    let mut checks = Checks::default();
    let (times, sweeps, probed) = timed_phase(
        &setup,
        args.seed,
        args.seconds,
        &refs,
        &mut checks,
        &mut probe,
    );
    let digests: Vec<(String, u64)> = setup
        .cells
        .iter()
        .zip(&times)
        .filter_map(|(c, t)| Some((c.label.clone(), t.first.as_ref()?.digest)))
        .collect();

    if args.write_refs {
        if args.workload == Workload::McShared && args.seed != DEFAULT_SEED {
            eprintln!("semloc-perf: mc-shared references are written at --seed {DEFAULT_SEED}");
            return ExitCode::from(2);
        }
        let text: String = digests
            .iter()
            .map(|(l, d)| format!("{l} {d:#018x}\n"))
            .collect();
        if let Err(e) = std::fs::write(refs_path(args.workload), text) {
            eprintln!("semloc-perf: writing references: {e}");
            return ExitCode::from(2);
        }
        println!(
            "wrote {} references to {}",
            digests.len(),
            refs_path(args.workload)
        );
        return ExitCode::SUCCESS;
    }
    if refs.is_empty() && (args.workload != Workload::McShared || args.seed == DEFAULT_SEED) {
        checks.fail("no reference digests for this workload".into());
    }
    if args.workload == Workload::Arena {
        arena_cross_check(&setup, &times, &mut checks);
    }

    let scale = probe::scale(probed.0, probed.1);
    let (e2e, mut e2e_extra) = end_to_end(&setup, &times, setup_s, scale);
    // The unscaled figures, for reading the probe's correction.
    e2e_extra.push(metric(
        "probe.ns_per_record",
        "ns",
        probe::ns_per_record(probed.0, probed.1),
        format!(
            "{} samples; reference {}, so host times were scaled by {scale:.4}",
            probed.1,
            probe::REFERENCE_NS_PER_RECORD
        ),
    ));
    if let Some(m) = e2e.iter().find(|m| m.name == "sim_instr_per_s") {
        e2e_extra.push(metric(
            "unscaled.sim_instr_per_s",
            "1/s",
            m.value * scale,
            "sim_instr_per_s at the host's measured speed",
        ));
    }
    e2e_extra.push(metric(
        "unscaled.setup_s",
        "s",
        median(&setup_ns).unwrap_or(0.0) / 1e9,
        format!("median of {SETUP_REPEATS} set-ups at the host's measured speed"),
    ));
    if let (Some(m), Some(q)) = (median(&sweeps), quartiles(&sweeps)) {
        e2e_extra.push(metric(
            "sweep_s",
            "s",
            m / 1e9,
            format!(
                "median of {} sweeps; quartile spread {:.4} of the median",
                sweeps.len(),
                (q[2] - q[0]) / m
            ),
        ));
    }
    let (layer, layer_extra) = if args.trace {
        traced_phase(&setup, &times, &mut tracer, &mut checks)
    } else {
        (Vec::new(), Vec::new())
    };
    // Reported here, not in the JSON line: 0 on a correct run, and the
    // line already carries it as failed over attempted.
    e2e_extra.push(metric(
        "fail_ratio",
        "ratio",
        ratio(checks.failed as f64, checks.attempted as f64),
        format!("{} failed of {} attempted", checks.failed, checks.attempted),
    ));

    let stamp = stamp(&args, &setup, sweeps.len());
    println!("semloc-perf");
    for (k, v) in &stamp {
        println!("  {k:<11} {v}");
    }
    println!(
        "  digests     {} cells, fold {:#018x}",
        digests.len(),
        digests
            .iter()
            .fold(semloc_perf::FOLD_SEED, |h, (_, d)| semloc_perf::fold(h, *d))
    );
    let all: Vec<&Metric> = e2e
        .iter()
        .chain(&e2e_extra)
        .chain(&layer)
        .chain(&layer_extra)
        .collect();
    for m in &all {
        println!(
            "  {:<38} {:>16.6} {:<11} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for msg in &checks.messages {
        println!("  FAIL {msg}");
    }
    match write_ledger(&args, &stamp, &all, &digests, &tracer) {
        Ok(base) => println!("  ledger      {base}.json"),
        Err(e) => println!("  ledger      not written: {e}"),
    }
    debug_assert!(all.iter().all(|m| is_valid(&m.name)));

    let reported = if args.trace { &layer } else { &e2e };
    let correct = checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted,
        checks.failed,
        metrics_json(reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
