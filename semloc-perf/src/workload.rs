//! The three workloads: their inputs, their cells, and how one cell runs
//! untraced (the product path, timed end to end) and traced (recording
//! wrappers for the per-layer replays).
//!
//! * `matrix` — the 16 SPEC proxies × {none, stride, ghb-g/dc, ghb-pc/dc,
//!   sms, context}, single-core through [`Engine`] with decoded-lane
//!   replay. The prefetchers do most of the work.
//! * `mc-shared` — seeded phase schedules ([`ComposedKernel`]) over SPEC
//!   captures, four cores on one shared L2 through [`McEngine`], with
//!   prefetchers drawn only from {none, stride, sms}. The CPU model,
//!   caches, shared L2/DRAM and the streaming varint decode do the work;
//!   context and GHB never run.
//! * `arena` — the 14 [`default_cells`] compositions on the arena kernels
//!   (array, list, mcf), each warmed, forked with [`Engine::fork_onto`]
//!   and run to the end exactly as [`semloc_harness::arena_run`] runs its
//!   jobs, plus one no-prefetch baseline per kernel.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use semloc_context::{ContextConfig, ContextPrefetcher, CstBanditPolicy, PipelineConfig};
use semloc_cpu::{Cpu, TraceSink};
use semloc_harness::{
    default_cells, mc_digest, Engine, McConfig, McEngine, PrefetcherKind, RunResult, SimConfig,
};
use semloc_mem::{Hierarchy, Prefetcher, SharedL2, SharedL2Stats};
use semloc_trace::{DecodedTrace, SnapReader, SnapWriter, Snapshot};
use semloc_workloads::{
    capture_kernel, kernel_by_name, spec_suite, CapturedTrace, ComposedKernel, Kernel, Phase,
    ReplayKernel,
};

use crate::now_ns;
use crate::record::{PfCall, PolicyCall, Recorder, RecordingPolicy};

/// Instructions per matrix cell.
pub const MATRIX_BUDGET: u64 = 100_000;
/// Instructions per arena run (the arena binary's default).
pub const ARENA_BUDGET: u64 = 120_000;
/// Warm prefix before each arena fork (the arena binary's budget/6).
pub const ARENA_WARM: u64 = ARENA_BUDGET / 6;
/// The arena's kernels (the arena binary's default trio).
pub const ARENA_KERNELS: [&str; 3] = ["array", "list", "mcf"];
/// Scenarios per `mc-shared` run; enough that the tail rule has a
/// percentile well above the median.
pub const MC_SCENARIOS: usize = 48;
/// Phases per core schedule.
pub const MC_PHASES: usize = 3;
/// Instructions per phase; also the length of each SPEC capture on the
/// menu.
pub const MC_PHASE: u64 = 10_000;
/// Instructions per core per scenario.
pub const MC_BUDGET: u64 = MC_PHASES as u64 * MC_PHASE;
/// Schedule names, one per core.
pub const MC_CORE_NAMES: [&str; 4] = ["mc-core0", "mc-core1", "mc-core2", "mc-core3"];
/// The seed whose cells the committed reference digests cover. Matrix and
/// arena cells do not depend on the seed, so their references hold for
/// every seed; `mc-shared` scenarios do.
pub const DEFAULT_SEED: u64 = 1;

/// A workload name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The production matrix.
    Matrix,
    /// Four cores on a shared L2.
    McShared,
    /// The composition tournament.
    Arena,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Matrix, Workload::McShared, Workload::Arena];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Matrix => "matrix",
            Workload::McShared => "mc-shared",
            Workload::Arena => "arena",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Instructions per single-core cell, or per core for `mc-shared`.
    pub fn budget(self) -> u64 {
        match self {
            Workload::Matrix => MATRIX_BUDGET,
            Workload::McShared => MC_BUDGET,
            Workload::Arena => ARENA_BUDGET,
        }
    }
}

/// The matrix's prefetcher columns.
pub fn matrix_kinds() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::GhbPcdc,
        PrefetcherKind::Sms,
        PrefetcherKind::context(),
    ]
}

/// The prefetchers `mc-shared` draws from.
pub fn mc_kinds() -> [PrefetcherKind; 3] {
    [
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::Sms,
    ]
}

/// One captured input and what it cost to set up.
pub struct Input {
    /// The replayable stream (with decoded lanes for single-core cells).
    pub replay: ReplayKernel,
    /// Host time of [`capture_kernel`].
    pub capture_ns: u64,
    /// Host time of [`DecodedTrace::decode`] (0 when not decoded).
    pub decode_ns: u64,
    /// Resident bytes of the decoded lanes (0 when not decoded).
    pub decoded_bytes: u64,
}

/// What one cell simulates.
#[derive(Clone, Debug)]
pub enum CellSpec {
    /// One kernel under one prefetcher on one core, optionally warmed to
    /// a cursor and forked before running to the end.
    Single {
        /// Index into [`Setup::inputs`].
        input: usize,
        /// The prefetcher.
        kind: PrefetcherKind,
        /// Warm prefix before [`Engine::fork_onto`] (arena runs).
        warm: Option<u64>,
    },
    /// One multi-core scenario: `(input, prefetcher)` per core.
    Mc(Vec<(usize, PrefetcherKind)>),
}

/// A labelled cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// `kernel:prefetcher`, `kernel:composition` or `scenario-N`.
    pub label: String,
    /// What it runs.
    pub spec: CellSpec,
}

/// Everything a run needs before timing starts.
pub struct Setup {
    /// Captured inputs; for `mc-shared` the composed per-core schedules.
    pub inputs: Vec<Input>,
    /// Captures that only feed the composer (the `mc-shared` menu).
    pub menu: Vec<Input>,
    /// The cells, in canonical order.
    pub cells: Vec<Cell>,
    /// Simulation configuration (budget per core).
    pub cfg: SimConfig,
}

impl Setup {
    /// Instructions captured for every input and menu entry.
    pub fn captured_instrs(&self) -> u64 {
        self.inputs
            .iter()
            .chain(&self.menu)
            .map(|i| i.replay.trace().buf.len() as u64)
            .sum()
    }

    /// Host time of every capture.
    pub fn capture_ns(&self) -> u64 {
        self.inputs
            .iter()
            .chain(&self.menu)
            .map(|i| i.capture_ns)
            .sum()
    }

    /// Instructions decoded into lanes.
    pub fn decoded_instrs(&self) -> u64 {
        self.inputs
            .iter()
            .filter_map(|i| i.replay.decoded())
            .map(|d| d.len() as u64)
            .sum()
    }

    /// Host time of every decode.
    pub fn decode_ns(&self) -> u64 {
        self.inputs.iter().map(|i| i.decode_ns).sum()
    }

    /// Resident decoded-lane bytes.
    pub fn decoded_bytes(&self) -> u64 {
        self.inputs.iter().map(|i| i.decoded_bytes).sum()
    }
}

fn capture(kernel: &dyn Kernel, budget: u64) -> (CapturedTrace, u64) {
    let t0 = now_ns();
    let trace = capture_kernel(kernel, budget);
    (trace, now_ns() - t0)
}

fn captured_and_decoded(kernel: &dyn Kernel, budget: u64) -> Input {
    let (trace, capture_ns) = capture(kernel, budget);
    let t0 = now_ns();
    let decoded = DecodedTrace::decode(&trace.buf);
    let decode_ns = now_ns() - t0;
    let decoded_bytes = decoded.bytes() as u64;
    Input {
        replay: ReplayKernel::new(Arc::new(trace)).with_decoded(Some(Arc::new(decoded))),
        capture_ns,
        decode_ns,
        decoded_bytes,
    }
}

/// Capture (and, for single-core cells, decode) every input of
/// `workload` and lay out its cells. `seed` drives every schedule the
/// benchmark composes.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let cfg = SimConfig::default().with_budget(workload.budget());
    match workload {
        Workload::Matrix => {
            let inputs: Vec<Input> = spec_suite()
                .iter()
                .map(|k| captured_and_decoded(k.as_ref(), MATRIX_BUDGET))
                .collect();
            let mut cells = Vec::new();
            for (i, input) in inputs.iter().enumerate() {
                for kind in matrix_kinds() {
                    cells.push(Cell {
                        label: format!("{}:{}", input.replay.name(), kind.label()),
                        spec: CellSpec::Single {
                            input: i,
                            kind,
                            warm: None,
                        },
                    });
                }
            }
            Setup {
                inputs,
                menu: Vec::new(),
                cells,
                cfg,
            }
        }
        Workload::Arena => {
            let inputs: Vec<Input> = ARENA_KERNELS
                .iter()
                .map(|n| {
                    let k = kernel_by_name(n).expect("arena kernels are registered");
                    captured_and_decoded(k.as_ref(), ARENA_BUDGET)
                })
                .collect();
            let mut cells = Vec::new();
            for (i, input) in inputs.iter().enumerate() {
                cells.push(Cell {
                    label: format!("{}:none", input.replay.name()),
                    spec: CellSpec::Single {
                        input: i,
                        kind: PrefetcherKind::None,
                        warm: None,
                    },
                });
                for comp in default_cells() {
                    cells.push(Cell {
                        label: format!("{}:{}", input.replay.name(), comp.label()),
                        spec: CellSpec::Single {
                            input: i,
                            kind: arena_kind(&comp),
                            warm: Some(ARENA_WARM),
                        },
                    });
                }
            }
            Setup {
                inputs,
                menu: Vec::new(),
                cells,
                cfg,
            }
        }
        Workload::McShared => {
            let menu: Vec<Input> = spec_suite()
                .iter()
                .map(|k| {
                    let (trace, capture_ns) = capture(k.as_ref(), MC_PHASE);
                    Input {
                        replay: ReplayKernel::new(Arc::new(trace)),
                        capture_ns,
                        decode_ns: 0,
                        decoded_bytes: 0,
                    }
                })
                .collect();
            // A balanced draw: every (kernel, prefetcher) pair fills the
            // same number of phase slots, in a seeded arrangement. The seed
            // moves which streams and prefetchers share an L2 and in what
            // order, not how much of each pair runs, so every seed does the
            // same work.
            let kinds = mc_kinds();
            let per_kind = MC_SCENARIOS * MC_CORE_NAMES.len() / kinds.len();
            let mut draws = StdRng::seed_from_u64(seed);
            let mut plan: Vec<(usize, Vec<usize>)> = Vec::new();
            for kind in 0..kinds.len() {
                let mut slots: Vec<usize> =
                    (0..per_kind * MC_PHASES).map(|i| i % menu.len()).collect();
                slots.shuffle(&mut draws);
                plan.extend(slots.chunks(MC_PHASES).map(|c| (kind, c.to_vec())));
            }
            plan.shuffle(&mut draws);
            let mut inputs = Vec::new();
            let mut cells = Vec::new();
            for s in 0..MC_SCENARIOS {
                let mut specs = Vec::new();
                for name in MC_CORE_NAMES {
                    let core = inputs.len();
                    let (kind, sources) = &plan[core];
                    let phases = sources
                        .iter()
                        .map(|&m| Phase::new(Arc::clone(menu[m].replay.trace()), MC_PHASE))
                        .collect();
                    let schedule = ComposedKernel::new(name, phases);
                    let (trace, capture_ns) = capture(&schedule, MC_BUDGET);
                    specs.push((core, kinds[*kind].clone()));
                    inputs.push(Input {
                        replay: ReplayKernel::new(Arc::new(trace)),
                        capture_ns,
                        decode_ns: 0,
                        decoded_bytes: 0,
                    });
                }
                cells.push(Cell {
                    label: format!("scenario-{s}"),
                    spec: CellSpec::Mc(specs),
                });
            }
            Setup {
                inputs,
                menu,
                cells,
                cfg,
            }
        }
    }
}

/// The prefetcher an arena composition runs (as `arena_run` builds it).
pub fn arena_kind(comp: &PipelineConfig) -> PrefetcherKind {
    PrefetcherKind::Context(comp.apply(ContextConfig::default()))
}

/// What one run of a cell produced.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// `stats_digest` (single core) or `mc_digest` (scenario).
    pub digest: u64,
    /// One result per core.
    pub results: Vec<RunResult>,
    /// Shared-level counters (`mc-shared` only).
    pub shared: Option<SharedL2Stats>,
}

impl CellRun {
    fn single(r: RunResult) -> CellRun {
        CellRun {
            digest: r.stats_digest(),
            results: vec![r],
            shared: None,
        }
    }

    /// Simulated instructions over every core.
    pub fn instrs(&self) -> u64 {
        self.results.iter().map(|r| r.cpu.instructions).sum()
    }

    /// Simulated IPC of the cell: instructions over every core per cycle
    /// of the slowest core (for one core, its own IPC).
    pub fn ipc(&self) -> f64 {
        let cycles = self.results.iter().map(|r| r.cpu.cycles).max().unwrap_or(0);
        if cycles == 0 {
            0.0
        } else {
            self.instrs() as f64 / cycles as f64
        }
    }
}

/// Run `cell` through the product path: [`Engine`] (with
/// [`Engine::fork_onto`] after the warm prefix when the cell has one) or
/// [`McEngine`]'s own quantum loop. With `on_quantum`, scenarios step one
/// [`McEngine::step_quantum`] at a time and report each one's host time.
pub fn run_cell(setup: &Setup, cell: &Cell, on_quantum: Option<&mut dyn FnMut(u64)>) -> CellRun {
    match &cell.spec {
        CellSpec::Single { input, kind, warm } => {
            let replay = setup.inputs[*input].replay.clone();
            let mut engine = Engine::new(replay.clone(), kind, &setup.cfg);
            if let Some(warm) = warm {
                engine.run_to(*warm);
                engine = engine
                    .fork_onto(replay)
                    .expect("the fork target replays the same capture");
            }
            engine.run_to_end();
            CellRun::single(engine.finish())
        }
        CellSpec::Mc(specs) => {
            let specs = specs
                .iter()
                .map(|(i, k)| (setup.inputs[*i].replay.clone(), k.clone()))
                .collect();
            let mut engine = McEngine::new(specs, &setup.cfg, &McConfig::default());
            match on_quantum {
                None => engine.run_to_end(),
                Some(f) => {
                    while !engine.done() {
                        let t0 = now_ns();
                        engine.step_quantum();
                        f(now_ns() - t0);
                    }
                }
            }
            let (results, shared) = engine.finish();
            CellRun {
                digest: mc_digest(&results, &shared),
                results,
                shared: Some(shared),
            }
        }
    }
}

/// Warm a forked cell's engine and time one [`Engine::fork_onto`] alone:
/// `(fork host ns, snapshot payload bytes)`, or `None` for a cell without
/// a warm prefix.
pub fn measure_fork(setup: &Setup, cell: &Cell) -> Option<(u64, u64)> {
    let CellSpec::Single {
        input,
        kind,
        warm: Some(warm),
    } = &cell.spec
    else {
        return None;
    };
    let replay = setup.inputs[*input].replay.clone();
    let mut engine = Engine::new(replay.clone(), kind, &setup.cfg);
    engine.run_to(*warm);
    let t0 = now_ns();
    let forked = engine
        .fork_onto(replay)
        .expect("the fork target replays the same capture");
    let ns = now_ns() - t0;
    drop(forked);
    Some((ns, engine.checkpoint().payload.len() as u64))
}

/// The context prefetcher with a recording policy, as the traced run
/// builds it.
type RecordedContext = ContextPrefetcher<RecordingPolicy<CstBanditPolicy>>;

/// Build `kind` for a traced run: the context prefetcher gets a recording
/// policy; everything sits behind a [`Recorder`].
fn recorded(kind: &PrefetcherKind) -> Recorder<Box<dyn Prefetcher>> {
    let pf: Box<dyn Prefetcher> = match kind {
        PrefetcherKind::Context(cfg) => Box::new(ContextPrefetcher::with_policy(
            RecordingPolicy::new(CstBanditPolicy::new(cfg)),
            cfg.clone(),
        )),
        other => other.build(),
    };
    Recorder::new(pf)
}

/// One core's recorded calls.
pub struct CoreLog {
    /// The prefetcher the core ran.
    pub kind: PrefetcherKind,
    /// Every prefetcher call, in order.
    pub pf: Vec<PfCall>,
    /// Fold of the prefetcher's outputs.
    pub pf_outputs: u64,
    /// The policy log, for the context prefetcher.
    pub policy: Option<(Vec<PolicyCall>, u64)>,
}

/// A traced run of one cell.
pub struct TracedRun {
    /// The same result the untraced run produced (the digest is compared).
    pub run: CellRun,
    /// Per-core logs.
    pub logs: Vec<CoreLog>,
}

type RecCpu = Cpu<Recorder<Box<dyn Prefetcher>>>;

fn recorded_cpu(setup: &Setup, kind: &PrefetcherKind) -> RecCpu {
    let mem = Hierarchy::new(setup.cfg.mem.clone(), recorded(kind));
    Cpu::new(setup.cfg.cpu.clone(), mem, setup.cfg.instr_budget)
}

/// Step `cpu` over decoded blocks up to `target` exactly as
/// [`Engine::run_to`] does.
fn run_blocks(cpu: &mut RecCpu, replay: &ReplayKernel, target: u64, budget: u64) {
    const BLOCK: u64 = semloc_trace::BLOCK_LEN as u64;
    let decoded = replay.decoded().expect("single-core inputs are decoded");
    let end = target.min(budget).min(decoded.len() as u64);
    let mut cur = cpu.stats().instructions;
    while cur < end {
        let block_end = ((cur / BLOCK + 1) * BLOCK).min(end);
        decoded.prefetch_block(block_end as usize);
        cpu.step_block(&decoded.block(cur as usize, block_end as usize));
        cur = block_end;
    }
}

fn recorded_context(rec: &Recorder<Box<dyn Prefetcher>>) -> Option<&RecordedContext> {
    rec.as_any()
        .and_then(|a| a.downcast_ref::<RecordedContext>())
}

fn finish_recorded(name: &'static str, kind: &PrefetcherKind, cpu: RecCpu) -> (RunResult, CoreLog) {
    let (cpu_stats, mem) = cpu.finish();
    let rec = mem.prefetcher();
    let ctx = recorded_context(rec);
    let (pf, pf_outputs) = rec.take_log();
    let result = RunResult {
        kernel: name,
        prefetcher: kind.label(),
        cpu: cpu_stats,
        mem: *mem.stats(),
        pf: rec.stats(),
        learn: ctx.map(|p| p.learn_stats().clone()),
        storage_bytes: rec.storage_bytes(),
    };
    let log = CoreLog {
        kind: kind.clone(),
        pf,
        pf_outputs,
        policy: ctx.map(|p| p.policy().take_log()),
    };
    (result, log)
}

/// Run `cell` with every prefetcher (and the context policy) behind
/// recording wrappers. Single-core cells step decoded blocks exactly as
/// [`Engine::run_to`] does, and forked cells move their warm state
/// through the same snapshot [`Engine::fork_onto`] uses; scenarios step
/// cores round-robin per quantum exactly as [`McEngine::step_quantum`]
/// does. The caller checks the digest against the untraced run.
pub fn run_traced(setup: &Setup, cell: &Cell) -> TracedRun {
    match &cell.spec {
        CellSpec::Single { input, kind, warm } => {
            let replay = &setup.inputs[*input].replay;
            let budget = setup.cfg.instr_budget;
            let mut cpu = recorded_cpu(setup, kind);
            if let Some(warm) = warm {
                run_blocks(&mut cpu, replay, *warm, budget);
                let mut w = SnapWriter::new();
                cpu.save(&mut w);
                let mut forked = recorded_cpu(setup, kind);
                forked
                    .restore(&mut SnapReader::new(&w.into_bytes()))
                    .expect("a fresh core restores its own snapshot");
                // The forked core continues the warm core's logs, so one
                // fresh instance replays the whole run.
                let (warm_rec, fork_rec) = (cpu.mem().prefetcher(), forked.mem().prefetcher());
                fork_rec.resume(warm_rec.take_log());
                if let (Some(a), Some(b)) = (recorded_context(warm_rec), recorded_context(fork_rec))
                {
                    b.policy().resume(a.policy().take_log());
                }
                cpu = forked;
            }
            run_blocks(&mut cpu, replay, u64::MAX, budget);
            let (r, log) = finish_recorded(replay.name(), kind, cpu);
            TracedRun {
                run: CellRun::single(r),
                logs: vec![log],
            }
        }
        CellSpec::Mc(specs) => {
            let mc = McConfig::default();
            let shared = SharedL2::handle(setup.cfg.mem.l2.clone(), mc.dram.clone());
            let budget = setup.cfg.instr_budget;
            let mut cores: Vec<(&ReplayKernel, &PrefetcherKind, RecCpu)> = specs
                .iter()
                .map(|(i, kind)| {
                    let mem = Hierarchy::new_shared(
                        setup.cfg.mem.clone(),
                        recorded(kind),
                        shared.clone(),
                    );
                    let cpu = Cpu::new(setup.cfg.cpu.clone(), mem, budget);
                    (&setup.inputs[*i].replay, kind, cpu)
                })
                .collect();
            let done = |r: &ReplayKernel, cpu: &RecCpu| {
                let c = cpu.stats().instructions;
                (budget != 0 && c >= budget) || c >= r.trace().buf.len() as u64
            };
            let mut horizon = 0;
            while !cores.iter().all(|(r, _, cpu)| done(r, cpu)) {
                horizon += mc.quantum;
                for (replay, _, cpu) in &mut cores {
                    if done(replay, cpu) {
                        continue;
                    }
                    let start = cpu.stats().instructions as usize;
                    for i in replay.trace().buf.iter_from(start) {
                        let stats = cpu.stats();
                        if stats.cycles >= horizon || (budget != 0 && stats.instructions >= budget)
                        {
                            break;
                        }
                        cpu.instr(i);
                    }
                }
            }
            let mut results = Vec::new();
            let mut logs = Vec::new();
            for (replay, kind, cpu) in cores {
                let (r, log) = finish_recorded(replay.name(), kind, cpu);
                results.push(r);
                logs.push(log);
            }
            let stats = *shared.borrow().stats();
            TracedRun {
                run: CellRun {
                    digest: mc_digest(&results, &stats),
                    results,
                    shared: Some(stats),
                },
                logs,
            }
        }
    }
}
