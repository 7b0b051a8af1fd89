//! The traced run wraps every seam without changing a result: a wrapped
//! cell's digest equals the product path's, and every replay reproduces
//! the outputs its wrapper recorded.

use std::sync::Arc;

use semloc_context::{CstBanditPolicy, FeatureSet};
use semloc_harness::{default_cells, PrefetcherKind, SimConfig};
use semloc_perf::record::{feature_log, replay_features, replay_policy, replay_prefetcher};
use semloc_perf::workload::{arena_kind, run_cell, run_traced, Cell, CellSpec, Input, Setup};
use semloc_trace::DecodedTrace;
use semloc_workloads::{capture_kernel, kernel_by_name, ReplayKernel};

const BUDGET: u64 = 20_000;

fn input(name: &str) -> Input {
    let k = kernel_by_name(name).expect("registered kernel");
    let trace = capture_kernel(k.as_ref(), BUDGET);
    let decoded = DecodedTrace::decode(&trace.buf);
    Input {
        replay: ReplayKernel::new(Arc::new(trace)).with_decoded(Some(Arc::new(decoded))),
        capture_ns: 0,
        decode_ns: 0,
        decoded_bytes: 0,
    }
}

fn setup(cells: Vec<CellSpec>) -> Setup {
    Setup {
        inputs: vec![input("mcf"), input("list")],
        menu: Vec::new(),
        cells: cells
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Cell {
                label: format!("cell-{i}"),
                spec,
            })
            .collect(),
        cfg: SimConfig::default().with_budget(BUDGET),
    }
}

fn every_kind() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::GhbPcdc,
        PrefetcherKind::GhbGac,
        PrefetcherKind::Sms,
        PrefetcherKind::Markov,
        PrefetcherKind::NextLine,
        PrefetcherKind::context(),
    ]
}

/// A composition other than the paper's: PC plus deltas with the
/// Gaussian-penalty reward.
fn non_default_composition() -> PrefetcherKind {
    let comp = default_cells()
        .into_iter()
        .find(|c| c.features == FeatureSet::PcDeltas && c.label().contains("gauss-pen"))
        .expect("the arena grid has a pc+deltas gauss-pen cell");
    arena_kind(&comp)
}

fn assert_same_digest(s: &Setup) {
    for cell in &s.cells {
        let plain = run_cell(s, cell, None);
        let traced = run_traced(s, cell);
        assert_eq!(
            plain.digest, traced.run.digest,
            "{:?}: wrapped digest differs from the product path",
            cell.spec
        );
    }
}

#[test]
fn wrapped_cells_keep_their_digest_for_every_prefetcher_kind() {
    let cells = every_kind()
        .into_iter()
        .map(|kind| CellSpec::Single {
            input: 0,
            kind,
            warm: None,
        })
        .collect();
    assert_same_digest(&setup(cells));
}

#[test]
fn wrapped_forked_cells_keep_their_digest_for_a_non_default_composition() {
    let cells = vec![
        CellSpec::Single {
            input: 1,
            kind: non_default_composition(),
            warm: Some(BUDGET / 6),
        },
        CellSpec::Single {
            input: 1,
            kind: PrefetcherKind::context(),
            warm: Some(BUDGET / 6),
        },
    ];
    assert_same_digest(&setup(cells));
}

#[test]
fn wrapped_scenarios_keep_their_digest() {
    let cells = vec![CellSpec::Mc(vec![
        (0, PrefetcherKind::Stride),
        (1, PrefetcherKind::Sms),
        (0, PrefetcherKind::None),
    ])];
    assert_same_digest(&setup(cells));
}

#[test]
fn replays_reproduce_recorded_outputs() {
    let s = setup(vec![
        CellSpec::Single {
            input: 1,
            kind: non_default_composition(),
            warm: Some(BUDGET / 6),
        },
        CellSpec::Single {
            input: 0,
            kind: PrefetcherKind::GhbPcdc,
            warm: None,
        },
    ]);
    for cell in &s.cells {
        let traced = run_traced(&s, cell);
        let log = &traced.logs[0];
        let rep = replay_prefetcher(log.kind.build().as_mut(), &log.pf);
        assert_eq!(rep.outputs, log.pf_outputs, "{} replay", log.kind.label());
        // The check has teeth: another prefetcher does not reproduce them.
        let other = replay_prefetcher(PrefetcherKind::Stride.build().as_mut(), &log.pf);
        assert_ne!(other.outputs, log.pf_outputs);

        if let (PrefetcherKind::Context(cfg), Some((plog, pout))) = (&log.kind, &log.policy) {
            let rep = replay_policy(&mut CstBanditPolicy::new(cfg), plog);
            assert_eq!(rep.outputs, *pout, "policy replay");
            assert!(rep.calls > 0);
            let flog = feature_log(cfg.features, cfg.block_shift, &log.pf, plog)
                .expect("one note_shared_weak per access");
            let rep = replay_features(cfg.features, cfg.block_shift, &flog);
            assert_eq!(rep.outputs, flog.outputs, "feature replay");
            // Extracting with another feature set does not reproduce them.
            let other = replay_features(FeatureSet::PcOnly, cfg.block_shift, &flog);
            assert_ne!(other.outputs, flog.outputs);
        }
    }
}
