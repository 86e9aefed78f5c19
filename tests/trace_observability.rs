//! Observability regression tests: the trace must be deterministic, the
//! disabled path must be a true no-op, and the per-stage decomposition in
//! the trace must agree with the simulators' energy/latency ledgers over
//! the paper's evaluation workloads (Figs. 8–11).

use phox::prelude::*;
use phox::tensor::parallel;
use phox::trace::Kind;

/// The Fig. 8/9 Transformer workloads.
fn tron_workloads() -> Vec<TransformerConfig> {
    vec![
        TransformerConfig::bert_base(128),
        TransformerConfig::bert_large(128),
        TransformerConfig::gpt2(128),
        TransformerConfig::vit_b16(),
    ]
}

/// The Fig. 10/11 GNN workloads.
fn ghost_workloads() -> Vec<GnnWorkload> {
    vec![
        GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gcn, 1433, 16, 7),
            GraphShape::cora(),
        ),
        GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gin, 3703, 16, 6),
            GraphShape::citeseer(),
        ),
        GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gat, 500, 16, 3),
            GraphShape::pubmed(),
        ),
        GnnWorkload::sampled(
            GnnConfig::two_layer(GnnKind::GraphSage, 602, 128, 41),
            GraphShape::reddit(),
            25,
        ),
    ]
}

/// A traced mix of every instrumented hot path: the parallel GEMM
/// kernel, the analog tile engine (via the functional simulator), and
/// both performance simulators.
fn traced_mix() -> String {
    let trace = Trace::new();
    phox::trace::with_installed(trace.clone(), || {
        let a = Prng::new(11).fill_normal(96, 64, 0.0, 1.0);
        let b = Prng::new(12).fill_normal(64, 80, 0.0, 1.0);
        let _ = a.matmul(&b).unwrap();

        let config = TronConfig::default();
        let model = TransformerModel::random(TransformerConfig::tiny(8), 7).unwrap();
        let x = Prng::new(8).fill_normal(8, 32, 0.0, 1.0);
        let mut sim = TronFunctional::new(&config, 9).unwrap();
        let _ = sim.forward(&model, &x).unwrap();

        let tron = TronAccelerator::new(config).unwrap();
        let _ = tron.simulate(&TransformerConfig::bert_base(128)).unwrap();
        let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let _ = ghost.simulate(&ghost_workloads()[0]).unwrap();
    });
    trace.export_jsonl()
}

#[test]
fn trace_is_byte_identical_across_thread_counts() {
    let baseline = parallel::with_threads(1, traced_mix);
    for n in [2, 4] {
        let other = parallel::with_threads(n, traced_mix);
        assert_eq!(
            baseline, other,
            "JSONL trace differs between 1 and {n} worker threads"
        );
    }
}

#[test]
fn disabled_trace_changes_no_ledger_value() {
    let tron = TronAccelerator::new(TronConfig::default()).unwrap();
    let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
    let model = TransformerConfig::bert_base(128);
    let workload = &ghost_workloads()[0];

    // Tracing off. `with_installed` makes that explicit rather than
    // relying on this thread's default; the traces of sibling tests are
    // installed on their own threads and never see these runs.
    let (tron_plain, ghost_plain) = phox::trace::with_installed(Trace::disabled(), || {
        (
            tron.simulate(&model).unwrap(),
            ghost.simulate(workload).unwrap(),
        )
    });

    // Tracing on: every instrumented path records.
    let (tron_traced, ghost_traced) = phox::trace::with_installed(Trace::new(), || {
        (
            tron.simulate(&model).unwrap(),
            ghost.simulate(workload).unwrap(),
        )
    });

    assert_eq!(tron_plain, tron_traced);
    assert_eq!(ghost_plain, ghost_traced);
    // PartialEq on f64 admits -0.0 == 0.0; the headline scalars must
    // match bit for bit.
    assert_eq!(
        tron_plain.perf.energy_j.to_bits(),
        tron_traced.perf.energy_j.to_bits()
    );
    assert_eq!(
        tron_plain.perf.latency_s.to_bits(),
        tron_traced.perf.latency_s.to_bits()
    );
    assert_eq!(
        ghost_plain.perf.energy_j.to_bits(),
        ghost_traced.perf.energy_j.to_bits()
    );
    assert_eq!(
        ghost_plain.perf.latency_s.to_bits(),
        ghost_traced.perf.latency_s.to_bits()
    );
}

/// Relative error with a floor to keep 0-vs-0 well-defined.
fn rel_err(expected: f64, actual: f64) -> f64 {
    (expected - actual).abs() / expected.abs().max(f64::MIN_POSITIVE)
}

/// Sums the `stage/*` span energies on `track`.
fn stage_sum_j(trace: &Trace, track: &str) -> f64 {
    let mut sum = 0.0;
    let mut spans = 0;
    for e in trace.events() {
        if e.track != track || !e.name.starts_with("stage/") {
            continue;
        }
        if let Kind::Span {
            energy_j: Some(j), ..
        } = e.kind
        {
            sum += j;
            spans += 1;
        }
    }
    assert!(spans > 0, "no stage spans on track {track}");
    sum
}

#[test]
fn tron_stage_decomposition_matches_ledger_over_fig8_9_workloads() {
    let tron = TronAccelerator::new(TronConfig::default()).unwrap();
    for model in tron_workloads() {
        let trace = Trace::new();
        let report = phox::trace::with_installed(trace.clone(), || tron.simulate(&model).unwrap());
        assert_eq!(report.perf.energy_j, report.energy.total_j());
        assert!(
            rel_err(report.perf.latency_s, report.latency.total_s()) <= 1e-9,
            "{}: latency ledger drifted from the reported latency",
            model.name
        );
        let sum = stage_sum_j(&trace, &format!("tron/{}", model.name));
        assert!(
            rel_err(report.perf.energy_j, sum) <= 1e-9,
            "{}: stage spans sum to {sum} J, ledger says {} J",
            model.name,
            report.perf.energy_j
        );
    }
}

#[test]
fn ghost_stage_decomposition_matches_ledger_over_fig10_11_workloads() {
    let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
    for workload in ghost_workloads() {
        let trace = Trace::new();
        let report =
            phox::trace::with_installed(trace.clone(), || ghost.simulate(&workload).unwrap());
        assert_eq!(report.perf.energy_j, report.energy.total_j());
        assert!(
            rel_err(report.perf.latency_s, report.latency.total_s()) <= 1e-9,
            "{}: latency ledger drifted from the reported latency",
            report.workload
        );
        let sum = stage_sum_j(&trace, &format!("ghost/{}", report.workload));
        assert!(
            rel_err(report.perf.energy_j, sum) <= 1e-9,
            "{}: stage spans sum to {sum} J, ledger says {} J",
            report.workload,
            report.perf.energy_j
        );
    }
}

#[test]
fn comparison_harness_records_one_span_per_platform() {
    let tron = TronAccelerator::new(TronConfig::default()).unwrap();
    let model = TransformerConfig::bert_base(128);
    let trace = Trace::new();
    let rows =
        phox::trace::with_installed(trace.clone(), || tron_comparison(&tron, &model).unwrap());
    let track = format!("compare/{}", model.name);
    let platform_spans: Vec<_> = trace
        .events()
        .into_iter()
        .filter(|e| e.track == track && e.name.starts_with("platform/"))
        .collect();
    assert_eq!(platform_spans.len(), rows.len());
    for row in &rows {
        let name = format!("platform/{}", row.platform);
        let span = platform_spans
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no span for {name}"));
        if let Kind::Span { dur_s, .. } = span.kind {
            assert_eq!(dur_s.to_bits(), row.latency_s.to_bits());
        } else {
            panic!("{name} is not a span");
        }
    }
}

#[test]
fn chrome_export_of_a_real_run_is_wellformed() {
    let tron = TronAccelerator::new(TronConfig::default()).unwrap();
    let trace = Trace::new();
    phox::trace::with_installed(trace.clone(), || {
        tron.simulate(&TransformerConfig::bert_base(128)).unwrap();
    });
    let chrome = trace.export_chrome();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with('}'));
    assert!(chrome.contains("\"thread_name\""));
    assert!(chrome.contains("\"stage/attention\""));
    // Chrome's JSON parser has no NaN/Inf literals; the writer must
    // never emit them.
    assert!(!chrome.contains("NaN") && !chrome.contains("inf"));
}
