//! Quantization accuracy evaluation (experiment E6).
//!
//! §VI of the paper: *"Based on our analysis conducted for each model and
//! dataset, we concluded that employing 8-bit model quantization yields
//! algorithmic accuracy comparable to models utilizing full (32-bit)
//! precision."* This module reproduces that analysis on synthetic
//! separable tasks: it runs the fp64 reference and a quantized forward
//! pass ([`Precision::FakeQuant`] at 8 bits, or [`Precision::Int8`]) of
//! a model over a labelled workload and reports classification accuracy
//! and prediction agreement. The `*_outputs` scorers grade outputs some
//! other datapath produced (a photonic simulator, say) the same way.

use phox_tensor::{ops, stats, Matrix, TensorError};

use crate::datasets::{LabelledGraph, LabelledSequences};
use crate::gnn::GnnModel;
use crate::int8::Precision;
use crate::transformer::TransformerModel;

/// Accuracy comparison between full precision and quantized execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantReport {
    /// Classification accuracy of the fp64 reference.
    pub fp_accuracy: f64,
    /// Classification accuracy of the quantized leg.
    pub int8_accuracy: f64,
    /// Fraction of examples where both models predict the same class.
    pub agreement: f64,
    /// Mean relative output error between the two forward passes.
    pub mean_relative_error: f64,
}

impl QuantReport {
    /// The paper's acceptance criterion: int8 accuracy within
    /// `tolerance` (absolute) of full precision.
    pub fn is_comparable(&self, tolerance: f64) -> bool {
        (self.fp_accuracy - self.int8_accuracy).abs() <= tolerance
    }
}

/// Evaluates a GNN on a labelled graph: node classification by logits
/// argmax, with the quantized leg the forward at precision `p`.
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn evaluate_gnn(
    model: &GnnModel,
    task: &LabelledGraph,
    p: Precision,
) -> Result<QuantReport, TensorError> {
    let q = model.forward_with(&task.graph, &task.features, p)?;
    evaluate_gnn_outputs(model, task, &q)
}

/// Scores *externally produced* GNN outputs (e.g. a photonic simulator
/// running under an injected [fault plan]) against the model's own f64
/// oracle and the task labels. The "int8" leg of the report is whatever
/// datapath produced `outputs`.
///
/// [fault plan]: https://docs.rs/phox-photonics
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] when `outputs` does not match the
/// oracle's shape; otherwise propagates forward-pass shape errors.
pub fn evaluate_gnn_outputs(
    model: &GnnModel,
    task: &LabelledGraph,
    outputs: &Matrix,
) -> Result<QuantReport, TensorError> {
    let fp = model.forward(&task.graph, &task.features)?;
    let fp_pred = ops::argmax_rows(&fp);
    let q_pred = ops::argmax_rows(outputs);
    Ok(QuantReport {
        fp_accuracy: stats::accuracy(&fp_pred, &task.labels),
        int8_accuracy: stats::accuracy(&q_pred, &task.labels),
        agreement: stats::accuracy(&fp_pred, &q_pred),
        mean_relative_error: stats::relative_error(&fp, outputs),
    })
}

/// Evaluates a transformer on labelled sequences: classification via a
/// fixed nearest-class-mean readout over the mean output embedding, with
/// the quantized leg the forward at precision `p`.
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn evaluate_transformer(
    model: &TransformerModel,
    task: &LabelledSequences,
    p: Precision,
) -> Result<QuantReport, TensorError> {
    let outputs = task
        .inputs
        .iter()
        .map(|x| model.forward_with(x, p))
        .collect::<Result<Vec<_>, _>>()?;
    evaluate_transformer_outputs(model, task, &outputs)
}

/// Scores externally produced transformer outputs, one matrix per input
/// sequence, against the f64 oracle and the task labels. See
/// [`evaluate_gnn_outputs`].
///
/// # Errors
///
/// [`TensorError::LengthMismatch`] when `outputs.len()` differs from the
/// task's input count; otherwise propagates forward-pass shape errors.
pub fn evaluate_transformer_outputs(
    model: &TransformerModel,
    task: &LabelledSequences,
    outputs: &[Matrix],
) -> Result<QuantReport, TensorError> {
    if outputs.len() != task.inputs.len() {
        return Err(TensorError::LengthMismatch {
            expected: task.inputs.len(),
            actual: outputs.len(),
        });
    }
    let mut fp_pred = Vec::with_capacity(task.inputs.len());
    let mut q_pred = Vec::with_capacity(task.inputs.len());
    let mut rel_err_sum = 0.0;
    for (x, q) in task.inputs.iter().zip(outputs) {
        let fp = model.forward(x)?;
        rel_err_sum += stats::relative_error(&fp, q);
        fp_pred.push(classify(&fp, &task.class_means));
        q_pred.push(classify(q, &task.class_means));
    }
    Ok(QuantReport {
        fp_accuracy: stats::accuracy(&fp_pred, &task.labels),
        int8_accuracy: stats::accuracy(&q_pred, &task.labels),
        agreement: stats::accuracy(&fp_pred, &q_pred),
        mean_relative_error: rel_err_sum / task.inputs.len() as f64,
    })
}

/// Nearest-class-mean classification on the *input-mean* direction: the
/// transformer output is projected onto each class mean and the largest
/// response wins.
fn classify(output: &Matrix, class_means: &Matrix) -> usize {
    let d = output.cols();
    let mut mean = vec![0.0; d];
    for r in 0..output.rows() {
        for c in 0..d {
            mean[c] += output.get(r, c) / output.rows() as f64;
        }
    }
    let mut best = (f64::NEG_INFINITY, 0);
    for k in 0..class_means.rows() {
        let mut dot = 0.0;
        for c in 0..d {
            dot += mean[c] * class_means.get(k, c);
        }
        if dot > best.0 {
            best = (dot, k);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{labelled_sequences, sbm};
    use crate::gnn::{GnnConfig, GnnKind};
    use crate::transformer::{TransformerConfig, TransformerModel};

    const FQ8: Precision = Precision::FakeQuant { bits: 8 };

    #[test]
    fn gnn_int8_accuracy_comparable_to_fp() {
        let task = sbm(3, 12, 16, 0.5, 0.05, 21).unwrap();
        for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
            let model = GnnModel::random(GnnConfig::two_layer(kind, 16, 32, 3), 22).unwrap();
            let r = evaluate_gnn(&model, &task, FQ8).unwrap();
            // Random weights: accuracy itself is incidental, but int8
            // must track fp predictions closely.
            assert!(r.agreement >= 0.9, "{kind}: agreement {}", r.agreement);
            assert!(r.is_comparable(0.1), "{kind}: {r:?}");
        }
    }

    #[test]
    fn transformer_int8_accuracy_comparable_to_fp() {
        let task = labelled_sequences(12, 3, 8, 32, 23).unwrap();
        let model = TransformerModel::random(TransformerConfig::tiny(8), 24).unwrap();
        let r = evaluate_transformer(&model, &task, FQ8).unwrap();
        assert!(r.agreement >= 0.8, "agreement {}", r.agreement);
        assert!(r.is_comparable(0.25), "{r:?}");
        assert!(r.mean_relative_error < 0.2, "err {}", r.mean_relative_error);
    }

    #[test]
    fn external_outputs_score_like_the_builtin_legs() {
        let task = sbm(3, 12, 16, 0.5, 0.05, 31).unwrap();
        let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 16, 32, 3), 32).unwrap();
        let q = model
            .forward_with(&task.graph, &task.features, FQ8)
            .unwrap();
        let via_outputs = evaluate_gnn_outputs(&model, &task, &q).unwrap();
        let via_builtin = evaluate_gnn(&model, &task, FQ8).unwrap();
        assert_eq!(via_outputs, via_builtin);

        let seq = labelled_sequences(6, 3, 8, 32, 33).unwrap();
        let tf = TransformerModel::random(TransformerConfig::tiny(8), 34).unwrap();
        let outs: Vec<_> = seq
            .inputs
            .iter()
            .map(|x| tf.forward_with(x, FQ8).unwrap())
            .collect();
        let via_outputs = evaluate_transformer_outputs(&tf, &seq, &outs).unwrap();
        let via_builtin = evaluate_transformer(&tf, &seq, FQ8).unwrap();
        assert_eq!(via_outputs, via_builtin);

        // Length mismatch is a typed error, not a panic.
        assert!(evaluate_transformer_outputs(&tf, &seq, &outs[..2]).is_err());
    }

    #[test]
    fn comparable_criterion() {
        let r = QuantReport {
            fp_accuracy: 0.9,
            int8_accuracy: 0.88,
            agreement: 0.95,
            mean_relative_error: 0.02,
        };
        assert!(r.is_comparable(0.05));
        assert!(!r.is_comparable(0.01));
    }
}
