//! The arrival source against the materialising loop it replaced.
//!
//! The oracle is a verbatim copy of the loop that generated a whole
//! trace before the engine ran: one uniform per exponential gap, a stop
//! at the first time at or past the horizon before any class draw, then
//! one uniform per class pick through the `pick < w` / `pick -= w`
//! chain. The source must give the same arrival count, every class and
//! every `arrive_s` bit.
//!
//! A streamed source refills in blocks, so the horizons are chosen from
//! the oracle's own times to put the count at 0, 1 and either side of
//! every power-of-two block length from 256 to 2,048 and of twice it,
//! with the horizon exactly on an arrival and one float past it.

use phox_arch::metrics::ServiceCost;
use phox_serve::{ArrivalStream, ServiceClass};
use phox_tensor::Prng;

/// One arrival as the oracle emits it: class and time.
type Oracle = Vec<(usize, f64)>;

/// Verbatim copy of the materialising generator's loop.
fn oracle(seed: u64, rate_hz: f64, duration_s: f64, classes: &[ServiceClass]) -> Oracle {
    let total_weight: f64 = classes.iter().map(|c| c.weight).sum();
    let mut rng = Prng::stream(seed, 0x5EBE);
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival: -ln(1-u)/λ, u ∈ [0,1).
        let u = rng.next_f64();
        t += -(1.0 - u).ln() / rate_hz;
        if t >= duration_s {
            break;
        }
        // Weighted class draw on the same stream.
        let mut pick = rng.next_f64() * total_weight;
        let mut class = classes.len() - 1;
        for (i, c) in classes.iter().enumerate() {
            if pick < c.weight {
                class = i;
                break;
            }
            pick -= c.weight;
        }
        arrivals.push((class, t));
    }
    arrivals
}

/// The source under test, collected.
fn source(seed: u64, rate_hz: f64, duration_s: f64, classes: &[ServiceClass]) -> Oracle {
    ArrivalStream::new(seed, rate_hz, duration_s, classes)
        .expect("valid arrival config")
        .map(|a| (a.class, a.arrive_s))
        .collect()
}

fn class(weight: f64) -> ServiceClass {
    ServiceClass::new(
        format!("w{weight:e}"),
        ServiceCost {
            resident_s: 1e-6,
            resident_j: 1e-6,
            marginal_s: 1e-6,
            marginal_j: 1e-6,
            leakage_w: 0.0,
        },
        weight,
    )
    .expect("valid class weight")
}

/// The 1-, 2-, 3- and 5-class mixes; the 5-class mix holds a class of
/// weight 1e-300 that the picks must still skip over exactly.
fn mixes() -> Vec<Vec<ServiceClass>> {
    vec![
        vec![class(1.0)],
        vec![class(0.9), class(0.1)],
        vec![class(0.5), class(0.3), class(0.2)],
        vec![
            class(0.1),
            class(1e-300),
            class(0.2),
            class(0.3),
            class(0.4),
        ],
    ]
}

/// Arrival counts around the block boundaries of any power-of-two
/// block length `B` from 256 to 2,048: `B − 1`, `B`, `B + 1`, `2B` and
/// `2B + 1`.
fn target_counts() -> Vec<usize> {
    let mut counts = vec![0, 1];
    for block in [256usize, 512, 1024, 2048] {
        counts.extend([block - 1, block, block + 1, 2 * block, 2 * block + 1]);
    }
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn assert_same(expected: &Oracle, got: &Oracle, what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: arrival count");
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        assert_eq!(e.0, g.0, "{what}: class of arrival {i}");
        assert_eq!(
            e.1.to_bits(),
            g.1.to_bits(),
            "{what}: time of arrival {i} ({} vs {})",
            e.1,
            g.1
        );
    }
}

#[test]
fn source_matches_the_materialising_loop_at_every_block_boundary() {
    let counts = target_counts();
    let longest = *counts.last().expect("counts");
    for (m, classes) in mixes().iter().enumerate() {
        for (seed, rate_hz) in [(1u64, 10_000.0), (7, 3_000.0), (0xF0CA, 32_000.0)] {
            // Run long enough to see every target count, then cut the
            // horizon at the oracle's own arrival times.
            let long_s = 2.0 * longest as f64 / rate_hz;
            let full = oracle(seed, rate_hz, long_s, classes);
            assert!(full.len() > longest, "mix {m} seed {seed}: trace too short");
            for &n in &counts {
                let at = full[n].1;
                // On the arrival: it stops the stream (t >= horizon).
                // One float past it: it is the last arrival admitted.
                for (duration_s, want) in [(at, n), (at.next_up(), n + 1)] {
                    let expected = oracle(seed, rate_hz, duration_s, classes);
                    assert_eq!(expected.len(), want, "mix {m} seed {seed}: count");
                    let what = format!("mix {m} seed {seed} horizon {duration_s:e} ({want})");
                    assert_same(
                        &expected,
                        &source(seed, rate_hz, duration_s, classes),
                        &what,
                    );
                }
            }
        }
    }
}

#[test]
fn source_matches_the_materialising_loop_on_the_serving_sweep_shape() {
    // `standard_mix` weights at the benchmark's highest fault-free
    // rate, one model-second, at three seeds.
    let classes = [class(0.5), class(0.3), class(0.2)];
    for seed in [1u64, 7, 91] {
        let expected = oracle(seed, 32_000.0, 1.0, &classes);
        assert!(expected.len() > 30_000);
        assert_same(
            &expected,
            &source(seed, 32_000.0, 1.0, &classes),
            &format!("seed {seed}"),
        );
    }
}
