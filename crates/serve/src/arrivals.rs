//! Seeded open-loop arrivals, streamed a block at a time.
//!
//! Requests arrive on a Poisson process: exponential inter-arrival times
//! at the offered rate, with each request's class drawn from the
//! weighted mix. Everything is derived from one [`Prng`] stream, so a
//! (seed, rate, duration, mix) tuple always produces the same arrivals —
//! the foundation of the engine's bit-identical reports.
//!
//! [`ArrivalStream`] never holds the whole horizon. Each refill draws
//! the generator outputs of the next 1,024 arrivals in one
//! [`Prng::fill_u64`] call and decodes them into block buffers that the
//! engine reads a block at a time through [`ArrivalStream::pending`] and
//! [`ArrivalStream::advance`], so its memory is the same (about 40 KB)
//! at any `rate × duration`. A refill decodes in two passes and a
//! search: the running time and every class pick (no branch in the
//! loop, so consecutive libm `ln` calls overlap), the classes one mix
//! step at a time over the whole block (no branch depends on a pick),
//! then a binary search for the horizon among the block's times.
//!
//! The order contract the reports' bits rest on: arrival `k` takes
//! generator outputs `2k` (its gap) and `2k + 1` (its class pick); the
//! gap is `-ln(1 - u) / rate` added to the previous arrival's time; the
//! stream ends at the first time at or past the horizon, before that
//! arrival's pick is used; and the pick walks the classes with the
//! `pick < weight` / `pick -= weight` chain, in class order.

use phox_photonics::PhotonicError;
use phox_tensor::Prng;

use crate::workload::ServiceClass;

/// Arrivals decoded per refill. A refill draws twice this many
/// generator outputs, so the draws of one arrival never straddle two
/// blocks.
const BLOCK: usize = 1024;

/// One request arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Index into the engine's class list.
    pub class: usize,
    /// Arrival time, model seconds from the start of the run.
    pub arrive_s: f64,
}

/// The Poisson arrivals of one run, in time order, generated a block at
/// a time.
///
/// Read it as a cursor ([`ArrivalStream::pending`] shows the rest of
/// the current block, [`ArrivalStream::advance`] consumes from it) or as
/// an iterator.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    rng: Prng,
    rate_hz: f64,
    duration_s: f64,
    weights: Vec<f64>,
    total_weight: f64,
    /// Time of the last arrival decoded, s.
    t: f64,
    /// Generator outputs of the block being decoded: gap, pick, gap, …
    raw: Vec<u64>,
    /// Arrival times of the block.
    times: Vec<f64>,
    /// Class picks of the block, consumed by the class walk.
    picks: Vec<f64>,
    classes: Vec<usize>,
    /// Arrivals `pos..len` of the block are not yet consumed.
    pos: usize,
    len: usize,
    /// Arrivals in the blocks before this one.
    before: u64,
    /// Whether the horizon was reached: no block follows this one.
    ended: bool,
}

impl ArrivalStream {
    /// Starts the Poisson arrivals: exponential gaps at `rate_hz` until
    /// `duration_s`, class sampled per arrival from the normalised
    /// `classes` weights.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] for a non-positive rate
    /// or duration, an empty class list, a weight that is not finite and
    /// positive, or weights whose sum is not finite.
    pub fn new(
        seed: u64,
        rate_hz: f64,
        duration_s: f64,
        classes: &[ServiceClass],
    ) -> Result<Self, PhotonicError> {
        if !rate_hz.is_finite() || rate_hz <= 0.0 {
            return Err(PhotonicError::InvalidConfig {
                what: "arrival rate must be finite and positive",
            });
        }
        if !duration_s.is_finite() || duration_s <= 0.0 {
            return Err(PhotonicError::InvalidConfig {
                what: "arrival duration must be finite and positive",
            });
        }
        let total_weight = mix_weight(classes)?;
        Ok(ArrivalStream {
            rng: Prng::stream(seed, 0x5EBE),
            rate_hz,
            duration_s,
            weights: classes.iter().map(|c| c.weight).collect(),
            total_weight,
            t: 0.0,
            raw: vec![0; 2 * BLOCK],
            times: vec![0.0; BLOCK],
            picks: vec![0.0; BLOCK],
            classes: vec![0; BLOCK],
            pos: 0,
            len: 0,
            before: 0,
            ended: false,
        })
    }

    /// The arrivals of the current block not yet consumed, in time
    /// order, as their times and their classes. A used-up block is
    /// refilled first, so both are empty only once the horizon is
    /// reached.
    #[inline]
    pub fn pending(&mut self) -> (&[f64], &[usize]) {
        if self.pos == self.len && !self.ended {
            self.refill();
        }
        let due = self.pos..self.len;
        (&self.times[due.clone()], &self.classes[due])
    }

    /// Consumes the first `n` arrivals [`ArrivalStream::pending`]
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` are pending.
    #[inline]
    pub fn advance(&mut self, n: usize) {
        assert!(
            n <= self.len - self.pos,
            "advanced past the pending arrivals"
        );
        self.pos += n;
    }

    /// Arrivals consumed so far.
    pub fn consumed(&self) -> u64 {
        self.before + self.pos as u64
    }

    /// Decodes the next block. Each arrival's time and class take the
    /// operations of the module's order contract, in its order, so the
    /// bits match a draw-at-a-time loop; only the draws are batched.
    #[inline(never)]
    fn refill(&mut self) {
        self.before += self.len as u64;
        self.rng.fill_u64(&mut self.raw);
        let mut t = self.t;
        let times_picks = self.times.iter_mut().zip(&mut self.picks);
        for ((time, pick), draws) in times_picks.zip(self.raw.chunks_exact(2)) {
            // Exponential inter-arrival: -ln(1-u)/λ, u ∈ [0,1).
            t += -(1.0 - Prng::unit_f64(draws[0])).ln() / self.rate_hz;
            *time = t;
            *pick = Prng::unit_f64(draws[1]) * self.total_weight;
        }
        pick_classes(&mut self.picks, &mut self.classes, &self.weights);
        // No gap is negative, so the times never fall and the horizon
        // cuts the block in one place.
        let len = self.times.partition_point(|&time| time < self.duration_s);
        self.ended = len < BLOCK;
        (self.t, self.pos, self.len) = (t, 0, len);
    }
}

impl Iterator for ArrivalStream {
    type Item = Arrival;

    #[inline]
    fn next(&mut self) -> Option<Arrival> {
        let (times, classes) = self.pending();
        let next = Arrival {
            class: *classes.first()?,
            arrive_s: times[0],
        };
        self.advance(1);
        Some(next)
    }
}

/// The total weight of a class mix, the scale of every class pick.
///
/// # Errors
///
/// Returns [`PhotonicError::InvalidConfig`] for an empty mix, a weight
/// that is not finite and positive (the fields are public, so a class
/// can change after [`ServiceClass::new`] checked it), or weights whose
/// sum overflows: each would send picks to the wrong class silently.
pub(crate) fn mix_weight(classes: &[ServiceClass]) -> Result<f64, PhotonicError> {
    if classes.is_empty() {
        return Err(PhotonicError::InvalidConfig {
            what: "arrival mix needs at least one service class",
        });
    }
    if classes
        .iter()
        .any(|c| !c.weight.is_finite() || c.weight <= 0.0)
    {
        return Err(PhotonicError::InvalidConfig {
            what: "arrival mix weights must be finite and positive",
        });
    }
    let total: f64 = classes.iter().map(|c| c.weight).sum();
    if !total.is_finite() {
        return Err(PhotonicError::InvalidConfig {
            what: "arrival mix weights must have a finite sum",
        });
    }
    Ok(total)
}

/// Sets `classes[k]` to the class `picks[k]` lands in: the first `i`
/// with `pick − w₀ − … − wᵢ₋₁ < wᵢ` (subtracting in that order), or the
/// last class when there is none — the `pick < w` / `pick -= w` chain.
///
/// It takes one step of the chain at a time over the whole block, and
/// every pick takes every step: a pick that has landed becomes −∞, which
/// is below every weight, so its class stops counting. No branch
/// depends on a pick, and the steps vectorise. Overwrites `picks`.
fn pick_classes(picks: &mut [f64], classes: &mut [usize], weights: &[f64]) {
    classes.fill(0);
    // The last class takes whatever reaches it, so it needs no step.
    for &w in &weights[..weights.len() - 1] {
        for (pick, class) in picks.iter_mut().zip(classes.iter_mut()) {
            let lands = *pick < w;
            *class += usize::from(!lands);
            *pick = if lands { f64::NEG_INFINITY } else { *pick - w };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_arch::metrics::ServiceCost;

    fn class(weight: f64) -> ServiceClass {
        ServiceClass::new(
            format!("c{weight}"),
            ServiceCost {
                resident_s: 1e-6,
                resident_j: 1e-6,
                marginal_s: 1e-6,
                marginal_j: 1e-6,
                leakage_w: 0.0,
            },
            weight,
        )
        .unwrap()
    }

    fn collect(seed: u64, rate_hz: f64, duration_s: f64, classes: &[ServiceClass]) -> Vec<Arrival> {
        ArrivalStream::new(seed, rate_hz, duration_s, classes)
            .unwrap()
            .collect()
    }

    #[test]
    fn stream_is_deterministic_and_sorted() {
        let classes = [class(0.5), class(0.5)];
        let a = collect(7, 10_000.0, 0.01, &classes);
        let b = collect(7, 10_000.0, 0.01, &classes);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].arrive_s <= w[1].arrive_s);
        }
        assert!(a.iter().all(|arr| arr.arrive_s < 0.01));
    }

    #[test]
    fn cursor_counts_what_it_consumed() {
        let classes = [class(0.5), class(0.5)];
        let all = collect(5, 300_000.0, 0.01, &classes);
        assert!(all.len() > 2 * BLOCK, "{} arrivals", all.len());
        let mut stream = ArrivalStream::new(5, 300_000.0, 0.01, &classes).unwrap();
        // Consume in uneven steps that cross every block boundary.
        let mut i = 0;
        for step in [0, 1, 3, 700, 1].into_iter().cycle() {
            assert_eq!(stream.consumed(), i as u64);
            // Looking twice neither consumes nor moves the stream.
            let (times, classes) = stream.pending();
            let (times, classes) = (times.to_vec(), classes.to_vec());
            assert_eq!(stream.pending(), (&times[..], &classes[..]));
            if times.is_empty() {
                break;
            }
            let pending = times.iter().zip(&classes);
            for (want, (&time, &class)) in all[i..].iter().zip(pending).take(step) {
                assert_eq!((want.arrive_s, want.class), (time, class));
            }
            let step = step.min(times.len());
            stream.advance(step);
            i += step;
        }
        assert_eq!(i, all.len());
        assert_eq!(stream.consumed(), all.len() as u64);
        assert_eq!(stream.next(), None);
    }

    #[test]
    fn rate_controls_volume() {
        let classes = [class(1.0)];
        let slow = collect(1, 1_000.0, 0.1, &classes).len();
        let fast = collect(1, 10_000.0, 0.1, &classes).len();
        assert!(fast > 5 * slow, "{fast} vs {slow}");
        // Poisson mean: within a loose factor of rate × duration.
        let expect = 1_000.0 * 0.1;
        assert!((slow as f64) > expect * 0.5 && (slow as f64) < expect * 2.0);
    }

    #[test]
    fn mix_weights_are_respected() {
        let classes = [class(0.9), class(0.1)];
        let arrivals = collect(3, 50_000.0, 0.1, &classes);
        let heavy = arrivals.iter().filter(|a| a.class == 0).count();
        let share = heavy as f64 / arrivals.len() as f64;
        assert!((0.85..0.95).contains(&share), "share {share}");
    }

    #[test]
    fn degenerate_configs_rejected() {
        let classes = [class(1.0)];
        assert!(ArrivalStream::new(0, 0.0, 1.0, &classes).is_err());
        assert!(ArrivalStream::new(0, 1.0, 0.0, &classes).is_err());
        assert!(ArrivalStream::new(0, 1.0, 1.0, &[]).is_err());
        assert!(ArrivalStream::new(0, f64::NAN, 1.0, &classes).is_err());
    }

    #[test]
    fn mixes_that_would_skew_the_picks_are_rejected() {
        let invalid = |weights: &[f64]| {
            let classes: Vec<ServiceClass> = weights
                .iter()
                .map(|&w| {
                    let mut c = class(1.0);
                    c.weight = w; // the field is public: bypasses `new`
                    c
                })
                .collect();
            let err = ArrivalStream::new(0, 1_000.0, 1.0, &classes).unwrap_err();
            assert!(
                matches!(err, PhotonicError::InvalidConfig { .. }),
                "{weights:?}: {err}"
            );
            assert!(mix_weight(&classes).is_err());
        };
        invalid(&[0.5, f64::NAN]);
        invalid(&[-0.5, 1.0]);
        invalid(&[1.0, 0.0]);
        invalid(&[1.0, f64::INFINITY]);
        // Each weight is finite, but the total is not.
        invalid(&[f64::MAX, f64::MAX]);
        assert_eq!(mix_weight(&[class(0.5), class(0.25)]).unwrap(), 0.75);
    }

    /// The subtraction chain the stream's picks must reproduce.
    fn pick_by_chain(mut pick: f64, weights: &[f64]) -> usize {
        for (i, &w) in weights.iter().enumerate() {
            if pick < w {
                return i;
            }
            pick -= w;
        }
        weights.len() - 1
    }

    #[test]
    fn branch_free_pick_equals_the_subtraction_chain() {
        let mixes: [&[f64]; 6] = [
            &[1.0],
            &[0.9, 0.1],
            &[0.5, 0.3, 0.2],
            &[0.1, 0.2, 0.3, 0.4, 0.5],
            &[0.1, 1e-300, 0.2, 0.3, 0.4],
            &[1e-300, 1e-300, 1.0],
        ];
        for weights in mixes {
            let total: f64 = weights.iter().sum();
            let mut picks = vec![0.0, -0.0, f64::MIN_POSITIVE, total, f64::MAX, f64::NAN];
            // Each running sum of the weights, each weight alone, and one
            // ulp either side of both.
            let mut running = 0.0;
            for &w in weights {
                running += w;
                for edge in [running, w] {
                    picks.extend([edge.next_down(), edge, edge.next_up()]);
                }
            }
            // The chain's own boundaries: the largest pick it sends to
            // each class but the last, found by bisection on the ulps,
            // and one ulp either side.
            for class in 0..weights.len() - 1 {
                let (mut lo, mut hi) = (0u64, total.to_bits());
                while lo + 1 < hi {
                    let mid = lo + (hi - lo) / 2;
                    if pick_by_chain(f64::from_bits(mid), weights) <= class {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                picks.extend([lo.saturating_sub(1), lo, hi, hi + 1].map(f64::from_bits));
            }
            let mut classes = vec![usize::MAX; picks.len()];
            pick_classes(&mut picks.clone(), &mut classes, weights);
            for (&pick, &class) in picks.iter().zip(&classes) {
                assert_eq!(
                    class,
                    pick_by_chain(pick, weights),
                    "pick {pick:e} over {weights:?}"
                );
            }
        }
        let mut picks = [0.0, -0.0, 0.5, 0.79, 0.8, 2.0];
        let mut classes = [9; 6];
        pick_classes(&mut picks, &mut classes, &[0.5, 0.3, 0.2]);
        // Past the total, a pick falls through to the last class.
        assert_eq!(classes, [0, 0, 1, 1, 2, 2]);
    }
}
