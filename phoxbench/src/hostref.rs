//! The host-speed reference: a fixed kernel of the benchmark's own that
//! runs between every two timed operations and between set-ups.
//!
//! The reference host is a shared 2-vCPU VM whose speed switches between
//! states up to 1.6x apart every few minutes, and every leg of a run
//! moves with it, while a register-only loop (the envelope's calibration)
//! hardly does. This kernel mixes the kinds of work the legs do: a
//! vectorisable dense product, random gathers from a table larger than
//! L2, and scalar transcendental math. It moved with the legs: across
//! runs in a fast spell it took 2.5-2.7 ms against 2.9-3.0 ms otherwise.
//! An operation's time over the reference time around it is therefore
//! nearly free of the host's state, while a change to the program moves
//! it in full, because the kernel calls no code of the program.

use std::hint::black_box;
use std::time::Instant;

/// Dense product side: `DENSE × DENSE` times `DENSE × DENSE`.
const DENSE: usize = 128;
/// Gather table entries (16 MiB of f64) and gathers per run.
const TABLE: usize = 1 << 21;
const GATHERS: usize = 1 << 17;
/// Iterations of the scalar loop.
const SCALAR: usize = 1 << 15;
/// The kernel's typical duration on the reference host (2-vCPU Xeon VM,
/// 2.1 GHz) in its slower, more common speed state, seconds. Normalised
/// figures read as host-clock figures of that state.
pub const NOMINAL_S: f64 = 3e-3;

/// The kernel's inputs, built once from a fixed seed.
pub struct HostRef {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    table: Vec<f64>,
    idx: Vec<u32>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn unit(x: &mut u64) -> f64 {
    (xorshift(x) >> 11) as f64 / (1u64 << 53) as f64
}

impl HostRef {
    /// Resident size of the kernel's inputs, MB: the peak resident set
    /// reports the program's own memory without it.
    pub const RESIDENT_MB: f64 =
        ((3 * DENSE * DENSE + TABLE) * 8 + GATHERS * 4) as f64 / (1024.0 * 1024.0);

    pub fn new() -> HostRef {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        let mut fill = |n: usize| (0..n).map(|_| unit(&mut x) - 0.5).collect::<Vec<f64>>();
        let (a, b, table) = (fill(DENSE * DENSE), fill(DENSE * DENSE), fill(TABLE));
        let idx = (0..GATHERS)
            .map(|_| (xorshift(&mut x) % TABLE as u64) as u32)
            .collect();
        HostRef {
            a,
            b,
            c: vec![0.0; DENSE * DENSE],
            table,
            idx,
        }
    }

    fn kernel(&mut self) -> f64 {
        let n = DENSE;
        self.c.fill(0.0);
        for i in 0..n {
            for k in 0..n {
                let aik = self.a[i * n + k];
                let (row, b) = (&mut self.c[i * n..(i + 1) * n], &self.b[k * n..(k + 1) * n]);
                for (c, &b) in row.iter_mut().zip(b) {
                    *c += aik * b;
                }
            }
        }
        let gathered: f64 = self.idx.iter().map(|&i| self.table[i as usize]).sum();
        let mut s = 0.0f64;
        let mut v = 1.5f64;
        for i in 0..SCALAR {
            v = if i % 3 == 0 {
                (v * 0.7).exp()
            } else {
                v.ln_1p() + 0.5
            };
            s += v;
        }
        self.c[n * n / 2] + gathered + s
    }

    /// Runs the kernel once; its duration, seconds.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.kernel());
        t0.elapsed().as_secs_f64()
    }
}
