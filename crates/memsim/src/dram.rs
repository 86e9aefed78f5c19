//! Off-chip memory channel model (HBM-class).
//!
//! Both accelerators stream weights and graph data from high-bandwidth
//! memory (the paper's TransPIM comparison explicitly targets HBM
//! dataflows). We model a channel by its sustained bandwidth, per-bit
//! transfer energy, and fixed access latency — the three quantities the
//! architecture simulator consumes.

use crate::MemError;

/// One HBM-class memory channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmChannel {
    /// Sustained bandwidth, bytes/s.
    pub bandwidth_bytes_per_s: f64,
    /// Transfer energy, J/bit.
    pub energy_per_bit_j: f64,
    /// Row-access latency, s.
    pub latency_s: f64,
}

impl Default for HbmChannel {
    /// An HBM2-class channel: 32 GB/s, 3.9 pJ/bit, 100 ns access.
    fn default() -> Self {
        HbmChannel {
            bandwidth_bytes_per_s: 32e9,
            energy_per_bit_j: 3.9e-12,
            latency_s: 100e-9,
        }
    }
}

impl HbmChannel {
    /// Validates the channel parameters.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] for non-positive values.
    pub fn validated(self) -> Result<Self, MemError> {
        if self.bandwidth_bytes_per_s <= 0.0 || self.energy_per_bit_j <= 0.0 || self.latency_s < 0.0
        {
            return Err(MemError::InvalidConfig {
                what: "channel parameters must be positive",
            });
        }
        Ok(self)
    }

    /// Time to transfer `bytes`, s (latency + streaming).
    pub fn transfer_time_s(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Energy to transfer `bytes`, J.
    pub fn transfer_energy_j(&self, bytes: usize) -> f64 {
        bytes as f64 * 8.0 * self.energy_per_bit_j
    }
}

/// A stack of parallel channels (e.g. a 4-channel HBM stack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmStack {
    /// Per-channel model.
    pub channel: HbmChannel,
    /// Number of channels striped across.
    pub channels: usize,
}

impl Default for HbmStack {
    /// Four default channels (128 GB/s aggregate).
    fn default() -> Self {
        HbmStack {
            channel: HbmChannel::default(),
            channels: 4,
        }
    }
}

impl HbmStack {
    /// Validates the stack.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] for a zero channel count or an
    /// invalid channel.
    pub fn validated(self) -> Result<Self, MemError> {
        if self.channels == 0 {
            return Err(MemError::InvalidConfig {
                what: "stack needs at least one channel",
            });
        }
        self.channel.validated()?;
        Ok(self)
    }

    /// Aggregate bandwidth, bytes/s.
    pub fn bandwidth_bytes_per_s(&self) -> f64 {
        self.channel.bandwidth_bytes_per_s * self.channels as f64
    }

    /// Time to transfer `bytes` striped across all channels, s.
    pub fn transfer_time_s(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.channel.latency_s + bytes as f64 / self.bandwidth_bytes_per_s()
    }

    /// Energy to transfer `bytes`, J (per-bit energy is per-channel
    /// invariant).
    pub fn transfer_energy_j(&self, bytes: usize) -> f64 {
        self.channel.transfer_energy_j(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_channel_numbers() {
        let c = HbmChannel::default().validated().unwrap();
        // 1 KiB: 100 ns + 1024/32e9 = 132 ns.
        let t = c.transfer_time_s(1024);
        assert!((t - 132e-9).abs() < 1e-12, "t = {t}");
        // Energy: 8192 bits · 3.9 pJ = 31.95 nJ... actually 31.9e-9.
        let e = c.transfer_energy_j(1024);
        assert!((e - 1024.0 * 8.0 * 3.9e-12).abs() < 1e-18);
    }

    #[test]
    fn zero_bytes_is_free() {
        let c = HbmChannel::default();
        assert_eq!(c.transfer_time_s(0), 0.0);
        assert_eq!(c.transfer_energy_j(0), 0.0);
    }

    #[test]
    fn stack_bandwidth_scales() {
        let s = HbmStack::default().validated().unwrap();
        assert!((s.bandwidth_bytes_per_s() - 128e9).abs() < 1.0);
        // Large transfers are ~4x faster than one channel.
        let one = s.channel.transfer_time_s(1 << 30);
        let four = s.transfer_time_s(1 << 30);
        assert!(four < one / 3.0);
    }

    #[test]
    fn stack_energy_equals_channel_energy() {
        let s = HbmStack::default();
        assert_eq!(s.transfer_energy_j(4096), s.channel.transfer_energy_j(4096));
    }

    #[test]
    fn validation() {
        assert!(HbmChannel {
            bandwidth_bytes_per_s: 0.0,
            ..HbmChannel::default()
        }
        .validated()
        .is_err());
        assert!(HbmStack {
            channels: 0,
            ..HbmStack::default()
        }
        .validated()
        .is_err());
    }
}
