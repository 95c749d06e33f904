//! Network behaviour configuration.

use std::time::Duration;

/// Message latency model: a fixed base plus uniform jitter.
///
/// The prototype's 802.11b LAN had per-hop latencies in the low
/// milliseconds; [`LatencyModel::wireless_lan`] approximates that, while
/// [`LatencyModel::instant`] removes delay entirely for micro-benchmarks
/// that measure middleware cost rather than transport cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Minimum one-way delay applied to every message.
    pub base: Duration,
    /// Additional uniformly distributed delay in `[0, jitter]`.
    pub jitter: Duration,
}

impl LatencyModel {
    /// Zero-delay delivery (still in send order).
    pub const fn instant() -> Self {
        Self {
            base: Duration::ZERO,
            jitter: Duration::ZERO,
        }
    }

    /// Roughly an early-2000s 802.11b wireless LAN: 2 ms ± 3 ms.
    pub const fn wireless_lan() -> Self {
        Self {
            base: Duration::from_millis(2),
            jitter: Duration::from_millis(3),
        }
    }

    /// A wide-area path: 40 ms ± 20 ms.
    pub const fn wan() -> Self {
        Self {
            base: Duration::from_millis(40),
            jitter: Duration::from_millis(20),
        }
    }

    /// Fixed latency with no jitter.
    pub const fn fixed(base: Duration) -> Self {
        Self {
            base,
            jitter: Duration::ZERO,
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::instant()
    }
}

/// Full network configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct NetConfig {
    /// One-way delivery latency.
    pub latency: LatencyModel,
    /// Probability in `[0, 1]` that a message is silently lost.
    pub loss: f64,
    /// Seed for the network's deterministic RNG (latency jitter and loss).
    pub seed: u64,
    /// When true, a request sent to a *disconnected* endpoint immediately
    /// produces a `Disconnected` error response (models TCP connection
    /// refused) instead of silently timing out. Random loss is unaffected.
    pub fail_fast_disconnected: bool,
}

impl NetConfig {
    /// Lossless, zero-latency network — the default for unit tests.
    pub fn ideal() -> Self {
        Self {
            latency: LatencyModel::instant(),
            loss: 0.0,
            seed: 0xC0FFEE,
            fail_fast_disconnected: true,
        }
    }

    /// The paper's deployment environment: wireless LAN latencies with a
    /// little loss.
    pub fn wireless_lan() -> Self {
        Self {
            latency: LatencyModel::wireless_lan(),
            loss: 0.005,
            seed: 0xC0FFEE,
            fail_fast_disconnected: true,
        }
    }

    /// Replaces the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the loss probability (builder style).
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.loss = loss;
        self
    }

    /// Replaces the latency model (builder style).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::ideal()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    #[test]
    fn ideal_is_lossless_and_instant() {
        let cfg = NetConfig::ideal();
        assert_eq!(cfg.loss, 0.0);
        assert_eq!(cfg.latency, LatencyModel::instant());
        assert!(cfg.fail_fast_disconnected);
    }

    #[test]
    fn builders_compose() {
        let cfg = NetConfig::ideal()
            .with_seed(7)
            .with_loss(0.25)
            .with_latency(LatencyModel::wan());
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.loss, 0.25);
        assert_eq!(cfg.latency.base, Duration::from_millis(40));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn loss_out_of_range_panics() {
        let _ = NetConfig::ideal().with_loss(1.5);
    }

    #[test]
    fn presets_are_sane() {
        assert!(LatencyModel::wireless_lan().base < LatencyModel::wan().base);
        assert_eq!(
            LatencyModel::fixed(Duration::from_millis(9)).jitter,
            Duration::ZERO
        );
    }
}
