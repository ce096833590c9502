//! Experiment scale control.
//!
//! Every figure binary supports two scales, chosen by the `IBIS_SCALE`
//! environment variable:
//!
//! * `quick` (default) — data volumes divided by [`QUICK_DIVISOR`], so the
//!   full figure set regenerates in minutes. Shapes (who wins, by what
//!   factor) are preserved; absolute seconds shrink.
//! * `paper` — the paper's own volumes (1 TB TeraGen, 50 GB WordCount, …).

use ibis_simcore::units::GIB;

/// Volume divisor of the quick profile.
pub const QUICK_DIVISOR: u64 = 8;

/// The selected experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleProfile {
    /// Downscaled for fast regeneration.
    Quick,
    /// The paper's data volumes.
    Paper,
}

impl ScaleProfile {
    /// Reads `IBIS_SCALE` (`quick` | `paper`), defaulting to quick.
    pub fn from_env() -> Self {
        match std::env::var("IBIS_SCALE").as_deref() {
            Ok("paper") | Ok("full") => ScaleProfile::Paper,
            _ => ScaleProfile::Quick,
        }
    }

    /// Scales a paper-sized byte volume.
    pub fn bytes(self, paper_bytes: u64) -> u64 {
        match self {
            ScaleProfile::Paper => paper_bytes,
            ScaleProfile::Quick => (paper_bytes / QUICK_DIVISOR).max(GIB),
        }
    }

    /// Human-readable label for report headers.
    pub fn label(self) -> &'static str {
        match self {
            ScaleProfile::Paper => "paper scale",
            ScaleProfile::Quick => "quick scale (volumes / 8)",
        }
    }
}

/// Reads `IBIS_BENCH_NODES` for topology-parameterized benches
/// (`bench_scale`), falling back to `default`. Unparsable
/// or zero values fall back too — a bench should never panic over an
/// environment typo, it should run the documented default.
pub fn bench_nodes(default: u32) -> u32 {
    std::env::var("IBIS_BENCH_NODES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_simcore::units::TIB;

    #[test]
    fn quick_divides_and_floors() {
        assert_eq!(ScaleProfile::Quick.bytes(TIB), TIB / 8);
        assert_eq!(ScaleProfile::Quick.bytes(GIB), GIB); // floor at 1 GiB
        assert_eq!(ScaleProfile::Paper.bytes(TIB), TIB);
    }

    #[test]
    fn bench_nodes_defaults_without_env() {
        // The test runner does not set IBIS_BENCH_NODES; the default
        // passes through. (Env-var mutation is process-global, so the
        // override path is covered by parsing, not by setenv here.)
        if std::env::var("IBIS_BENCH_NODES").is_err() {
            assert_eq!(bench_nodes(64), 64);
        }
    }
}
