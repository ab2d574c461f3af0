//! Configuration of the SCHEMATIC analysis.

use schematic_energy::Energy;

/// Tunables for one compilation: the §II-B inputs `EB` and `SVM`, the
/// profiling depth, and the two design choices the ablations toggle.
#[derive(Debug, Clone, PartialEq)]
pub struct SchematicConfig {
    /// Usable capacitor energy `EB`: every inter-checkpoint interval's
    /// worst-case energy (restore + execute + save) must fit in it.
    pub eb: Energy,
    /// Volatile-memory capacity `SVM` in bytes (MSP430FR5969: 2048).
    pub svm_bytes: usize,
    /// Number of profiling runs used to rank paths by frequency
    /// (§III-A.3; the paper uses 1000 runs with random inputs).
    pub profile_runs: usize,
    /// Apply the liveness optimization of Eq. 2 (skip saving dead
    /// variables / restoring write-first scalars). Disable for the
    /// ablation bench.
    pub liveness_opt: bool,
    /// Order VM candidates by gain/size ratio (§III-A.2). When `false`,
    /// candidates are ordered by raw gain — the naive ordering the
    /// ratio rule improves upon (ablation).
    pub ratio_ordering: bool,
}

impl SchematicConfig {
    /// Defaults matching the paper's experimental setup for a given
    /// energy budget: 2 KB VM, liveness and ratio ordering on.
    pub fn new(eb: Energy) -> Self {
        SchematicConfig {
            eb,
            svm_bytes: 2048,
            profile_runs: 16,
            liveness_opt: true,
            ratio_ordering: true,
        }
    }

    /// The All-NVM ablation of §IV-E: no VM allocation at all (placement
    /// still runs).
    pub fn all_nvm(mut self) -> Self {
        self.svm_bytes = 0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_platform() {
        let c = SchematicConfig::new(Energy::from_uj(4));
        assert_eq!(c.svm_bytes, 2048);
        assert!(c.liveness_opt);
        assert!(c.ratio_ordering);
    }

    #[test]
    fn all_nvm_zeroes_vm() {
        let c = SchematicConfig::new(Energy::from_uj(4)).all_nvm();
        assert_eq!(c.svm_bytes, 0);
    }
}
