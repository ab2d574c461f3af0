//! Opt-in shadow recorder: dynamic cross-validation of the static
//! WAR-hazard analysis in `schematic-core`.
//!
//! When enabled (see [`crate::RunConfig::shadow_war`]), the machine
//! records the actual first-access order of every **word** of every
//! variable's NVM home per inter-checkpoint *epoch* — the dynamic
//! counterpart of the static analysis' region, at the same per-element
//! granularity as its index-sensitive footprints. An epoch begins at
//! boot, at every checkpoint commit, and again whenever a power failure
//! rolls execution back to a committed checkpoint (re-execution restarts
//! the epoch: the first attempt's reads can no longer pair with the
//! retry's writes).
//!
//! An **observed WAR** is an NVM-level read of a word followed, in the
//! same epoch, by an NVM-level write to the same word. The recorded
//! events are exactly the emulator's real NVM traffic:
//!
//! * reads — NVM-class `load`s (the addressed word only), and every
//!   fault/restore load into VM (boot staging, failure restore,
//!   checkpoint wake-up or migration, implicit restores, `restorevar`) —
//!   whole-variable, since staging copies every word;
//! * writes — NVM-class `store`s (the addressed word only),
//!   residency-reconciliation flushes of dirty VM copies and `savevar`
//!   flushes (whole-variable).
//!
//! Checkpoint *commit* flushes are not writes here: they land atomically
//! with the new resume image (a torn commit takes no effect at all), so
//! re-execution can never start before them.
//!
//! The contract checked by callers (e.g. the `soundcheck` experiment and
//! the randomized cross-validation tests): every observed WAR must be
//! *covered* by the static analysis — its variable predicted, and the
//! observed word inside some predicted anomaly footprint
//! (`AnomalyReport::predicts_element`) — i.e. the static pass has no
//! false negatives, per element. The recorder is off by default and the
//! fused block dispatch is disabled while it runs, so enabled runs are
//! slower but metrics stay bit-identical to unshadowed runs.

use schematic_ir::{CheckpointId, VarId};

/// Label of one dynamic inter-checkpoint epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EpochStart {
    /// From first boot (or a failure before any commit) to the first
    /// checkpoint commit.
    Boot,
    /// Opened by a commit of this checkpoint (or a failure rolling back
    /// to it).
    Checkpoint(CheckpointId),
}

/// One dynamically observed WAR: word `elem` of `var`'s NVM home was
/// read and later written within the epoch labeled `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedWar {
    /// The epoch the read/write pair occurred in.
    pub epoch: EpochStart,
    /// The variable whose NVM home was read then written.
    pub var: VarId,
    /// The word offset within `var` that was read then written.
    pub elem: u32,
}

/// Everything the shadow recorder observed during one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShadowReport {
    /// Observed WARs, deduplicated per `(var, elem)` (first epoch wins).
    pub wars: Vec<ObservedWar>,
    /// Number of epochs entered (boot + commits + failure rollbacks).
    pub epochs: u64,
    /// NVM-level read events recorded (one per access, not per word).
    pub nvm_reads: u64,
    /// NVM-level write events recorded (one per access, not per word).
    pub nvm_writes: u64,
}

impl ShadowReport {
    /// The distinct variables with at least one observed WAR.
    pub fn war_vars(&self) -> Vec<VarId> {
        let mut vars: Vec<VarId> = self.wars.iter().map(|w| w.var).collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// The distinct `(var, word)` pairs with an observed WAR.
    pub fn war_elems(&self) -> Vec<(VarId, u32)> {
        let mut elems: Vec<(VarId, u32)> = self.wars.iter().map(|w| (w.var, w.elem)).collect();
        elems.sort_unstable();
        elems.dedup();
        elems
    }
}

/// Per-run recording state. Lives inside the machine only when shadow
/// mode is on; every hook is behind an `Option` check so the default
/// hot path pays one branch on the cold (fault/flush) paths only.
///
/// Word state is stored flat: `base[v] .. base[v] + words[v]` are the
/// per-word flags of variable `v`.
#[derive(Debug)]
pub(crate) struct ShadowRecorder {
    epoch: EpochStart,
    /// Start of each var's word flags in the flat arrays.
    base: Vec<usize>,
    /// Words per var (mirror of the module layout at construction).
    words: Vec<usize>,
    /// Per-word: read from NVM in the current epoch.
    read_in_epoch: Vec<bool>,
    /// Per-word: already reported (dedup).
    warred: Vec<bool>,
    report: ShadowReport,
}

impl ShadowRecorder {
    pub(crate) fn new(var_words: impl IntoIterator<Item = usize>) -> Self {
        let words: Vec<usize> = var_words.into_iter().collect();
        let mut base = Vec::with_capacity(words.len());
        let mut total = 0usize;
        for &w in &words {
            base.push(total);
            total += w;
        }
        ShadowRecorder {
            epoch: EpochStart::Boot,
            base,
            words,
            read_in_epoch: vec![false; total],
            warred: vec![false; total],
            report: ShadowReport {
                epochs: 1, // boot epoch
                ..ShadowReport::default()
            },
        }
    }

    /// Starts a new epoch; prior reads can no longer pair with writes.
    pub(crate) fn begin_epoch(&mut self, epoch: EpochStart) {
        self.epoch = epoch;
        self.read_in_epoch.fill(false);
        self.report.epochs += 1;
    }

    fn mark_read(&mut self, var: VarId, elem: usize) {
        self.read_in_epoch[self.base[var.index()] + elem] = true;
    }

    fn mark_write(&mut self, var: VarId, elem: usize) {
        let w = self.base[var.index()] + elem;
        if self.read_in_epoch[w] && !self.warred[w] {
            self.warred[w] = true;
            self.report.wars.push(ObservedWar {
                epoch: self.epoch,
                var,
                elem: elem as u32,
            });
        }
    }

    /// Whole-variable NVM read (fault/restore staging copies every word).
    pub(crate) fn record_read(&mut self, var: VarId) {
        self.report.nvm_reads += 1;
        for e in 0..self.words[var.index()] {
            self.mark_read(var, e);
        }
    }

    /// Whole-variable NVM write (reconcile/`savevar` flushes every word).
    pub(crate) fn record_write(&mut self, var: VarId) {
        self.report.nvm_writes += 1;
        for e in 0..self.words[var.index()] {
            self.mark_write(var, e);
        }
    }

    /// NVM-class load of one word.
    pub(crate) fn record_read_at(&mut self, var: VarId, elem: usize) {
        self.report.nvm_reads += 1;
        self.mark_read(var, elem);
    }

    /// NVM-class store of one word.
    pub(crate) fn record_write_at(&mut self, var: VarId, elem: usize) {
        self.report.nvm_writes += 1;
        self.mark_write(var, elem);
    }

    pub(crate) fn into_report(self) -> ShadowReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_then_write_in_one_epoch_is_a_war() {
        let mut r = ShadowRecorder::new([1, 1]);
        r.record_read(VarId(0));
        r.record_write(VarId(0));
        let rep = r.into_report();
        assert_eq!(
            rep.wars,
            vec![ObservedWar {
                epoch: EpochStart::Boot,
                var: VarId(0),
                elem: 0,
            }]
        );
        assert_eq!(rep.nvm_reads, 1);
        assert_eq!(rep.nvm_writes, 1);
    }

    #[test]
    fn write_before_read_is_not_a_war() {
        let mut r = ShadowRecorder::new([1]);
        r.record_write(VarId(0));
        r.record_read(VarId(0));
        assert!(r.into_report().wars.is_empty());
    }

    #[test]
    fn epoch_boundary_clears_reads() {
        let mut r = ShadowRecorder::new([1]);
        r.record_read(VarId(0));
        r.begin_epoch(EpochStart::Checkpoint(CheckpointId(0)));
        r.record_write(VarId(0));
        let rep = r.into_report();
        assert!(rep.wars.is_empty());
        assert_eq!(rep.epochs, 2);
    }

    #[test]
    fn wars_dedupe_per_var() {
        let mut r = ShadowRecorder::new([1]);
        r.record_read(VarId(0));
        r.record_write(VarId(0));
        r.record_write(VarId(0));
        assert_eq!(r.into_report().wars.len(), 1);
    }

    #[test]
    fn disjoint_elements_are_not_a_war() {
        // read word 1, write word 0 of the same array: no per-element WAR.
        let mut r = ShadowRecorder::new([4]);
        r.record_read_at(VarId(0), 1);
        r.record_write_at(VarId(0), 0);
        assert!(r.into_report().wars.is_empty());
    }

    #[test]
    fn same_element_war_reports_offset() {
        let mut r = ShadowRecorder::new([4]);
        r.record_read_at(VarId(0), 2);
        r.record_write_at(VarId(0), 2);
        let rep = r.into_report();
        assert_eq!(rep.wars.len(), 1);
        assert_eq!(rep.wars[0].elem, 2);
        assert_eq!(rep.war_elems(), vec![(VarId(0), 2)]);
    }

    #[test]
    fn whole_write_pairs_with_element_read() {
        // A reconcile flush (whole write) after an indexed read WARs the
        // read word only.
        let mut r = ShadowRecorder::new([3]);
        r.record_read_at(VarId(0), 1);
        r.record_write(VarId(0));
        let rep = r.into_report();
        assert_eq!(rep.war_elems(), vec![(VarId(0), 1)]);
    }
}
