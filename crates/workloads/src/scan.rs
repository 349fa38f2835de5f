//! Read-heavy scan workload: the third leg of the A7 phase-shift
//! ablation (alongside Bank and the hot Hashtable).
//!
//! Each transaction reads a contiguous window of data cells, publishes
//! the observed sum into one of a few summary slots, and occasionally
//! increments one scanned cell (a semantic `TM_INC`). The profile is
//! the inverse of Bank's: a large read-set with a one-or-two-word
//! write-set — the regime where NOrec's single commit clock forces
//! every reader to revalidate its whole window on every commit, while
//! TL2 validates each read against its own orec.
//!
//! Invariants (cells only ever grow, one increment per writing tx):
//! * conservation — `Σ cells == cells·initial_value + total increments`;
//! * snapshot consistency — every published sum lies in
//!   `[window·initial_value, window·initial_value + total increments]`;
//!   a torn scan (half old, half new values of a moving window) can
//!   land outside only by observing an inconsistent snapshot.

use crate::driver::{run_for_duration, RunResult};
use semtm_core::util::SplitMix64;
use semtm_core::{Stm, TArray};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Scan configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScanConfig {
    /// Number of data cells.
    pub cells: usize,
    /// Cells read (contiguously, wrapping) per transaction.
    pub reads_per_tx: usize,
    /// Summary slots the observed sums are published into.
    pub summary_slots: usize,
    /// Per-mille probability that a transaction also increments one
    /// scanned cell (the workload's only mutation of the data).
    pub inc_per_mille: u32,
    /// Initial value of every data cell (nonzero keeps the published
    /// sum bound meaningful).
    pub initial_value: i64,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            cells: 256,
            reads_per_tx: 64,
            summary_slots: 16,
            inc_per_mille: 150,
            initial_value: 1,
        }
    }
}

/// Shared scan state over a transactional heap.
pub struct Scan {
    cells: TArray<i64>,
    summaries: TArray<i64>,
    config: ScanConfig,
}

impl Scan {
    /// Allocate and initialise the arrays on `stm`'s heap.
    pub fn new(stm: &Stm, config: ScanConfig) -> Scan {
        Scan {
            cells: TArray::new(stm, config.cells, config.initial_value),
            summaries: TArray::new(stm, config.summary_slots, 0),
            config,
        }
    }

    /// One workload transaction: scan a window, publish its sum, maybe
    /// increment one scanned cell. Returns 1 if the increment ran.
    pub fn scan_tx(&self, stm: &Stm, rng: &mut SplitMix64) -> u64 {
        let n = self.config.cells;
        let window = self.config.reads_per_tx.min(n);
        let start = rng.index(n);
        let slot = rng.index(self.config.summary_slots);
        let bump = if rng.below(1000) < self.config.inc_per_mille as u64 {
            Some((start + rng.index(window.max(1))) % n)
        } else {
            None
        };
        stm.atomic(|tx| {
            let mut sum = 0i64;
            for k in 0..window {
                sum += self.cells.read(tx, (start + k) % n)?;
            }
            self.summaries.write(tx, slot, sum)?;
            if let Some(i) = bump {
                self.cells.inc(tx, i, 1)?;
            }
            Ok(u64::from(bump.is_some()))
        })
    }

    /// Quiescent check of both invariants given the total number of
    /// increments the committed workload performed.
    pub fn verify(&self, stm: &Stm, total_incs: u64) -> Result<(), String> {
        let cfg = &self.config;
        let total: i64 = (0..cfg.cells).map(|i| self.cells.read_now(stm, i)).sum();
        let expected = cfg.cells as i64 * cfg.initial_value + total_incs as i64;
        if total != expected {
            return Err(format!("cell total {total} != expected {expected}"));
        }
        let window = cfg.reads_per_tx.min(cfg.cells) as i64;
        let lo = window * cfg.initial_value;
        let hi = lo + total_incs as i64;
        for s in 0..cfg.summary_slots {
            let v = self.summaries.read_now(stm, s);
            if v != 0 && !(lo..=hi).contains(&v) {
                return Err(format!(
                    "summary slot {s} holds {v}, outside consistent range [{lo}, {hi}]"
                ));
            }
        }
        Ok(())
    }
}

/// Measured run for the figure harness.
pub fn run(
    stm: &Stm,
    config: ScanConfig,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> RunResult {
    let scan = Scan::new(stm, config);
    let incs = AtomicU64::new(0);
    let r = run_for_duration(stm, threads, duration, seed, |_tid, rng| {
        incs.fetch_add(scan.scan_tx(stm, rng), Ordering::Relaxed);
    });
    scan.verify(stm, incs.load(Ordering::Relaxed))
        .expect("scan invariants violated");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::{Algorithm, StmConfig};

    fn small_stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 14).orec_count(1 << 10))
    }

    #[test]
    fn scan_preserves_invariants_on_all_algorithms() {
        for alg in Algorithm::ALL {
            let stm = small_stm(alg);
            let cfg = ScanConfig {
                cells: 64,
                reads_per_tx: 16,
                ..ScanConfig::default()
            };
            let r = run(&stm, cfg, 2, Duration::from_millis(30), 7);
            assert!(r.total_ops > 0, "{alg:?} made no progress");
        }
    }

    #[test]
    fn scan_profile_is_read_dominated() {
        let stm = small_stm(Algorithm::SNOrec);
        let cfg = ScanConfig {
            cells: 64,
            reads_per_tx: 32,
            ..ScanConfig::default()
        };
        let r = run(&stm, cfg, 1, Duration::from_millis(30), 3);
        let reads = r.stats.reads;
        let writes = r.stats.writes + r.stats.incs;
        assert!(
            reads > writes * 8,
            "expected read-heavy profile, got {reads} reads vs {writes} writes"
        );
    }

    #[test]
    fn torn_sums_are_reported() {
        let stm = small_stm(Algorithm::SNOrec);
        let scan = Scan::new(&stm, ScanConfig::default());
        // Forge an impossible published sum (larger than any consistent
        // snapshot allows) and check verify() rejects it.
        let mut rng = SplitMix64::new(1);
        let incs = scan.scan_tx(&stm, &mut rng);
        scan.summaries.write_now(&stm, 0, i64::MAX / 2);
        assert!(scan.verify(&stm, incs).is_err());
    }
}
