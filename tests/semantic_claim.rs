//! The paper's §4 claim, checked deterministically: semantic validation
//! never rejects a transaction that its base algorithm's validation
//! accepts. S-NOrec must commit whenever NOrec commits, and S-TL2
//! whenever TL2 commits, on the same history.
//!
//! Each seed builds one history on four cells. A transaction issues 1–4
//! random `cmp`s; a nested transaction on the same runtime then commits
//! 1–3 random writes to those cells, so the outer one must validate
//! against a concurrent commit; the outer one finishes with one more
//! barrier and one write. The history is single-threaded and timing-free,
//! so it replays identically on the base and the semantic engine.

use semtm::core::util::SplitMix64;
use semtm::{Abort, Algorithm, CmpOp, Stm, StmConfig};

const CELLS: usize = 4;
const SEEDS: u64 = 4_000;

/// A small value range makes the concurrent writes change some compare
/// outcomes and leave others as they were.
fn value(rng: &mut SplitMix64) -> i64 {
    rng.below(4) as i64
}

#[derive(Clone, Copy)]
enum Barrier {
    Read(usize),
    Cmp(usize, CmpOp, i64),
}

/// One seeded history.
struct History {
    init: [i64; CELLS],
    cmps: Vec<(usize, CmpOp, i64)>,
    writes: Vec<(usize, i64)>,
    barrier: Barrier,
    last_write: (usize, i64),
}

impl History {
    fn generate(seed: u64) -> History {
        let mut rng = SplitMix64::new(seed);
        let init = std::array::from_fn(|_| value(&mut rng));
        let cmp = |rng: &mut SplitMix64| {
            let op = CmpOp::ALL[rng.index(CmpOp::ALL.len())];
            (rng.index(CELLS), op, value(rng))
        };
        let cmps = (0..1 + rng.index(4)).map(|_| cmp(&mut rng)).collect();
        let writes = (0..1 + rng.index(3))
            .map(|_| (rng.index(CELLS), value(&mut rng)))
            .collect();
        let barrier = if rng.chance(50) {
            Barrier::Read(rng.index(CELLS))
        } else {
            let (c, op, v) = cmp(&mut rng);
            Barrier::Cmp(c, op, v)
        };
        let last_write = (rng.index(CELLS), value(&mut rng));
        History {
            init,
            cmps,
            writes,
            barrier,
            last_write,
        }
    }

    /// Run the history on a fresh `alg` runtime; `true` if the outer
    /// transaction committed.
    fn commits_on(&self, alg: Algorithm) -> bool {
        let stm = Stm::new(StmConfig::new(alg).heap_words(64).orec_count(64));
        let cells: Vec<_> = self.init.iter().map(|&v| stm.alloc_cell(v)).collect();
        stm.try_atomic(|tx| -> Result<(), Abort> {
            for &(c, op, v) in &self.cmps {
                tx.cmp(cells[c], op, v)?;
            }
            stm.atomic(|inner| {
                for &(c, v) in &self.writes {
                    inner.write(cells[c], v)?;
                }
                Ok(())
            });
            match self.barrier {
                Barrier::Read(c) => {
                    tx.read(cells[c])?;
                }
                Barrier::Cmp(c, op, v) => {
                    tx.cmp(cells[c], op, v)?;
                }
            }
            tx.write(cells[self.last_write.0], self.last_write.1)
        })
        .is_ok()
    }
}

/// Replay every seed on `base` and `semantic`. Panics on a seed the
/// base engine commits and the semantic one aborts, or if the run never
/// exercises the claim (no base abort, or no semantic rescue).
fn semantic_never_rejects_what_base_accepts(base: Algorithm, semantic: Algorithm) {
    let mut base_aborts = 0u64;
    let mut rescued = 0u64;
    for seed in 0..SEEDS {
        let history = History::generate(seed);
        let base_ok = history.commits_on(base);
        let semantic_ok = history.commits_on(semantic);
        assert!(
            !base_ok || semantic_ok,
            "seed {seed}: {base} commits but {semantic} aborts"
        );
        if !base_ok {
            base_aborts += 1;
            rescued += u64::from(semantic_ok);
        }
    }
    assert!(
        base_aborts > 0,
        "{base} never aborted: the check is vacuous"
    );
    assert!(
        rescued > 0,
        "{semantic} committed none of the {base_aborts} seeds {base} aborted"
    );
}

#[test]
fn snorec_commits_whenever_norec_commits() {
    semantic_never_rejects_what_base_accepts(Algorithm::NOrec, Algorithm::SNOrec);
}

#[test]
fn stl2_commits_whenever_tl2_commits() {
    semantic_never_rejects_what_base_accepts(Algorithm::Tl2, Algorithm::STl2);
}
