//! Enumeration of modules and configurations.
//!
//! A *configuration* describes one machine of a well-structured schedule: the
//! multiset of module sizes it hosts (sizes measured in units of `δ²T`),
//! constrained by the machine capacity `T̄` and the class-slot budget `c*`.

use ccs_core::par::par_map_ctx;
use ccs_core::{Result, SolveContext};

/// A configuration: a non-increasing multiset of module sizes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Config {
    /// Module sizes in units of `δ²T`, non-increasing.
    pub(crate) parts: Vec<u64>,
    /// `Λ(K) = Σ parts` — the configuration size.
    pub(crate) total: u64,
    /// `‖K‖₁` — the number of modules (class slots used).
    pub(crate) count: u64,
}

impl Config {
    fn new(parts: Vec<u64>) -> Self {
        let total = parts.iter().sum();
        let count = parts.len() as u64;
        Config {
            parts,
            total,
            count,
        }
    }

    /// Number of modules of size `q` in this configuration.
    #[cfg(test)]
    pub(crate) fn multiplicity(&self, q: u64) -> u64 {
        self.parts.iter().filter(|&&p| p == q).count() as u64
    }

    /// Every distinct module size of this configuration with its
    /// multiplicity, largest size first.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.parts
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u64))
    }

    /// The group `(h, b) = (Λ(K), ‖K‖₁)` of this configuration, used for the
    /// small-class constraints (2) and (3) of the paper.
    pub(crate) fn group(&self) -> (u64, u64) {
        (self.total, self.count)
    }
}

/// Enumerates every configuration with parts drawn from `sizes`
/// (each usable any number of times), total at most `max_total` and at most
/// `max_count` parts.  The empty configuration is included — machines may
/// stay (partially) empty and are then available for small classes.
///
/// The enumeration is exponential in `1/δ`, so it polls `ctx`: a deadline
/// can interrupt it before any ILP is even built.
pub(crate) fn enumerate_configs_ctx(
    sizes: &[u64],
    max_total: u64,
    max_count: u64,
    ctx: &SolveContext,
) -> Result<Vec<Config>> {
    let mut sizes: Vec<u64> = sizes
        .iter()
        .copied()
        .filter(|&s| s > 0 && s <= max_total)
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    if sizes.len() < PAR_SIZE_THRESHOLD || max_count == 0 {
        let mut out = Vec::new();
        let mut parts = Vec::new();
        recurse(
            &sizes,
            sizes.len(),
            max_total,
            max_count,
            &mut parts,
            &mut out,
            ctx,
        )?;
        return Ok(out);
    }

    // Parallel fan-out over the top-level branch: the sequential recursion
    // emits the empty configuration first and then one subtree per largest
    // part `sizes[idx]`, `idx` descending.  Each subtree is enumerated
    // independently (its own cursor and output buffer) and the buffers are
    // concatenated in branch order, reproducing the sequential output
    // byte-for-byte regardless of the thread count.
    let branches: Vec<usize> = (0..sizes.len()).rev().collect();
    let subtrees = par_map_ctx(ctx, &branches, |_, &idx| {
        let size = sizes[idx];
        let mut branch_out = Vec::new();
        if size <= max_total {
            let mut parts = vec![size];
            recurse(
                &sizes,
                idx + 1,
                max_total - size,
                max_count - 1,
                &mut parts,
                &mut branch_out,
                ctx,
            )?;
        }
        Ok(branch_out)
    })?;
    let mut out = Vec::with_capacity(1 + subtrees.iter().map(Vec::len).sum::<usize>());
    out.push(Config::new(Vec::new()));
    for subtree in subtrees {
        out.extend(subtree);
    }
    Ok(out)
}

/// Minimum number of distinct sizes before the enumeration fans out across
/// threads.  Small enumerations finish in microseconds — far below the cost
/// of spawning workers — and the threshold is a pure function of the input,
/// never of the machine, so the decision is deterministic.
const PAR_SIZE_THRESHOLD: usize = 16;

/// How many configurations are emitted between two context checkpoints; a
/// power of two so the test is a mask.
const CTX_CHECK_MASK: usize = 0x3FF;

#[allow(clippy::too_many_arguments)]
fn recurse(
    sizes: &[u64],
    max_size_idx: usize,
    remaining_total: u64,
    remaining_count: u64,
    parts: &mut Vec<u64>,
    out: &mut Vec<Config>,
    ctx: &SolveContext,
) -> Result<()> {
    out.push(Config::new(parts.clone()));
    if out.len() & CTX_CHECK_MASK == 0 {
        ctx.checkpoint()?;
    }
    if remaining_count == 0 {
        return Ok(());
    }
    for idx in (0..max_size_idx).rev() {
        let size = sizes[idx];
        if size > remaining_total {
            continue;
        }
        parts.push(size);
        recurse(
            sizes,
            idx + 1,
            remaining_total - size,
            remaining_count - 1,
            parts,
            out,
            ctx,
        )?;
        parts.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enumerate_configs(sizes: &[u64], max_total: u64, max_count: u64) -> Vec<Config> {
        enumerate_configs_ctx(sizes, max_total, max_count, &SolveContext::unbounded()).unwrap()
    }

    #[test]
    fn small_enumeration_is_exhaustive() {
        // Sizes {2,3}, total <= 5, count <= 2:
        // [], [2], [3], [2,2], [3,2], [2? 3,3 = 6 > 5 no]
        let configs = enumerate_configs(&[2, 3], 5, 2);
        assert_eq!(configs.len(), 5);
        assert!(configs.iter().any(|c| c.parts == vec![3, 2]));
        assert!(configs.iter().all(|c| c.total <= 5 && c.count <= 2));
    }

    #[test]
    fn empty_configuration_present() {
        let configs = enumerate_configs(&[4], 3, 5);
        assert_eq!(configs.len(), 1);
        assert_eq!(configs[0].parts, Vec::<u64>::new());
        assert_eq!(configs[0].group(), (0, 0));
    }

    #[test]
    fn multiplicities_and_groups() {
        let configs = enumerate_configs(&[2], 6, 3);
        // [], [2], [2,2], [2,2,2]
        assert_eq!(configs.len(), 4);
        let full = configs.iter().find(|c| c.count == 3).unwrap();
        assert_eq!(full.multiplicity(2), 3);
        assert_eq!(full.runs().collect::<Vec<_>>(), [(2, 3)]);
        let mixed = Config::new(vec![5, 3, 3, 2]);
        assert_eq!(mixed.runs().collect::<Vec<_>>(), [(5, 1), (3, 2), (2, 1)]);
        assert_eq!(full.group(), (6, 3));
    }

    #[test]
    fn no_duplicate_configurations() {
        let configs = enumerate_configs(&[2, 3, 4, 5], 12, 4);
        let mut seen = std::collections::HashSet::new();
        for c in &configs {
            assert!(seen.insert(c.parts.clone()), "duplicate {:?}", c.parts);
        }
    }

    #[test]
    fn parallel_fanout_matches_the_sequential_order() {
        // 39 distinct sizes crosses PAR_SIZE_THRESHOLD, so this enumerates
        // across threads; forcing one worker must give the identical vector
        // in the identical order.
        let sizes: Vec<u64> = (2..=40).collect();
        let parallel = enumerate_configs(&sizes, 40, 4);
        ccs_core::par::set_threads(Some(1));
        let sequential = enumerate_configs(&sizes, 40, 4);
        ccs_core::par::set_threads(None);
        assert_eq!(parallel, sequential);
        assert_eq!(parallel[0].parts, Vec::<u64>::new());
    }

    #[test]
    fn growth_with_finer_accuracy() {
        let coarse = enumerate_configs(&(2..=12).collect::<Vec<_>>(), 12, 6).len();
        let fine = enumerate_configs(&(4..=32).collect::<Vec<_>>(), 32, 8).len();
        assert!(fine > coarse);
    }
}
