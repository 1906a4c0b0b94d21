//! The guess search every scheme runs: a geometric grid of makespan guesses
//! between the constant-factor lower and upper bound, searched for the
//! smallest guess the scheme's decision procedure accepts.
//!
//! [`search`] builds the grid `lb·(1+δ)^k` up to the constant-factor
//! makespan and hands it to a multiway (parallel) variant of binary search.
//! A plain binary search is inherently sequential — each probe depends on
//! the previous verdict — so [`smallest_accepted`] probes [`ARITY`] evenly
//! spaced indices per round through [`par_map_ctx`] and narrows to the
//! sub-interval between the last rejecting and the first accepting probe.
//!
//! Determinism: the probe set of every round is a pure function of the
//! current interval — never of the thread count or of probe timing — and the
//! round's verdicts are merged in index order.  Serial and parallel runs
//! therefore evaluate exactly the same guesses in the same round structure
//! and return bit-identical results (including the `guesses_evaluated`
//! count), which the `ccs-verify` mode-equivalence pass asserts wholesale.

use crate::params::PtasParams;
use crate::result::PtasResult;
use ccs_core::par::par_map_ctx;
use ccs_core::{CcsError, Instance, Rational, Result, SolveContext, SolveReport};

/// Practical limit on the number of machines: the configuration ILP branches
/// on per-configuration counts up to `m`.  Larger machine counts are served
/// by the constant-factor algorithms of `ccs-approx`, which handle
/// exponentially many machines.
pub(crate) const MAX_MACHINES: u64 = 64;

/// The input checks every scheme makes before its constant-factor warm
/// start: enough class slots for every class, and at most [`MAX_MACHINES`].
pub(crate) fn check_input(inst: &Instance, scheme: &str) -> Result<()> {
    if !inst.is_feasible() {
        return Err(CcsError::infeasible("more classes than class slots"));
    }
    if inst.machines() > MAX_MACHINES {
        return Err(CcsError::invalid_parameter(format!(
            "{scheme} PTAS supports at most {MAX_MACHINES} machines; use ccs-approx for larger m"
        )));
    }
    Ok(())
}

/// Searches the guess grid of one scheme run.
///
/// `warm` is the constant-factor report: its makespan ends the grid and its
/// schedule is the answer when no guess is accepted (the ILP may exhaust its
/// node budget).  `lb` is the scheme's lower bound on the optimum and starts
/// the grid.  `decide` evaluates one guess and returns its certificate;
/// `finish` turns the smallest accepted guess's certificate into the
/// schedule plus its configuration count, so a scheme whose decision
/// already builds the schedule passes it through, and one that does not
/// builds it for the winner only.
///
/// When the constant-factor makespan is at most `lb`, its schedule is
/// optimal and the grid is the single point `lb`: nothing is evaluated.
pub(crate) fn search<S, C: Send>(
    ctx: &SolveContext,
    params: PtasParams,
    warm: SolveReport<S>,
    lb: Rational,
    decide: impl Fn(Rational) -> Result<Option<C>> + Sync,
    finish: impl FnOnce(Rational, C) -> (S, usize),
) -> Result<PtasResult<S>> {
    let ub = warm.makespan;
    let fallback = |guesses_evaluated| PtasResult {
        schedule: warm.schedule,
        guess: ub,
        lower_bound: lb,
        guesses_evaluated,
        configurations: 0,
    };
    if ub <= lb {
        return Ok(fallback(0));
    }
    let step = Rational::ONE + Rational::new(1, params.delta_inv() as i128);
    let mut grid = vec![lb];
    while *grid.last().unwrap() < ub {
        let next = *grid.last().unwrap() * step;
        grid.push(next);
    }
    let cutoff = ctx
        .warm_hint()
        .map(|hint| warm_cutoff(&grid, hint.makespan));
    let (best, evaluated) =
        smallest_accepted_hinted(ctx, grid.len(), cutoff, |index| decide(grid[index]))?;
    Ok(match best {
        Some((index, certificate)) => {
            let (schedule, configurations) = finish(grid[index], certificate);
            PtasResult {
                schedule,
                guess: grid[index],
                lower_bound: lb,
                guesses_evaluated: evaluated,
                configurations,
            }
        }
        None => fallback(evaluated),
    })
}

/// Probes per round.  With at least this many workers every round costs one
/// probe's latency; the interval shrinks by ~`1/(ARITY - 1)` per round.
const ARITY: usize = 4;

/// Finds the smallest index in `0..len` whose `evaluate` returns
/// `Some(certificate)`, assuming upward-closed feasibility (the guess grid
/// is monotone: if a guess is feasible, every larger one is too).
///
/// Returns the winning `(index, certificate)` — or `None` when every probed
/// index rejects — plus the number of evaluated probes.  `evaluate` runs
/// under [`par_map_ctx`], so it must be thread-safe and should poll the
/// context itself if a single probe can be slow.
fn smallest_accepted<C, F>(
    ctx: &SolveContext,
    len: usize,
    evaluate: F,
) -> Result<(Option<(usize, C)>, usize)>
where
    C: Send,
    F: Fn(usize) -> Result<Option<C>> + Sync,
{
    let mut best: Option<(usize, C)> = None;
    let mut evaluated = 0usize;
    if len == 0 {
        return Ok((best, evaluated));
    }
    let (mut lo, mut hi) = (0usize, len - 1);
    loop {
        ctx.checkpoint()?;
        let span = hi - lo + 1;
        // Like the binary search this replaces, wide rounds never probe `lo`
        // itself: proving a low guess *infeasible* is the decider's most
        // expensive outcome (the configuration ILP must exhaust its search),
        // so the lowest indices are only evaluated once everything above
        // them has accepted and the interval has narrowed onto them.
        let probes: Vec<usize> = if span <= ARITY {
            (lo..=hi).collect()
        } else {
            // Evenly spaced over (lo, hi], ending exactly at `hi`; offsets
            // are strictly increasing and at least 1 because span > ARITY.
            (1..=ARITY)
                .map(|j| lo + (j * (span - 1)).div_ceil(ARITY))
                .collect()
        };
        evaluated += probes.len();
        let verdicts = par_map_ctx(ctx, &probes, |_, &index| evaluate(index))?;

        let accepted = verdicts
            .into_iter()
            .enumerate()
            .find_map(|(j, verdict)| verdict.map(|cert| (j, cert)));
        match accepted {
            Some((j, cert)) => {
                let index = probes[j];
                best = Some((index, cert));
                if index == lo {
                    // The smallest index of the interval accepted; nothing
                    // below it is left to try.
                    return Ok((best, evaluated));
                }
                // Everything below the first accepting probe is still open —
                // bounded below by the probe that rejected, when there is one.
                if j > 0 {
                    lo = probes[j - 1] + 1;
                }
                hi = index - 1;
                if lo > hi {
                    return Ok((best, evaluated));
                }
            }
            // The last probe is always `hi`, so a fully rejecting round
            // empties the interval under monotonicity.
            None => return Ok((best, evaluated)),
        }
    }
}

/// The prefix cutoff of a warm-started grid search: the index of the first
/// grid point at or above the parent makespan `hint`, plus one step of slack
/// (a mutation usually moves the optimum by at most a grid step), clamped
/// into the grid.
fn warm_cutoff(grid: &[Rational], hint: Rational) -> usize {
    let at = grid.partition_point(|&g| g < hint);
    (at + 1).min(grid.len().saturating_sub(1))
}

/// [`smallest_accepted`] with an optional warm-start prefix: when `cutoff`
/// is present, indices `0..=cutoff` are searched first — a parent solution's
/// makespan says the winner is almost certainly in there — and the remainder
/// only when the whole prefix rejects.
///
/// Under the upward-closed feasibility the plain search already assumes,
/// the returned `(index, certificate)` is **identical** to the cold result
/// for every cutoff: a prefix accept at `i` is the globally smallest accept
/// (everything above `i` also accepts), and a fully rejecting prefix proves
/// the winner (if any) lies above it.  Only the probe count — and therefore
/// `guesses_evaluated` — may differ; the `ccs-verify` warm-equivalence pass
/// compares everything *but* the work counters for exactly this reason.
///
/// Records the outcome on `ctx`: a warm *hit* when the prefix produced the
/// winner, a *miss* when the hint did not narrow the grid or the search had
/// to fall through to the remainder.
fn smallest_accepted_hinted<C, F>(
    ctx: &SolveContext,
    len: usize,
    cutoff: Option<usize>,
    evaluate: F,
) -> Result<(Option<(usize, C)>, usize)>
where
    C: Send,
    F: Fn(usize) -> Result<Option<C>> + Sync,
{
    let Some(cutoff) = cutoff else {
        return smallest_accepted(ctx, len, evaluate);
    };
    if len == 0 {
        return Ok((None, 0));
    }
    let prefix = cutoff.saturating_add(1).min(len);
    if prefix >= len {
        ctx.record_warm(false); // the hint spans the whole grid: nothing saved
        return smallest_accepted(ctx, len, evaluate);
    }
    let (best, evaluated) = smallest_accepted(ctx, prefix, &evaluate)?;
    if best.is_some() {
        ctx.record_warm(true);
        return Ok((best, evaluated));
    }
    ctx.record_warm(false);
    let (rest, rest_evaluated) = smallest_accepted(ctx, len - prefix, |i| evaluate(i + prefix))?;
    Ok((
        rest.map(|(index, cert)| (index + prefix, cert)),
        evaluated + rest_evaluated,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: evaluate every index left to right.
    fn linear_scan(len: usize, first_true: Option<usize>) -> Option<usize> {
        (0..len).find(|&i| first_true.is_some_and(|t| i >= t))
    }

    #[test]
    fn finds_the_boundary_on_every_threshold() {
        let ctx = SolveContext::unbounded();
        for len in [1usize, 2, 3, 4, 5, 7, 8, 16, 33, 100] {
            for threshold in 0..=len {
                let first_true = (threshold < len).then_some(threshold);
                let (found, evaluated) =
                    smallest_accepted(&ctx, len, |index| Ok((index >= threshold).then_some(index)))
                        .unwrap();
                assert_eq!(
                    found.map(|(index, _)| index),
                    linear_scan(len, first_true),
                    "len {len}, threshold {threshold}"
                );
                assert!(evaluated <= len.max(1) * ARITY, "probe count exploded");
            }
        }
    }

    #[test]
    fn probe_count_is_a_pure_function_of_len_and_threshold() {
        let ctx = SolveContext::unbounded();
        let mut counts = Vec::new();
        for _ in 0..3 {
            let (_, evaluated) =
                smallest_accepted(&ctx, 57, |index| Ok((index >= 41).then_some(()))).unwrap();
            counts.push(evaluated);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn hinted_search_finds_the_same_boundary_for_every_cutoff() {
        let ctx = SolveContext::unbounded();
        for len in [1usize, 2, 3, 5, 8, 16, 33] {
            for threshold in 0..=len {
                let cold =
                    smallest_accepted(&ctx, len, |index| Ok((index >= threshold).then_some(index)))
                        .unwrap()
                        .0
                        .map(|(index, _)| index);
                for cutoff in 0..len + 2 {
                    let (found, _) = smallest_accepted_hinted(&ctx, len, Some(cutoff), |index| {
                        Ok((index >= threshold).then_some(index))
                    })
                    .unwrap();
                    assert_eq!(
                        found.map(|(index, _)| index),
                        cold,
                        "len {len}, threshold {threshold}, cutoff {cutoff}"
                    );
                }
            }
        }
    }

    #[test]
    fn hinted_search_records_hits_and_misses() {
        let sink = std::sync::Arc::new(ccs_core::StatsSink::default());
        let ctx = SolveContext::unbounded().with_stats(std::sync::Arc::clone(&sink));
        // Winner inside the prefix: a hit.
        let (found, _) =
            smallest_accepted_hinted(
                &ctx,
                20,
                Some(10),
                |index| Ok((index >= 4).then_some(index)),
            )
            .unwrap();
        assert_eq!(found.map(|(index, _)| index), Some(4));
        // Winner above the prefix: a miss, then found in the remainder.
        let (found, _) =
            smallest_accepted_hinted(
                &ctx,
                20,
                Some(5),
                |index| Ok((index >= 14).then_some(index)),
            )
            .unwrap();
        assert_eq!(found.map(|(index, _)| index), Some(14));
        // Cutoff spanning the whole grid: a miss, plain search.
        let (found, _) =
            smallest_accepted_hinted(
                &ctx,
                20,
                Some(25),
                |index| Ok((index >= 2).then_some(index)),
            )
            .unwrap();
        assert_eq!(found.map(|(index, _)| index), Some(2));
        let snap = sink.snapshot();
        assert_eq!((snap.warm_hits, snap.warm_misses), (1, 2));
    }

    #[test]
    fn warm_cutoff_lands_one_step_past_the_hint() {
        let grid: Vec<Rational> = (1..=10).map(Rational::from).collect();
        assert_eq!(warm_cutoff(&grid, Rational::from(4)), 4);
        assert_eq!(warm_cutoff(&grid, Rational::new(7, 2)), 4);
        assert_eq!(warm_cutoff(&grid, Rational::ZERO), 1);
        assert_eq!(warm_cutoff(&grid, Rational::from(1_000)), 9);
        assert_eq!(warm_cutoff(&[Rational::ONE], Rational::ONE), 0);
    }

    #[test]
    fn errors_propagate_out_of_the_probes() {
        let ctx = SolveContext::unbounded();
        let result = smallest_accepted(&ctx, 16, |index| {
            if index >= 8 {
                Err(ccs_core::CcsError::internal("probe exploded"))
            } else {
                Ok(None::<()>)
            }
        });
        assert!(result.is_err());
    }
}
