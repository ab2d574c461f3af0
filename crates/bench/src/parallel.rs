//! Work-stealing parallel map for the experiment driver.
//!
//! Experiment grids are embarrassingly parallel: every `(technique,
//! benchmark, tbpf)` cell compiles and emulates independently. The
//! driver fans the cells out over `std::thread::scope` workers that
//! claim indices from a shared atomic counter — no dependencies beyond
//! `std`, and results come back in input order, so the rendered report
//! is byte-identical to a serial run.
//!
//! This is the intra-process rung of the scale ladder; the inter-process
//! rung is [`crate::grid`]'s shard/merge pipeline (`gridrun`), whose
//! per-shard [`crate::grid::CellStore::compute`] calls fan out through
//! this driver.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count: `SCHEMATIC_JOBS` when set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn jobs() -> usize {
    match std::env::var("SCHEMATIC_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Applies `f` to every item using [`jobs`] worker threads; results are
/// returned in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_jobs(items, jobs(), f)
}

/// [`par_map`] with an explicit worker count.
///
/// Workers steal the next unprocessed index from a shared counter, so
/// one expensive cell only stalls the thread it runs on. A panic inside
/// `f` propagates to the caller.
pub fn par_map_jobs<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_claimed(items, jobs, |k| k, f)
}

/// [`par_map_jobs`] that hands items out largest first by `size` (the
/// longest-processing-time rule); results still come back in input
/// order. When a few items outweigh the rest, this keeps a worker from
/// picking up a large one just as the others run out of work.
pub fn par_map_largest_first<T, R, F>(
    items: &[T],
    jobs: usize,
    size: impl Fn(&T) -> usize,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(size(&items[i])));
    map_claimed(items, jobs, |k| order[k], f)
}

/// The `k`-th claim takes item `claim(k)`; `claim` must be a
/// permutation of the indices.
fn map_claimed<T, R, F>(
    items: &[T],
    jobs: usize,
    claim: impl Fn(usize) -> usize + Sync,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (f, claim) = (&f, &claim);
    let collected: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        let i = claim(k);
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("experiment worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in collected {
        debug_assert!(out[i].is_none(), "index claimed twice");
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let serial = par_map_jobs(&items, 1, |&x| x * 3);
        let parallel = par_map_jobs(&items, 8, |&x| x * 3);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[41], 123);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_jobs(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map_jobs(&[7], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn largest_first_returns_input_order() {
        let items: Vec<usize> = (0..100).map(|x| (x * 37) % 101).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x + 1).collect();
        for jobs in [1, 2, 8] {
            assert_eq!(
                par_map_largest_first(&items, jobs, |&x| x, |&x| x + 1),
                expect
            );
        }
    }

    #[test]
    fn more_jobs_than_items() {
        let items = [1, 2, 3];
        assert_eq!(par_map_jobs(&items, 64, |&x| x), vec![1, 2, 3]);
    }
}
