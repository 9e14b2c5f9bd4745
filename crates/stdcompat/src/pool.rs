//! Scoped worker pools over [`std::thread::scope`].
//!
//! Training fans work out over borrowed data (the feature matrix, the
//! label vector); scoped threads let workers borrow instead of clone.

/// Splits `items` into `n_workers` contiguous chunks and runs
/// `work(chunk_index, chunk)` on each chunk in its own scoped thread.
///
/// Chunks have size `ceil(len / n_workers)`, so chunk `i` starts at
/// item `i * ceil(len / n_workers)` — workers can recover global item
/// indices from the chunk index. With `n_workers <= 1` (or one item)
/// the work runs on the calling thread.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn for_each_chunk_mut<T, F>(items: &mut [T], n_workers: usize, work: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if items.is_empty() {
        return;
    }
    let chunk_size = items.len().div_ceil(n_workers.max(1));
    if n_workers <= 1 || chunk_size >= items.len() {
        work(0, items);
        return;
    }
    let work = &work;
    std::thread::scope(|scope| {
        for (chunk_idx, chunk) in items.chunks_mut(chunk_size).enumerate() {
            scope.spawn(move || work(chunk_idx, chunk));
        }
    });
}

/// Runs `work(index, item)` once per item, with `n_workers` scoped
/// threads pulling items off a shared queue in index order.
///
/// Unlike [`for_each_chunk_mut`]'s static partitioning, the dynamic
/// queue keeps every worker busy until the queue drains, so unevenly
/// priced items (grid-search candidates with different
/// hyper-parameters) cannot strand a straggler chunk on one worker.
/// With `n_workers <= 1` the work runs on the calling thread.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn for_each_item_mut<T, F>(items: &mut [T], n_workers: usize, work: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n_workers = n_workers.max(1).min(items.len());
    if n_workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            work(i, item);
        }
        return;
    }
    let queue = std::sync::Mutex::new(items.chunks_mut(1).enumerate());
    let worker = || loop {
        let next = queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .next();
        match next {
            Some((i, cell)) => work(i, &mut cell[0]),
            None => break,
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(worker);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_work_covers_every_item_exactly_once() {
        let mut items = vec![0u32; 103];
        for_each_chunk_mut(&mut items, 7, |chunk_idx, chunk| {
            let chunk_size = 103usize.div_ceil(7);
            for (off, item) in chunk.iter_mut().enumerate() {
                *item += (chunk_idx * chunk_size + off) as u32;
            }
        });
        let expect: Vec<u32> = (0..103).collect();
        assert_eq!(items, expect);
    }

    #[test]
    fn single_worker_runs_inline() {
        let mut items = vec![1, 2, 3];
        for_each_chunk_mut(&mut items, 1, |chunk_idx, chunk| {
            assert_eq!(chunk_idx, 0);
            assert_eq!(chunk.len(), 3);
            for item in chunk {
                *item *= 10;
            }
        });
        assert_eq!(items, vec![10, 20, 30]);
    }

    #[test]
    fn dynamic_queue_covers_every_item_exactly_once() {
        let mut items = vec![0u32; 103];
        for_each_item_mut(&mut items, 7, |i, item| *item += i as u32 + 1);
        let expect: Vec<u32> = (1..=103).collect();
        assert_eq!(items, expect);

        let mut empty: Vec<u32> = Vec::new();
        for_each_item_mut(&mut empty, 4, |_, _| unreachable!());
    }
}
