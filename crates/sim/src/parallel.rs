//! The deterministic thread-chunk phase model.
//!
//! Engines at different nodes share nothing, so within a round the
//! expensive phases — applying operations, running synchronization
//! steps, and absorbing delivered frames — parallelize across nodes:
//! contiguous node chunks, one scoped worker thread per chunk, per-node
//! outputs collected in node order. Everything order-sensitive (fabric
//! fault draws, accounting) stays on the driver thread between phases, so
//! results do not depend on the thread count.

/// Split `items` into contiguous per-thread chunks and run `work` on each
/// `(index, item)` in parallel; collect per-item outputs in item order.
///
/// The chunking is identical to [`crate::metrics::phase_split`]'s — the
/// two must stay in lockstep, or per-phase critical paths would be
/// computed over chunks that never ran.
///
/// Workers carry **per-worker mutable context**: worker `w` (the thread
/// running contiguous chunk `w`) gets exclusive access to `ctxs[w]` for
/// its whole chunk. `ctxs` is grown on demand and persists across calls,
/// which is exactly the shape the wire path's
/// [`crdt_sync::BufferPool`]s need — each worker reuses its own encode
/// scratch round after round, with no cross-thread synchronization (the
/// phase model already gives workers disjoint state).
pub(crate) fn par_map_chunked_ctx<N: Send, T: Send + Default, Cx: Send + Default>(
    items: &mut [N],
    threads: usize,
    ctxs: &mut Vec<Cx>,
    work: impl Fn(usize, &mut N, &mut Cx) -> T + Sync,
) -> Vec<T> {
    let n = items.len();
    let chunk = n.div_ceil(threads).max(1);
    let n_chunks = n.div_ceil(chunk);
    if ctxs.len() < n_chunks {
        ctxs.resize_with(n_chunks, Cx::default);
    }
    let mut results: Vec<T> = Vec::with_capacity(n);
    results.resize_with(n, T::default);
    let run_chunk = |start: usize, items: &mut [N], slots: &mut [T], ctx: &mut Cx| {
        for (offset, (item, slot)) in items.iter_mut().zip(slots).enumerate() {
            *slot = work(start + offset, item, ctx);
        }
    };
    let chunks = (0..n)
        .step_by(chunk)
        .zip(items.chunks_mut(chunk))
        .zip(results.chunks_mut(chunk))
        .zip(ctxs.iter_mut());
    if n_chunks == 1 {
        // One worker: the driver thread is that worker.
        for (((start, item_chunk), result_chunk), ctx) in chunks {
            run_chunk(start, item_chunk, result_chunk, ctx);
        }
    } else {
        std::thread::scope(|scope| {
            let run_chunk = &run_chunk;
            for (((start, item_chunk), result_chunk), ctx) in chunks {
                scope.spawn(move || run_chunk(start, item_chunk, result_chunk, ctx));
            }
        });
    }
    results
}
