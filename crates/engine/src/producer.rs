//! Per-thread ingest endpoints: contention-free multi-producer ingestion.
//!
//! [`crate::EngineHandle::ingest`] is safe to call from many threads, but
//! every call funnels through the per-shard bounded MPSC channels — whose
//! internal lock and shared head/tail cache lines serialise exactly the
//! traffic sharding was supposed to spread out. A [`Producer`] is the
//! scaling front end: one single-owner endpoint per producer thread, in
//! one of two modes selected by the engine configuration.
//!
//! ## Lanes mode (the default)
//!
//! The producer owns one [`psfa_stream::IngestLane`] per shard — a bounded
//! SPSC ring registered with the shard at construction — plus its own
//! routing scratch, so concurrent producers partition their minibatches in
//! parallel and hand sub-batches to the workers without sharing a single
//! mutable cache line. Consistent cuts (window boundaries, drain barriers,
//! persistence snapshots) still work: every cut stamps an in-position mark
//! into each registered lane under the exclusive ingest fence, and workers
//! drain lanes exactly to their marks before executing the cut (see the
//! `shard` module docs). All engine invariants — the one-sided `ε·m`
//! bound, window alignment, epoch-consistent persistence — are therefore
//! unchanged.
//!
//! ## Thread-local mode ([`crate::EngineConfig::thread_local_ingest`])
//!
//! The producer skips routing entirely: it owns a *private* substream —
//! its own Misra–Gries tracker and Count-Min sketch, registered with the
//! engine as an extra query-time "shard" — and updates it in place, with
//! no cross-thread handoff at all. Queries merge the producer substreams
//! with the shard summaries (mergeable-summaries accounting: the summed
//! one-sided error stays `Σ ε·m_s = ε·m`). The trade-offs: query-time
//! merge work grows with the producer count, publication is lazy (call
//! [`Producer::flush`] for a read-your-writes barrier), and features that
//! need a global stream order — the sliding window, persistence — are
//! unavailable (the config validator rejects the combinations).
//!
//! Producer substreams are **not** part of [`crate::EngineReport`] or the
//! per-shard metrics; query them through the handle
//! (`estimate`/`heavy_hitters`/`total_items`), which merges them in.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use psfa_freq::InfiniteHeavyHitters;
use psfa_primitives::{build_hist_into, HistScratch, HistogramEntry};
use psfa_stream::IngestLane;

use crate::engine::{EngineClosed, EngineHandle, TryIngestError};
use crate::shard::{ShardCommand, ShardShared, ShardSnapshot};

/// A per-thread ingest endpoint (see the module docs). Obtain one per
/// producer thread via [`crate::EngineHandle::producer`]; the endpoint is
/// single-owner (`&mut self` ingestion) and `Send`, so move it into the
/// thread that uses it.
pub struct Producer {
    inner: ProducerInner,
}

enum ProducerInner {
    Lanes(LaneProducer),
    Local(Box<LocalProducer>),
}

impl Producer {
    pub(crate) fn new(handle: &EngineHandle) -> Self {
        let inner = if handle.config.thread_local_ingest {
            ProducerInner::Local(Box::new(LocalProducer::new(handle)))
        } else {
            ProducerInner::Lanes(LaneProducer::new(handle))
        };
        Self { inner }
    }

    /// The active ingest mode: `"lanes"` or `"thread-local"`.
    pub fn mode(&self) -> &'static str {
        match &self.inner {
            ProducerInner::Lanes(_) => "lanes",
            ProducerInner::Local(_) => "thread-local",
        }
    }

    /// Ingests one minibatch, blocking on backpressure (a full lane waits
    /// for the shard worker; thread-local mode never blocks). `Ok` means
    /// the whole minibatch is accepted and will be reflected in queries;
    /// an error is a clean rejection (the engine is shut down and nothing
    /// was enqueued).
    pub fn ingest(&mut self, minibatch: &[u64]) -> Result<(), EngineClosed> {
        match &mut self.inner {
            ProducerInner::Lanes(p) => p.ingest(minibatch),
            ProducerInner::Local(p) => p.ingest(minibatch),
        }
    }

    /// Non-blocking [`Producer::ingest`]: rejects with
    /// [`TryIngestError::Busy`] when any target lane is full instead of
    /// waiting. Always a clean rejection — nothing was enqueued.
    /// Thread-local mode has no queue and only rejects when closed.
    pub fn try_ingest(&mut self, minibatch: &[u64]) -> Result<(), TryIngestError> {
        match &mut self.inner {
            ProducerInner::Lanes(p) => p.try_ingest(minibatch),
            ProducerInner::Local(p) => p
                .ingest(minibatch)
                .map_err(|EngineClosed| TryIngestError::Closed),
        }
    }

    /// Read-your-writes barrier for this producer's accepted batches.
    ///
    /// Lanes mode waits until the shard workers have drained everything
    /// this producer pushed (cheaper than a full [`EngineHandle::drain`]:
    /// only this producer's lanes are waited on). Thread-local mode
    /// publishes any pending substream snapshot so queries observe every
    /// batch ingested so far.
    pub fn flush(&mut self) {
        match &mut self.inner {
            ProducerInner::Lanes(p) => p.flush(),
            ProducerInner::Local(p) => p.flush(),
        }
    }
}

/// Lanes-mode producer: per-shard SPSC lanes plus private routing scratch.
struct LaneProducer {
    handle: EngineHandle,
    /// One lane per shard, registered with the shard workers at
    /// construction.
    lanes: Vec<Arc<IngestLane>>,
    /// Private routing scratch (one buffer per shard); sent slots are
    /// refilled from the engine's buffer pool, so steady-state routing
    /// allocates nothing.
    parts: Vec<Vec<u64>>,
}

impl LaneProducer {
    fn new(handle: &EngineHandle) -> Self {
        let handle = handle.clone();
        let shards = handle.shards();
        let lanes: Vec<Arc<IngestLane>> = (0..shards)
            .map(|_| Arc::new(IngestLane::new(handle.queue_capacity)))
            .collect();
        for (shard, lane) in lanes.iter().enumerate() {
            handle.shared[shard].register_lane(lane.clone());
            // Rouse a worker parked in its blocking channel wait so it
            // notices the new lane. A failed try_send means the channel is
            // non-empty (or closed) — either way the worker is not parked.
            let _ = handle.senders[shard].try_send(ShardCommand::Wake);
        }
        let mut parts = Vec::new();
        parts.resize_with(shards, Vec::new);
        Self {
            handle,
            lanes,
            parts,
        }
    }

    fn ingest(&mut self, minibatch: &[u64]) -> Result<(), EngineClosed> {
        if minibatch.is_empty() {
            return Ok(());
        }
        // One fence guard across routing + pushes: cuts (and shutdown)
        // serialise strictly between whole minibatches, exactly as on the
        // channel path, which is what makes lane marks consistent cuts.
        let Some(guard) = self.handle.fence.enter() else {
            return Err(EngineClosed);
        };
        self.handle
            .router
            .partition_into(minibatch, &mut self.parts);
        self.handle.trace_hot_promotions();
        for (shard, part) in self.parts.iter_mut().enumerate() {
            if part.is_empty() {
                continue;
            }
            let len = part.len() as u64;
            // Reserve before the push (see `send_part` in engine.rs):
            // `items_enqueued >= items_processed` must hold for every
            // concurrent observer the moment the batch becomes poppable.
            let stats = &self.handle.shared[shard].stats;
            stats.items_enqueued.fetch_add(len, Ordering::Relaxed);
            stats.batches_enqueued.fetch_add(1, Ordering::Relaxed);
            // Fault injection (tests only; one `Option` branch when
            // unset): a scheduled stall before the push simulates a slow
            // or wedged producer without changing what is delivered.
            if let Some(fault) = &self.handle.config.fault {
                if let Some(stall) =
                    fault.lane_stall(shard, stats.batches_enqueued.load(Ordering::Relaxed))
                {
                    std::thread::sleep(stall);
                }
            }
            // Swap the routed buffer out and refill the slot from the
            // pool's return lane, keeping the recycling loop closed.
            let batch = std::mem::replace(part, self.handle.pool.take(shard).unwrap_or_default());
            self.lanes[shard].push(batch);
        }
        let boundary_due = match &self.handle.window_fence {
            Some(windows) => windows.claim(&guard, minibatch.len() as u64).due,
            None => false,
        };
        self.handle.accepted_batches.fetch_add(1, Ordering::Relaxed);
        drop(guard);
        if boundary_due {
            self.handle.cut_due_window_boundaries();
        }
        Ok(())
    }

    fn try_ingest(&mut self, minibatch: &[u64]) -> Result<(), TryIngestError> {
        if minibatch.is_empty() {
            return Ok(());
        }
        let Some(guard) = self.handle.fence.enter() else {
            return Err(TryIngestError::Closed);
        };
        self.handle
            .router
            .partition_into(minibatch, &mut self.parts);
        self.handle.trace_hot_promotions();
        // Admission: every target lane must have room *now*. The lane is
        // SPSC and this producer is its only pusher, so room observed here
        // cannot be taken by anyone else before our push lands — unlike
        // `EngineHandle::try_ingest`, this admission check is exact.
        let full = self.parts.iter().enumerate().any(|(shard, part)| {
            !part.is_empty() && self.lanes[shard].len() >= self.lanes[shard].capacity() as u64
        });
        if full {
            return Err(TryIngestError::Busy);
        }
        for (shard, part) in self.parts.iter_mut().enumerate() {
            if part.is_empty() {
                continue;
            }
            let len = part.len() as u64;
            let stats = &self.handle.shared[shard].stats;
            stats.items_enqueued.fetch_add(len, Ordering::Relaxed);
            stats.batches_enqueued.fetch_add(1, Ordering::Relaxed);
            let batch = std::mem::replace(part, self.handle.pool.take(shard).unwrap_or_default());
            self.lanes[shard]
                .try_push(batch)
                .expect("SPSC lane reported room, then refused the push");
        }
        let boundary_due = match &self.handle.window_fence {
            Some(windows) => windows.claim(&guard, minibatch.len() as u64).due,
            None => false,
        };
        self.handle.accepted_batches.fetch_add(1, Ordering::Relaxed);
        drop(guard);
        if boundary_due {
            self.handle.cut_due_window_boundaries();
        }
        Ok(())
    }

    fn flush(&mut self) {
        // Wait for the workers to drain this producer's lanes, then run a
        // gated barrier so the final popped batches are fully processed
        // and published before we return.
        for lane in &self.lanes {
            while !lane.is_empty() {
                std::thread::yield_now();
            }
        }
        // A dead shard cannot acknowledge the barrier; the flush barrier
        // is best-effort for what remains (callers that need the typed
        // dead-shard report use `EngineHandle::drain` directly).
        let _ = self.handle.drain();
    }
}

impl Drop for LaneProducer {
    fn drop(&mut self) {
        for lane in &self.lanes {
            lane.close();
        }
    }
}

/// Thread-local-mode producer: a private substream registered with the
/// engine as an extra query-time shard.
struct LocalProducer {
    handle: EngineHandle,
    /// The substream's Misra–Gries tracker (charges work to the shared
    /// meter like a shard worker's).
    heavy_hitters: InfiniteHeavyHitters,
    /// Query surface shared with the engine: published snapshots, the
    /// substream's Count-Min sketch, the refresh protocol.
    shared: Arc<ShardShared>,
    /// Substream index (`engine shards + registration position`), used as
    /// the snapshot's shard id.
    index: usize,
    hist_scratch: HistScratch,
    hist: Vec<HistogramEntry>,
    epoch: u64,
    items: u64,
    /// Mirrors the shard worker's lazy-publication state (see `shard.rs`).
    published_entries: usize,
    dirty: bool,
    membership_interval: u64,
    last_any_publish_epoch: u64,
}

impl LocalProducer {
    fn new(handle: &EngineHandle) -> Self {
        let handle = handle.clone();
        // Poison recovery (via `EngineHandle::locals`) is safe: the
        // registry is append-only and every pushed `Arc` was fully
        // constructed first.
        let mut locals = handle.locals();
        let index = handle.shards() + locals.len();
        let shared = Arc::new(ShardShared::new(index, &handle.config, None));
        locals.push(shared.clone());
        drop(locals);
        let heavy_hitters = InfiniteHeavyHitters::new(handle.config.phi, handle.config.epsilon)
            .with_meter(shared.work.clone());
        let membership_interval = handle.config.membership_publish_interval;
        Self {
            handle,
            heavy_hitters,
            shared,
            index,
            hist_scratch: HistScratch::new(),
            hist: Vec::new(),
            epoch: 0,
            items: 0,
            published_entries: 0,
            dirty: false,
            membership_interval,
            last_any_publish_epoch: 0,
        }
    }

    fn ingest(&mut self, minibatch: &[u64]) -> Result<(), EngineClosed> {
        if minibatch.is_empty() {
            return Ok(());
        }
        // The guard orders this batch against shutdown: once the fence is
        // closed no new substream updates land, so post-shutdown queries
        // are stable. (Cloned `Arc` so the guard does not borrow `self`.)
        let fence = self.handle.fence.clone();
        let Some(_guard) = fence.enter() else {
            return Err(EngineClosed);
        };
        build_hist_into(minibatch, 0, &mut self.hist_scratch, &mut self.hist);
        let len = minibatch.len() as u64;
        let cutoff = self.heavy_hitters.process_histogram(&self.hist, len);
        self.shared.count_min.ingest_histogram(&self.hist);
        self.epoch += 1;
        self.items += len;
        self.shared.live_epoch.store(self.epoch, Ordering::Relaxed);
        // Enqueued first, then processed: observers must never see
        // processed ahead of enqueued (there is no queue here — the
        // substream processes synchronously).
        let stats = &self.shared.stats;
        stats.items_enqueued.fetch_add(len, Ordering::Relaxed);
        stats.batches_enqueued.fetch_add(1, Ordering::Relaxed);
        stats.items_processed.fetch_add(len, Ordering::Relaxed);
        stats.batches_processed.fetch_add(1, Ordering::Relaxed);
        // The shard worker's lazy-publication protocol, verbatim (see the
        // `shard` module docs): publish on membership churn (rate
        // limited), on a stale reader's refresh request, else defer.
        let membership_changed =
            cutoff > 0 || self.heavy_hitters.estimator().num_counters() != self.published_entries;
        let membership_due =
            self.epoch.saturating_sub(self.last_any_publish_epoch) >= self.membership_interval;
        // Consuming the refresh flag even when the membership branch is
        // what triggers the publish is correct: the publication that
        // follows satisfies the stale reader either way.
        let refresh = self.shared.refresh.swap(false, Ordering::AcqRel);
        if (membership_changed && membership_due) || refresh {
            self.publish();
        } else {
            self.dirty = true;
        }
        self.handle.accepted_batches.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn flush(&mut self) {
        if self.dirty {
            self.publish();
        }
    }

    fn publish(&mut self) {
        let hh_entries = self.heavy_hitters.estimator().tracked_items_sorted();
        self.published_entries = hh_entries.len();
        self.dirty = false;
        self.last_any_publish_epoch = self.epoch;
        self.shared.snapshot.set(Arc::new(ShardSnapshot {
            shard: self.index,
            epoch: self.epoch,
            stream_len: self.items,
            hh_entries,
            windows: Vec::new(),
        }));
    }
}

impl Drop for LocalProducer {
    fn drop(&mut self) {
        // The substream outlives the producer (queries keep merging it);
        // leave it an exact final snapshot.
        self.flush();
    }
}
