//! The buffer pool.
//!
//! A fixed set of frames caches device blocks with the **clock** (second
//! chance) replacement policy, matching the paper's implementation ("a
//! simple clock replacement policy", §4.2). The index is read-only, so
//! there are no dirty pages and no write-back path.
//!
//! Requests are tagged with the [`Region`] of the on-disk index they touch;
//! the pool keeps per-region hit/miss counters, which is exactly what the
//! paper's Figure 8 plots ("the buffer hit ratios for each of the three
//! components of the suffix tree").
//!
//! The counters are cumulative over the pool's lifetime and shared by
//! every reader, updated under the lock each read already takes. A caller
//! that wants the traffic of one run reads [`BufferPool::stats`] before and
//! after it and takes [`PoolStatsSnapshot::since`]; with one run at a time
//! on the pool that is exactly the run's traffic, and with several it is
//! their sum.

// Every query on a disk-resident artifact reads through this pool's lock:
// the lock, queue and map types and the blocking calls `clippy.toml` bans
// need a stated reason here (docs/LINTS.md).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use parking_lot::Mutex;

use crate::device::BlockDevice;

/// Which component of the on-disk suffix tree a request touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The blocked symbol (sequence text) array.
    Symbols = 0,
    /// The level-first internal-node array.
    Internal = 1,
    /// The leaf array.
    Leaves = 2,
    /// Header and sequence metadata.
    Meta = 3,
}

/// Hit/miss counters for one region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Block requests issued.
    pub requests: u64,
    /// Requests satisfied without touching the device.
    pub hits: u64,
}

impl BufferPoolStats {
    /// Hit ratio in `[0, 1]`, or `None` when no requests were made — an
    /// idle pool has no meaningful ratio. (This used to report `1.0`,
    /// which let pure in-memory runs claim a perfect hit rate on stderr;
    /// callers must now render the no-traffic case explicitly, e.g. as
    /// `n/a`.)
    pub fn hit_ratio(&self) -> Option<f64> {
        (self.requests > 0).then(|| self.hits as f64 / self.requests as f64)
    }

    /// Misses (device reads caused by this region).
    pub fn misses(&self) -> u64 {
        self.requests - self.hits
    }
}

/// A snapshot of all per-region counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// Counters indexed by [`Region`] discriminant.
    pub regions: [BufferPoolStats; 4],
}

impl PoolStatsSnapshot {
    /// Counters for one region.
    pub fn region(&self, r: Region) -> BufferPoolStats {
        self.regions[r as usize]
    }

    /// Aggregate counters over all regions.
    pub fn total(&self) -> BufferPoolStats {
        let mut t = BufferPoolStats::default();
        for r in &self.regions {
            t.requests += r.requests;
            t.hits += r.hits;
        }
        t
    }

    /// The traffic between `earlier` and this later snapshot of the same
    /// pool (with no [`BufferPool::clear`] between): each counter minus its
    /// earlier value.
    pub fn since(&self, earlier: &PoolStatsSnapshot) -> PoolStatsSnapshot {
        let mut delta = *self;
        for (d, e) in delta.regions.iter_mut().zip(&earlier.regions) {
            d.requests -= e.requests;
            d.hits -= e.hits;
        }
        delta
    }
}

const NO_BLOCK: u64 = u64::MAX;

struct Frame {
    block: u64,
    ref_bit: bool,
    data: Box<[u8]>,
}

/// Block number -> frame index.
#[expect(
    clippy::disallowed_types,
    reason = "read through get/insert/remove only; storage's dependency list is pinned, \
              so it cannot take an oasis_obs::sync map (docs/LINTS.md)"
)]
type BlockMap = std::collections::HashMap<u64, usize>;

struct PoolInner {
    frames: Vec<Frame>,
    map: BlockMap,
    hand: usize,
    stats: [BufferPoolStats; 4],
}

/// A clock-replacement buffer pool over a [`BlockDevice`].
pub struct BufferPool<D> {
    device: D,
    inner: Mutex<PoolInner>,
}

impl<D: BlockDevice> BufferPool<D> {
    /// Pool with capacity `pool_bytes` (rounded down to whole frames, at
    /// least one frame).
    pub fn with_bytes(device: D, pool_bytes: usize) -> Self {
        let frames = (pool_bytes / device.block_size()).max(1);
        Self::with_frames(device, frames)
    }

    /// Pool with an explicit frame count.
    pub fn with_frames(device: D, num_frames: usize) -> Self {
        assert!(num_frames > 0, "pool needs at least one frame");
        let bs = device.block_size();
        let frames = (0..num_frames)
            .map(|_| Frame {
                block: NO_BLOCK,
                ref_bit: false,
                data: vec![0u8; bs].into_boxed_slice(),
            })
            .collect();
        BufferPool {
            device,
            inner: Mutex::new(PoolInner {
                frames,
                map: BlockMap::new(),
                hand: 0,
                stats: Default::default(),
            }),
        }
    }

    /// Number of frames.
    pub fn num_frames(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// The underlying device.
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Read block `block` (tagged with `region`) and call `f` on its bytes.
    ///
    /// The frame is latched for the duration of `f`; keep `f` short. The
    /// request is counted in the pool's cumulative statistics.
    pub fn read<R>(&self, block: u64, region: Region, f: impl FnOnce(&[u8]) -> R) -> R {
        let mut inner = self.inner.lock();
        inner.stats[region as usize].requests += 1;
        if let Some(&fi) = inner.map.get(&block) {
            inner.stats[region as usize].hits += 1;
            inner.frames[fi].ref_bit = true;
            return f(&inner.frames[fi].data);
        }
        // Miss: pick a victim with the clock sweep.
        let fi = Self::clock_victim(&mut inner);
        let old = inner.frames[fi].block;
        if old != NO_BLOCK {
            inner.map.remove(&old);
        }
        self.device.read_block(block, &mut inner.frames[fi].data);
        inner.frames[fi].block = block;
        inner.frames[fi].ref_bit = true;
        inner.map.insert(block, fi);
        f(&inner.frames[fi].data)
    }

    fn clock_victim(inner: &mut PoolInner) -> usize {
        loop {
            let fi = inner.hand;
            inner.hand = (inner.hand + 1) % inner.frames.len();
            let frame = &mut inner.frames[fi];
            if frame.block == NO_BLOCK {
                return fi;
            }
            if frame.ref_bit {
                frame.ref_bit = false;
            } else {
                return fi;
            }
        }
    }

    /// Snapshot the per-region statistics, cumulative since construction
    /// (or the last [`BufferPool::clear`]) and shared by every reader of the
    /// pool; diff two snapshots with [`PoolStatsSnapshot::since`].
    pub fn stats(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            regions: self.inner.lock().stats,
        }
    }

    /// Drop all cached blocks (cold cache) and zero the statistics.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.hand = 0;
        inner.stats = Default::default();
        for frame in &mut inner.frames {
            frame.block = NO_BLOCK;
            frame.ref_bit = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn image(blocks: usize, block_size: usize) -> MemDevice {
        let mut data = vec![0u8; blocks * block_size];
        for (b, chunk) in data.chunks_mut(block_size).enumerate() {
            chunk.fill(b as u8);
        }
        MemDevice::new(data, block_size)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let pool = BufferPool::with_frames(image(4, 8), 2);
        let v = pool.read(0, Region::Symbols, |b| b[0]);
        assert_eq!(v, 0);
        pool.read(0, Region::Symbols, |b| assert_eq!(b[0], 0));
        pool.read(1, Region::Internal, |b| assert_eq!(b[0], 1));
        let s = pool.stats();
        assert_eq!(s.region(Region::Symbols).requests, 2);
        assert_eq!(s.region(Region::Symbols).hits, 1);
        assert_eq!(s.region(Region::Internal).requests, 1);
        assert_eq!(s.region(Region::Internal).hits, 0);
        assert_eq!(s.total().requests, 3);
        assert_eq!(s.total().misses(), 2);
    }

    #[test]
    fn eviction_under_pressure() {
        // 2 frames, touch 3 distinct blocks: something must be evicted.
        let pool = BufferPool::with_frames(image(4, 8), 2);
        pool.read(0, Region::Symbols, |_| ());
        pool.read(1, Region::Symbols, |_| ());
        pool.read(2, Region::Symbols, |_| ());
        // Whichever was evicted, re-reading block 2 is a hit.
        pool.read(2, Region::Symbols, |b| assert_eq!(b[0], 2));
        let s = pool.stats().region(Region::Symbols);
        assert_eq!(s.requests, 4);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn clock_gives_second_chance() {
        // 2 frames. Insert 0 and 1 (both referenced). Inserting 2 sweeps the
        // clock: both ref bits are cleared, block 0 (first under the hand) is
        // evicted and replaced by block 2 with its bit set. Inserting 3 then
        // lands on block 1 (bit already cleared) — block 2's set bit gives it
        // a second chance, so it must still be cached afterwards.
        let pool = BufferPool::with_frames(image(4, 8), 2);
        pool.read(0, Region::Symbols, |_| ());
        pool.read(1, Region::Symbols, |_| ());
        pool.read(2, Region::Symbols, |_| ());
        pool.read(3, Region::Symbols, |_| ());
        let before = pool.stats();
        pool.read(2, Region::Symbols, |_| ()); // survived thanks to its ref bit
        assert_eq!(pool.stats().since(&before).region(Region::Symbols).hits, 1);
    }

    #[test]
    fn snapshot_since_counts_only_its_window() {
        let pool = BufferPool::with_frames(image(4, 8), 4);
        pool.read(0, Region::Symbols, |_| ()); // before the window
        let before = pool.stats();
        pool.read(0, Region::Symbols, |_| ()); // hit
        pool.read(1, Region::Internal, |_| ()); // miss
        let delta = pool.stats().since(&before);
        assert_eq!(delta.region(Region::Symbols).requests, 1);
        assert_eq!(delta.region(Region::Symbols).hits, 1);
        assert_eq!(delta.region(Region::Internal).requests, 1);
        assert_eq!(delta.region(Region::Internal).hits, 0);
        assert_eq!(delta.total().requests, 2);
        // The cumulative counters keep the full history.
        assert_eq!(pool.stats().total().requests, 3);
    }

    #[test]
    fn whole_device_fits() {
        let pool = BufferPool::with_frames(image(4, 8), 8);
        for round in 0..3 {
            for b in 0..4u64 {
                pool.read(b, Region::Leaves, |buf| assert_eq!(buf[0], b as u8));
            }
            let s = pool.stats().region(Region::Leaves);
            if round == 2 {
                assert_eq!(s.requests, 12);
                assert_eq!(s.hits, 8); // all but the first pass
            }
        }
        let ratio = pool
            .stats()
            .region(Region::Leaves)
            .hit_ratio()
            .expect("traffic happened");
        assert!((ratio - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn with_bytes_rounds_to_frames() {
        let pool = BufferPool::with_bytes(image(4, 8), 20);
        assert_eq!(pool.num_frames(), 2);
        let tiny = BufferPool::with_bytes(image(4, 8), 1);
        assert_eq!(tiny.num_frames(), 1);
    }

    #[test]
    fn clear_resets_cache_and_stats() {
        let pool = BufferPool::with_frames(image(4, 8), 2);
        pool.read(0, Region::Symbols, |_| ());
        pool.read(0, Region::Symbols, |_| ());
        pool.clear();
        assert_eq!(pool.stats().total().requests, 0);
        pool.read(0, Region::Symbols, |_| ());
        assert_eq!(pool.stats().region(Region::Symbols).hits, 0); // cold again
    }

    #[test]
    fn hit_ratio_of_idle_pool_is_undefined() {
        // No requests → no ratio: reporting 1.0 here let in-memory runs
        // claim a 100% pool hit rate without ever touching the pool.
        let pool = BufferPool::with_frames(image(1, 8), 1);
        assert_eq!(pool.stats().region(Region::Meta).hit_ratio(), None);
        pool.read(0, Region::Meta, |_| ());
        assert_eq!(pool.stats().region(Region::Meta).hit_ratio(), Some(0.0));
    }

    #[test]
    fn single_frame_pool_thrashes() {
        let pool = BufferPool::with_frames(image(2, 8), 1);
        for _ in 0..5 {
            pool.read(0, Region::Symbols, |_| ());
            pool.read(1, Region::Symbols, |_| ());
        }
        let s = pool.stats().region(Region::Symbols);
        assert_eq!(s.requests, 10);
        assert_eq!(s.hits, 0);
    }
}
