//! Proof that the E → Ra → M hot path reaches a zero-allocation steady
//! state: after a warm-up unit of work, pumping further work through the
//! stage logic (pooled triangle batches, recycled WPA flush buffers,
//! pooled z-buffer bands, extraction into a warmed vector)
//! performs no heap allocation at all, measured by a counting global
//! allocator.
//!
//! The loop below mirrors what `dcapp`'s stages do per unit of work,
//! driven through the same public APIs (`BufferPool`, `TriBatch`,
//! `RaOut`, `ActivePixelBuffer::supply`, `merge_batch`,
//! `extract`); the filter wrappers themselves only add the
//! emulation context, which is not part of the per-buffer hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dcapp::{BufferPool, RaOut, TriBatch};
use isosurf::{extract, merge_batch, ActivePixelBuffer, Triangle, WinningPixel, ZBuffer};
use volume::{Dims, RectGrid};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const IMG: u32 = 64;
const BATCH: usize = 256;

struct Harness {
    grid: RectGrid,
    pending: Vec<Triangle>,
    tri_pool: BufferPool<Triangle>,
    wpa_pool: BufferPool<WinningPixel>,
    dpool: BufferPool<f32>,
    cpool: BufferPool<[u8; 3]>,
    ap: ActivePixelBuffer,
    flushed: Vec<Vec<WinningPixel>>,
    /// Merge accumulator (the M stage).
    zb: ZBuffer,
    /// A pre-rendered raster target whose bands ship each pass (the
    /// z-buffer Ra variant's end-of-work).
    src: ZBuffer,
}

impl Harness {
    fn new() -> Harness {
        let mut s = 0x5eed_u64;
        let grid = RectGrid::from_fn(Dims::new(16, 16, 16), |_, _, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) % 11) as f32 / 10.0
        });
        let mut src = ZBuffer::new(IMG, IMG);
        for i in 0..(IMG * IMG) {
            src.plot(i % IMG, i / IMG, (i % 9) as f32, [i as u8, 0, 0]);
        }
        Harness {
            grid,
            pending: Vec::new(),
            tri_pool: BufferPool::new(),
            wpa_pool: BufferPool::new(),
            dpool: BufferPool::new(),
            cpool: BufferPool::new(),
            ap: ActivePixelBuffer::new(IMG, 512),
            flushed: Vec::new(),
            zb: ZBuffer::new(IMG, IMG),
            src,
        }
    }
}

/// One unit of work through the pooled stage logic.
fn pass(h: &mut Harness) {
    let Harness {
        grid,
        pending,
        tri_pool,
        wpa_pool,
        dpool,
        cpool,
        ap,
        flushed,
        zb,
        src,
    } = h;

    // E: extract into the warmed pending vector, drain into pooled batches.
    pending.clear();
    extract(grid, (0, 0, 0), 0.5, pending);
    while !pending.is_empty() {
        let n = pending.len().min(BATCH);
        let mut tris = tri_pool.take(BATCH);
        tris.buf_mut().extend(pending.drain(..n));
        let batch = TriBatch { tris };

        // Ra (active-pixel): re-arm the WPA with every buffer the merge
        // recycled, then plot; full WPAs flush into `flushed`.
        while let Some(v) = wpa_pool.try_take_raw() {
            ap.supply(v);
        }
        for t in batch.tris.iter() {
            for v in &t.v {
                let x = (v.x.abs() as u32) % IMG;
                let y = (v.y.abs() as u32) % IMG;
                ap.plot(x, y, v.z, [9, 9, 9], &mut |b| flushed.push(b));
            }
        }

        // M: merge each flushed batch; dropping the payload recycles it.
        for b in flushed.drain(..) {
            let out = RaOut::Wpa(wpa_pool.adopt(b));
            if let RaOut::Wpa(w) = out {
                merge_batch(zb, &w);
            }
        }
        // `batch` drops here, returning its buffer to `tri_pool`.
    }
    // End-of-work flush of the partial WPA.
    ap.force_flush(&mut |b| flushed.push(b));
    for b in flushed.drain(..) {
        let out = RaOut::Wpa(wpa_pool.adopt(b));
        if let RaOut::Wpa(w) = out {
            merge_batch(zb, &w);
        }
    }

    // Ra (z-buffer variant): ship the raster target in pooled bands and
    // fold them, as the merge filter would.
    let w = IMG as usize;
    let mut y0 = 0usize;
    while y0 < IMG as usize {
        let (a, b) = (y0 * w, (y0 + 16) * w);
        let mut depth = dpool.take(b - a);
        depth.buf_mut().extend_from_slice(&src.depth[a..b]);
        let mut color = cpool.take(b - a);
        color.buf_mut().extend_from_slice(&src.color[a..b]);
        let out = RaOut::Band {
            y0: y0 as u32,
            width: IMG,
            depth,
            color,
        };
        if let RaOut::Band {
            y0,
            width,
            depth,
            color,
        } = out
        {
            let base = (y0 * width) as usize;
            for (i, (&d, &c)) in depth.iter().zip(color.iter()).enumerate() {
                if d < zb.depth[base + i] {
                    zb.depth[base + i] = d;
                    zb.color[base + i] = c;
                }
            }
        }
        y0 += 16;
    }
}

#[test]
fn steady_state_pipeline_performs_zero_allocations() {
    let mut h = Harness::new();

    // Warm-up: grows `pending`, populates every pool, and lets the WPA
    // spare-list reach equilibrium (the first passes mint the buffers
    // that circulate forever after).
    for _ in 0..3 {
        pass(&mut h);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..16 {
        pass(&mut h);
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state E→Ra→M passes allocated {} times",
        after - before
    );

    // Sanity: the harness actually exercised the path (the warm-up made
    // pool misses, extraction produced triangles, merging plotted pixels).
    assert!(h.tri_pool.allocated() > 0);
    assert!(!h.zb.depth.is_empty());
}
