//! Sparse hidden-surface removal (the paper's **Active Pixel rendering**
//! algorithm, after Kurc et al.).
//!
//! Instead of a dense z-buffer, winning pixels are stored compactly in a
//! **Winning Pixel Array** (WPA) whose entries carry their screen position,
//! and a **Modified Scanline Array** (MSA) — one slot per screen column —
//! indexes the WPA for the scanline currently being rasterized so repeated
//! hits on the same location update in place. When the WPA fills (it is
//! sized to one output stream buffer) it is flushed downstream immediately,
//! which is what lets rasterization overlap with merging and removes the
//! z-buffer algorithm's end-of-work synchronization point.

use serde::{Deserialize, Serialize};

use crate::zbuf::ZBuffer;

/// One winning pixel on the wire: position, depth, color.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WinningPixel {
    /// Screen x.
    pub x: u16,
    /// Screen y.
    pub y: u16,
    /// View-space depth.
    pub depth: f32,
    /// Shaded color.
    pub rgb: [u8; 3],
}

/// Wire bytes per WPA entry (2+2 position, 4 depth, 3 color, 1 pad).
pub const WPA_ENTRY_WIRE_BYTES: u64 = 12;

/// MSA slot: which WPA entry column `x` most recently used, and for which
/// scanline, with an epoch to invalidate stale slots after a flush.
#[derive(Debug, Clone, Copy)]
struct MsaSlot {
    y: u16,
    wpa_index: u32,
    epoch: u32,
}

/// The active-pixel accumulator owned by one raster filter copy.
pub struct ActivePixelBuffer {
    width: u32,
    wpa: Vec<WinningPixel>,
    capacity: usize,
    msa: Vec<MsaSlot>,
    epoch: u32,
    /// Consumed output vectors returned via [`supply`](Self::supply);
    /// flushes reuse these instead of allocating.
    spare: Vec<Vec<WinningPixel>>,
    /// Pixels plotted (candidates), for stats.
    pub plotted: u64,
    /// In-place WPA updates (dedup hits), for stats.
    pub dedup_hits: u64,
}

impl ActivePixelBuffer {
    /// `width` is the x-resolution of the screen (MSA size); `capacity` is
    /// the number of WPA entries per output buffer.
    pub fn new(width: u32, capacity: usize) -> Self {
        assert!(capacity >= 1);
        ActivePixelBuffer {
            width,
            wpa: Vec::with_capacity(capacity),
            capacity,
            msa: vec![
                MsaSlot {
                    y: 0,
                    wpa_index: 0,
                    epoch: 0
                };
                width as usize
            ],
            epoch: 1,
            spare: Vec::new(),
            plotted: 0,
            dedup_hits: 0,
        }
    }

    /// Return a consumed output vector for reuse by a later flush. In the
    /// steady state the downstream consumer feeds every flushed batch back
    /// here and the accumulator never allocates.
    pub fn supply(&mut self, mut v: Vec<WinningPixel>) {
        v.clear();
        if v.capacity() >= self.capacity {
            self.spare.push(v);
        }
    }

    /// Record a pixel candidate. If the WPA fills, the full batch is passed
    /// to `flush` and the WPA restarts empty.
    pub fn plot(
        &mut self,
        x: u32,
        y: u32,
        depth: f32,
        rgb: [u8; 3],
        flush: &mut impl FnMut(Vec<WinningPixel>),
    ) {
        debug_assert!(x < self.width);
        self.plotted += 1;
        let slot = self.msa[x as usize];
        if slot.epoch == self.epoch && slot.y == y as u16 {
            // MSA hit: column x was last touched on this same scanline in
            // the current WPA generation — update in place.
            let e = &mut self.wpa[slot.wpa_index as usize];
            if e.x as u32 == x && e.y as u32 == y {
                self.dedup_hits += 1;
                if depth < e.depth {
                    e.depth = depth;
                    e.rgb = rgb;
                }
                return;
            }
        }
        let idx = self.wpa.len() as u32;
        self.wpa.push(WinningPixel {
            x: x as u16,
            y: y as u16,
            depth,
            rgb,
        });
        self.msa[x as usize] = MsaSlot {
            y: y as u16,
            wpa_index: idx,
            epoch: self.epoch,
        };
        if self.wpa.len() >= self.capacity {
            self.force_flush(flush);
        }
    }

    /// Flush whatever the WPA holds (used at end of an input buffer and at
    /// end-of-work). No-op when empty.
    pub fn force_flush(&mut self, flush: &mut impl FnMut(Vec<WinningPixel>)) {
        if self.wpa.is_empty() {
            return;
        }
        let replacement = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.capacity));
        let batch = std::mem::replace(&mut self.wpa, replacement);
        self.epoch = self.epoch.wrapping_add(1).max(1);
        flush(batch);
    }

    /// Entries currently pending in the WPA.
    pub fn pending(&self) -> usize {
        self.wpa.len()
    }
}

/// Merge a batch of winning pixels into the final (dense) buffer held by
/// the merge filter. Commutative and associative with z-buffer merging, so
/// active-pixel and z-buffer pipelines produce identical images.
pub fn merge_batch(target: &mut ZBuffer, batch: &[WinningPixel]) {
    for wp in batch {
        target.plot(wp.x as u32, wp.y as u32, wp.depth, wp.rgb);
    }
}

/// [`merge_batch`] with a row offset: plot each winning pixel at
/// `(x, y - y_offset)` of `target`. This is the WPA kernel of tile-owned
/// compositing — a merge copy holds one small [`ZBuffer`] per owned tile
/// (a row strip of the image) and folds batches whose entries all fall in
/// that strip. Per-pixel candidate order is the batch order and the depth
/// test is the same strict `<`, so compositing per tile and stitching is
/// bit-identical to merging every batch into one whole-image buffer.
pub fn merge_batch_offset(target: &mut ZBuffer, y_offset: u32, batch: &[WinningPixel]) {
    for wp in batch {
        debug_assert!(wp.y as u32 >= y_offset, "entry above the tile");
        target.plot(wp.x as u32, wp.y as u32 - y_offset, wp.depth, wp.rgb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_batch_offset_matches_whole_image_merge() {
        // Route each entry to a 4-row tile buffer by offset merge, stitch,
        // and compare against a single whole-image merge.
        let mut batch = Vec::new();
        let mut s = 7u64;
        for _ in 0..500 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (s >> 33) as u32;
            batch.push(WinningPixel {
                x: (r % 8) as u16,
                y: ((r >> 8) % 12) as u16,
                depth: ((r >> 16) % 4) as f32,
                rgb: [r as u8, (r >> 8) as u8, (r >> 16) as u8],
            });
        }
        let mut whole = ZBuffer::new(8, 12);
        merge_batch(&mut whole, &batch);

        let mut tiles: Vec<ZBuffer> = (0..3).map(|_| ZBuffer::new(8, 4)).collect();
        for wp in &batch {
            let t = wp.y as usize / 4;
            merge_batch_offset(&mut tiles[t], t as u32 * 4, std::slice::from_ref(wp));
        }
        let mut stitched = ZBuffer::new(8, 12);
        for (t, tile) in tiles.iter().enumerate() {
            crate::zbuf::merge_rows(&mut stitched, t as u32 * 4, &tile.depth, &tile.color);
        }
        assert_eq!(whole, stitched);
    }

    #[test]
    fn flushes_when_capacity_reached() {
        let mut ap = ActivePixelBuffer::new(16, 4);
        let mut batches: Vec<Vec<WinningPixel>> = Vec::new();
        let mut sink = |b: Vec<WinningPixel>| batches.push(b);
        for i in 0..10u32 {
            ap.plot(i % 16, i / 16, 1.0, [1, 2, 3], &mut sink);
        }
        ap.force_flush(&mut sink);
        assert_eq!(batches.len(), 3); // 4 + 4 + 2
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2);
    }

    #[test]
    fn same_scanline_duplicates_dedup_in_place() {
        let mut ap = ActivePixelBuffer::new(8, 64);
        let mut batches = Vec::new();
        let mut sink = |b: Vec<WinningPixel>| batches.push(b);
        ap.plot(3, 5, 9.0, [9, 9, 9], &mut sink);
        ap.plot(3, 5, 4.0, [4, 4, 4], &mut sink); // nearer: replaces
        ap.plot(3, 5, 7.0, [7, 7, 7], &mut sink); // farther: ignored
        ap.force_flush(&mut sink);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 1);
        assert_eq!(batches[0][0].depth, 4.0);
        assert_eq!(batches[0][0].rgb, [4, 4, 4]);
        assert_eq!(ap.dedup_hits, 2);
    }

    #[test]
    fn different_scanlines_create_separate_entries() {
        let mut ap = ActivePixelBuffer::new(8, 64);
        let mut batches = Vec::new();
        let mut sink = |b: Vec<WinningPixel>| batches.push(b);
        ap.plot(3, 5, 1.0, [1, 1, 1], &mut sink);
        ap.plot(3, 6, 1.0, [2, 2, 2], &mut sink);
        ap.plot(3, 5, 0.5, [3, 3, 3], &mut sink); // MSA now points at y=6: new entry
        ap.force_flush(&mut sink);
        assert_eq!(batches[0].len(), 3);
    }

    #[test]
    fn flush_invalidates_msa() {
        let mut ap = ActivePixelBuffer::new(8, 1); // flush after every entry
        let mut batches = Vec::new();
        let mut sink = |b: Vec<WinningPixel>| batches.push(b);
        ap.plot(3, 5, 9.0, [9, 9, 9], &mut sink);
        // Same location again: previous entry was flushed, must not be
        // referenced.
        ap.plot(3, 5, 1.0, [1, 1, 1], &mut sink);
        assert_eq!(batches.len(), 2);
    }

    #[test]
    fn merge_batches_resolves_duplicates() {
        let mut zb = ZBuffer::new(8, 8);
        merge_batch(
            &mut zb,
            &[
                WinningPixel {
                    x: 2,
                    y: 2,
                    depth: 5.0,
                    rgb: [5, 5, 5],
                },
                WinningPixel {
                    x: 2,
                    y: 2,
                    depth: 3.0,
                    rgb: [3, 3, 3],
                },
                WinningPixel {
                    x: 2,
                    y: 2,
                    depth: 8.0,
                    rgb: [8, 8, 8],
                },
            ],
        );
        assert_eq!(zb.active_pixels(), 1);
        assert_eq!(zb.to_image([0, 0, 0]).data[2 * 8 + 2], [3, 3, 3]);
    }

    #[test]
    fn merge_order_does_not_matter() {
        let batch = [
            WinningPixel {
                x: 0,
                y: 0,
                depth: 2.0,
                rgb: [2, 0, 0],
            },
            WinningPixel {
                x: 0,
                y: 0,
                depth: 1.0,
                rgb: [1, 0, 0],
            },
            WinningPixel {
                x: 1,
                y: 0,
                depth: 4.0,
                rgb: [4, 0, 0],
            },
        ];
        let mut fwd = ZBuffer::new(2, 1);
        merge_batch(&mut fwd, &batch);
        let mut rev = ZBuffer::new(2, 1);
        let mut rbatch = batch.to_vec();
        rbatch.reverse();
        merge_batch(&mut rev, &rbatch);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn supplied_vectors_are_reused_by_flushes() {
        let mut ap = ActivePixelBuffer::new(16, 4);
        let returned: std::cell::RefCell<Vec<Vec<WinningPixel>>> = Default::default();
        let mut sink = |b: Vec<WinningPixel>| returned.borrow_mut().push(b);
        for i in 0..8u32 {
            ap.plot(i % 16, 0, 1.0, [0, 0, 0], &mut sink);
        }
        assert_eq!(returned.borrow().len(), 2);
        // Feed both batches back; record their buffer addresses.
        let addrs: Vec<*const WinningPixel> =
            returned.borrow().iter().map(|v| v.as_ptr()).collect();
        for v in returned.borrow_mut().drain(..) {
            ap.supply(v);
        }
        // The next flush ships the vector that was already installed as
        // the working WPA before the supply; rotate it out first.
        for i in 0..4u32 {
            ap.plot(i, 1, 1.0, [0, 0, 0], &mut sink);
        }
        returned.borrow_mut().clear();
        for i in 0..8u32 {
            ap.plot(i % 16, 2, 1.0, [0, 0, 0], &mut sink);
        }
        assert_eq!(returned.borrow().len(), 2);
        for v in returned.borrow().iter() {
            assert!(
                addrs.contains(&v.as_ptr()),
                "flush allocated a fresh vector"
            );
        }
    }

    #[test]
    fn wire_bytes_track_active_pixels_only() {
        // The point of the algorithm: cost scales with activity.
        let batch = [WinningPixel {
            x: 0,
            y: 0,
            depth: 1.0,
            rgb: [0, 0, 0],
        }; 10];
        let bytes = batch.len() as u64 * WPA_ENTRY_WIRE_BYTES;
        assert_eq!(bytes, 120);
    }
}
