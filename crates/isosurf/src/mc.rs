//! Isosurface extraction (the paper's **extract** filter kernel).
//!
//! The paper uses the marching cubes algorithm [Lorensen & Cline]. We
//! implement the *tetrahedral-decomposition* variant of marching cubes
//! (often called marching tetrahedra): every cell is split into six
//! tetrahedra around the main diagonal, uniformly across the grid, and each
//! tetrahedron is polygonised from its 16-case table. This variant scans
//! voxels one at a time and processes each voxel independently — the exact
//! properties the paper's extract filter relies on for pipelining — while
//! avoiding the 256-entry case tables. The uniform decomposition is
//! face-consistent between neighbouring cells (and neighbouring *chunks*,
//! which share a point plane), so surfaces are watertight across chunk
//! boundaries.
//!
//! # Range culling
//!
//! A cell can emit triangles only if it *straddles* the isovalue: some
//! corner is `> iso` and some corner is `<= iso`. On real data almost no
//! cell does (the plume surface crosses well under 1% of them), so the
//! scan tests that condition over ever smaller blocks of samples and skips
//! a block, with every cell in it, as soon as the block does not straddle:
//!
//! 1. the slab's point planes `z_range.start ..= z_range.end`;
//! 2. each cell layer (its two point planes);
//! 3. each cell row (its four point rows, read as slices);
//! 4. each cell, whose corner values come from those row slices.
//!
//! A NaN sample fails both comparisons, so it counts as neither side, the
//! same as in the per-cell test. A block that does not straddle therefore
//! holds no cell that does, and the culled scan polygonises exactly the
//! cells the plain per-cell scan would, in the same order: every triangle
//! is bit-identical. Corner positions are computed only for cells that
//! pass. [`ExtractStats::cells`] still counts every cell in the range.

use serde::{Deserialize, Serialize};

use volume::RectGrid;

use crate::math::{vec3, Vec3};

/// One extracted surface triangle in world (grid-unit) coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Triangle {
    /// Vertices in world coordinates.
    pub v: [Vec3; 3],
    /// Unit normal, oriented away from the "inside" (value > isovalue).
    pub normal: Vec3,
}

/// Wire size of one triangle on a stream (3 vertices + normal, f32).
pub const TRIANGLE_WIRE_BYTES: u64 = 48;

/// Counters the cost model consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtractStats {
    /// Cells covered, whether culled or polygonised: the cost model's
    /// input, so it does not depend on how much of the range was skipped.
    pub cells: u64,
    /// Triangles produced.
    pub triangles: u64,
}

/// The six tetrahedra of the uniform cube decomposition. Cube corner `i`
/// sits at offset `(i & 1, (i >> 1) & 1, (i >> 2) & 1)`; all six tets share
/// the main diagonal 0–7, which makes the decomposition (and hence the
/// extracted surface) consistent across shared cell faces.
const TETS: [[usize; 4]; 6] = [
    [0, 1, 3, 7],
    [0, 3, 2, 7],
    [0, 2, 6, 7],
    [0, 6, 4, 7],
    [0, 4, 5, 7],
    [0, 5, 1, 7],
];

/// Corner offset of cube corner `i`.
#[inline]
fn corner_offset(i: usize) -> (u32, u32, u32) {
    ((i & 1) as u32, ((i >> 1) & 1) as u32, ((i >> 2) & 1) as u32)
}

/// Cells below which [`extract`] stays serial: slab fan-out costs more
/// than it saves on small grids (a pipeline chunk is typically a few
/// hundred cells).
const PAR_MIN_CELLS: u64 = 16 * 1024;

/// Extract the isosurface of `grid` at `iso`, with the grid's point
/// `(0,0,0)` located at world position `origin` (chunks pass their global
/// cell origin so surfaces from different chunks line up). Triangles are
/// appended to `out`; returns scan statistics.
///
/// With the default-on `parallel` feature, large grids are decomposed
/// into z-slabs extracted on the [global pool](crate::par::ThreadPool::global)
/// and spliced back in slab order, which is bit-identical to
/// [`extract_serial`]. Use [`extract_with`] to control the pool and reuse
/// slab scratch buffers across calls.
pub fn extract(
    grid: &RectGrid,
    origin: (u32, u32, u32),
    iso: f32,
    out: &mut Vec<Triangle>,
) -> ExtractStats {
    #[cfg(feature = "parallel")]
    {
        let pool = crate::par::ThreadPool::global();
        if pool.threads() > 1 && grid.dims.cells() >= PAR_MIN_CELLS {
            let mut scratch = ExtractScratch::default();
            return extract_with(pool, &mut scratch, grid, origin, iso, out);
        }
    }
    extract_serial(grid, origin, iso, out)
}

/// Serial reference extraction; always available, bit-identical to the
/// parallel path.
pub fn extract_serial(
    grid: &RectGrid,
    origin: (u32, u32, u32),
    iso: f32,
    out: &mut Vec<Triangle>,
) -> ExtractStats {
    let d = grid.dims;
    if d.nx < 2 || d.ny < 2 || d.nz < 2 {
        return ExtractStats::default();
    }
    extract_slab(grid, origin, iso, 0..d.nz - 1, out)
}

/// Reusable per-slab output buffers for [`extract_with`]: hold one across
/// calls (e.g. per extract-filter copy) and the steady state allocates
/// nothing.
#[derive(Default)]
pub struct ExtractScratch {
    slabs: Vec<std::sync::Mutex<(Vec<Triangle>, ExtractStats)>>,
}

/// [`extract`] with an explicit pool and reusable slab scratch. Slabs are
/// claimed work-stealing style (density varies across z), but results are
/// spliced in slab index order, so output order — and every triangle bit —
/// matches [`extract_serial`].
pub fn extract_with(
    pool: &crate::par::ThreadPool,
    scratch: &mut ExtractScratch,
    grid: &RectGrid,
    origin: (u32, u32, u32),
    iso: f32,
    out: &mut Vec<Triangle>,
) -> ExtractStats {
    let d = grid.dims;
    if d.nx < 2 || d.ny < 2 || d.nz < 2 {
        return ExtractStats::default();
    }
    let z_cells = (d.nz - 1) as usize;
    let threads = pool.threads();
    if threads <= 1 || grid.dims.cells() < PAR_MIN_CELLS || z_cells < 2 {
        return extract_slab(grid, origin, iso, 0..d.nz - 1, out);
    }
    // More slabs than lanes smooths out the load imbalance from uneven
    // triangle density; ×4 is plenty without fragmenting the splice.
    let n_slabs = z_cells.min(threads * 4);
    if scratch.slabs.len() < n_slabs {
        scratch.slabs.resize_with(n_slabs, Default::default);
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slabs = &scratch.slabs;
    pool.broadcast(&|_| loop {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if i >= n_slabs {
            break;
        }
        let band = crate::par::band_of(z_cells, n_slabs, i);
        let mut slot = slabs[i].lock().expect("slab slot");
        slot.0.clear();
        slot.1 = extract_slab(
            grid,
            origin,
            iso,
            band.start as u32..band.end as u32,
            &mut slot.0,
        );
    });
    let mut stats = ExtractStats::default();
    for slab in &scratch.slabs[..n_slabs] {
        let slot = slab.lock().expect("slab slot");
        stats.cells += slot.1.cells;
        stats.triangles += slot.1.triangles;
        out.extend_from_slice(&slot.0);
    }
    stats
}

/// Scan cells with `z` in `z_range` (the serial kernel over one slab),
/// skipping every block that cannot cross `iso` (see the module docs).
fn extract_slab(
    grid: &RectGrid,
    origin: (u32, u32, u32),
    iso: f32,
    z_range: std::ops::Range<u32>,
    out: &mut Vec<Triangle>,
) -> ExtractStats {
    let d = grid.dims;
    let mut stats = ExtractStats {
        cells: (d.nx - 1) as u64 * (d.ny - 1) as u64 * z_range.len() as u64,
        triangles: 0,
    };
    let (nx, ny) = (d.nx as usize, d.ny as usize);
    let plane = nx * ny;
    // The slab's point planes z_range.start ..= z_range.end.
    let slab = &grid.data[z_range.start as usize * plane..(z_range.end as usize + 1) * plane];
    if z_range.is_empty() || sides(slab, iso) != STRADDLES {
        return stats;
    }
    let mut corner_val = [0.0f32; 8];
    let mut corner_pos = [Vec3::ZERO; 8];
    for z in z_range {
        // The cell layer's two point planes.
        let layer = &grid.data[z as usize * plane..][..2 * plane];
        if sides(layer, iso) != STRADDLES {
            continue;
        }
        let (lo, hi) = layer.split_at(plane);
        for y in 0..ny - 1 {
            // The cell row's four point rows: (y, z) and (y+1, z) are one
            // run of `lo`, (y, z+1) and (y+1, z+1) one run of `hi`.
            let (lo, hi) = (&lo[y * nx..][..2 * nx], &hi[y * nx..][..2 * nx]);
            if sides(lo, iso) | sides(hi, iso) != STRADDLES {
                continue;
            }
            // Cube corner i lies in point row i >> 1, column x + (i & 1).
            let rows = [&lo[..nx], &lo[nx..], &hi[..nx], &hi[nx..]];
            for x in 0..nx - 1 {
                for (i, v) in corner_val.iter_mut().enumerate() {
                    *v = rows[i >> 1][x + (i & 1)];
                }
                if sides(&corner_val, iso) != STRADDLES {
                    continue;
                }
                let (x, y) = (x as u32, y as u32);
                for (i, p) in corner_pos.iter_mut().enumerate() {
                    let (ox, oy, oz) = corner_offset(i);
                    *p = vec3(
                        (origin.0 + x + ox) as f32,
                        (origin.1 + y + oy) as f32,
                        (origin.2 + z + oz) as f32,
                    );
                }
                for tet in &TETS {
                    stats.triangles +=
                        polygonise_tet(&corner_pos, &corner_val, tet, iso, out) as u64;
                }
            }
        }
    }
    stats
}

/// [`sides`] bit: some sample is `> iso`.
const ABOVE: u8 = 1;
/// [`sides`] bit: some sample is `<= iso`.
const AT_OR_BELOW: u8 = 2;
/// Both sides present: a cell drawn from these samples may cross `iso`.
const STRADDLES: u8 = ABOVE | AT_OR_BELOW;

/// Which sides of `iso` the samples fall on, as [`ABOVE`] | [`AT_OR_BELOW`].
/// NaN sets neither bit, exactly as it fails both comparisons in the
/// per-cell test. Stops early once both bits are set.
#[inline]
fn sides(samples: &[f32], iso: f32) -> u8 {
    let mut found = 0;
    for block in samples.chunks(64) {
        for &v in block {
            found |= u8::from(v > iso) | (u8::from(v <= iso) << 1);
        }
        if found == STRADDLES {
            break;
        }
    }
    found
}

/// Interpolate the iso crossing on the edge `a`–`b`.
#[inline]
fn edge_point(pa: Vec3, va: f32, pb: Vec3, vb: f32, iso: f32) -> Vec3 {
    let denom = vb - va;
    let t = if denom.abs() < 1e-12 {
        0.5
    } else {
        ((iso - va) / denom).clamp(0.0, 1.0)
    };
    pa.lerp(pb, t)
}

/// One precomputed tetrahedron case, indexed by the 4-bit inside mask
/// (bit `i` set ⇔ `v[i] > iso`).
///
/// For `n_in` 1 or 3, `idx` is `[isolated, o0, o1, o2]`: the isolated
/// vertex (inside for 1, outside for 3) then the other three ascending.
/// For `n_in` 2, `idx` is `[in0, in1, out0, out1]`, each pair ascending.
/// These orders reproduce exactly what the old find/filter scan produced,
/// so the emitted geometry is bit-identical — the table only removes the
/// two `Vec` allocations per active tetrahedron.
#[derive(Clone, Copy)]
struct TetCase {
    n_in: u8,
    idx: [u8; 4],
}

const TET_CASES: [TetCase; 16] = {
    let mut cases = [TetCase {
        n_in: 0,
        idx: [0; 4],
    }; 16];
    let mut mask = 0usize;
    while mask < 16 {
        let n_in = (mask & 1) + (mask >> 1 & 1) + (mask >> 2 & 1) + (mask >> 3 & 1);
        let mut idx = [0u8; 4];
        if n_in == 1 || n_in == 3 {
            let isolated_bit = if n_in == 1 { 1 } else { 0 };
            let mut a = 4usize;
            let mut i = 0;
            while i < 4 {
                if (mask >> i) & 1 == isolated_bit && a == 4 {
                    a = i;
                }
                i += 1;
            }
            idx[0] = a as u8;
            let mut k = 1;
            let mut i = 0;
            while i < 4 {
                if i != a {
                    idx[k] = i as u8;
                    k += 1;
                }
                i += 1;
            }
        } else if n_in == 2 {
            let mut k_in = 0;
            let mut k_out = 2;
            let mut i = 0;
            while i < 4 {
                if (mask >> i) & 1 == 1 {
                    idx[k_in] = i as u8;
                    k_in += 1;
                } else {
                    idx[k_out] = i as u8;
                    k_out += 1;
                }
                i += 1;
            }
        }
        cases[mask] = TetCase {
            n_in: n_in as u8,
            idx,
        };
        mask += 1;
    }
    cases
};

/// Polygonise one tetrahedron; appends 0–2 triangles, returns the count.
fn polygonise_tet(
    pos: &[Vec3; 8],
    val: &[f32; 8],
    tet: &[usize; 4],
    iso: f32,
    out: &mut Vec<Triangle>,
) -> usize {
    let p = [pos[tet[0]], pos[tet[1]], pos[tet[2]], pos[tet[3]]];
    let v = [val[tet[0]], val[tet[1]], val[tet[2]], val[tet[3]]];
    let mut mask = 0usize;
    for (i, &vi) in v.iter().enumerate() {
        mask |= usize::from(vi > iso) << i;
    }
    let case = &TET_CASES[mask];
    let [i0, i1, i2, i3] = [
        case.idx[0] as usize,
        case.idx[1] as usize,
        case.idx[2] as usize,
        case.idx[3] as usize,
    ];
    match case.n_in {
        0 | 4 => 0,
        1 | 3 => {
            // One vertex isolated (inside for n_in = 1, outside for 3):
            // single triangle across the three edges at that vertex.
            let tri = [
                edge_point(p[i0], v[i0], p[i1], v[i1], iso),
                edge_point(p[i0], v[i0], p[i2], v[i2], iso),
                edge_point(p[i0], v[i0], p[i3], v[i3], iso),
            ];
            let inside_ref = if case.n_in == 1 {
                p[i0]
            } else {
                (p[i1] + p[i2] + p[i3]) / 3.0
            };
            push_oriented(out, tri, inside_ref) as usize
        }
        2 => {
            // Two inside / two outside: the crossing is a quad on four
            // edges; emit two triangles.
            let q = [
                edge_point(p[i0], v[i0], p[i2], v[i2], iso),
                edge_point(p[i0], v[i0], p[i3], v[i3], iso),
                edge_point(p[i1], v[i1], p[i3], v[i3], iso),
                edge_point(p[i1], v[i1], p[i2], v[i2], iso),
            ];
            let inside_ref = (p[i0] + p[i1]) * 0.5;
            let mut n = push_oriented(out, [q[0], q[1], q[2]], inside_ref) as usize;
            n += push_oriented(out, [q[0], q[2], q[3]], inside_ref) as usize;
            n
        }
        _ => unreachable!(),
    }
}

/// Append `tri` with its normal oriented away from `inside_ref` (a point on
/// the high-value side), flipping winding as needed. Degenerate slivers are
/// dropped; returns whether a triangle was pushed.
fn push_oriented(out: &mut Vec<Triangle>, tri: [Vec3; 3], inside_ref: Vec3) -> bool {
    let n = (tri[1] - tri[0]).cross(tri[2] - tri[0]);
    if n.length() < 1e-12 {
        return false; // degenerate sliver; drop
    }
    let center = (tri[0] + tri[1] + tri[2]) / 3.0;
    let n = n.normalized();
    if n.dot(inside_ref - center) > 0.0 {
        out.push(Triangle {
            v: [tri[0], tri[2], tri[1]],
            normal: -n,
        });
    } else {
        out.push(Triangle { v: tri, normal: n });
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use volume::{Dims, RectGrid};

    /// A sphere field: value = R - |p - c| (positive inside).
    fn sphere_grid(n: u32, r: f32) -> RectGrid {
        let c = (n - 1) as f32 / 2.0;
        RectGrid::from_fn(Dims::new(n, n, n), |x, y, z| {
            let dx = x as f32 - c;
            let dy = y as f32 - c;
            let dz = z as f32 - c;
            r - (dx * dx + dy * dy + dz * dz).sqrt()
        })
    }

    #[test]
    fn empty_field_produces_no_triangles() {
        let g = RectGrid::filled(Dims::new(8, 8, 8), 0.0);
        let mut out = Vec::new();
        let stats = extract(&g, (0, 0, 0), 0.5, &mut out);
        assert_eq!(stats.triangles, 0);
        assert!(out.is_empty());
        assert_eq!(stats.cells, 343);
    }

    #[test]
    fn sphere_produces_closed_surface() {
        let g = sphere_grid(17, 5.0);
        let mut out = Vec::new();
        let stats = extract(&g, (0, 0, 0), 0.0, &mut out);
        assert!(
            stats.triangles > 100,
            "sphere too coarse: {}",
            stats.triangles
        );
        assert_eq!(stats.triangles as usize, out.len());
    }

    #[test]
    fn sphere_vertices_lie_near_radius() {
        let g = sphere_grid(33, 10.0);
        let mut out = Vec::new();
        extract(&g, (0, 0, 0), 0.0, &mut out);
        let c = vec3(16.0, 16.0, 16.0);
        for t in &out {
            for v in &t.v {
                let r = (*v - c).length();
                assert!((r - 10.0).abs() < 0.5, "vertex at radius {r}");
            }
        }
    }

    #[test]
    fn normals_point_outward_on_sphere() {
        let g = sphere_grid(17, 5.0);
        let mut out = Vec::new();
        extract(&g, (0, 0, 0), 0.0, &mut out);
        let c = vec3(8.0, 8.0, 8.0);
        let mut bad = 0;
        for t in &out {
            let center = (t.v[0] + t.v[1] + t.v[2]) / 3.0;
            // Inside = value > iso = inside the sphere, so "away from
            // inside" = radially outward.
            if t.normal.dot((center - c).normalized()) <= 0.0 {
                bad += 1;
            }
        }
        assert_eq!(bad, 0, "{bad}/{} normals point inward", out.len());
    }

    #[test]
    fn surface_is_watertight() {
        // Every interior edge must be shared by exactly two triangles
        // (opposite orientations). Quantize vertices to hash them.
        let g = sphere_grid(13, 4.0);
        let mut out = Vec::new();
        extract(&g, (0, 0, 0), 0.0, &mut out);
        let key = |v: Vec3| {
            (
                (v.x * 4096.0).round() as i64,
                (v.y * 4096.0).round() as i64,
                (v.z * 4096.0).round() as i64,
            )
        };
        let mut edge_count: std::collections::HashMap<_, i32> = std::collections::HashMap::new();
        for t in &out {
            for i in 0..3 {
                let a = key(t.v[i]);
                let b = key(t.v[(i + 1) % 3]);
                if a == b {
                    continue; // degenerate edge after quantization
                }
                // Count directed edges; a watertight, consistently oriented
                // surface has each undirected edge once in each direction.
                let (e, dir) = if a < b { ((a, b), 1) } else { ((b, a), -1) };
                *edge_count.entry(e).or_insert(0) += dir;
            }
        }
        let unbalanced = edge_count.values().filter(|&&c| c != 0).count();
        assert_eq!(
            unbalanced,
            0,
            "{unbalanced} unbalanced edges of {}",
            edge_count.len()
        );
    }

    #[test]
    fn chunked_extraction_matches_whole_grid_triangle_count() {
        use volume::{ChunkId, ChunkLayout};
        let g = sphere_grid(17, 5.5);
        let mut whole = Vec::new();
        extract(&g, (0, 0, 0), 0.0, &mut whole);

        let layout = ChunkLayout::new(g.dims, (2, 2, 2));
        let mut chunked = Vec::new();
        for i in 0..layout.count() {
            let info = layout.info(ChunkId(i));
            let sub = layout.extract(&g, ChunkId(i));
            extract(&sub, info.cell_origin, 0.0, &mut chunked);
        }
        assert_eq!(whole.len(), chunked.len());
    }

    #[test]
    fn chunked_extraction_is_watertight_across_chunks() {
        use volume::{ChunkId, ChunkLayout};
        let g = sphere_grid(13, 4.0);
        let layout = ChunkLayout::new(g.dims, (2, 2, 2));
        let mut out = Vec::new();
        for i in 0..layout.count() {
            let info = layout.info(ChunkId(i));
            let sub = layout.extract(&g, ChunkId(i));
            extract(&sub, info.cell_origin, 0.0, &mut out);
        }
        let key = |v: Vec3| {
            (
                (v.x * 4096.0).round() as i64,
                (v.y * 4096.0).round() as i64,
                (v.z * 4096.0).round() as i64,
            )
        };
        let mut edge_count: std::collections::HashMap<_, i32> = std::collections::HashMap::new();
        for t in &out {
            for i in 0..3 {
                let a = key(t.v[i]);
                let b = key(t.v[(i + 1) % 3]);
                if a == b {
                    continue;
                }
                let (e, dir) = if a < b { ((a, b), 1) } else { ((b, a), -1) };
                *edge_count.entry(e).or_insert(0) += dir;
            }
        }
        let unbalanced = edge_count.values().filter(|&&c| c != 0).count();
        assert_eq!(unbalanced, 0);
    }

    #[test]
    fn origin_offsets_translate_vertices() {
        let g = sphere_grid(9, 3.0);
        let mut a = Vec::new();
        let mut b = Vec::new();
        extract(&g, (0, 0, 0), 0.0, &mut a);
        extract(&g, (10, 20, 30), 0.0, &mut b);
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.iter().zip(&b) {
            for k in 0..3 {
                let d = tb.v[k] - ta.v[k];
                assert!((d.x - 10.0).abs() < 1e-4);
                assert!((d.y - 20.0).abs() < 1e-4);
                assert!((d.z - 30.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn stats_count_cells() {
        let g = sphere_grid(9, 3.0);
        let mut out = Vec::new();
        let stats = extract(&g, (0, 0, 0), 0.0, &mut out);
        assert_eq!(stats.cells, 8 * 8 * 8);
    }

    #[test]
    fn parallel_extract_is_bit_identical_to_serial() {
        // 32³ cells — above PAR_MIN_CELLS so the slab path really runs.
        let g = sphere_grid(33, 10.0);
        let mut serial = Vec::new();
        let s_stats = extract_serial(&g, (5, 6, 7), 0.0, &mut serial);
        for threads in [1usize, 2, 3, 4] {
            let pool = crate::par::ThreadPool::new(threads);
            let mut scratch = ExtractScratch::default();
            let mut par_out = Vec::new();
            let p_stats = extract_with(&pool, &mut scratch, &g, (5, 6, 7), 0.0, &mut par_out);
            assert_eq!(s_stats, p_stats, "{threads} threads");
            assert_eq!(serial.len(), par_out.len(), "{threads} threads");
            assert!(
                serial.iter().zip(&par_out).all(|(a, b)| a == b),
                "{threads} threads: triangle mismatch"
            );
            // Scratch reuse must not change the result.
            let mut again = Vec::new();
            extract_with(&pool, &mut scratch, &g, (5, 6, 7), 0.0, &mut again);
            assert!(serial.iter().zip(&again).all(|(a, b)| a == b));
        }
    }

    #[test]
    fn case_table_matches_bitcount_semantics() {
        for (mask, case) in TET_CASES.iter().enumerate() {
            assert_eq!(case.n_in as u32, (mask as u32).count_ones());
            match case.n_in {
                1 | 3 => {
                    let isolated_inside = case.n_in == 1;
                    let a = case.idx[0] as usize;
                    assert_eq!((mask >> a) & 1 == 1, isolated_inside);
                    // Others ascending, covering the complement.
                    let others = [case.idx[1], case.idx[2], case.idx[3]];
                    assert!(others.windows(2).all(|w| w[0] < w[1]));
                    assert!(!others.contains(&(a as u8)));
                }
                2 => {
                    let (i0, i1) = (case.idx[0] as usize, case.idx[1] as usize);
                    let (o0, o1) = (case.idx[2] as usize, case.idx[3] as usize);
                    assert!(i0 < i1 && o0 < o1);
                    assert!((mask >> i0) & 1 == 1 && (mask >> i1) & 1 == 1);
                    assert!((mask >> o0) & 1 == 0 && (mask >> o1) & 1 == 0);
                }
                _ => {}
            }
        }
    }

    // ---- range cull vs the per-cell oracle -----------------------------

    /// The per-cell scan the range cull replaced: it gathers and positions
    /// all eight corners of every cell, then rejects the cells that do not
    /// straddle. The cull must reproduce it bit for bit.
    fn extract_brute(
        grid: &RectGrid,
        origin: (u32, u32, u32),
        iso: f32,
        out: &mut Vec<Triangle>,
    ) -> ExtractStats {
        let d = grid.dims;
        let mut stats = ExtractStats::default();
        if d.nx < 2 || d.ny < 2 || d.nz < 2 {
            return stats;
        }
        let mut corner_val = [0.0f32; 8];
        let mut corner_pos = [Vec3::ZERO; 8];
        for z in 0..d.nz - 1 {
            for y in 0..d.ny - 1 {
                for x in 0..d.nx - 1 {
                    stats.cells += 1;
                    for i in 0..8 {
                        let (ox, oy, oz) = corner_offset(i);
                        corner_val[i] = grid.at(x + ox, y + oy, z + oz);
                        corner_pos[i] = vec3(
                            (origin.0 + x + ox) as f32,
                            (origin.1 + y + oy) as f32,
                            (origin.2 + z + oz) as f32,
                        );
                    }
                    let any_in = corner_val.iter().any(|&v| v > iso);
                    let any_out = corner_val.iter().any(|&v| v <= iso);
                    if !(any_in && any_out) {
                        continue;
                    }
                    for tet in &TETS {
                        stats.triangles +=
                            polygonise_tet(&corner_pos, &corner_val, tet, iso, out) as u64;
                    }
                }
            }
        }
        stats
    }

    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`, quantized to sixteenths so that exact ties
    /// with `iso` and between corners are common.
    fn sixteenths(s: &mut u64) -> f32 {
        (splitmix(s) % 16) as f32 / 16.0
    }

    /// One of the oracle's field families at isovalue `iso`:
    /// - 0: sparse plumes, a few small Gaussian blobs on a zero floor;
    /// - 1: fully inside (every sample `> iso`, or NaN/+inf);
    /// - 2: fully outside (every sample `<= iso`, or NaN/-inf), with many
    ///   samples exactly `iso`;
    /// - 3: dense noise in which NaN, ±inf and exact `iso` are common.
    ///
    /// Families 0–2 carry rare special samples (about 1 in 32).
    fn oracle_field(kind: u32, dims: Dims, iso: f32, seed: u64) -> RectGrid {
        let mut s = seed;
        let blobs: Vec<[f32; 4]> = (0..3)
            .map(|_| {
                let at = |s: &mut u64, n: u32| sixteenths(s) * n as f32;
                [
                    at(&mut s, dims.nx),
                    at(&mut s, dims.ny),
                    at(&mut s, dims.nz),
                    1.0 + 4.0 * sixteenths(&mut s),
                ]
            })
            .collect();
        RectGrid::from_fn(dims, |x, y, z| {
            let r = splitmix(&mut s);
            let rare = r.is_multiple_of(32);
            let pick = (r >> 8) % 4;
            match kind {
                0 if rare => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, iso][pick as usize],
                0 => blobs
                    .iter()
                    .map(|&[cx, cy, cz, r]| {
                        let d2 = (x as f32 - cx).powi(2)
                            + (y as f32 - cy).powi(2)
                            + (z as f32 - cz).powi(2);
                        (-d2 / (r * r)).exp()
                    })
                    .sum(),
                1 if rare => [f32::NAN, f32::INFINITY][(pick % 2) as usize],
                1 => iso + 1.0 / 16.0 + sixteenths(&mut s),
                2 if rare => [f32::NAN, f32::NEG_INFINITY][(pick % 2) as usize],
                2 => iso - sixteenths(&mut s),
                _ => match r % 8 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => iso,
                    _ => sixteenths(&mut s),
                },
            }
        })
    }

    /// Every bit of every triangle (NaN vertices compare by bits too).
    fn triangle_bits(tris: &[Triangle]) -> Vec<[u32; 12]> {
        tris.iter()
            .map(|t| {
                let [a, b, c] = t.v;
                [a, b, c, t.normal].map(|p| [p.x, p.y, p.z].map(f32::to_bits))
            })
            .map(|q| {
                let mut bits = [0u32; 12];
                for (i, p) in q.iter().enumerate() {
                    bits[i * 3..i * 3 + 3].copy_from_slice(p);
                }
                bits
            })
            .collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The culled scan emits exactly the oracle's triangles and stats,
        /// serially and split into slabs on 1–4 threads. `shape` forces a
        /// thin axis (0–2), a grid big enough for the slab path with rows
        /// longer than 64 points (3), or keeps the drawn dims (4).
        #[test]
        fn culled_extract_matches_per_cell_oracle(
            kind in 0u32..4, shape in 0u32..5,
            nx in 2u32..80, ny in 2u32..24, nz in 2u32..24,
            iso_16ths in 4u32..12, seed in any::<u64>(),
        ) {
            let dims = match shape {
                0 => Dims::new(2, ny, nz),
                1 => Dims::new(nx, 2, nz),
                2 => Dims::new(nx, ny, 2),
                3 => Dims::new(65 + nx % 15, 17 + ny % 7, 17 + nz % 7),
                _ => Dims::new(nx, ny, nz),
            };
            let iso = iso_16ths as f32 / 16.0;
            let grid = oracle_field(kind, dims, iso, seed);
            let origin = ((seed % 5) as u32, (seed >> 8) as u32 % 5, (seed >> 16) as u32 % 5);

            let mut want = Vec::new();
            let want_stats = extract_brute(&grid, origin, iso, &mut want);
            prop_assert_eq!(want_stats.cells, dims.cells());
            let want = triangle_bits(&want);

            let mut got = Vec::new();
            let stats = extract_serial(&grid, origin, iso, &mut got);
            prop_assert_eq!(stats, want_stats);
            prop_assert!(triangle_bits(&got) == want, "serial: triangle bits differ");

            for threads in 1..=4 {
                let pool = crate::par::ThreadPool::new(threads);
                let mut got = Vec::new();
                let stats =
                    extract_with(&pool, &mut ExtractScratch::default(), &grid, origin, iso, &mut got);
                prop_assert_eq!(stats, want_stats);
                prop_assert!(
                    triangle_bits(&got) == want,
                    "{} threads: triangle bits differ",
                    threads
                );
            }
        }
    }
}
