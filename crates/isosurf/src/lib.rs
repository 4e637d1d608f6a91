//! # isosurf — isosurface rendering kernels
//!
//! The visualization application of the reproduction (the paper's case
//! study, Section 3): surface extraction from rectilinear scalar fields,
//! perspective projection, scanline rasterization, and the two
//! hidden-surface removal algorithms the paper compares —
//!
//! * **Z-buffer rendering** ([`zbuf`]): dense per-pixel depth+color buffer,
//!   flushed wholesale at end-of-work (a pipeline synchronization point);
//! * **Active Pixel rendering** ([`active`]): sparse winning-pixel batches
//!   flushed as they fill, overlapping rasterization with merging.
//!
//! Both algorithms consume the identical pixel stream from [`raster`] and
//! merge with the same commutative/associative depth test, so they produce
//! identical images regardless of how work is split across filter copies —
//! the consistency property the paper's merge filter relies on.
//!
//! Extraction ([`mc`]) implements the marching-cubes family via uniform
//! tetrahedral decomposition (watertight across chunk boundaries); see the
//! module docs for the rationale.
//!
//! Every kernel is plain serial code. Parallelism comes from the
//! pipeline's transparent filter copies, as in the paper, not from
//! threads inside a kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod camera;
pub mod image;
pub mod math;
pub mod mc;
pub mod raster;
pub mod render;
pub mod shade;
pub mod zbuf;

pub use active::{
    merge_batch, merge_batch_offset, ActivePixelBuffer, WinningPixel, WPA_ENTRY_WIRE_BYTES,
};
pub use camera::{Camera, Projector, ScreenVertex};
pub use image::Image;
pub use math::{vec3, Mat4, Vec3};
/// The same function as [`extract`], kept under its old name for callers
/// that still use it.
pub use mc::extract as extract_serial;
pub use mc::{extract, ExtractStats, Triangle, TRIANGLE_WIRE_BYTES};
pub use raster::{fill_triangle, raster_triangle, RasterStats};
pub use render::{render_active_pixel, render_zbuffer, BACKGROUND};
pub use shade::{shade, species_material, Material};
pub use zbuf::{merge_rows, ZBuffer, EMPTY_DEPTH, ZBUF_ENTRY_WIRE_BYTES};
