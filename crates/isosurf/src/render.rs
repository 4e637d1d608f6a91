//! Whole-pipeline sequential rendering: the ground truth the distributed
//! pipelines (DataCutter and ADR) are checked against.

use volume::RectGrid;

use crate::active::{merge_batch, ActivePixelBuffer};
use crate::camera::Camera;
use crate::image::Image;
use crate::mc::{extract, Triangle};
use crate::raster::raster_triangle;
use crate::shade::Material;
use crate::zbuf::ZBuffer;

/// Background color of rendered images.
pub const BACKGROUND: [u8; 3] = [12, 12, 24];

/// Render `field` at isovalue `iso` sequentially with the dense z-buffer
/// algorithm. Reference implementation: single pass, no distribution.
pub fn render_zbuffer(field: &RectGrid, camera: &Camera, iso: f32, material: &Material) -> Image {
    let mut tris = Vec::new();
    extract(field, (0, 0, 0), iso, &mut tris);
    let mut zb = ZBuffer::new(camera.width, camera.height);
    raster_into_zbuffer(&tris, camera, material, &mut zb);
    zb.to_image(BACKGROUND)
}

/// Render `field` sequentially with the active-pixel algorithm (WPA
/// batches merged into a final buffer), with `wpa_capacity` entries per
/// batch. Must produce the same image as [`render_zbuffer`].
pub fn render_active_pixel(
    field: &RectGrid,
    camera: &Camera,
    iso: f32,
    material: &Material,
    wpa_capacity: usize,
) -> Image {
    let mut tris = Vec::new();
    extract(field, (0, 0, 0), iso, &mut tris);
    let proj = camera.projector();
    let mut ap = ActivePixelBuffer::new(camera.width, wpa_capacity);
    let mut target = ZBuffer::new(camera.width, camera.height);
    {
        let mut sink = |batch: Vec<crate::active::WinningPixel>| {
            merge_batch(&mut target, &batch);
        };
        for t in &tris {
            let _ = raster_triangle(
                &proj,
                camera.width,
                camera.height,
                material,
                t,
                |x, y, d, rgb| {
                    ap.plot(x, y, d, rgb, &mut sink);
                },
            );
        }
        ap.force_flush(&mut sink);
    }
    target.to_image(BACKGROUND)
}

/// Rasterize a triangle batch into an existing z-buffer (the z-buffer
/// raster filter's inner loop). Returns pixels generated.
pub fn raster_into_zbuffer(
    tris: &[Triangle],
    camera: &Camera,
    material: &Material,
    zb: &mut ZBuffer,
) -> u64 {
    let proj = camera.projector();
    let mut pixels = 0;
    for t in tris {
        if let Some(p) = raster_triangle(
            &proj,
            camera.width,
            camera.height,
            material,
            t,
            |x, y, d, rgb| {
                zb.plot(x, y, d, rgb);
            },
        ) {
            pixels += p;
        }
    }
    pixels
}

#[cfg(test)]
mod tests {
    use super::*;
    use volume::Dims;

    fn sphere(n: u32, r: f32) -> RectGrid {
        let c = (n - 1) as f32 / 2.0;
        RectGrid::from_fn(Dims::new(n, n, n), |x, y, z| {
            let dx = x as f32 - c;
            let dy = y as f32 - c;
            let dz = z as f32 - c;
            r - (dx * dx + dy * dy + dz * dz).sqrt()
        })
    }

    #[test]
    fn zbuffer_renders_something() {
        let f = sphere(17, 5.0);
        let cam = Camera::framing(f.dims, 96, 96);
        let img = render_zbuffer(&f, &cam, 0.0, &Material::default());
        assert!(
            img.coverage(BACKGROUND) > 100,
            "coverage {}",
            img.coverage(BACKGROUND)
        );
    }

    #[test]
    fn active_pixel_matches_zbuffer_exactly() {
        let f = sphere(17, 5.0);
        let cam = Camera::framing(f.dims, 96, 96);
        let m = Material::default();
        let zi = render_zbuffer(&f, &cam, 0.0, &m);
        for cap in [7usize, 64, 4096] {
            let ai = render_active_pixel(&f, &cam, 0.0, &m, cap);
            assert_eq!(zi.diff_pixels(&ai), 0, "wpa capacity {cap}");
        }
    }

    #[test]
    fn sphere_image_is_roughly_round() {
        let f = sphere(25, 8.0);
        let cam = Camera::framing(f.dims, 128, 128);
        let img = render_zbuffer(&f, &cam, 0.0, &Material::default());
        let cov = img.coverage(BACKGROUND) as f64;
        // Projected disk should fill a plausible fraction of the frame.
        assert!(cov > 500.0 && cov < 128.0 * 128.0 * 0.9, "coverage {cov}");
    }
}
