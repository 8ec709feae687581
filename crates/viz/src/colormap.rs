//! Colour ramps and palettes.

/// An 8-bit RGB colour.
pub type Rgb = (u8, u8, u8);

/// Linear interpolation between two colours.
fn lerp(a: Rgb, b: Rgb, t: f64) -> Rgb {
    let t = t.clamp(0.0, 1.0);
    let f = |x: u8, y: u8| (f64::from(x) + (f64::from(y) - f64::from(x)) * t) as u8;
    (f(a.0, b.0), f(a.1, b.1), f(a.2, b.2))
}

/// Terrain elevation ramp: deep blue → green → khaki → brown → white.
pub fn elevation_color(z: f64, z_min: f64, z_max: f64) -> Rgb {
    let stops: [(f64, Rgb); 5] = [
        (0.0, (30, 60, 140)),   // water-level blue
        (0.25, (60, 140, 60)),  // lowland green
        (0.5, (180, 180, 90)),  // khaki
        (0.75, (140, 90, 50)),  // brown
        (1.0, (245, 245, 245)), // summit white
    ];
    let span = (z_max - z_min).max(f64::MIN_POSITIVE);
    let t = ((z - z_min) / span).clamp(0.0, 1.0);
    for w in stops.windows(2) {
        let (t0, c0) = w[0];
        let (t1, c1) = w[1];
        if t <= t1 {
            return lerp(c0, c1, (t - t0) / (t1 - t0));
        }
    }
    stops[4].1
}

/// Conventional colours for ASPRS classification codes.
pub fn classification_color(class: u8) -> Rgb {
    match class {
        2 => (168, 132, 80),    // ground: brown
        3..=5 => (40, 140, 40), // vegetation: green
        6 => (200, 60, 50),     // building: red
        9 => (40, 90, 200),     // water: blue
        _ => (128, 128, 128),   // everything else: grey
    }
}

/// Simple north-west hillshade factor in [0.4, 1.0] from a height sample
/// and its +x / +y neighbours.
pub fn hillshade(z: f64, z_dx: f64, z_dy: f64, step: f64) -> f64 {
    let dzdx = (z_dx - z) / step.max(f64::MIN_POSITIVE);
    let dzdy = (z_dy - z) / step.max(f64::MIN_POSITIVE);
    // Light from the north-west: brighten slopes facing (-1, +1).
    let shade = 0.5 - 0.35 * (dzdx - dzdy).tanh();
    shade.clamp(0.4, 1.0)
}

/// Apply a shade factor to a colour.
pub fn shaded(c: Rgb, factor: f64) -> Rgb {
    let f = factor.clamp(0.0, 1.0);
    (
        (f64::from(c.0) * f) as u8,
        (f64::from(c.1) * f) as u8,
        (f64::from(c.2) * f) as u8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elevation_endpoints() {
        assert_eq!(elevation_color(0.0, 0.0, 10.0), (30, 60, 140));
        assert_eq!(elevation_color(10.0, 0.0, 10.0), (245, 245, 245));
        // Out-of-range clamps.
        assert_eq!(elevation_color(-5.0, 0.0, 10.0), (30, 60, 140));
        assert_eq!(elevation_color(50.0, 0.0, 10.0), (245, 245, 245));
    }

    #[test]
    fn elevation_is_monotone_in_brightness_at_top() {
        let lo = elevation_color(8.0, 0.0, 10.0);
        let hi = elevation_color(9.9, 0.0, 10.0);
        assert!(hi.0 > lo.0, "summits get lighter");
    }

    #[test]
    fn degenerate_range_does_not_divide_by_zero() {
        let c = elevation_color(5.0, 5.0, 5.0);
        assert_eq!(c, (30, 60, 140));
    }

    #[test]
    fn classification_palette() {
        assert_eq!(classification_color(2), (168, 132, 80));
        assert_eq!(classification_color(5), (40, 140, 40));
        assert_eq!(classification_color(6), (200, 60, 50));
        assert_eq!(classification_color(9), (40, 90, 200));
        assert_eq!(classification_color(31), (128, 128, 128));
    }

    #[test]
    fn hillshade_bounds_and_direction() {
        let flat = hillshade(5.0, 5.0, 5.0, 1.0);
        assert!((0.4..=1.0).contains(&flat));
        // Slope rising to the east darkens; rising to the north brightens.
        let east = hillshade(5.0, 8.0, 5.0, 1.0);
        let north = hillshade(5.0, 5.0, 8.0, 1.0);
        assert!(east < flat);
        assert!(north > flat);
        assert!(hillshade(0.0, 1e9, -1e9, 0.5) >= 0.4);
    }

    #[test]
    fn shading() {
        assert_eq!(shaded((100, 200, 50), 0.5), (50, 100, 25));
        assert_eq!(shaded((100, 200, 50), 2.0), (100, 200, 50));
    }
}
