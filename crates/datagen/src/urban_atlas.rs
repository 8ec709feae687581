//! Urban-Atlas-like land-use / land-cover zones.
//!
//! The EEA Urban Atlas partitions an urban area into polygons labelled with
//! a numeric nomenclature. The codes reproduced here are the real ones the
//! demo's scenario 2 queries by — in particular **12220 "Other roads and
//! associated land"**'s sibling **12210 "Fast transit roads and associated
//! land"**, the class the query *"select all LIDAR points that are near a
//! given area that is characterised as a fast transit road"* touches.

use lidardb_geom::{Envelope, LineString, Polygon};

use crate::osm::{self, RoadClass};

/// Urban Atlas nomenclature classes used by the scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LandUseClass {
    /// 11100 Continuous urban fabric.
    ContinuousUrban,
    /// 12210 Fast transit roads and associated land.
    FastTransitRoad,
    /// 14100 Green urban areas.
    GreenUrban,
    /// 23000 Pastures.
    Pastures,
    /// 31000 Forests.
    Forest,
    /// 50000 Water bodies.
    Water,
}

impl LandUseClass {
    /// The numeric Urban Atlas nomenclature code.
    pub fn code(self) -> u32 {
        match self {
            LandUseClass::ContinuousUrban => 11100,
            LandUseClass::FastTransitRoad => 12210,
            LandUseClass::GreenUrban => 14100,
            LandUseClass::Pastures => 23000,
            LandUseClass::Forest => 31000,
            LandUseClass::Water => 50000,
        }
    }

    /// Official-style label.
    pub fn label(self) -> &'static str {
        match self {
            LandUseClass::ContinuousUrban => "Continuous urban fabric",
            LandUseClass::FastTransitRoad => "Fast transit roads and associated land",
            LandUseClass::GreenUrban => "Green urban areas",
            LandUseClass::Pastures => "Pastures",
            LandUseClass::Forest => "Forests",
            LandUseClass::Water => "Water bodies",
        }
    }
}

/// One land-use polygon feature.
#[derive(Debug, Clone, PartialEq)]
pub struct LandUseZone {
    /// Stable feature id.
    pub id: u64,
    /// Nomenclature class.
    pub class: LandUseClass,
    /// Zone polygon.
    pub polygon: Polygon,
}

/// Buffer a polyline into a corridor polygon of the given half-width
/// (thin wrapper over [`lidardb_geom::buffer_polyline`]).
pub fn corridor(line: &LineString, half_width: f64) -> Polygon {
    lidardb_geom::buffer_polyline(line, half_width).expect("positive half-width corridor")
}

/// Build the land-use zones of a region, consistent with the OSM features.
pub fn build_zones(env: &Envelope) -> Vec<LandUseZone> {
    let mut zones = Vec::new();
    let mut id = 0u64;
    let mut push = |zones: &mut Vec<LandUseZone>, class: LandUseClass, polygon: Polygon| {
        id += 1;
        zones.push(LandUseZone { id, class, polygon });
    };

    // Urban core = the urban quarter.
    let urban = osm::urban_quarter(env);
    push(
        &mut zones,
        LandUseClass::ContinuousUrban,
        Polygon::rectangle(&urban),
    );

    // A green park wedged against the urban quarter.
    let park = Envelope::new(
        env.min_x + env.width() * 0.40,
        env.min_y + env.height() * 0.55,
        env.min_x + env.width() * 0.55,
        env.min_y + env.height() * 0.75,
    )
    .expect("valid fractions");
    push(
        &mut zones,
        LandUseClass::GreenUrban,
        Polygon::rectangle(&park),
    );

    // Forest in the north-west corner.
    let forest = Envelope::new(
        env.min_x + env.width() * 0.02,
        env.min_y + env.height() * 0.70,
        env.min_x + env.width() * 0.20,
        env.min_y + env.height() * 0.97,
    )
    .expect("valid fractions");
    push(
        &mut zones,
        LandUseClass::Forest,
        Polygon::rectangle(&forest),
    );

    // Pastures across the south.
    let pasture = Envelope::new(
        env.min_x + env.width() * 0.05,
        env.min_y + env.height() * 0.05,
        env.max_x - env.width() * 0.05,
        env.min_y + env.height() * 0.35,
    )
    .expect("valid fractions");
    push(
        &mut zones,
        LandUseClass::Pastures,
        Polygon::rectangle(&pasture),
    );

    // Fast transit corridor along every motorway.
    for road in osm::build_roads(env) {
        if road.class == RoadClass::Motorway {
            push(
                &mut zones,
                LandUseClass::FastTransitRoad,
                corridor(&road.geometry, road.class.half_width() + 11.0),
            );
        }
    }

    // Water body along the river.
    let river = osm::river_course(env);
    push(
        &mut zones,
        LandUseClass::Water,
        corridor(&river.to_linestring(env, 64), river.half_width),
    );

    zones
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_geom::{contains_point, Point};

    fn env() -> Envelope {
        Envelope::new(0.0, 0.0, 4000.0, 4000.0).unwrap()
    }

    #[test]
    fn nomenclature_codes() {
        assert_eq!(LandUseClass::FastTransitRoad.code(), 12210);
        assert_eq!(LandUseClass::Water.code(), 50000);
        assert!(LandUseClass::FastTransitRoad
            .label()
            .to_lowercase()
            .contains("fast transit"));
    }

    #[test]
    fn zones_cover_expected_classes() {
        let zones = build_zones(&env());
        for class in [
            LandUseClass::ContinuousUrban,
            LandUseClass::FastTransitRoad,
            LandUseClass::GreenUrban,
            LandUseClass::Pastures,
            LandUseClass::Forest,
            LandUseClass::Water,
        ] {
            assert!(zones.iter().any(|z| z.class == class), "missing {class:?}");
        }
        let mut ids: Vec<u64> = zones.iter().map(|z| z.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), zones.len(), "ids unique");
    }

    #[test]
    fn fast_transit_zone_covers_motorway() {
        let e = env();
        let zones = build_zones(&e);
        let ft = zones
            .iter()
            .find(|z| z.class == LandUseClass::FastTransitRoad)
            .unwrap();
        let motorway = osm::build_roads(&e)
            .into_iter()
            .find(|r| r.class == RoadClass::Motorway)
            .unwrap();
        for p in motorway.geometry.vertices() {
            assert!(
                ft.polygon.contains_point(p),
                "motorway vertex {p:?} outside its corridor"
            );
        }
    }

    #[test]
    fn corridor_width_is_respected() {
        let line = LineString::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]).unwrap();
        let c = corridor(&line, 5.0);
        let g = lidardb_geom::Geometry::Polygon(c);
        assert!(contains_point(&g, &Point::new(50.0, 4.9)));
        assert!(contains_point(&g, &Point::new(50.0, -4.9)));
        assert!(!contains_point(&g, &Point::new(50.0, 5.1)));
    }

    #[test]
    fn corridor_of_bent_line() {
        let line = LineString::new(vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
        ])
        .unwrap();
        let c = corridor(&line, 3.0);
        assert!(c.area() > 1000.0, "area {}", c.area());
        assert!(c.contains_point(&Point::new(50.0, 0.0)));
        assert!(c.contains_point(&Point::new(100.0, 50.0)));
    }
}
