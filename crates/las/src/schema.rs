//! The canonical 26-column flat-table schema.
//!
//! §3.1 of the paper: *"a flat table is used for storing the point cloud
//! data, where a different column is used for storing the X, Y, Z
//! coordinates and the 23 properties of each point"*. This module is the
//! single source of truth for that schema, shared by the loader, the
//! generators, the baselines and the SQL catalog.

use lidardb_storage::{Field, PhysicalType, Schema};

use crate::record::PointRecord;

/// Names of the 26 columns, in schema order (x, y, z first).
pub const COLUMN_NAMES: [&str; 26] = [
    "x",
    "y",
    "z",
    "intensity",
    "return_number",
    "number_of_returns",
    "scan_direction",
    "edge_of_flight_line",
    "classification",
    "synthetic",
    "key_point",
    "withheld",
    "scan_angle_rank",
    "user_data",
    "point_source_id",
    "gps_time",
    "red",
    "green",
    "blue",
    "wave_packet_index",
    "wave_offset",
    "wave_size",
    "wave_return_loc",
    "wave_xt",
    "wave_yt",
    "wave_zt",
];

/// Number of columns of the flat point table.
pub const NUM_COLUMNS: usize = COLUMN_NAMES.len();

/// Physical types of the 26 columns, aligned with [`COLUMN_NAMES`].
pub const COLUMN_TYPES: [PhysicalType; 26] = [
    PhysicalType::F64, // x
    PhysicalType::F64, // y
    PhysicalType::F64, // z
    PhysicalType::U16, // intensity
    PhysicalType::U8,  // return_number
    PhysicalType::U8,  // number_of_returns
    PhysicalType::U8,  // scan_direction
    PhysicalType::U8,  // edge_of_flight_line
    PhysicalType::U8,  // classification
    PhysicalType::U8,  // synthetic
    PhysicalType::U8,  // key_point
    PhysicalType::U8,  // withheld
    PhysicalType::I8,  // scan_angle_rank
    PhysicalType::U8,  // user_data
    PhysicalType::U16, // point_source_id
    PhysicalType::F64, // gps_time
    PhysicalType::U16, // red
    PhysicalType::U16, // green
    PhysicalType::U16, // blue
    PhysicalType::U8,  // wave_packet_index
    PhysicalType::U64, // wave_offset
    PhysicalType::U32, // wave_size
    PhysicalType::F32, // wave_return_loc
    PhysicalType::F32, // wave_xt
    PhysicalType::F32, // wave_yt
    PhysicalType::F32, // wave_zt
];

/// Build the flat point-table schema.
pub fn point_schema() -> Schema {
    Schema::new(
        COLUMN_NAMES
            .iter()
            .zip(COLUMN_TYPES)
            .map(|(&n, t)| Field::new(n, t))
            .collect(),
    )
    .expect("canonical schema has unique names")
}

/// Extract the value of column `idx` from a record, widened to `f64`
/// (used by the CSV path and by tests; the binary loader never goes
/// through here).
pub fn column_value_f64(rec: &PointRecord, idx: usize) -> f64 {
    match idx {
        0 => rec.x,
        1 => rec.y,
        2 => rec.z,
        3 => f64::from(rec.intensity),
        4 => f64::from(rec.return_number),
        5 => f64::from(rec.number_of_returns),
        6 => f64::from(rec.scan_direction),
        7 => f64::from(rec.edge_of_flight_line),
        8 => f64::from(rec.classification),
        9 => f64::from(rec.synthetic),
        10 => f64::from(rec.key_point),
        11 => f64::from(rec.withheld),
        12 => f64::from(rec.scan_angle_rank),
        13 => f64::from(rec.user_data),
        14 => f64::from(rec.point_source_id),
        15 => rec.gps_time,
        16 => f64::from(rec.red),
        17 => f64::from(rec.green),
        18 => f64::from(rec.blue),
        19 => f64::from(rec.wave_packet_index),
        20 => rec.wave_offset as f64,
        21 => f64::from(rec.wave_size),
        22 => f64::from(rec.wave_return_loc),
        23 => f64::from(rec.wave_xt),
        24 => f64::from(rec.wave_yt),
        25 => f64::from(rec.wave_zt),
        _ => panic!("column index {idx} out of range"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shape() {
        let s = point_schema();
        assert_eq!(s.width(), 26);
        assert_eq!(s.fields()[0].name, "x");
        assert_eq!(s.fields()[0].ptype, PhysicalType::F64);
        assert_eq!(s.index_of("classification").unwrap(), 8);
        assert_eq!(s.fields()[15].ptype, PhysicalType::F64);
        // 3 coordinates + the 23 properties the paper counts.
        assert_eq!(NUM_COLUMNS - 3, 23);
    }

    #[test]
    fn column_value_covers_all() {
        let rec = PointRecord {
            x: 1.0,
            y: 2.0,
            z: 3.0,
            intensity: 4,
            classification: 6,
            gps_time: 7.5,
            wave_zt: 0.25,
            ..Default::default()
        };
        assert_eq!(column_value_f64(&rec, 0), 1.0);
        assert_eq!(column_value_f64(&rec, 3), 4.0);
        assert_eq!(column_value_f64(&rec, 8), 6.0);
        assert_eq!(column_value_f64(&rec, 15), 7.5);
        assert_eq!(column_value_f64(&rec, 25), 0.25);
        for i in 0..NUM_COLUMNS {
            let _ = column_value_f64(&rec, i); // no panic on any column
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_value_out_of_range() {
        column_value_f64(&PointRecord::default(), 26);
    }
}
