//! Struct-of-arrays transposition of point records.
//!
//! The binary loader of §3.2 works by transposing decoded LAS records into
//! one binary dump per column ("for each property it generates a new file
//! that is the binary dump of a C-array containing the values of the
//! property for all points") and appending the dumps with `COPY BINARY`.

use lidardb_las::schema::COLUMN_TYPES;
use lidardb_las::{PointRecord, COLUMN_NAMES};
use lidardb_storage::Column;

use crate::error::CoreError;

/// The 26 per-column arrays of a record batch, in schema order.
#[derive(Debug, Clone)]
pub struct ColumnArrays {
    columns: Vec<Column>,
}

impl ColumnArrays {
    /// Transpose records into typed columns.
    pub fn from_records(records: &[PointRecord]) -> Self {
        let n = records.len();
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut z = Vec::with_capacity(n);
        let mut intensity = Vec::with_capacity(n);
        let mut return_number = Vec::with_capacity(n);
        let mut number_of_returns = Vec::with_capacity(n);
        let mut scan_direction = Vec::with_capacity(n);
        let mut edge = Vec::with_capacity(n);
        let mut classification = Vec::with_capacity(n);
        let mut synthetic = Vec::with_capacity(n);
        let mut key_point = Vec::with_capacity(n);
        let mut withheld = Vec::with_capacity(n);
        let mut scan_angle = Vec::with_capacity(n);
        let mut user_data = Vec::with_capacity(n);
        let mut point_source = Vec::with_capacity(n);
        let mut gps_time = Vec::with_capacity(n);
        let mut red = Vec::with_capacity(n);
        let mut green = Vec::with_capacity(n);
        let mut blue = Vec::with_capacity(n);
        let mut wave_idx = Vec::with_capacity(n);
        let mut wave_off = Vec::with_capacity(n);
        let mut wave_size = Vec::with_capacity(n);
        let mut wave_loc = Vec::with_capacity(n);
        let mut wave_xt = Vec::with_capacity(n);
        let mut wave_yt = Vec::with_capacity(n);
        let mut wave_zt = Vec::with_capacity(n);
        for r in records {
            x.push(r.x);
            y.push(r.y);
            z.push(r.z);
            intensity.push(r.intensity);
            return_number.push(r.return_number);
            number_of_returns.push(r.number_of_returns);
            scan_direction.push(r.scan_direction);
            edge.push(r.edge_of_flight_line);
            classification.push(r.classification);
            synthetic.push(r.synthetic);
            key_point.push(r.key_point);
            withheld.push(r.withheld);
            scan_angle.push(r.scan_angle_rank);
            user_data.push(r.user_data);
            point_source.push(r.point_source_id);
            gps_time.push(r.gps_time);
            red.push(r.red);
            green.push(r.green);
            blue.push(r.blue);
            wave_idx.push(r.wave_packet_index);
            wave_off.push(r.wave_offset);
            wave_size.push(r.wave_size);
            wave_loc.push(r.wave_return_loc);
            wave_xt.push(r.wave_xt);
            wave_yt.push(r.wave_yt);
            wave_zt.push(r.wave_zt);
        }
        let columns = vec![
            Column::F64(x),
            Column::F64(y),
            Column::F64(z),
            Column::U16(intensity),
            Column::U8(return_number),
            Column::U8(number_of_returns),
            Column::U8(scan_direction),
            Column::U8(edge),
            Column::U8(classification),
            Column::U8(synthetic),
            Column::U8(key_point),
            Column::U8(withheld),
            Column::I8(scan_angle),
            Column::U8(user_data),
            Column::U16(point_source),
            Column::F64(gps_time),
            Column::U16(red),
            Column::U16(green),
            Column::U16(blue),
            Column::U8(wave_idx),
            Column::U64(wave_off),
            Column::U32(wave_size),
            Column::F32(wave_loc),
            Column::F32(wave_xt),
            Column::F32(wave_yt),
            Column::F32(wave_zt),
        ];
        debug_assert_eq!(columns.len(), COLUMN_NAMES.len());
        ColumnArrays { columns }
    }

    /// Adopt 26 columns built elsewhere (SQL `INSERT` builds them from its
    /// cells). They must follow the schema's order and physical types and
    /// hold the same number of rows.
    pub fn from_columns(columns: Vec<Column>) -> Result<Self, CoreError> {
        if columns.len() != COLUMN_NAMES.len() {
            return Err(CoreError::InvalidQuery(format!(
                "column batch has {} columns, the point schema {}",
                columns.len(),
                COLUMN_NAMES.len()
            )));
        }
        let rows = columns[0].len();
        for ((col, name), ty) in columns.iter().zip(COLUMN_NAMES).zip(COLUMN_TYPES) {
            if col.ptype() != ty || col.len() != rows {
                return Err(CoreError::InvalidQuery(format!(
                    "column batch: {name} is {} rows of {}, expected {rows} of {}",
                    col.len(),
                    col.ptype().name(),
                    ty.name()
                )));
            }
        }
        Ok(ColumnArrays { columns })
    }

    /// The typed columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Serialise each column as its little-endian binary dump — the files
    /// the paper's loader feeds to `COPY BINARY`.
    pub fn to_dumps(&self) -> Vec<Vec<u8>> {
        self.columns.iter().map(Column::to_le_bytes).collect()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidardb_las::schema::column_value_f64;

    fn records() -> Vec<PointRecord> {
        (0..100)
            .map(|i| PointRecord {
                x: i as f64,
                y: i as f64 * 2.0,
                z: 5.0,
                intensity: i as u16,
                classification: (i % 4) as u8,
                scan_angle_rank: (i % 30) as i8 - 15,
                gps_time: 1e5 + i as f64,
                wave_offset: i as u64 * 1000,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn transposition_matches_schema_order() {
        let recs = records();
        let soa = ColumnArrays::from_records(&recs);
        assert_eq!(soa.num_rows(), 100);
        assert_eq!(soa.columns().len(), 26);
        for (ci, col) in soa.columns().iter().enumerate() {
            for (ri, rec) in recs.iter().enumerate() {
                assert_eq!(
                    col.get(ri).unwrap().as_f64(),
                    column_value_f64(rec, ci),
                    "column {ci} row {ri}"
                );
            }
        }
    }

    #[test]
    fn dumps_have_correct_sizes() {
        let soa = ColumnArrays::from_records(&records());
        let dumps = soa.to_dumps();
        assert_eq!(dumps.len(), 26);
        assert_eq!(dumps[0].len(), 100 * 8); // x: f64
        assert_eq!(dumps[3].len(), 100 * 2); // intensity: u16
        assert_eq!(dumps[8].len(), 100); // classification: u8
    }

    #[test]
    fn empty_batch() {
        let soa = ColumnArrays::from_records(&[]);
        assert_eq!(soa.num_rows(), 0);
        assert!(soa.to_dumps().iter().all(Vec::is_empty));
    }
}
