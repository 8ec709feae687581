//! The brute-force oracle: what every operation must return, computed
//! once, outside every clock, over the raw generated records — one exact
//! test per point, with no imprints, no grid and no tiles in the way.

use lidardb_geom::{Envelope, Point};
use lidardb_las::PointRecord;
use lidardb_sql::SqlValue;

use crate::ops::{Op, OpKind};

/// Order-independent checksum term of one returned `(x, y, z)` row; terms
/// are summed with wrapping addition.
pub fn row_term(x: f64, y: f64, z: f64) -> u64 {
    x.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ y.to_bits()
            .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            .rotate_left(23)
        ^ z.to_bits()
            .wrapping_mul(0x1656_67B1_9E37_79F9)
            .rotate_left(47)
}

#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// Streamed rows: how many, and the checksum of their values.
    Rows { count: u64, checksum: u64 },
    /// `COUNT(*), AVG(z)` over joined pairs.
    Agg { count: u64, sum_z: f64 },
    /// An `INSERT` acknowledges this many rows.
    Insert { rows: u64 },
    /// `COUNT(*)` beside inserts: `base` points of the loaded table plus
    /// `inserted[k]` of the points in the first `k` batches of the pass.
    /// Which `k` applies is known only at run time: a batch becomes
    /// visible when the group commit that covers it is acknowledged.
    Count { base: u64, inserted: Vec<u64> },
}

fn contains(e: &Envelope, x: f64, y: f64) -> bool {
    e.min_x <= x && x <= e.max_x && e.min_y <= y && y <= e.max_y
}

fn expected_for(op_index: usize, ops: &[Op], records: &[PointRecord]) -> Expected {
    match &ops[op_index].kind {
        OpKind::Viewport(env) => {
            let (mut count, mut checksum) = (0u64, 0u64);
            for r in records.iter().filter(|r| contains(env, r.x, r.y)) {
                count += 1;
                checksum = checksum.wrapping_add(row_term(r.x, r.y, r.z));
            }
            Expected::Rows { count, checksum }
        }
        OpKind::Join {
            features,
            pred,
            classification,
        } => {
            let (mut count, mut sum_z) = (0u64, 0.0f64);
            for g in features {
                let pred = pred.to_feature(g);
                let bounds = pred.filter_envelope().expect("features are not empty");
                for r in records {
                    if r.classification == *classification
                        && contains(&bounds, r.x, r.y)
                        && pred.matches(&Point::new(r.x, r.y))
                    {
                        count += 1;
                        sum_z += r.z;
                    }
                }
            }
            Expected::Agg { count, sum_z }
        }
        OpKind::Insert(points) => Expected::Insert {
            rows: points.len() as u64,
        },
        OpKind::Count(env) => {
            let base = records.iter().filter(|r| contains(env, r.x, r.y)).count() as u64;
            let mut inserted = vec![0u64];
            for earlier in &ops[..op_index] {
                if let OpKind::Insert(points) = &earlier.kind {
                    let inside = points.iter().filter(|p| contains(env, p.x, p.y)).count();
                    inserted.push(inserted.last().expect("starts non-empty") + inside as u64);
                }
            }
            Expected::Count { base, inserted }
        }
    }
}

/// Expected result of every operation, computed on all cores.
pub fn expectations(ops: &[Op], records: &[PointRecord]) -> Vec<Expected> {
    let workers = crate::host::cpus().clamp(1, ops.len().max(1));
    let mut out: Vec<Option<Expected>> = vec![None; ops.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    (w..ops.len())
                        .step_by(workers)
                        .map(|i| (i, expected_for(i, ops, records)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, e) in h.join().expect("oracle worker") {
                out[i] = Some(e);
            }
        }
    });
    out.into_iter()
        .map(|e| e.expect("every op covered"))
        .collect()
}

/// What a statement actually returned, folded batch by batch as the rows
/// arrive so that no result set is ever kept.
#[derive(Debug, Default, Clone)]
pub struct Observed {
    pub rows: u64,
    pub checksum: u64,
    /// First row of the result, for one-row results.
    pub first: Vec<SqlValue>,
}

impl Observed {
    pub fn fold(&mut self, batch: &[Vec<SqlValue>]) {
        for row in batch {
            if self.rows == 0 {
                self.first = row.clone();
            }
            self.rows += 1;
            if let [SqlValue::Float(x), SqlValue::Float(y), SqlValue::Float(z)] = row[..] {
                self.checksum = self.checksum.wrapping_add(row_term(x, y, z));
            }
        }
    }
}

fn int(v: Option<&SqlValue>) -> Option<u64> {
    match v {
        Some(SqlValue::Int(i)) => u64::try_from(*i).ok(),
        _ => None,
    }
}

/// Whether `seen` is the right answer. `visible_batches` is how many of
/// the pass's insert batches the server has acknowledged as durable.
pub fn matches(expected: &Expected, seen: &Observed, visible_batches: usize) -> bool {
    match expected {
        Expected::Rows { count, checksum } => seen.rows == *count && seen.checksum == *checksum,
        Expected::Agg { count, sum_z } => {
            if seen.rows != 1 || int(seen.first.first()) != Some(*count) {
                return false;
            }
            match seen.first.get(1) {
                Some(SqlValue::Null) => *count == 0,
                Some(SqlValue::Float(avg)) if *count > 0 => {
                    // Summation order differs between engine and oracle.
                    let want = sum_z / *count as f64;
                    (avg - want).abs() <= 1e-9 * want.abs().max(1.0)
                }
                _ => false,
            }
        }
        Expected::Insert { rows } => seen.rows == 1 && int(seen.first.first()) == Some(*rows),
        Expected::Count { base, inserted } => {
            seen.rows == 1
                && inserted
                    .get(visible_batches)
                    .is_some_and(|n| int(seen.first.first()) == Some(base + n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Class, NewPoint};

    fn rec(x: f64, y: f64, z: f64, classification: u8) -> PointRecord {
        PointRecord {
            x,
            y,
            z,
            classification,
            ..Default::default()
        }
    }

    fn op(kind: OpKind) -> Op {
        Op {
            class: Class::Light,
            kind,
            sql: String::new(),
        }
    }

    #[test]
    fn viewport_counts_closed_bounds_and_checksum_ignores_order() {
        let records = [
            rec(0.0, 0.0, 1.0, 2),
            rec(1.0, 1.0, 2.0, 2),
            rec(2.0, 2.0, 3.0, 2),
        ];
        let ops = [op(OpKind::Viewport(
            Envelope::new(0.0, 0.0, 1.0, 1.0).unwrap(),
        ))];
        let want = expectations(&ops, &records);
        assert_eq!(
            want[0],
            Expected::Rows {
                count: 2,
                checksum: row_term(0.0, 0.0, 1.0).wrapping_add(row_term(1.0, 1.0, 2.0)),
            }
        );
        let row = |x: f64, y: f64, z: f64| {
            vec![SqlValue::Float(x), SqlValue::Float(y), SqlValue::Float(z)]
        };
        let mut seen = Observed::default();
        seen.fold(&[row(1.0, 1.0, 2.0)]);
        seen.fold(&[row(0.0, 0.0, 1.0)]);
        assert!(matches(&want[0], &seen, 0));
        seen.fold(&[row(2.0, 2.0, 3.0)]);
        assert!(!matches(&want[0], &seen, 0), "an extra row is a failure");
    }

    #[test]
    fn count_follows_the_acknowledged_prefix() {
        let view = Envelope::new(0.0, 0.0, 10.0, 10.0).unwrap();
        let p = |x: f64| NewPoint {
            x,
            y: 1.0,
            z: 0.0,
            classification: 2,
            intensity: 0,
        };
        let ops = [
            op(OpKind::Insert(vec![p(1.0), p(50.0)])),
            op(OpKind::Insert(vec![p(2.0), p(3.0)])),
            op(OpKind::Count(view)),
        ];
        let want = expectations(&ops, &[rec(5.0, 5.0, 0.0, 2), rec(50.0, 5.0, 0.0, 2)]);
        assert_eq!(
            want[2],
            Expected::Count {
                base: 1,
                inserted: vec![0, 1, 3]
            }
        );
        let seen = |n: i64| Observed {
            rows: 1,
            checksum: 0,
            first: vec![SqlValue::Int(n)],
        };
        assert!(matches(&want[2], &seen(1), 0));
        assert!(matches(&want[2], &seen(4), 2));
        assert!(!matches(&want[2], &seen(4), 1), "ghost rows are a failure");
    }

    #[test]
    fn aggregate_accepts_summation_order_only() {
        let want = Expected::Agg {
            count: 3,
            sum_z: 6.0,
        };
        let seen = |n: i64, avg: SqlValue| Observed {
            rows: 1,
            checksum: 0,
            first: vec![SqlValue::Int(n), avg],
        };
        assert!(matches(&want, &seen(3, SqlValue::Float(2.0 + 1e-13)), 0));
        assert!(!matches(&want, &seen(3, SqlValue::Float(2.001)), 0));
        assert!(!matches(&want, &seen(2, SqlValue::Float(2.0)), 0));
        let empty = Expected::Agg {
            count: 0,
            sum_z: 0.0,
        };
        assert!(matches(&empty, &seen(0, SqlValue::Null), 0));
    }
}
