//! One pass over the wire: a closed loop on one client connection, each
//! operation sent when the previous one has fully arrived, each result
//! checked against the oracle as its rows stream in.

use std::time::Instant;

use lidardb_server::Client;
use lidardb_sql::SqlValue;

use crate::host::cpu_ns;
use crate::ops::{Op, OpKind};
use crate::oracle::{self, Expected, Observed};
use crate::stats::percentile_of;

/// Client-observed facts of one operation.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub start: Instant,
    /// Send → last frame, milliseconds.
    pub ms: f64,
}

#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub samples: Vec<OpSample>,
    pub wall_s: f64,
    /// Process CPU (user + system, every thread) spent in the pass.
    pub cpu_ms: f64,
    /// Points delivered (navigation), covered by the returned aggregates
    /// (ad hoc) or acknowledged durable (ingest).
    pub points: u64,
    pub failed: u64,
}

impl Pass {
    pub fn ops(&self) -> usize {
        self.samples.len()
    }

    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|s| s.ms).collect();
        percentile_of(&ms, p)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall_s
    }

    pub fn points_per_s(&self) -> f64 {
        self.points as f64 / self.wall_s
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_ms / self.ops() as f64
    }
}

fn int_at(row: &[SqlValue], i: usize) -> u64 {
    match row.get(i) {
        Some(SqlValue::Int(v)) => u64::try_from(*v).unwrap_or(0),
        _ => 0,
    }
}

/// Replay `ops` once. `after_op` runs after each operation, outside its
/// latency but inside the pass wall time (the traced run snapshots
/// counters there; the measured run passes a no-op).
pub fn run_pass(
    client: &mut Client,
    ops: &[Op],
    expected: &[Expected],
    mut after_op: impl FnMut(usize, &OpSample),
) -> Pass {
    let mut pass = Pass {
        samples: Vec::with_capacity(ops.len()),
        ..Pass::default()
    };
    // Insert batches sent / acknowledged durable so far in this pass, and
    // rows not yet covered by a durable acknowledgement.
    let (mut sent_batches, mut visible_batches) = (0usize, 0usize);
    let mut unacked_rows = 0u64;
    let cpu0 = cpu_ns();
    let t_pass = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let mut seen = Observed::default();
        let start = Instant::now();
        let outcome = client.query_streamed(&op.sql, |_| {}, |batch| seen.fold(&batch));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let mut ok = outcome.is_ok();
        match &op.kind {
            OpKind::Viewport(_) => pass.points += seen.rows,
            OpKind::Join { .. } => pass.points += int_at(&seen.first, 0),
            OpKind::Insert(points) => {
                sent_batches += 1;
                unacked_rows += points.len() as u64;
                if ok && int_at(&seen.first, 1) == 1 {
                    visible_batches = sent_batches;
                    pass.points += unacked_rows;
                    unacked_rows = 0;
                }
            }
            OpKind::Count(_) => {}
        }
        ok = ok && oracle::matches(&expected[i], &seen, visible_batches);
        if !ok {
            pass.failed += 1;
            if pass.failed <= 3 {
                eprintln!(
                    "op {i} failed: {:?}; got {} rows, first {:?}, want {:?}",
                    outcome.err().map(|e| e.to_string()),
                    seen.rows,
                    seen.first,
                    match &expected[i] {
                        Expected::Count { base, inserted } =>
                            format!("count {base} + {:?}", inserted.get(visible_batches)),
                        other => format!("{other:?}"),
                    }
                );
            }
        }
        let sample = OpSample { start, ms };
        after_op(i, &sample);
        pass.samples.push(sample);
    }
    pass.wall_s = t_pass.elapsed().as_secs_f64();
    pass.cpu_ms = (cpu_ns() - cpu0) as f64 / 1e6;
    // Inserts that were never acknowledged durable were not delivered.
    if unacked_rows > 0 {
        pass.failed += (sent_batches - visible_batches) as u64;
    }
    pass
}
