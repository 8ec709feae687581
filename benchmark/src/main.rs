//! `benchmark` — lidardb's one repeatable benchmark.
//!
//! ```text
//! benchmark --workload <nav_flat|nav_tiled|adhoc_refine|ingest_mixed>
//!           --seed <n> --seconds <s> [--trace <0|1>] [--smoke]
//! ```
//!
//! This is the command line the driver of `BENCHMARK.json` uses. With
//! `--trace 0` (or without it) the run measures the end-to-end metrics
//! over the wire with tracing off; with `--trace 1` it attributes time to
//! layers. Either way every result is checked against the brute-force
//! oracle, every metric is printed by name with unit and sample count,
//! and the last line of standard output is the JSON result. README.md
//! beside the manifest defines every name.

mod host;
mod layers;
mod ops;
mod oracle;
mod stats;
mod system;
mod wire;

use std::time::Instant;

use lidardb_core::MetricsRegistry;

use ops::{Class, Op, Scale, Workload};
use oracle::Expected;
use stats::{percentile_of, quiet_cost, quiet_rate, Metric};
use system::Inputs;
use wire::Pass;

/// Counts only while `host::peak_heap_mb` runs; see there.
#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What a run reports: the metrics of its mode, and how many operations
/// it attempted and how many of them failed or disagreed with the oracle.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> [--trace <0|1>] [--smoke]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut trace, mut smoke) = (false, false);
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).map(String::as_str);
        // Flags that take a value consume two arguments, the others one.
        i += match (argv[i].as_str(), value) {
            ("--workload", Some(v)) => {
                workload = Some(Workload::from_name(v).unwrap_or_else(|| usage()));
                2
            }
            ("--seed", Some(v)) => {
                seed = Some(v.parse().unwrap_or_else(|_| usage()));
                2
            }
            ("--seconds", Some(v)) => {
                seconds = Some(v.parse().unwrap_or_else(|_| usage()));
                2
            }
            ("--trace", Some(v @ ("0" | "1"))) => {
                trace = v == "1";
                2
            }
            ("--smoke", _) => {
                smoke = true;
                1
            }
            _ => usage(),
        };
    }
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        seed: seed.unwrap_or_else(|| usage()),
        seconds: seconds.unwrap_or_else(|| usage()),
        trace,
        scale: if smoke { Scale::smoke() } else { Scale::full() },
    }
}

/// Untimed → timed transition: nothing that ran before may leak into the
/// numbers, and the program's own tracer is on only in the traced run.
pub fn quiesce(tracing: bool) {
    MetricsRegistry::global().reset();
    lidardb_core::trace::set_enabled(tracing);
}

/// The measured run: the system is set up, serves one warm-up pass and
/// then whole passes for `--seconds` with tracing off, and is torn down;
/// then it is set up again from scratch, at least three times in all.
fn measure(args: &Args, inputs: &Inputs, ops: &[Op], expected: &[Expected]) -> Report {
    quiesce(false);
    host::reset_peak_rss();
    let mut sys = system::set_up(args.workload, inputs, &args.scale);
    let mut setups = vec![sys.times.total_s];
    let setup_rss_mb = host::peak_rss_mb();

    let (mem0, spin0) = (host::mem_stream_gbps(), host::spin_ms());
    // From here on the resident peak is the serving phase's own.
    host::reset_peak_rss();
    // The warm-up pass is untimed, so it is the one the allocator counts.
    let (warm, peak_heap_mb) =
        host::peak_heap_mb(|| wire::run_pass(&mut sys.client, ops, expected, |_, _| {}));
    let (mut attempted, mut failed) = (warm.ops() as u64, warm.failed);
    let mut passes: Vec<Pass> = Vec::new();
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < args.seconds || passes.len() < 2 {
        sys.reset_stream();
        quiesce(false);
        let pass = wire::run_pass(&mut sys.client, ops, expected, |_, _| {});
        attempted += pass.ops() as u64;
        failed += pass.failed;
        passes.push(pass);
    }
    let measured_s = phase.elapsed().as_secs_f64();
    let serving_rss_mb = host::peak_rss_mb();
    let (mem1, spin1) = (host::mem_stream_gbps(), host::spin_ms());

    let points = sys.points as u64;
    let acked_rows = match args.workload {
        Workload::IngestMixed => passes.last().map_or(0, |p| p.points),
        _ => 0,
    };
    let down = sys.tear_down(acked_rows);
    if args.workload == Workload::IngestMixed && down.recovered_rows != points + acked_rows {
        eprintln!(
            "cold reopen recovered {} rows, {} were acknowledged",
            down.recovered_rows,
            points + acked_rows
        );
        // Every insert of the pass counts as failed.
        failed += (ops.len() * 4 / 5) as u64;
    }

    // Quick set-ups repeat more often, so that their median is as steady
    // as that of the slow ones.
    while setups.len() < 3 || (setups.len() < 9 && setups.iter().sum::<f64>() < 2.5) {
        let again = system::set_up(args.workload, inputs, &args.scale);
        setups.push(again.times.total_s);
        again.tear_down_quietly();
    }

    let per_pass = |f: fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let n = passes.len();
    println!(
        "{}: seed {}, {points} points, {} ops/pass, {n} passes in {measured_s:.1} s",
        args.workload.name(),
        args.seed,
        ops.len(),
    );
    for class in [Class::Light, Class::Mid, Class::Heavy] {
        let ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.samples.iter().zip(ops))
            .filter(|(_, op)| op.class == class)
            .map(|(s, _)| s.ms)
            .collect();
        if !ms.is_empty() {
            println!(
                "  class {class:?}: {} ops/pass, latency p10/p50/p90 {:.2}/{:.2}/{:.2} ms",
                ms.len() / n,
                percentile_of(&ms, 0.1),
                percentile_of(&ms, 0.5),
                percentile_of(&ms, 0.9)
            );
        }
    }
    println!("  pass wall s: {:.3?}", per_pass(|p| p.wall_s));
    println!(
        "  pass p50 ms: {:.3?}",
        per_pass(|p| p.latency_percentile_ms(0.50))
    );
    println!(
        "  pass p95 ms: {:.2?}",
        per_pass(|p| p.latency_percentile_ms(0.95))
    );
    println!("  set-ups s: {setups:.3?}");
    println!(
        "  calibration before/after: mem {mem0:.2}/{mem1:.2} GB/s, spin {spin0:.1}/{spin1:.1} ms"
    );
    println!(
        "  peak RSS: {setup_rss_mb:.0} MB during the first set-up, {serving_rss_mb:.0} MB while serving \
         (not gated: allocator retention moves it between identical runs)"
    );
    let metrics = vec![
        Metric::new("setup_s", "s", stats::median(&setups), setups.len()),
        Metric::new(
            "op_p50_ms",
            "ms",
            quiet_cost(&per_pass(|p| p.latency_percentile_ms(0.50))),
            n,
        ),
        Metric::new(
            "op_p95_ms",
            "ms",
            quiet_cost(&per_pass(|p| p.latency_percentile_ms(0.95))),
            n,
        ),
        Metric::new(
            "ops_per_s",
            "1/s",
            quiet_rate(&per_pass(Pass::ops_per_s)),
            n,
        ),
        Metric::new(
            "points_per_s",
            "1/s",
            quiet_rate(&per_pass(Pass::points_per_s)),
            n,
        ),
        Metric::new(
            "cpu_ms_per_op",
            "ms",
            quiet_cost(&per_pass(Pass::cpu_ms_per_op)),
            n,
        ),
        Metric::new("peak_heap_mb", "MB", peak_heap_mb, 1),
        Metric::new(
            "bytes_per_point",
            "B",
            down.disk_bytes as f64 / down.disk_points as f64,
            down.disk_points as usize,
        ),
    ];
    Report {
        metrics,
        attempted,
        failed,
    }
}

/// Everything that happens before any clock: the inputs, the operation
/// list and what the oracle expects of each operation.
pub fn prepare(args: &Args) -> (Inputs, Vec<Op>, Vec<Expected>) {
    let t0 = Instant::now();
    let mut inputs = system::make_inputs(args.seed, &args.scale);
    let ops = ops::generate(
        args.workload,
        args.seed,
        &inputs.scene,
        &inputs.records,
        &args.scale,
    );
    let t_oracle = Instant::now();
    let expected = oracle::expectations(&ops, &inputs.records);
    // The raw records have served their purpose; the system under test
    // loads the LAS tiles.
    let generated = std::mem::take(&mut inputs.records).len();
    println!(
        "inputs: {generated} points in {} LAS tiles ({:.1} MB) generated in {:.2} s; oracle {:.2} s; {:.2} s before set-up",
        inputs.las_files.len(),
        inputs.las_bytes as f64 / 1e6,
        inputs.gen_s,
        t_oracle.elapsed().as_secs_f64(),
        t0.elapsed().as_secs_f64(),
    );
    (inputs, ops, expected)
}

fn main() {
    let args = parse_args();
    let t0 = Instant::now();
    let (inputs, ops, expected) = prepare(&args);

    let report = if args.trace {
        layers::trace_run(&args, &inputs, &ops, &expected)
    } else {
        measure(&args, &inputs, &ops, &expected)
    };
    println!(
        "{} metrics",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    for m in &report.metrics {
        println!(
            "  {:<34} {:>16.6} {:<8} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "fail_ratio = {}/{}; total wall {:.1} s",
        report.failed,
        report.attempted,
        t0.elapsed().as_secs_f64()
    );
    // A number that is not finite is a broken metric, not a result.
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("metric {} is {}: no result", m.name, m.value);
        std::process::exit(1);
    }
    // Remove the LAS tiles before the result line, the last thing printed.
    drop(inputs);
    println!(
        "{}",
        stats::result_line(report.attempted, report.failed, &report.metrics)
    );
    if report.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one array of `BENCHMARK.json`.
    fn section(text: &str, key: &str) -> Vec<(String, String)> {
        let from = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[from..from + text[from..].find(']').expect("section closes")];
        let field = |entry: &str, name: &str| -> String {
            entry
                .find(&format!("\"{name}\""))
                .and_then(|at| entry[at + name.len() + 2..].split('"').nth(1))
                .unwrap_or_default()
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    /// `BENCHMARK.json` must name exactly what the two modes print. One
    /// test runs both modes, one after the other, because the registry
    /// they read is process-wide.
    #[test]
    fn benchmark_json_names_the_metrics_the_binary_prints() {
        let _alone = layers::WHOLE_RUN
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repository root");
        let workloads: Vec<String> = section(&text, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));

        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                workload: Workload::NavFlat,
                seed: 5,
                seconds: 0.0,
                trace,
                scale: layers::tiny_scale(),
            };
            let (inputs, ops, expected) = prepare(&args);
            let report = if trace {
                layers::trace_run(&args, &inputs, &ops, &expected)
            } else {
                measure(&args, &inputs, &ops, &expected)
            };
            assert_eq!(report.failed, 0);
            let printed: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(printed, section(&text, key), "{key} of BENCHMARK.json");
        }
    }
}
