//! The repository benchmark: the offload path (activation tensor →
//! codec → DMA line table → timeline stall) and the served-request path
//! (submit → admission → queue → kernel → completion), end to end and
//! module by module.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offload_zvc --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `offload_zvc`, `offload_entropy`, `serve_mixed`,
//! `cluster_fabric` (see `RATIONALE.md`). With `--trace 0` the last line
//! of standard output is a JSON object carrying every end-to-end metric;
//! with `--trace 1` the run records spans around each call into the
//! program and reports every per-layer metric instead, and writes the
//! per-layer ledger and Chrome trace-event files (open them in Perfetto)
//! under `perfbench/results/`. A failed correctness gate exits 1.

mod cluster;
mod host;
mod offload;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Report, END_TO_END};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the timed one.
    pub trace: bool,
    /// Where ledgers and trace files go.
    pub out_dir: PathBuf,
}

const USAGE: &str =
    "usage: cdma-perfbench --workload <offload_zvc|offload_entropy|serve_mixed|cluster_fabric> \
                     --seed <u64> --seconds <n> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results"),
    })
}

/// Peak resident set (VmHWM) in MB; 0 where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes `<out_dir>/<workload>.seed<n>.<suffix>`, warning on failure.
pub fn write_result(args: &Args, suffix: &str, body: &str) {
    let path = args
        .out_dir
        .join(format!("{}.seed{}.{suffix}", args.workload, args.seed));
    let res = std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, body));
    if let Err(e) = res {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Runs `setup` `reps` times and returns the last result with the
/// median set-up time in seconds. Each earlier result goes to `discard`
/// (untimed) before the next set-up starts.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = host::Fingerprint::probe();
    eprintln!("host: {fingerprint}");

    let mut report: Report = match args.workload.as_str() {
        "offload_zvc" | "offload_entropy" => offload::run(&args),
        "serve_mixed" => serve::run(&args),
        "cluster_fabric" => cluster::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        report.metrics.set("peak_rss_mb", peak_rss_mb());
    }
    report.metrics.set("fail_frac", report.outcomes.fail_frac());
    let o = report.outcomes;
    report.gate(o.balanced(), || {
        format!(
            "attempted {} != completed {} + shed {} + failed {} + mismatched {}",
            o.attempted, o.completed, o.shed, o.failed, o.mismatched
        )
    });
    report.gate(o.mismatched == 0 && o.failed == 0, || {
        format!(
            "{} wrong results, {} failed operations",
            o.mismatched, o.failed
        )
    });
    if args.trace {
        // The workload split the layer predictions rest on.
        let share = |name: &str| report.metrics.get(name).unwrap_or(0.0);
        let (sim, codec) = (share("selftime.sim_share"), share("selftime.codec_share"));
        let split = match args.workload.as_str() {
            "offload_zvc" => Some((sim > 0.5, "simulator self time is the majority")),
            "offload_entropy" => Some((codec > 0.5, "AD + HF codec self time is the majority")),
            "cluster_fabric" => Some((codec == 0.0, "no codec self time")),
            _ => None,
        };
        if let Some((ok, claim)) = split {
            report.gate(ok, || {
                format!("workload split: expected {claim}, got sim {sim:.3}, codec {codec:.3}")
            });
        }
    }

    for note in &report.notes {
        eprintln!("{note}");
    }
    let names: Vec<(String, &str)> = if args.trace {
        let mut names = report::per_layer();
        if args.workload == "cluster_fabric" {
            names.extend(report::cluster_layer());
        }
        names
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut summary = format!(
        "# {} seed={} trace={} {fingerprint}\n",
        args.workload, args.seed, args.trace as u8
    );
    for (n, u) in &names {
        let v = report.metrics.get(n).unwrap_or(0.0) + 0.0;
        summary.push_str(&format!("{n:<36} {v:>16.6} {u}\n"));
    }
    eprint!("{summary}");
    let suffix = if args.trace { "layers.txt" } else { "e2e.txt" };
    write_result(&args, suffix, &summary);

    let correct = report.gates.is_empty();
    for g in &report.gates {
        eprintln!("GATE FAILED: {g}");
    }
    println!(
        "{}",
        report::result_line(correct, &report.outcomes, &report.metrics, &names)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_mixed --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("serve_mixed", 7, true)
        );
        assert_eq!(a.seconds, Duration::from_secs(20));
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }
}
