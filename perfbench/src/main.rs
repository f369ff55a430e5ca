//! Benchmark of the netqos monitor: poll rounds, path evaluation and the
//! stats plane, end to end (`--trace 0`) and layer by layer
//! (`--trace 1`). Run through `perfbench/run.py`, which builds this
//! package first; see `perfbench/README.md`.

mod checks;
mod e2e;
mod inputs;
mod layers;
mod util;

use std::path::PathBuf;

struct Args {
    workload: inputs::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    inputs::Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload access-3k|paths-2k|ops-1k --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // Scratch files (the store of `ops-1k`) live under the build
    // directory of the checkout and are removed at the end.
    let work = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()))
        .join(format!("perfbench-work-{}", std::process::id()));
    let mut inputs = inputs::make_inputs(args.workload, args.seed, &work);
    let (metrics, verdict, tallies) = if args.trace {
        layers::run(&mut inputs, args.seconds, &work)
    } else {
        e2e::run(&mut inputs, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = &verdict {
        eprintln!("perfbench: outcome check failed: {e}");
    }
    metrics.print(verdict.is_ok(), &tallies);
}
