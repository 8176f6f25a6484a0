//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! perfbench compare <dirA> <dirB>
//! ```
//!
//! A run prints one JSON result line on stdout (progress goes to stderr)
//! and exits non-zero when an output check fails or a metric cannot be
//! measured. A traced run also writes its spans to
//! `target/benchmark-trace/<workload>-<seed>.json`. `compare` reads the
//! bounds from `BENCHMARK.json` in the current directory and result files
//! named `<workload>-<anything>` from each directory.

use dyncon_perfbench::compare::{compare, load_runs, Spec};
use dyncon_perfbench::workloads::{self, Sizes, Workload};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <u64> --seconds <s> --trace <0|1>\n       perfbench compare <dirA> <dirB>";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn run(args: RunArgs) -> Result<(), String> {
    eprintln!(
        "perfbench: {} seed {}, work sized for {} s{}, {} threads (machine has {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.traced { ", traced" } else { "" },
        workloads::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let out = workloads::run(
        args.workload,
        &Sizes::full(args.seconds),
        args.seed,
        args.traced,
    )?;
    if let Some(json) = &out.chrome_trace {
        let dir = Path::new("target/benchmark-trace");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-{}.json", args.workload.name(), args.seed));
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: trace written to {}", path.display());
    }
    println!("{}", out.to_json(out.mismatch.is_none(), args.traced)?);
    match out.mismatch {
        Some(m) => Err(format!("output check failed: {m}")),
        None => Ok(()),
    }
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let spec =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = Spec::parse(&spec)?;
    let (text, regressed) = compare(&spec, &load_runs(Path::new(a))?, &load_runs(Path::new(b))?);
    println!("{text}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => run_compare(&args[1], &args[2]).map(|regressed| {
            if regressed {
                eprintln!("perfbench: B is worse than A beyond a bound");
            }
            !regressed
        }),
        Some("compare") => Err(USAGE.to_string()),
        _ => parse_run(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(run)
            .map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
