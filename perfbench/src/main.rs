//! The repository benchmark: three ALDSP workloads, each measured end
//! to end with tracing off, and split into layers by a traced run.
//!
//! ```text
//! perfbench --workload <profile_update|page_query|etl_copy>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines start with `#`; the last line of standard
//! output is one JSON object. The exit code is 1 when any output or
//! stationarity check fails and 2 on a usage error.

mod common;
mod etl;
mod pooled;

use pooled::Kind;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    // The benchmark measures the default feature set: an environment
    // kill switch would change what runs.
    if let Some(var) = std::env::vars()
        .map(|(k, _)| k)
        .find(|k| k.starts_with("XQSE_"))
    {
        eprintln!("perfbench: refusing to run with {var} set; unset every XQSE_* variable");
        std::process::exit(2);
    }
    let report = match args.workload.as_str() {
        "profile_update" => pooled::run(Kind::ProfileUpdate, &args),
        "page_query" => pooled::run(Kind::PageQuery, &args),
        "etl_copy" => etl::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    report.print(args.trace);
    if !report.correct() {
        std::process::exit(1);
    }
}
