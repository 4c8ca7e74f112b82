//! The repo's benchmark. `README.md` beside this crate is the manual.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's form)
//! benchmark run [--runs R] [--seed N] [--seconds S] [--smoke] [--out F]
//! benchmark trace [--seed N] [--seconds S] [--smoke] [--out F]
//! benchmark ladder [--seconds S] [--smoke]
//! benchmark compare A.json B.json
//! benchmark check RESULT.json BENCHMARK.json
//! benchmark manifest
//! ```

mod alloc;
mod host;
mod json;
mod ladder;
mod load;
mod metrics;
mod oracle;
mod refk;
mod report;
mod spans;
mod stats;
mod workloads;

use metrics::{Metrics, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{RunCfg, RunOut};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where spans and scratch files go: inside the benchmark's own
/// directory, so a run reads and writes only inside its checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--flag value` pairs after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} expects a number, got {v:?}")),
        }
    }

    fn positional(&self, i: usize) -> Result<&str, String> {
        self.0.get(i).map(String::as_str).ok_or_else(|| "missing file argument".to_owned())
    }
}

/// One workload, traced or not, plus the ladder when traced: the values
/// of every metric this invocation owes.
fn one_run(workload: &str, cfg: RunCfg) -> Result<(RunOut, Metrics), String> {
    let mut out = workloads::run(workload, cfg).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!("unknown workload {workload:?}; expected one of {names:?}")
    })?;
    let mut layer = Metrics::default();
    if cfg.trace {
        out.spans
            .write(&out_dir().join(format!("spans-{workload}.json")), workload)
            .map_err(|e| format!("cannot write spans: {e}"))?;
        // The ladder takes the two thirds of the run the traced workload
        // left, so a traced run costs what an untraced one does.
        let (cells, tally) = ladder::run(cfg, cfg.seconds * 2.0 / 3.0, &out_dir());
        layer = cells;
        out.tally.absorb(&tally);
    }
    layer.absorb(&out.layer);
    Ok((out, layer))
}

fn run_cfg(args: &Args, trace: bool) -> Result<RunCfg, String> {
    let cfg = RunCfg {
        seconds: args.num("--seconds", RUN_SECONDS as f64)?,
        seed: args.num("--seed", 1u64)?,
        smoke: args.has("--smoke"),
        trace,
        nproc: host::nproc(),
    };
    if !(cfg.seconds >= 1.0 && cfg.seconds <= 600.0) {
        return Err(format!("--seconds must be between 1 and 600, got {}", cfg.seconds));
    }
    Ok(cfg)
}

fn driver(args: &Args) -> Result<ExitCode, String> {
    let workload = args.get("--workload").ok_or("--workload is required")?.to_owned();
    let trace = args.num("--trace", 0u8)? != 0;
    let cfg = run_cfg(args, trace)?;
    let load_before = host::loadavg1();
    let (out, layer) = one_run(&workload, cfg)?;
    for f in &out.flags {
        eprintln!("invalid: {f}");
    }
    let t = &out.tally;
    if t.failed != 0 {
        eprintln!(
            "failed: {} of {} operations ({} wrong of {} checked, {} refused or errored)",
            t.failed,
            t.attempted,
            t.wrong,
            t.checked,
            t.failed - t.wrong
        );
    }
    if std::env::var_os("DINI_BENCH_SLICES").is_some() {
        for (rate, mem, cpu) in &out.slices {
            eprintln!("slice {rate:.0} {mem:.0} {cpu:.0}");
        }
    }
    let metrics = if trace { layer.render(PER_LAYER) } else { out.e2e.render(END_TO_END) };
    if args.has("--full") {
        // What `run` / `trace` collect into a result set.
        println!("{}", report::full_line(&out, &metrics, &workload, cfg.seed, load_before));
    } else {
        println!("{}", report::result_line(&out.tally, &metrics));
    }
    Ok(ExitCode::SUCCESS)
}

fn dispatch() -> Result<ExitCode, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = if argv.first().is_some_and(|a| !a.starts_with("--")) {
        argv.remove(0)
    } else {
        String::new()
    };
    let args = Args(argv);
    match sub.as_str() {
        "" => driver(&args),
        "run" => report::run_set(&args, false),
        "trace" => report::run_set(&args, true),
        "ladder" => {
            let cfg = run_cfg(&args, true)?;
            let (m, tally) = ladder::run(cfg, cfg.seconds, &out_dir());
            print!("{}", report::ladder_table(&m));
            if tally.failed != 0 {
                return Err(format!(
                    "{} of {} checked ladder replies were wrong",
                    tally.failed, tally.checked
                ));
            }
            Ok(ExitCode::SUCCESS)
        }
        "compare" => report::compare(args.positional(0)?, args.positional(1)?),
        "check" => report::check(args.positional(0)?, args.positional(1)?),
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?} (see benchmark/README.md)")),
    }
}

fn main() -> ExitCode {
    alloc::pin_mmap_threshold();
    match dispatch() {
        Ok(code) => code,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
