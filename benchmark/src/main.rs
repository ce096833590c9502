//! The IBIS benchmark: timed end-to-end runs of four workloads through
//! the public engine API, checked for correctness, plus a traced pass
//! that measures each layer by replaying the recorded call streams.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W]... [--seed N] [--seconds S] [--trace 0|1] \
//!     [--out results.json] [--check saved.json]
//! ```
//!
//! Without `--trace` both passes run. `--trace 0` runs the timed pass
//! only and reports the end-to-end metrics, `--trace 1` the traced pass
//! only and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 1 when a check fails or `--check` finds a
//! regression, 2 on a usage error.

use ibis_benchmark::check;
use ibis_benchmark::layers;
use ibis_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use ibis_benchmark::results::{self, WorkloadResult};
use ibis_benchmark::run;
use ibis_benchmark::workloads::{Kind, Workload};
use ibis_benchmark::DEFAULT_SECONDS;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: ibis_benchmark::alloc::CountingAlloc = ibis_benchmark::alloc::CountingAlloc;

const USAGE: &str = "usage: ibis-benchmark [--workload W]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE] [--check FILE]";

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                let k = Kind::parse(&v).ok_or_else(|| {
                    format!("unknown workload {v:?} (known: {})", names.join(", "))
                })?;
                a.workloads.push(k);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                });
            }
            "--out" => a.out = Some(value()?),
            "--check" => a.check = Some(value()?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = Kind::ALL.to_vec();
    }
    Ok(a)
}

/// The source revision, when the benchmark runs inside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let ibis_env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("IBIS_"))
        .collect();
    let provenance = results::Provenance {
        rev: git_rev(),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed: args.seed,
        seconds: args.seconds,
        ibis_env,
    };
    provenance.print();
    // Every environment-read config field is pinned by the workloads, so
    // these variables cannot change a measurement; clearing them keeps a
    // malformed one from aborting the config defaults that parse it.
    for (k, _) in &provenance.ibis_env {
        std::env::remove_var(k);
    }

    let mut out = Vec::new();
    for &kind in &args.workloads {
        let w = Workload::build(kind, args.seed);
        let mut res = WorkloadResult::new(kind.name());
        if args.trace != Some(true) {
            let t = run::timed_pass(&w, args.seconds);
            res.add_timed(&t);
        }
        if args.trace != Some(false) {
            let l = layers::traced_pass(&w);
            res.add_traced(&l);
        }
        res.print();
        out.push(res);
    }

    let mut code = ExitCode::SUCCESS;
    if out.iter().any(|r| !r.correct()) {
        code = ExitCode::FAILURE;
    }
    if let Some(path) = &args.out {
        if let Err(e) = results::save(path, &provenance, &out) {
            eprintln!("cannot write {path}: {e}");
            code = ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.check {
        match check::against(path, &out) {
            Ok(true) => {}
            Ok(false) => code = ExitCode::FAILURE,
            Err(e) => {
                eprintln!("--check {path}: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    let lists: Vec<&[Metric]> = match args.trace {
        Some(false) => vec![&END_TO_END],
        Some(true) => vec![&PER_LAYER],
        None => vec![&END_TO_END, &PER_LAYER],
    };
    println!("{}", results::summary_line(&out, &lists));
    code
}
