//! `phbench` — the repository's benchmark of record: one seeded driver, four
//! workloads, a layered ledger. See the README beside this crate.
//!
//! ```text
//! phbench --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
//! phbench run [--seed N] [--workload W] [--traced] [--smoke] --out FILE
//! phbench compare A.json[,A2.json…] B.json[,B2.json…]
//! ```
//!
//! The first form runs one workload in this process and prints one JSON
//! result line last on stdout: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `run` re-executes this binary once per
//! workload — so `peak_rss_mib` is per workload — at the 10 s `BENCHMARK.json`
//! names (2 s with `--smoke`) and collects the lines into a file `compare`
//! reads. Repeats are more invocations of `run`: `compare` pools the files of
//! a side, which is also the only way to measure two binaries alternately.

mod affinity;
mod inputs;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use ph_server::Json;

use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Recorder;
use workloads::{Run, Scale};

/// Spans a traced run can hold; a 3 s query loop records about 100 000.
const SPAN_CAPACITY: usize = 1 << 20;

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad value for {flag}: {v}")))
            .transpose()
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match argv.as_slice() {
            [_, a, b] => report::compare(a, b),
            _ => Err("usage: phbench compare A.json[,A2.json…] B.json[,B2.json…]".into()),
        },
        Some("run") => {
            argv.remove(0);
            run_all(&Args(argv))
        }
        _ => run_one(&Args(argv)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("phbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process. `Ok(false)` when a correctness gate failed.
fn run_one(args: &Args) -> Result<bool, String> {
    let workload = args.value("--workload").ok_or("--workload is required")?;
    let seed: u64 = args.parsed("--seed")?.ok_or("--seed is required")?;
    let seconds: f64 = args.parsed("--seconds")?.ok_or("--seconds is required")?;
    let traced = match args.value("--trace") {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds must be between 1 and 60, not {seconds}"));
    }
    let tmp = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".phbench_tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let mut run = Run {
        seed,
        scale: Scale { seconds, traced },
        rec: Recorder::new(traced, SPAN_CAPACITY),
        out: Outcome::default(),
        tmp: tmp.clone(),
    };
    let known = workloads::run(workload, &mut run);
    let _ = std::fs::remove_dir_all(&tmp);
    // Leaves `.phbench_tmp` itself only while another run is using it.
    let _ = tmp.parent().map(std::fs::remove_dir);
    if !known {
        let list: String = WORKLOADS
            .iter()
            .map(|w| format!("\n  {} — {}", w.name, w.why))
            .collect();
        return Err(format!("no workload {workload:?}; there are:{list}"));
    }
    if traced {
        probes::report_seal_unattributed(&mut run.out);
        let encoded = probes::report_spans(&mut run);
        for (name, count, total_us, self_us) in run.rec.summary() {
            eprintln!(
                "span {name:<34} {count:>8} × {:>12.1} µs mean, {:>5.1} % self",
                total_us / count.max(1) as f64,
                self_us / total_us.max(1e-9) * 100.0
            );
        }
        if let Some(path) = args.value("--spans") {
            std::fs::write(path, encoded).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    for failure in &run.out.failures {
        eprintln!("FAILED {failure}");
    }
    println!(
        "{}",
        run.out
            .result_line(if traced { &PER_LAYER } else { &END_TO_END })?
    );
    Ok(run.out.failed == 0)
}

/// Every workload (or one), each run in a child process, into `--out`.
fn run_all(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let out_path = args.value("--out").ok_or("--out is required")?;
    let seconds: u64 = if args.has("--smoke") { 2 } else { 10 };
    let traced = args.has("--traced");
    let only = args.value("--workload");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results: Vec<(&str, Json)> = Vec::new();
    let mut clean = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut child = Command::new(&exe);
        child.args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]);
        child.args(["--trace", if traced { "1" } else { "0" }]);
        if traced {
            child
                .arg("--spans")
                .arg(format!("{out_path}.{}.spans", w.name));
        }
        let output = child
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let doc = Json::parse(line).map_err(|e| format!("{}: no result line ({e})", w.name))?;
        clean &= output.status.success();
        eprintln!(
            "{}: {}",
            w.name,
            if output.status.success() {
                "ok"
            } else {
                "FAILED"
            }
        );
        results.push((w.name, doc));
    }
    if results.is_empty() {
        return Err(format!("no workload {only:?}"));
    }
    std::fs::write(out_path, report::run_file(seed, seconds, traced, &results))
        .map_err(|e| format!("{out_path}: {e}"))?;
    Ok(clean)
}
