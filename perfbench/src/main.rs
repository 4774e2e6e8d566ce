//! `perfbench` — the workspace's one benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload ior-10k|bulk-120|random-1k] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` (default) runs the untraced end-to-end measurement;
//! `--trace 1` runs the traced per-layer measurement. Without
//! `--workload`, every workload runs, each in its own child process.
//! The last line of standard output is the result object.
//!
//! The untraced run samples set-ups in fresh processes: it runs itself
//! with `--setup-sample`, which times one set-up and prints it as
//! `key value` lines instead of a result.

use std::process::ExitCode;

use mccio_perfbench::report::{self, Metric};
use mccio_perfbench::run::{self, Checks, Config};
use mccio_perfbench::spec::{self, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_sample: bool,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        setup_sample: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-sample" {
            args.setup_sample = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a duration"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: use 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload.as_deref() else {
        return run_all(&raw);
    };
    let Some(spec) = spec::by_name(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {name} (use {})",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let cfg = Config::new(spec, args.seed, args.seconds);
    if args.setup_sample {
        let (secs, checks) = run::setup_sample(&cfg);
        println!(
            "setup_s {secs}\nattempted {}\nfailed {}",
            checks.attempted, checks.failed
        );
        for why in &checks.failures {
            println!("failure {why}");
        }
        for why in &checks.inexact {
            println!("inexact {why}");
        }
        return ExitCode::SUCCESS;
    }
    println!(
        "perfbench: workload {} ({} ranks, {} MiB per op), seed {}, {} s, trace {}",
        spec.name,
        spec.ranks,
        spec.op_bytes() >> 20,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", report::host_description());
    let (checks, metrics) = if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let t = run::traced(&cfg, &dir);
        println!(
            "traced run: {} untraced + {} traced pairs interleaved; untraced pair wall {}; traced {}",
            t.untraced_walls.len(),
            t.traced_walls.len(),
            report::summary(&t.untraced_walls, "s"),
            report::summary(&t.traced_walls, "s")
        );
        if !t.trace_path.is_empty() {
            println!("trace: {}", t.trace_path);
        }
        let m = report::per_layer(&t);
        (t.checks, m)
    } else {
        let children = child_setups(&raw);
        let mut e = run::end_to_end(&cfg);
        for child in children {
            match child {
                Ok(lines) => absorb_setup(&lines, &mut e.setup_s, &mut e.checks),
                Err(why) => {
                    e.checks.attempted += 2;
                    e.checks.failed += 2;
                    e.checks.failures.push(why);
                }
            }
        }
        println!("setup_s samples: {}", report::summary(&e.setup_s, "s"));
        println!(
            "write_wall_s samples: {}",
            report::summary(&e.write_walls, "s")
        );
        println!(
            "read_wall_s samples: {}",
            report::summary(&e.read_walls, "s")
        );
        println!(
            "harness (untimed): input {}, verify {}",
            report::summary(&e.input_s, "s"),
            report::summary(&e.verify_s, "s")
        );
        let m = report::end_to_end(&e, report::peak_rss_mib());
        (e.checks, m)
    };
    print_checks(&checks);
    print_metrics(&metrics);
    println!(
        "{}",
        report::result_line(checks.correct(), checks.attempted, checks.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Runs `SETUPS - 1` set-up samples, each in a fresh process with this
/// run's flags; returns each child's output lines.
fn child_setups(raw: &[String]) -> Vec<Result<String, String>> {
    (1..run::SETUPS)
        .map(|_| {
            let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
            let out = std::process::Command::new(exe)
                .args(raw)
                .arg("--setup-sample")
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up sample: {e}"))?;
            if !out.status.success() {
                return Err(format!("set-up sample exited with {}", out.status));
            }
            String::from_utf8(out.stdout).map_err(|e| format!("set-up sample output: {e}"))
        })
        .collect()
}

/// Adds one child's set-up sample and checks to this run's.
fn absorb_setup(lines: &str, setup_s: &mut Vec<f64>, checks: &mut Checks) {
    for line in lines.lines() {
        let (key, value) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "setup_s" => setup_s.extend(value.parse::<f64>().ok()),
            "attempted" => checks.attempted += value.parse::<u64>().unwrap_or(0),
            "failed" => checks.failed += value.parse::<u64>().unwrap_or(0),
            "failure" => checks.failures.push(format!("set-up sample: {value}")),
            "inexact" => checks.inexact.push(format!("set-up sample: {value}")),
            _ => {}
        }
    }
}

fn print_checks(checks: &Checks) {
    if let Some(sig) = checks.reference() {
        println!(
            "exact: every op virtual write {:.9} s (bits {:#018x}), read {:.9} s (bits {:#018x})",
            sig.write_secs(),
            sig.write_bits,
            sig.read_secs(),
            sig.read_bits
        );
    }
    println!(
        "ops: {} attempted, {} failed, failed_op_share {}",
        checks.attempted,
        checks.failed,
        checks.failed_share()
    );
    for why in checks.failures.iter().chain(&checks.inexact) {
        println!("CHECK FAILED: {why}");
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
}

/// Runs every workload, each in its own child process, with the same
/// flags.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for spec in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(raw)
            .args(["--workload", spec.name])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {} exited with {s}", spec.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", spec.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
