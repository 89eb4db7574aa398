//! `perfbench --workload <model-start|steady-sim|serve-mixed|all> --seed N
//! --seconds S --trace 0|1`: runs the limpet-rs benchmark and prints, as
//! its last line, `{"correct","attempted","failed","metrics"}`.

use perfbench::{run_workload, scratch_dir, Args, WORKLOADS};
use serve::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::var_os("LIMPET_INJECT").is_some() {
        eprintln!("perfbench: refusing to run with LIMPET_INJECT set (fault injection would skew every number)");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("provenance {}", perfbench::report::provenance(args.seed));
    if args.workload == "all" {
        return run_all(&argv);
    }
    let tmp = scratch_dir();
    // A killed run leaves its directory behind, and a later run can get
    // the same pid: the cold phase needs an empty disk cache.
    if let Err(e) = std::fs::remove_dir_all(&tmp) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("perfbench: cannot clear {}: {e}", tmp.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::create_dir_all(tmp.join("tmp")) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let tmp = match tmp.canonicalize() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts: the C compiler, the native tier's temp
    // files and any default cache location all stay inside the scratch
    // directory.
    std::env::set_var("TMPDIR", tmp.join("tmp"));
    std::env::set_var("LIMPET_CACHE_DIR", tmp.join("default-cache"));
    let outcome = run_workload(&args.workload, &args, &tmp);
    if let Err(e) = std::fs::remove_dir_all(&tmp) {
        eprintln!("perfbench: cannot remove {}: {e}", tmp.display());
    }
    match outcome {
        Ok(o) => {
            println!("{}", o.result_json());
            if o.checks.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every workload in its own process (each starts and stops a
/// daemon, whose shutdown flag latches) and prints one combined line
/// with the metrics keyed `workload:metric`.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a.clone());
        }
    }
    let (mut attempted, mut failed, mut ok) = (0.0, 0.0, true);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(w)
            .args(&rest)
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                return ExitCode::from(2);
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().and_then(|l| Json::parse(l).ok());
        for l in lines {
            println!("{l}");
        }
        let Some(Json::Obj(result)) = last else {
            eprintln!("perfbench: {w} printed no result");
            return ExitCode::from(2);
        };
        ok &= out.status.success();
        attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if let Some(Json::Obj(m)) = result.get("metrics") {
            metrics.extend(m.iter().map(|(k, v)| (format!("{w}:{k}"), v.clone())));
        }
    }
    let result = Json::obj(vec![
        ("correct", (failed == 0.0).into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::Obj(metrics.into_iter().collect())),
    ]);
    println!("{result}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
