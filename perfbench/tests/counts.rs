//! Counts repeat exactly: a small-size traced run of a workload, done
//! twice at the same seed, reports the same value for every count.
//! Later count-based claims depend on this.

use std::collections::BTreeMap;
use std::process::Command;

fn counts(workload: &str, dir: &std::path::Path) -> BTreeMap<String, f64> {
    std::fs::create_dir_all(dir).expect("create the run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", "1", "--size", "small"])
        .current_dir(dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "perfbench failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result = serve::Json::parse(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(serve::Json::as_bool),
        Some(true)
    );
    let Some(serve::Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics in {last}");
    };
    metrics
        .iter()
        .filter(|(_, m)| {
            matches!(
                m.get("unit").and_then(serve::Json::as_str),
                Some("count" | "bytes")
            )
        })
        .map(|(k, m)| {
            (
                k.clone(),
                m.get("value")
                    .and_then(serve::Json::as_f64)
                    .expect("a value"),
            )
        })
        .collect()
}

#[test]
fn counts_repeat_exactly() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("counts");
    let first = counts("steady-sim", &dir.join("a"));
    let second = counts("steady-sim", &dir.join("b"));
    for key in [
        "vm.lut_bytes",
        "persist.entry_bytes",
        "cache.cold_compiles",
        "persist.rejects",
        "vm.instrs_per_cell_step.scalar",
        "vm.bytes_per_cell_step.vec",
        "vm.static_instrs",
        "native.promoted",
        "serve.rejected",
    ] {
        assert!(first.contains_key(key), "missing count {key}");
    }
    assert_eq!(first, second);
}
