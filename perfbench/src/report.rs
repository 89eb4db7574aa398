//! Statistics, output checks, host provenance and the result line.

use serve::Json;
use std::collections::BTreeMap;

/// Median (mean of the middle pair for even lengths); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 100]; NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// FNV-1a over the membrane-potential bits of `vm`, cell by cell — the
/// hash `limpet_harness::trajectory_digest` computes.
pub fn vm_digest(vm: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in vm {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Whether two membrane-potential vectors agree cell by cell within the
/// relative tolerance `tests/end_to_end.rs` holds the vectorized
/// pipeline to.
pub fn within_tolerance(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() / x.abs().max(1.0) < 1e-5)
}

/// Golden digests for the default seed, keyed by
/// `(model, config label, cells, steps)`.
pub fn golden() -> BTreeMap<(String, String, usize, usize), u64> {
    let mut out = BTreeMap::new();
    for line in include_str!("../golden.txt").lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 5 || line.starts_with('#') {
            continue;
        }
        let (Ok(cells), Ok(steps), Ok(digest)) =
            (f[2].parse(), f[3].parse(), u64::from_str_radix(f[4], 16))
        else {
            continue;
        };
        out.insert((f[0].to_string(), f[1].to_string(), cells, steps), digest);
    }
    out
}

/// Tallies operations and output-check failures.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were rejected, or failed an output check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that failed.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records an extra output-check failure against an operation
    /// already counted.
    pub fn mismatch(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The metrics as the result line's `metrics` object (non-finite
    /// values are left out: a metric that could not be measured is
    /// missing, never zero).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .filter(|(_, v, _)| v.is_finite())
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::obj(vec![("value", (*v).into()), ("unit", Json::str(*u))]),
                    )
                })
                .collect(),
        )
    }
}

/// Peak resident memory of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    // Git must not search above the working directory for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    std::process::Command::new(cmd)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and run provenance: CPU model and vector flags, core count,
/// C compiler, source commit, seed and command line.
pub fn provenance(seed: u64) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map(|v| v.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let flags = field("flags");
    let vector_flags: Vec<&str> = flags
        .split_whitespace()
        .filter(|f| f.starts_with("avx") || f.starts_with("sse") || *f == "fma")
        .collect();
    Json::obj(vec![
        ("cpu", Json::str(field("model name"))),
        ("cpu_flags", Json::str(vector_flags.join(" "))),
        ("nproc", limpet_harness::available_cores().into()),
        ("cc", Json::str(first_line_of("cc", &["--version"]))),
        (
            "commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", seed.into()),
        (
            "command",
            Json::str(std::env::args().collect::<Vec<_>>().join(" ")),
        ),
    ])
}
