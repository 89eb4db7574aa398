//! The limpet-rs benchmark: one seeded command that runs the
//! `model-start`, `steady-sim` and `serve-mixed` workloads through the
//! public API, checks every trajectory they produce, and prints the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).
//!
//! Every workload runs the same three stages — start (EasyML source to
//! ready simulation, cold then warm), steady (stepping at 8192 cells on
//! four tiers), serve (closed-loop jobs through the daemon) — so every
//! metric is measured on every workload. After the first cold and warm
//! start pass and the set-up, the run goes through [`SLICES`] slices,
//! each with a share of every stage, so that every stage samples the
//! whole run. A workload decides which stage gets the time:
//! `model-start` starts the whole roster, `steady-sim` and
//! `serve-mixed` start only the models they run and give their own
//! stage `--seconds`; a stage that is not the workload's own runs a
//! fixed count. See `README.md` in this directory for the metric table.

#![warn(missing_docs)]

pub mod gen;
pub mod report;
pub mod serve;
pub mod start;
pub mod steady;
pub mod trace;

use crate::gen::{Job, Shape};
use crate::report::{geomean, median, percentile, Checks, Metrics};
use crate::start::Pair;
use crate::trace::Tracer;
use ::serve::Json;
use limpet_harness::{trajectory_digest, KernelCache, PipelineKind, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["model-start", "steady-sim", "serve-mixed"];

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Slices of the timed part. After the first cold and warm pass and the
/// set-up, the run goes through this many slices, and each slice runs a
/// share of every stage: further start passes, steady rounds, serve
/// jobs. A stage's samples so spread over the whole run, and one spell
/// of a fast or slow host holds only a share of them.
const SLICES: usize = 12;
/// Least serve jobs when the stage is the workload's own (at least ten
/// samples beyond p90), and the exact number otherwise (a fixed count
/// rather than a time, so that the number of samples does not follow the
/// host's speed). Steady rounds: one per slice when the stage is not the
/// workload's own.
const MIN_JOBS: usize = 100;
const SERVE_COMPANION_JOBS: usize = 300;

/// Slice `s`'s share of `n` things over [`SLICES`] slices.
fn share(n: usize, s: usize) -> usize {
    n * (s + 1) / SLICES - n * s / SLICES
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Time budget of the workload's own stage.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Reduced inputs (small-class roster, 256 cells, 20 jobs) for tests.
    pub small: bool,
    /// Also print every reference digest as a golden-file line.
    pub emit_golden: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--size
    /// small|full] [--emit-golden]`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on a missing or malformed value.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: "all".into(),
            seed: gen::DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            small: false,
            emit_golden: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--emit-golden" {
                a.emit_golden = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => a.workload = value.clone(),
                "--seed" => a.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    a.seconds = value.parse().map_err(|_| bad())?;
                    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                        return Err(bad());
                    }
                }
                "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                "--size" => match value.as_str() {
                    "small" => a.small = true,
                    "full" => a.small = false,
                    _ => return Err(bad()),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
            return Err(format!(
                "unknown workload {} (expected one of {WORKLOADS:?} or all)",
                a.workload
            ));
        }
        Ok(a)
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The printed metrics (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Operations and output-check failures.
    pub checks: Checks,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj(vec![
            ("correct", (self.checks.failed == 0).into()),
            ("attempted", self.checks.attempted.into()),
            ("failed", self.checks.failed.into()),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// A reference digest: `(model, config label, cells, steps)` → digest.
type Refs = BTreeMap<(String, String, usize, usize), u64>;

/// Computes `trajectory_digest` on the bytecode tier, checks it against
/// the golden file where the golden file has the key, and records it.
fn reference(
    name: &str,
    config: PipelineKind,
    cells: usize,
    steps: usize,
    refs: &mut Refs,
    golden: &Refs,
    checks: &mut Checks,
) -> u64 {
    let key = (name.to_string(), config.label(), cells, steps);
    if let Some(&d) = refs.get(&key) {
        return d;
    }
    let wl = Workload {
        n_cells: cells,
        steps,
        dt: 0.01,
    };
    let d = trajectory_digest(&limpet_models::model(name), config, &wl, steps)
        .expect("trajectory_digest runs without fault injection");
    if let Some(&g) = golden.get(&key) {
        if g != d {
            checks.mismatch(format!(
                "{name}/{} {cells}x{steps}: trajectory_digest {d:016x} differs from golden {g:016x}",
                config.label()
            ));
        }
    }
    refs.insert(key, d);
    d
}

fn start_names(workload: &str, small: bool) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = if workload == "model-start" {
        limpet_models::ROSTER
            .iter()
            .filter(|e| !small || e.class == limpet_models::SizeClass::Small)
            .map(|e| e.name)
            .collect()
    } else {
        // Every model a draw can pick, so the start stage does the same
        // work on every seed.
        gen::SMALL_POOL
            .iter()
            .chain(&gen::SERVE_SHORT)
            .chain(&gen::MEDIUM_POOL)
            .chain(&gen::LARGE_POOL)
            .copied()
            .collect()
    };
    names.sort_unstable();
    names.dedup();
    names
}

/// Runs one workload in this process. A process runs at most one
/// workload: the daemon's shutdown flag latches.
///
/// # Errors
///
/// Returns a description when the benchmark's own set-up fails (temp
/// directories, daemon start) — never for a failure of the program
/// under test, which lands in [`Outcome::checks`].
pub fn run_workload(workload: &str, a: &Args, tmp: &Path) -> Result<Outcome, String> {
    let io = |e: std::io::Error| e.to_string();
    let d = gen::draw(a.seed);
    let threads = limpet_harness::available_cores();
    let tr = Tracer::new(a.trace);
    let golden = report::golden();
    let mut refs = Refs::new();
    let mut checks = Checks::default();
    let cells = if a.small { 256 } else { 8192 };
    let min_jobs = match (a.small, workload) {
        (true, _) => 20,
        (false, "serve-mixed") => MIN_JOBS,
        (false, _) => SERVE_COMPANION_JOBS,
    };
    println!(
        "== {workload} seed={} steady={:?} serve_short={:?} serve_long={}",
        a.seed, d.steady, d.serve_short, d.serve_long
    );

    // ---- start stage (timed) ----
    let mut pairs: Vec<Pair> = start_names(workload, a.small)
        .into_iter()
        .flat_map(|name| {
            let source = limpet_models::source(name);
            [PipelineKind::Baseline, steady::VEC].map(|config| Pair {
                name,
                source: source.clone(),
                config,
            })
        })
        .collect();
    gen::shuffle(a.seed, 2, &mut pairs);
    let mut so = start::run(
        &pairs,
        &tmp.join("cache"),
        &tmp.join("cache-traced"),
        &tr,
        &mut checks,
    )
    .map_err(io)?;
    let mut start_vm: BTreeMap<(&str, bool), &Vec<f64>> = BTreeMap::new();
    for (i, p) in pairs.iter().enumerate() {
        let (Some(cold), Some(warm)) = (&so.cold_vm[i], &so.warm_vm[i]) else {
            continue;
        };
        let expect = reference(
            p.name,
            p.config,
            start::DIGEST_CELLS,
            start::DIGEST_STEPS,
            &mut refs,
            &golden,
            &mut checks,
        );
        for (phase, vm) in [("cold", cold), ("warm", warm)] {
            if report::vm_digest(vm) != expect {
                checks.mismatch(format!(
                    "start {} {phase}: digest differs from trajectory_digest",
                    p.label()
                ));
            }
        }
        start_vm.insert((p.name, p.config == PipelineKind::Baseline), cold);
    }
    for ((name, baseline), vm) in &start_vm {
        if *baseline {
            if let Some(v) = start_vm.get(&(*name, false)) {
                if !report::within_tolerance(vm, v) {
                    checks.mismatch(format!(
                        "start {name}: AVX-512 and baseline disagree beyond 1e-5"
                    ));
                }
            }
        }
    }

    // ---- set-up: steady simulations and native promotion ----
    let global = KernelCache::global();
    let disk = global.disk_cache();
    // Detached so every repetition runs the C compiler instead of
    // loading the first repetition's shared object.
    global.set_disk_cache(None);
    let mut setup_ms = Vec::new();
    let mut native_ms = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let t = Instant::now();
        let models: Vec<(&'static str, limpet_easyml::Model)> = d
            .steady
            .iter()
            .map(|&n| (n, limpet_models::model(n)))
            .collect();
        let p = steady::prepare(&models, cells, threads);
        setup_ms.push(t.elapsed().as_secs_f64() * 1e3);
        native_ms.push(p.native_build_ms);
        prepared = Some(p);
    }
    global.set_disk_cache(disk);
    let mut prepared = prepared.expect("at least one set-up repetition");
    if !limpet_harness::toolchain_available() {
        println!("note: no C toolchain; native metrics are missing, not zero");
    }

    // ---- steady stage (timed) ----
    let steady_refs: Vec<(u64, u64)> = prepared
        .runners
        .iter()
        .map(|r| {
            let b = reference(
                r.name,
                PipelineKind::Baseline,
                cells,
                steady::REP_STEPS,
                &mut refs,
                &golden,
                &mut checks,
            );
            let v = reference(
                r.name,
                steady::VEC,
                cells,
                steady::REP_STEPS,
                &mut refs,
                &golden,
                &mut checks,
            );
            (b, v)
        })
        .collect();
    // ---- serve set-up: daemon start and warm-up ----
    let shapes = gen::shapes(&d);
    let mut serve_refs: BTreeMap<Shape, u64> = BTreeMap::new();
    for s in &shapes {
        let config = ::serve::parse_config(s.config).map_err(|e| e.to_string())?;
        let digest = reference(
            s.model,
            config,
            s.cells,
            s.steps,
            &mut refs,
            &golden,
            &mut checks,
        );
        serve_refs.insert(*s, digest);
    }
    let t = Instant::now();
    let daemon = serve::Daemon::start(&so.dir, threads).map_err(io)?;
    let warmup = |i: usize| Job {
        id: format!("warmup-{i}"),
        tenant: "warmup",
        shape: shapes[i],
    };
    let off = Tracer::new(false);
    let warmup_load = serve::Load {
        clients: 1,
        budget: Duration::ZERO,
        min_jobs: shapes.len(),
    };
    serve::run_loop(
        &daemon,
        warmup_load,
        &warmup,
        &serve_refs,
        &off,
        &mut checks,
    );
    let serve_setup_ms = t.elapsed().as_secs_f64() * 1e3;
    // ---- timed slices: start passes, steady rounds and serve jobs ----
    let (cold_later, warm_later) = start::later_passes(pairs.len());
    let slices = Duration::from_secs_f64(a.seconds / SLICES as f64);
    let steady_slice = if workload == "steady-sim" {
        slices
    } else {
        Duration::ZERO
    };
    let serve_slice = if workload == "serve-mixed" {
        slices
    } else {
        Duration::ZERO
    };
    let mut st = steady::SteadyOut::default();
    let mut sv = serve::ServeOut::default();
    for s in 0..SLICES {
        start::repeat(
            &pairs,
            &tmp.join("cache"),
            share(cold_later, s),
            share(warm_later, s),
            &mut so,
            &mut checks,
        )
        .map_err(io)?;
        st.append(steady::measure(
            &mut prepared,
            &steady_refs,
            steady_slice,
            1,
            &tr,
            &mut checks,
        ));
        let first = sv.jobs;
        let seq = |i: usize| gen::job(a.seed, &d, first + i);
        let load = serve::Load {
            clients: threads,
            budget: serve_slice,
            min_jobs: min_jobs.div_ceil(SLICES),
        };
        sv.append(serve::run_loop(
            &daemon,
            load,
            &seq,
            &serve_refs,
            &tr,
            &mut checks,
        ));
    }
    daemon.stop();
    // Peak memory holds the process-wide cache and, beside it, the copy
    // one warm restart loads.
    let peak_rss_mb = report::peak_rss_mb();
    if so.cold_compiles != pairs.len() as u64 || so.warm_compiles != 0 || so.disk_rejects != 0 {
        checks.mismatch(format!(
            "start: {} cold compiles for {} pairs, {} warm compiles, {} disk rejects",
            so.cold_compiles,
            pairs.len(),
            so.warm_compiles,
            so.disk_rejects
        ));
    }

    // ---- report ----
    let setup_s = (median(&setup_ms) + serve_setup_ms) / 1e3;
    let latencies: Vec<f64> = sv.done.iter().map(serve::Timing::latency_ms).collect();
    // Per model, a tier's step time (see `steady::step_time`).
    let step_secs = |t: usize| -> Vec<f64> {
        st.steps
            .iter()
            .map(|r| steady::step_time(t, &r[t]))
            .collect()
    };
    let throughput = |t: usize| {
        let secs = step_secs(t);
        if secs.iter().any(|s| !s.is_finite()) {
            f64::NAN
        } else {
            geomean(&secs.iter().map(|s| cells as f64 / s).collect::<Vec<_>>())
        }
    };
    let mut e2e = Metrics::default();
    e2e.put("setup_s", setup_s, "s");
    e2e.put("cold_start_s", so.cold_s(), "s");
    e2e.put("warm_start_s", so.warm_s(), "s");
    e2e.put("cache_mb", so.cache_bytes as f64 / 1e6, "MB");
    e2e.put("scalar_cell_steps_per_s", throughput(0), "1/s");
    e2e.put("native_cell_steps_per_s", throughput(1), "1/s");
    e2e.put("vec_cell_steps_per_s", throughput(2), "1/s");
    e2e.put("pool_cell_steps_per_s", throughput(3), "1/s");
    e2e.put("job_p50_ms", median(&latencies), "ms");
    e2e.put("job_p90_ms", percentile(&latencies, 90.0), "ms");
    e2e.put("jobs_per_s", sv.done.len() as f64 / sv.wall_s, "1/s");
    e2e.put("peak_rss_mb", peak_rss_mb, "MB");
    let failed_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    for (name, value, unit) in &e2e.0 {
        println!("  {name:<26} {value:>14.4} {unit}");
    }
    println!(
        "  {:<26} {failed_ratio:>14.4} ratio ({} of {} operations)",
        "failed_ratio", checks.failed, checks.attempted
    );
    println!(
        "  job latency samples: {} (p90 has {} beyond it, {} accepted after their first chunk); steady rounds: {}; pairs: {}",
        latencies.len(),
        latencies.len() - (latencies.len() as f64 * 0.9).ceil() as usize,
        sv.done.iter().filter(|t| t.late_accept).count(),
        st.steps
            .first()
            .map_or(0, |r| r[0].len() / steady::REP_STEPS),
        pairs.len()
    );

    let metrics = if a.trace {
        let mut l = Metrics::default();
        let spans = tr.spans();
        let own = trace::self_ms_by_name(&spans);
        let ms = |n: &str| own.get(n).copied().unwrap_or(0.0);
        let kernel_build = ms("vm.kernel_build");
        l.put("easyml.parse_ms", ms("easyml.parse"), "ms");
        l.put("codegen.build_ms", ms("codegen.build"), "ms");
        l.put("vm.kernel_build_ms", kernel_build, "ms");
        l.put("vm.bytecode_ms", so.bytecode_ms, "ms");
        l.put("vm.lut_tabulate_ms", kernel_build - so.bytecode_ms, "ms");
        l.put("vm.digest_run_ms", ms("vm.digest_run"), "ms");
        l.put("persist.store_ms", ms("persist.store"), "ms");
        l.put("persist.load_ms", ms("persist.load"), "ms");
        l.put("cache.fingerprint_ms", ms("cache.fingerprint"), "ms");
        l.put(
            "cache.unattributed_ms",
            so.get_or_compile_ms - so.parts_ms,
            "ms",
        );
        l.put("vm.lut_bytes", so.lut_bytes as f64, "bytes");
        l.put("persist.entry_bytes", so.cache_bytes as f64, "bytes");
        l.put("cache.cold_compiles", so.cold_compiles as f64, "count");
        l.put("cache.warm_compiles", so.warm_compiles as f64, "count");
        l.put("persist.rejects", so.disk_rejects as f64, "count");

        let secs: Vec<Vec<f64>> = (0..4).map(step_secs).collect();
        for (m, r) in prepared.runners.iter().enumerate() {
            let us = |t: usize| secs[t][m] * 1e6;
            l.put(format!("vm.scalar_step_us.{}", r.class), us(0), "us");
            l.put(format!("native.step_us.{}", r.class), us(1), "us");
            l.put(format!("vm.vec_step_us.{}", r.class), us(2), "us");
            l.put(format!("threads.pool_step_us.{}", r.class), us(3), "us");
        }
        let efficiency: Vec<f64> = (0..prepared.runners.len())
            .map(|m| secs[2][m] / (st.threads[m] as f64 * secs[3][m]))
            .collect();
        l.put("threads.efficiency", geomean(&efficiency), "ratio");
        l.put("native.build_ms", median(&native_ms), "ms");
        let mut counts = [0.0f64; 4];
        let mut static_instrs = 0usize;
        for r in &prepared.runners {
            for (k, config) in [PipelineKind::Baseline, steady::VEC]
                .into_iter()
                .enumerate()
            {
                let (instrs, bytes) = steady::profile(&r.model, config, cells);
                counts[k] += instrs;
                counts[2 + k] += bytes;
                static_instrs += global
                    .get_or_compile(&r.model, config)
                    .kernel()
                    .program()
                    .instrs
                    .len();
            }
        }
        l.put("vm.instrs_per_cell_step.scalar", counts[0], "count");
        l.put("vm.instrs_per_cell_step.vec", counts[1], "count");
        l.put("vm.bytes_per_cell_step.scalar", counts[2], "bytes");
        l.put("vm.bytes_per_cell_step.vec", counts[3], "bytes");
        l.put("vm.static_instrs", static_instrs as f64, "count");
        l.put("native.promoted", prepared.native_promoted as f64, "count");
        l.put(
            "native.attempted",
            prepared.native_attempted as f64,
            "count",
        );

        let phase = |f: fn(&serve::Timing) -> (Instant, Instant)| {
            let v: Vec<f64> = sv
                .done
                .iter()
                .map(|t| {
                    let (a, b) = f(t);
                    (b - a).as_secs_f64() * 1e3
                })
                .collect();
            median(&v)
        };
        l.put("serve.admit_ms", phase(|t| (t.submit, t.accepted)), "ms");
        l.put(
            "serve.queue_ms",
            phase(|t| (t.accepted, t.first_chunk)),
            "ms",
        );
        l.put(
            "serve.run_ms",
            phase(|t| (t.first_chunk, t.last_chunk)),
            "ms",
        );
        l.put("serve.tail_ms", phase(|t| (t.last_chunk, t.done)), "ms");
        let ckpt = serve::checkpoint_save_ms(&shapes, &tmp.join("checkpoint-probe")).map_err(io)?;
        l.put("checkpoint.save_ms", ckpt, "ms");
        l.put("serve.rejected", sv.rejected as f64, "count");
        l.put("serve.jobs", sv.done.len() as f64, "count");

        // The ledger: the self time of a stage's root spans is time no
        // layer accounts for. For the start stage it is set against the
        // untraced run, so it also carries the tracing overhead.
        let self_ms = trace::self_ms(&spans);
        let roots = |prefix: &str| {
            spans
                .iter()
                .zip(&self_ms)
                .filter(|(s, _)| s.parent.is_none() && s.name.starts_with(prefix))
                .fold((0.0, 0.0), |(own, total), (s, m)| (own + m, total + s.ms()))
        };
        let (start_self, _) = roots("start.");
        let (steady_self, steady_total) = roots("steady");
        let (serve_self, serve_total) = roots("serve.");
        l.put(
            "trace.unattributed_ms",
            start_self + steady_self + serve_self,
            "ms",
        );
        l.put(
            "ledger.start_gap",
            1.0 - (so.traced_ms - start_self) / so.untraced_ms,
            "ratio",
        );
        l.put("ledger.steady_gap", steady_self / steady_total, "ratio");
        l.put("ledger.serve_gap", serve_self / serve_total, "ratio");
        l.put("trace.overhead_ms", so.traced_ms - so.untraced_ms, "ms");
        l.put("trace.spans", spans.len() as f64, "count");
        let path = tmp
            .parent()
            .unwrap_or(tmp)
            .join(format!("trace-{workload}-{}.json", a.seed));
        std::fs::write(&path, trace::chrome_json(&spans)).map_err(io)?;
        println!("  trace written to {}", path.display());
        for (name, value, unit) in &l.0 {
            println!("  {name:<36} {value:>14.4} {unit}");
        }
        l
    } else {
        e2e
    };
    if a.emit_golden {
        for ((model, config, cells, steps), digest) in &refs {
            println!("{model} {config} {cells} {steps} {digest:016x}");
        }
    }
    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }
    Ok(Outcome { metrics, checks })
}

/// The scratch directory of one run, inside the checkout's build
/// directory so the benchmark writes nowhere else.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_build").join(format!("perfbench-{}", std::process::id()))
}
