//! The steady stage: one model per size class at the paper's 8192
//! cells, with kernels compiled and native promoted during set-up, timed
//! on four tiers — `baseline` bytecode, `baseline` on `Tier::Native`,
//! `limpetMLIR-AVX-512` bytecode, and `limpetMLIR-AVX-512` on a
//! `ShardedSimulation` with one thread per core.
//!
//! A repetition restores the initial state, runs [`REP_STEPS`] steps,
//! and digests every cell; each digest must equal the reference. Rounds
//! visit every (model, tier) once, so slow drift of the host spreads
//! over all of them alike.
//!
//! The single-thread tiers time every step; the pool times a whole
//! repetition (a pool run pays one wake-up rendezvous, which belongs to
//! its cost) and counts its mean step. A single-thread tier's step time
//! is the median of its samples. On a host shared with other tenants
//! the speed of a core comes and goes: most samples sit at one level,
//! and spells of a few seconds run up to 40% faster or slower. The
//! fastest sample depends on whether a run happened to catch a fast
//! spell; the median does not. The pool's step time is a low
//! percentile of its samples (see [`step_time`]).

use crate::report::{vm_digest, within_tolerance, Checks};
use crate::trace::Tracer;
use limpet_codegen::pipeline::VectorIsa;
use limpet_easyml::Model;
use limpet_harness::{
    KernelCache, PipelineKind, ShardedSimulation, Simulation, Snapshot, Workload,
};
use std::time::{Duration, Instant};

/// Steps per timed repetition.
pub const REP_STEPS: usize = 4;

/// The vectorized configuration the steady stage times.
pub const VEC: PipelineKind = PipelineKind::LimpetMlir(VectorIsa::Avx512);

/// The four timed tiers.
pub const TIERS: [&str; 4] = ["scalar", "native", "vec", "pool"];

/// Repetitions of each tier per round. The scalar tier takes most of a
/// round; the faster tiers repeat so that each gathers samples over the
/// round's span of host states. The pool takes one sample per
/// repetition rather than one per step, so it repeats most.
const REPS_PER_ROUND: [usize; 4] = [1, 1, 1, 6];

/// One model's four ready-to-run simulations.
#[derive(Debug)]
pub struct Runner {
    /// Roster name.
    pub name: &'static str,
    /// Size class name.
    pub class: &'static str,
    /// The checked model.
    pub model: Model,
    scalar: Simulation,
    /// Present when native promotion succeeded.
    native: Option<Simulation>,
    vec: Simulation,
    pool: ShardedSimulation,
    init_scalar: Snapshot,
    init_vec: Snapshot,
}

/// Set-up output: the runners and what native promotion did.
#[derive(Debug)]
pub struct Prepared {
    /// One runner per steady model.
    pub runners: Vec<Runner>,
    /// Σ `promote_native_blocking` time, ms.
    pub native_build_ms: f64,
    /// Native promotions attempted and succeeded.
    pub native_attempted: u64,
    /// See [`Prepared::native_attempted`].
    pub native_promoted: u64,
}

/// Builds the simulations for `models` from the process-wide cache and
/// promotes the scalar one to native (a fresh native build each call).
pub fn prepare(models: &[(&'static str, Model)], cells: usize, threads: usize) -> Prepared {
    let cache = KernelCache::global();
    cache.native_registry().clear();
    let wl = Workload {
        n_cells: cells,
        steps: 0,
        dt: 0.01,
    };
    let mut out = Prepared {
        runners: Vec::new(),
        native_build_ms: 0.0,
        native_attempted: 0,
        native_promoted: 0,
    };
    for (name, model) in models {
        let scalar = Simulation::new(model, PipelineKind::Baseline, &wl);
        let native = if limpet_harness::toolchain_available() {
            let mut sim = Simulation::new(model, PipelineKind::Baseline, &wl);
            let t = Instant::now();
            let promoted = sim.promote_native_blocking(cache);
            out.native_build_ms += t.elapsed().as_secs_f64() * 1e3;
            out.native_attempted += 1;
            match promoted {
                Ok(()) => {
                    out.native_promoted += 1;
                    Some(sim)
                }
                Err(e) => {
                    eprintln!("perfbench: native promotion of {name} failed: {e}");
                    None
                }
            }
        } else {
            None
        };
        let vec = Simulation::new(model, VEC, &wl);
        let pool = ShardedSimulation::new(model, VEC, &wl, threads);
        let class = limpet_models::entry(name).map_or("unknown", |e| e.class.name());
        out.runners.push(Runner {
            name,
            class,
            model: model.clone(),
            init_scalar: scalar.snapshot("baseline", 0),
            init_vec: vec.snapshot(&VEC.label(), 0),
            scalar,
            native,
            vec,
            pool,
        });
    }
    out
}

/// What the timed stage measured.
#[derive(Debug, Default)]
pub struct SteadyOut {
    /// `steps[model][tier]`: step-time samples in seconds, tiers in
    /// [`TIERS`] order; empty for a tier that could not run (native
    /// without a toolchain).
    pub steps: Vec<[Vec<f64>; 4]>,
    /// Pool shard count per model.
    pub threads: Vec<usize>,
}

impl SteadyOut {
    /// Adds the samples of a later [`measure`] over the same runners.
    pub fn append(&mut self, later: SteadyOut) {
        if self.steps.is_empty() {
            *self = later;
            return;
        }
        for (mine, theirs) in self.steps.iter_mut().zip(later.steps) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.extend(t);
            }
        }
    }
}

fn gather_pool(pool: &ShardedSimulation) -> Vec<f64> {
    let mut vm = Vec::with_capacity(pool.n_cells());
    for i in 0..pool.threads() {
        vm.extend(pool.with_shard(i, |s| (0..s.n_cells()).map(|c| s.vm(c)).collect::<Vec<_>>()));
    }
    vm
}

fn gather(sim: &Simulation) -> Vec<f64> {
    (0..sim.n_cells()).map(|c| sim.vm(c)).collect()
}

/// Times rounds over every (model, tier) until `budget` has passed and
/// at least `min_rounds` rounds ran. `refs[model] = (baseline digest,
/// vectorized digest)` after [`REP_STEPS`] steps; every repetition's
/// digest is checked against it, and the last scalar and vectorized
/// states against each other within tolerance.
pub fn measure(
    p: &mut Prepared,
    refs: &[(u64, u64)],
    budget: Duration,
    min_rounds: usize,
    tr: &Tracer,
    checks: &mut Checks,
) -> SteadyOut {
    const STEP_SPANS: [&str; 4] = [
        "vm.scalar_step",
        "native.step",
        "vm.vec_step",
        "threads.pool_step",
    ];
    let start = Instant::now();
    let root = tr.enabled().then(|| tr.open("steady", "steady", None));
    let mut steps: Vec<[Vec<f64>; 4]> = vec![Default::default(); p.runners.len()];
    let mut last_scalar: Vec<Vec<f64>> = vec![Vec::new(); p.runners.len()];
    let mut last_vec: Vec<Vec<f64>> = vec![Vec::new(); p.runners.len()];
    let mut rounds = 0;
    // Ends at the round boundary nearest the budget: a short budget is
    // neither overrun nor left unused by most of a round.
    while rounds < min_rounds.max(1) || {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / ((2 * rounds) as f64) < budget.as_secs_f64()
    } {
        for (m, r) in p.runners.iter_mut().enumerate() {
            for (t, tier) in TIERS
                .iter()
                .enumerate()
                .flat_map(|(t, tier)| std::iter::repeat_n((t, tier), REPS_PER_ROUND[t]))
            {
                if t == 1 && r.native.is_none() {
                    continue;
                }
                let req = format!("{}/{tier}", r.name);
                let expect = if t < 2 { refs[m].0 } else { refs[m].1 };
                let restored = tr.span("checkpoint.restore", &req, root, || match t {
                    0 => r.scalar.restore(&r.init_scalar),
                    1 => r
                        .native
                        .as_mut()
                        .expect("checked above")
                        .restore(&r.init_scalar),
                    2 => r.vec.restore(&r.init_vec),
                    _ => r.pool.restore(&r.init_vec),
                });
                if let Err(e) = restored {
                    checks.fail(format!("steady {req}: restore failed: {e}"));
                    continue;
                }
                let t0 = Instant::now();
                if t == 3 {
                    r.pool.run_threaded(REP_STEPS);
                    steps[m][t].push(t0.elapsed().as_secs_f64() / REP_STEPS as f64);
                } else {
                    let sim = match t {
                        0 => &mut r.scalar,
                        1 => r.native.as_mut().expect("checked above"),
                        _ => &mut r.vec,
                    };
                    for _ in 0..REP_STEPS {
                        let s = Instant::now();
                        sim.step();
                        steps[m][t].push(s.elapsed().as_secs_f64());
                    }
                }
                if tr.enabled() {
                    tr.record(STEP_SPANS[t], &req, root, 0, t0, Instant::now());
                }
                let vm = tr.span("check.digest", &req, root, || match t {
                    0 => gather(&r.scalar),
                    1 => gather(r.native.as_ref().expect("checked above")),
                    2 => gather(&r.vec),
                    _ => gather_pool(&r.pool),
                });
                if vm_digest(&vm) == expect {
                    checks.ok();
                } else {
                    checks.fail(format!(
                        "steady {req}: digest differs from trajectory_digest"
                    ));
                }
                match t {
                    0 => last_scalar[m] = vm,
                    2 => last_vec[m] = vm,
                    _ => {}
                }
            }
        }
        rounds += 1;
    }
    if let Some(root) = root {
        tr.close(root);
    }
    for (m, r) in p.runners.iter().enumerate() {
        if !within_tolerance(&last_scalar[m], &last_vec[m]) {
            checks.mismatch(format!(
                "steady {}: {} and baseline disagree beyond 1e-5",
                r.name,
                VEC.label()
            ));
        }
    }
    SteadyOut {
        steps,
        threads: p.runners.iter().map(|r| r.pool.threads()).collect(),
    }
}

/// A tier's step time from its samples (tiers in [`TIERS`] order): the
/// median for the single-thread tiers, the 10th percentile for the pool.
/// The pool needs every core at once, and its samples fall in two
/// groups: some at full speed, the rest slowed by whatever else runs on
/// the host. How many fall in the slow group depends on the host's load
/// during the run, so the median jumps between the groups; the 10th
/// percentile stays in the fast one, and unlike the fastest sample it
/// does not hang on one lucky repetition. NaN when there are no samples.
pub fn step_time(tier: usize, samples: &[f64]) -> f64 {
    if tier == 3 {
        crate::report::percentile(samples, 10.0)
    } else {
        crate::report::median(samples)
    }
}

/// Per-cell-step operation counts of one step of `model` under `config`
/// (`Simulation::step_profiled`): `(instructions, bytes moved)`.
pub fn profile(model: &Model, config: PipelineKind, cells: usize) -> (f64, f64) {
    let wl = Workload {
        n_cells: cells,
        steps: 0,
        dt: 0.01,
    };
    let mut sim = Simulation::new(model, config, &wl);
    let p = sim.step_profiled();
    (
        p.instrs as f64 / cells as f64,
        (p.bytes_read + p.bytes_written) as f64 / cells as f64,
    )
}
