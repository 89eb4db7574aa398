//! The start stage: every `(model, config)` pair goes from EasyML source
//! to a ready `Simulation` and runs a short digest — first cold, through
//! a fresh `KernelCache` over an empty disk-cache directory, then warm,
//! through a fresh cache over the now-populated directory (a restart).
//! The first warm pass goes through the process-wide cache and leaves it
//! holding every pair, which is what the later stages run on.
//!
//! Traced, each pair is also taken through the same steps one call at a
//! time — parse, fingerprint, pipeline build, kernel build, disk store
//! (cold) or disk load (warm), digest — each inside a span, against a
//! second directory. The untraced `get_or_compile` time minus the sum of
//! its traced parts is the time inside the cache no layer accounts for.

use crate::report::{vm_digest, Checks};
use crate::trace::Tracer;
use limpet_harness::{
    model_fingerprint, model_info, storage_layout, DiskCache, DiskLoad, EntryKey, KernelCache,
    PipelineKind, Simulation, Workload,
};
use limpet_vm::{Kernel, StateLayout};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Cells of the short digest run after each start.
pub const DIGEST_CELLS: usize = 16;
/// Steps of the short digest run after each start.
pub const DIGEST_STEPS: usize = 100;

/// One pair to start: roster name, its EasyML source, and the config.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Roster model name.
    pub name: &'static str,
    /// EasyML source text.
    pub source: String,
    /// Pipeline configuration.
    pub config: PipelineKind,
}

impl Pair {
    /// Request id used in spans and messages.
    pub fn label(&self) -> String {
        format!("{}/{}", self.name, self.config.label())
    }
}

/// What the start stage measured and produced.
#[derive(Debug, Default)]
pub struct StartOut {
    /// The disk-cache directory the warm phase read.
    pub dir: std::path::PathBuf,
    /// Seconds per pair of each cold pass (`[pass][pair]`, NaN where the
    /// pair failed).
    pub cold_passes: Vec<Vec<f64>>,
    /// Seconds per pair of each warm restart, likewise.
    pub warm_passes: Vec<Vec<f64>>,
    /// Disk-cache bytes after the cold phase.
    pub cache_bytes: u64,
    /// Σ `LutData::bytes` over the cold kernels.
    pub lut_bytes: u64,
    /// Compilations in the cold and the warm phase.
    pub cold_compiles: u64,
    /// See [`StartOut::cold_compiles`].
    pub warm_compiles: u64,
    /// Disk-cache entries rejected on load.
    pub disk_rejects: u64,
    /// Untraced time inside `get_or_compile`, cold and warm, ms.
    pub get_or_compile_ms: f64,
    /// Traced time of the parts of `get_or_compile`, cold and warm, ms.
    pub parts_ms: f64,
    /// Untraced and traced stage time of the pairs, ms (the difference
    /// is the tracing overhead).
    pub untraced_ms: f64,
    /// See [`StartOut::untraced_ms`].
    pub traced_ms: f64,
    /// Σ `compile_program` + `optimize_program` time, ms (traced only).
    pub bytecode_ms: f64,
    /// Membrane potentials after the cold and warm digest runs, per pair
    /// (`None` when the pair failed).
    pub cold_vm: Vec<Option<Vec<f64>>>,
    /// See [`StartOut::cold_vm`].
    pub warm_vm: Vec<Option<Vec<f64>>>,
}

/// Steps a fresh simulation on `kernel` through the digest run and
/// returns every cell's membrane potential.
pub fn digest_run(kernel: &Kernel, layout: StateLayout) -> Vec<f64> {
    let wl = Workload {
        n_cells: DIGEST_CELLS,
        steps: DIGEST_STEPS,
        dt: 0.01,
    };
    let mut sim = Simulation::with_kernel(kernel.clone(), layout, &wl);
    sim.run(DIGEST_STEPS);
    (0..DIGEST_CELLS).map(|c| sim.vm(c)).collect()
}

/// Passes of the cold and of the warm phase, as `(least passes, least
/// pair starts)`, so that a phase over few pairs repeats more. The full
/// roster (86 pairs) runs one cold pass and four warm passes; the 14
/// pairs of the seven pool models run three and twelve. The counts are
/// fixed, not timed, so the samples of a run do not follow the host's
/// speed.
const COLD_PASSES: (usize, usize) = (1, 42);
const WARM_PASSES: (usize, usize) = (4, 168);

/// The passes over `pairs` pairs that [`run`] leaves to [`repeat`], as
/// `(cold passes, warm restarts)`: [`run`] makes one of each.
pub fn later_passes(pairs: usize) -> (usize, usize) {
    let n = |(least, starts): (usize, usize)| least.max(starts.div_ceil(pairs.max(1)));
    (n(COLD_PASSES) - 1, n(WARM_PASSES) - 1)
}

impl StartOut {
    /// Cold-phase wall time, seconds: the sum over pairs of each pair's
    /// median cold start (see [`median_sum`]).
    pub fn cold_s(&self) -> f64 {
        median_sum(&self.cold_passes)
    }

    /// Warm-phase wall time, seconds, summed the same way over restarts.
    pub fn warm_s(&self) -> f64 {
        median_sum(&self.warm_passes)
    }
}

/// Σ over pairs of each pair's median time over the passes
/// (`passes[k][pair]`, NaN where the pair failed): the median rather
/// than the fastest pass, for the reason the steady stage gives.
fn median_sum(passes: &[Vec<f64>]) -> f64 {
    let pairs = passes.first().map_or(0, Vec::len);
    (0..pairs)
        .map(|i| {
            let ok: Vec<f64> = passes
                .iter()
                .map(|p| p[i])
                .filter(|s| s.is_finite())
                .collect();
            crate::report::median(&ok)
        })
        .sum()
}

/// One cold pass: a fresh `KernelCache` over the empty `disk`. The first
/// pass records each pair's membrane potentials and, when traced, takes
/// each pair through its parts; later passes are checked against the
/// first. Returns each pair's time in seconds (NaN where it failed).
fn cold_pass(
    pairs: &[Pair],
    disk: &Arc<DiskCache>,
    traced_disk: Option<&DiskCache>,
    tr: &Tracer,
    first: bool,
    out: &mut StartOut,
    checks: &mut Checks,
) -> Vec<f64> {
    let opt = limpet_vm::bytecode_opt_enabled();
    let cold = KernelCache::new();
    cold.set_disk_cache(Some(Arc::clone(disk)));
    let mut secs = vec![f64::NAN; pairs.len()];
    for (i, p) in pairs.iter().enumerate() {
        let t = Instant::now();
        let model = match limpet_easyml::compile_model(p.name, &p.source) {
            Ok(m) => m,
            Err(e) => {
                checks.fail(format!("cold {}: parse failed: {e}", p.label()));
                if first {
                    out.cold_vm.push(None);
                }
                continue;
            }
        };
        let t_gc = Instant::now();
        let entry = cold.try_get_or_compile(&model, p.config);
        let gc_ms = t_gc.elapsed().as_secs_f64() * 1e3;
        let entry = match entry {
            Ok(e) => e,
            Err(q) => {
                checks.fail(format!("cold {}: compile failed: {}", p.label(), q.error));
                if first {
                    out.cold_vm.push(None);
                }
                continue;
            }
        };
        let vm = digest_run(entry.kernel(), entry.layout());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        secs[i] = ms / 1e3;
        if !first {
            match &out.cold_vm[i] {
                Some(v) if vm_digest(v) == vm_digest(&vm) => checks.ok(),
                _ => checks.fail(format!("cold {}: digest differs between passes", p.label())),
            }
            continue;
        }
        out.untraced_ms += ms;
        out.get_or_compile_ms += gc_ms;
        out.lut_bytes += entry.kernel().lut_bytes() as u64;
        checks.ok();
        let digest = vm_digest(&vm);
        out.cold_vm.push(Some(vm));

        let Some(tdisk) = traced_disk else { continue };
        let req = p.label();
        let t = Instant::now();
        let root = tr.open("start.cold", &req, None);
        let r = Some(root);
        let traced = (|| -> Result<(), String> {
            let m = tr.span("easyml.parse", &req, r, || {
                limpet_easyml::compile_model(p.name, &p.source)
            });
            let m = m.map_err(|e| e.to_string())?;
            let t_part = Instant::now();
            let fingerprint = tr.span("cache.fingerprint", &req, r, || model_fingerprint(&m));
            let built = tr.span("codegen.build", &req, r, || {
                p.config.try_build_with_report(&m)
            });
            let (module, _) = built.map_err(|e| e.to_string())?;
            let info = model_info(&m);
            let kernels = tr.span("vm.kernel_build", &req, r, || {
                Kernel::from_module_both(&module, &info)
            });
            let (opt_kernel, _, raw_kernel) = kernels.map_err(|e| e.to_string())?;
            let key = EntryKey {
                fingerprint,
                config: p.config,
                opt,
            };
            tr.span("persist.store", &req, r, || {
                tdisk.store(&key, p.name, &entry)
            })?;
            out.parts_ms += t_part.elapsed().as_secs_f64() * 1e3;
            let kernel = if opt { opt_kernel } else { raw_kernel };
            let layout = storage_layout(&module);
            let traced_vm = tr.span("vm.digest_run", &req, r, || digest_run(&kernel, layout));
            tr.close(root);
            out.traced_ms += t.elapsed().as_secs_f64() * 1e3;
            if vm_digest(&traced_vm) != digest {
                return Err("traced kernel digest differs from the cached kernel's".into());
            }
            // Bytecode compilation alone, outside the stage's spans: the
            // kernel build minus this is LUT tabulation.
            let params: Vec<String> = info.params.iter().map(|(n, _)| n.clone()).collect();
            let t_bc = Instant::now();
            let mut program =
                limpet_vm::compile_program(&module, &info.state_names, &info.ext_names, &params)
                    .map_err(|e| e.to_string())?;
            limpet_vm::optimize_program(&mut program);
            out.bytecode_ms += t_bc.elapsed().as_secs_f64() * 1e3;
            Ok(())
        })();
        if let Err(e) = traced {
            checks.mismatch(format!("traced cold {req}: {e}"));
        }
    }
    let stats = cold.stats();
    if first {
        out.cold_compiles = stats.misses;
    } else if stats.misses != pairs.len() as u64 {
        checks.mismatch(format!(
            "cold pass compiled {} of {} pairs",
            stats.misses,
            pairs.len()
        ));
    }
    out.disk_rejects += stats.disk_rejects;
    secs
}

/// One warm restart: a fresh `KernelCache` over the filled `disk`, each
/// pair's digest checked against its cold one.
fn warm_restart(pairs: &[Pair], disk: &Arc<DiskCache>, out: &mut StartOut, checks: &mut Checks) {
    let cache = KernelCache::new();
    cache.set_disk_cache(Some(Arc::clone(disk)));
    let mut secs = vec![f64::NAN; pairs.len()];
    for (i, p) in pairs.iter().enumerate() {
        let t = Instant::now();
        let vm = limpet_easyml::compile_model(p.name, &p.source)
            .ok()
            .and_then(|m| cache.try_get_or_compile(&m, p.config).ok())
            .map(|e| digest_run(e.kernel(), e.layout()));
        secs[i] = t.elapsed().as_secs_f64();
        match (vm, &out.cold_vm[i]) {
            (Some(vm), Some(cold)) if vm_digest(&vm) == vm_digest(cold) => checks.ok(),
            _ => checks.fail(format!(
                "warm {}: restart failed or digest differs",
                p.label()
            )),
        }
    }
    out.warm_passes.push(secs);
    let stats = cache.stats();
    out.warm_compiles += stats.misses;
    out.disk_rejects += stats.disk_rejects;
}

/// Runs the first cold pass over `pairs`, into `dir/pass-0`, then the
/// first warm pass over the same directory (whose path lands in
/// [`StartOut::dir`]) through the process-wide cache, which the later
/// stages use. Traced runs also take each pair through its parts,
/// against `traced_dir`.
///
/// # Errors
///
/// Returns an error when a disk-cache directory cannot be opened.
pub fn run(
    pairs: &[Pair],
    dir: &Path,
    traced_dir: &Path,
    tr: &Tracer,
    checks: &mut Checks,
) -> std::io::Result<StartOut> {
    let mut out = StartOut::default();
    let traced_disk = if tr.enabled() {
        Some(DiskCache::open(traced_dir)?)
    } else {
        None
    };
    let opt = limpet_vm::bytecode_opt_enabled();

    out.dir = dir.join("pass-0");
    let disk = Arc::new(DiskCache::open(&out.dir)?);
    let secs = cold_pass(
        pairs,
        &disk,
        traced_disk.as_ref(),
        tr,
        true,
        &mut out,
        checks,
    );
    out.cold_passes.push(secs);
    out.cache_bytes = disk.status()?.bytes;

    let warm = KernelCache::global();
    warm.set_disk_cache(Some(disk));
    let misses_before = warm.stats().misses;
    let mut last_warm_s = vec![f64::NAN; pairs.len()];
    for (i, p) in pairs.iter().enumerate() {
        let t = Instant::now();
        let model = match limpet_easyml::compile_model(p.name, &p.source) {
            Ok(m) => m,
            Err(e) => {
                checks.fail(format!("warm {}: parse failed: {e}", p.label()));
                out.warm_vm.push(None);
                continue;
            }
        };
        let t_gc = Instant::now();
        let entry = warm.try_get_or_compile(&model, p.config);
        let gc_ms = t_gc.elapsed().as_secs_f64() * 1e3;
        let entry = match entry {
            Ok(e) => e,
            Err(q) => {
                checks.fail(format!("warm {}: compile failed: {}", p.label(), q.error));
                out.warm_vm.push(None);
                continue;
            }
        };
        let vm = digest_run(entry.kernel(), entry.layout());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        last_warm_s[i] = ms / 1e3;
        out.untraced_ms += ms;
        out.get_or_compile_ms += gc_ms;
        checks.ok();
        out.warm_vm.push(Some(vm));

        let Some(tdisk) = &traced_disk else { continue };
        let req = p.label();
        let t = Instant::now();
        let root = tr.open("start.warm", &req, None);
        let r = Some(root);
        let traced = (|| -> Result<(), String> {
            let m = tr.span("easyml.parse", &req, r, || {
                limpet_easyml::compile_model(p.name, &p.source)
            });
            let m = m.map_err(|e| e.to_string())?;
            let t_part = Instant::now();
            let fingerprint = tr.span("cache.fingerprint", &req, r, || model_fingerprint(&m));
            let key = EntryKey {
                fingerprint,
                config: p.config,
                opt,
            };
            let loaded = tr.span("persist.load", &req, r, || tdisk.load(&key, &m));
            out.parts_ms += t_part.elapsed().as_secs_f64() * 1e3;
            let DiskLoad::Hit(entry) = loaded else {
                return Err("traced disk load missed".into());
            };
            let vm = tr.span("vm.digest_run", &req, r, || {
                digest_run(entry.kernel(), entry.layout())
            });
            tr.close(root);
            out.traced_ms += t.elapsed().as_secs_f64() * 1e3;
            match &out.cold_vm[i] {
                Some(cold_vm) if vm_digest(cold_vm) == vm_digest(&vm) => Ok(()),
                _ => Err("traced warm digest differs from the cold one".into()),
            }
        })();
        if let Err(e) = traced {
            checks.mismatch(format!("traced warm {req}: {e}"));
        }
    }
    out.warm_passes.push(last_warm_s);
    let warm_stats = warm.stats();
    out.warm_compiles += warm_stats.misses - misses_before;
    out.disk_rejects += warm_stats.disk_rejects;
    if let Some(tdisk) = &traced_disk {
        out.disk_rejects += tdisk.stats().rejects;
    }
    Ok(out)
}

/// Runs `cold` further cold passes (each into a fresh `dir/pass-<k>`)
/// and `warm` further warm restarts (each through a fresh cache over
/// [`StartOut::dir`]), untraced.
///
/// # Errors
///
/// Returns an error when a disk-cache directory cannot be opened.
pub fn repeat(
    pairs: &[Pair],
    dir: &Path,
    cold: usize,
    warm: usize,
    out: &mut StartOut,
    checks: &mut Checks,
) -> std::io::Result<()> {
    let off = Tracer::new(false);
    for _ in 0..cold {
        let pass = out.cold_passes.len();
        let disk = Arc::new(DiskCache::open(&dir.join(format!("pass-{pass}")))?);
        let secs = cold_pass(pairs, &disk, None, &off, false, out, checks);
        out.cold_passes.push(secs);
    }
    if warm > 0 {
        let disk = Arc::new(DiskCache::open(&out.dir)?);
        for _ in 0..warm {
            warm_restart(pairs, &disk, out, checks);
        }
    }
    Ok(())
}
