//! Seeded inputs: which roster models the steady stage runs, the order
//! of the start stage, and the serve job sequence. Everything here is a
//! pure function of the seed, so the same seed gives the same inputs.

use limpet_rng::SmallRng;

/// The seed the committed golden digests were produced with.
pub const DEFAULT_SEED: u64 = 1;

/// Candidate models per size class for the steady stage and for long
/// serve jobs. Within each pool the models' step costs at 8192 cells lie
/// within about 7% of each other on every tier (baseline bytecode,
/// native, AVX-512 bytecode; interleaved medians on a 2-core AVX-512
/// host), so the seed changes which model runs without moving the
/// throughput geomeans by more than run-to-run noise. No two small-class
/// models are that close on every tier, so the small pool has one model.
pub const SMALL_POOL: [&str; 1] = ["MitchellSchaeffer"];
/// Medium-class candidates (see [`SMALL_POOL`]).
pub const MEDIUM_POOL: [&str; 2] = ["BeelerReuter", "LuoRudy91"];
/// Large-class candidates (see [`SMALL_POOL`]).
pub const LARGE_POOL: [&str; 3] = ["GrandiPanditVoigt", "OHara", "Stress_Niederer"];
/// The small-class models short serve jobs use, in a seeded order. Both
/// run in every block, so the seed does not change the mix's cost.
pub const SERVE_SHORT: [&str; 2] = ["AlievPanfilov", "MitchellSchaeffer"];

/// The seed's model draw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Draw {
    /// One model per size class, small → large, for the steady stage.
    pub steady: [&'static str; 3],
    /// The small-class models short serve jobs use.
    pub serve_short: [&'static str; 2],
    /// The large-class model long serve jobs use.
    pub serve_long: &'static str,
}

fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

fn pick<'a>(r: &mut SmallRng, pool: &[&'a str]) -> &'a str {
    pool[r.gen_range(0..pool.len())]
}

/// Draws the seed's models.
pub fn draw(seed: u64) -> Draw {
    let mut r = rng(seed, 1);
    let steady = [
        pick(&mut r, &SMALL_POOL),
        pick(&mut r, &MEDIUM_POOL),
        pick(&mut r, &LARGE_POOL),
    ];
    let first = r.gen_range(0..SERVE_SHORT.len());
    let serve_short = [SERVE_SHORT[first], SERVE_SHORT[1 - first]];
    let serve_long = pick(&mut r, &LARGE_POOL);
    Draw {
        steady,
        serve_short,
        serve_long,
    }
}

/// Fisher–Yates shuffle of `items` driven by the seed.
pub fn shuffle<T>(seed: u64, stream: u64, items: &mut [T]) {
    let mut r = rng(seed, stream);
    for i in (1..items.len()).rev() {
        let j = r.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Pipeline configuration of a serve job, as the wire label.
pub const CONFIGS: [&str; 2] = ["baseline", "avx512"];

/// One serve job's simulation shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Shape {
    /// Roster model name.
    pub model: &'static str,
    /// Wire config label (`baseline` or `avx512`).
    pub config: &'static str,
    /// Cells.
    pub cells: usize,
    /// Steps.
    pub steps: usize,
}

/// One serve job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Client-chosen job id, unique within a run.
    pub id: String,
    /// Tenant the job is accounted to.
    pub tenant: &'static str,
    /// What it simulates.
    pub shape: Shape,
}

/// Jobs per block. Each block holds the same mix — 16 short jobs (half
/// `baseline`, half `avx512`; half at 256 cells, half at 512) and 4
/// long `avx512` jobs — in a seeded order, so p90 falls inside the
/// long-job group on every seed instead of on a boundary between groups.
pub const BLOCK: usize = 20;
const LONG_PER_BLOCK: usize = 4;
/// Steps of a short job (five streamed chunks at the daemon's default
/// chunk of 32 steps).
pub const SHORT_STEPS: usize = 160;
/// Cells and steps of a long job.
pub const LONG_CELLS: usize = 2048;
/// Steps of a long job (two chunks).
pub const LONG_STEPS: usize = 64;

/// Every shape the seed's job sequence can contain, sorted.
pub fn shapes(d: &Draw) -> Vec<Shape> {
    let mut out: Vec<Shape> = (0..BLOCK).map(|k| block_shape(d, k)).collect();
    out.sort();
    out.dedup();
    out
}

fn block_shape(d: &Draw, k: usize) -> Shape {
    if k < LONG_PER_BLOCK {
        return Shape {
            model: d.serve_long,
            config: "avx512",
            cells: LONG_CELLS,
            steps: LONG_STEPS,
        };
    }
    let s = k - LONG_PER_BLOCK;
    Shape {
        model: d.serve_short[s % 2],
        config: CONFIGS[(s / 2) % 2],
        cells: if (s / 4).is_multiple_of(2) { 256 } else { 512 },
        steps: SHORT_STEPS,
    }
}

/// The `i`-th job of the seed's sequence: block `i / BLOCK` is the fixed
/// mix in an order shuffled by the seed and the block number; tenants
/// alternate.
pub fn job(seed: u64, d: &Draw, i: usize) -> Job {
    let block = i / BLOCK;
    let mut order: Vec<usize> = (0..BLOCK).collect();
    shuffle(seed, 0x1000 + block as u64, &mut order);
    Job {
        id: format!("job-{i}"),
        tenant: if i.is_multiple_of(2) {
            "tenant-a"
        } else {
            "tenant-b"
        },
        shape: block_shape(d, order[i % BLOCK]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pool_model_is_in_its_class() {
        use limpet_models::SizeClass;
        for (pool, class) in [
            (&SMALL_POOL[..], SizeClass::Small),
            (&SERVE_SHORT[..], SizeClass::Small),
            (&MEDIUM_POOL[..], SizeClass::Medium),
            (&LARGE_POOL[..], SizeClass::Large),
        ] {
            for name in pool {
                let e = limpet_models::entry(name).expect("pool model is in the roster");
                assert_eq!(e.class, class, "{name}");
            }
        }
    }

    #[test]
    fn every_block_holds_the_same_mix() {
        let d = draw(DEFAULT_SEED);
        let mix = |block: usize| {
            let mut m: Vec<Shape> = (block * BLOCK..(block + 1) * BLOCK)
                .map(|i| job(DEFAULT_SEED, &d, i).shape)
                .collect();
            m.sort();
            m
        };
        assert_eq!(mix(0), mix(3));
    }
}
