//! The seed fixes the inputs: the same seed gives the same model draw
//! and job sequence, and a different seed changes them.

use perfbench::gen::{draw, job, shuffle, BLOCK};

fn jobs(seed: u64) -> Vec<perfbench::gen::Job> {
    let d = draw(seed);
    (0..3 * BLOCK).map(|i| job(seed, &d, i)).collect()
}

fn order(seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..86).collect();
    shuffle(seed, 2, &mut v);
    v
}

#[test]
fn same_seed_same_inputs() {
    for seed in [1, 7, 12345] {
        assert_eq!(draw(seed), draw(seed));
        assert_eq!(jobs(seed), jobs(seed));
        assert_eq!(order(seed), order(seed));
    }
}

#[test]
fn different_seed_different_inputs() {
    assert_ne!(jobs(1), jobs(2));
    assert_ne!(order(1), order(2));
    // The draw has few outcomes, so look for a change over several seeds.
    assert!((2..10).any(|s| draw(s) != draw(1)));
}
