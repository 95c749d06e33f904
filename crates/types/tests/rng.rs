//! Semantics of `syd_types::rng`: seed-stable streams, the generators'
//! coverage, and the property runner's failure report.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use syd_types::rng::{cases, Rng};

#[test]
fn the_same_seed_gives_the_same_stream() {
    let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
    let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
    let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
    let zs: Vec<u64> = (0..100).map(|_| c.next_u64()).collect();
    assert_eq!(xs, ys);
    assert_ne!(xs, zs);
}

#[test]
fn unit_floats_stay_in_range_and_spread() {
    let mut rng = Rng::new(7);
    let xs: Vec<f64> = (0..10_000).map(|_| rng.unit()).collect();
    assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
}

#[test]
fn below_covers_its_range_and_any_u64_hits_the_edges() {
    let mut rng = Rng::new(1);
    let mut seen = [false; 4];
    for _ in 0..200 {
        seen[rng.below(4) as usize] = true;
    }
    assert_eq!(seen, [true; 4]);
    let draws: Vec<u64> = (0..4_000).map(|_| rng.any_u64()).collect();
    for edge in [0, 1, 127, 128, 1 << 63, u64::MAX] {
        assert!(draws.contains(&edge), "{edge:#x} never drawn");
    }
}

#[test]
fn strings_carry_every_class_escaping_code_must_handle() {
    let mut rng = Rng::new(3);
    let text: String = (0..200).map(|_| rng.string(16)).collect();
    assert!(text.contains('"') && text.contains('\\') && text.contains('\n'));
    assert!(text.chars().any(|c| c == '\0'));
    assert!(text.chars().any(|c| c.len_utf8() == 2 || c.len_utf8() == 3));
    assert!(text.chars().any(|c| c.len_utf8() == 4));
    assert!((0..50).all(|_| rng.string(5).chars().count() <= 5));
    assert!((0..50).all(|_| rng.bytes(5).len() <= 5));
}

#[test]
fn cases_runs_every_case_on_distinct_inputs() {
    let mut firsts = Vec::new();
    cases(32, |rng| firsts.push(rng.next_u64()));
    firsts.sort_unstable();
    firsts.dedup();
    assert_eq!(firsts.len(), if cfg!(miri) { 8 } else { 32 });
}

#[test]
#[should_panic(expected = "failed on case 3 of 10, seed 0x")]
fn cases_reports_the_failing_case_and_seed() {
    let mut calls = 0;
    cases(10, |_| {
        calls += 1;
        assert!(calls < 4, "the fourth case fails");
    });
}
