//! Property invariants across the public API, over seeded cases.
//!
//! Each campaign-cache property lives in a plain helper function; its test
//! runs the hand-picked examples first, then seeded cases.

use margins_rng::{check_cases, SplitMix64};
use voltmargin::characterize::cache::{
    CacheError, CachedRun, CampaignCache, GoldenEntry, GoldenKey, SharedCampaignCache, StepEntry,
    StepKey,
};
use voltmargin::characterize::config::CampaignConfig;
use voltmargin::characterize::effect::{Effect, EffectSet};
use voltmargin::characterize::exec::{ExecContext, SerialExecutor};
use voltmargin::characterize::regions::RegionKind;
use voltmargin::characterize::runner::Campaign;
use voltmargin::characterize::search::SearchStrategy;
use voltmargin::characterize::severity::SeverityWeights;
use voltmargin::predict::{r2_score, train_test_split, LinearRegression};
use voltmargin::sim::{ChipSpec, CoreId, Corner, Millivolts};

const CASES: u64 = 256;

/// A length in `lo..hi`.
fn len_in(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.below((hi - lo) as u64) as usize
}

fn effect(rng: &mut SplitMix64) -> Effect {
    let all = [
        Effect::No,
        Effect::Sdc,
        Effect::Ce,
        Effect::Ue,
        Effect::Ac,
        Effect::Sc,
    ];
    all[rng.below(all.len() as u64) as usize]
}

fn effect_set(rng: &mut SplitMix64) -> EffectSet {
    (0..len_in(rng, 0, 4)).map(|_| effect(rng)).collect()
}

/// `lo..hi` runs of random effect sets.
fn runs(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<EffectSet> {
    (0..len_in(rng, lo, hi)).map(|_| effect_set(rng)).collect()
}

#[test]
fn severity_is_bounded_by_weights() {
    check_cases(CASES, |rng| {
        let runs = runs(rng, 1, 20);
        let w = SeverityWeights::paper();
        let s = w.severity(&runs).value();
        assert!(s >= 0.0);
        assert!(s <= w.max_severity());
    });
}

#[test]
fn severity_never_decreases_when_a_run_gets_worse() {
    check_cases(CASES, |rng| {
        let mut runs = runs(rng, 1, 15);
        let i = rng.below(15) as usize % runs.len();
        let extra = effect(rng);
        let w = SeverityWeights::paper();
        let before = w.severity(&runs).value();
        runs[i].insert(extra);
        let after = w.severity(&runs).value();
        assert!(after + 1e-12 >= before);
    });
}

#[test]
fn severity_is_permutation_invariant() {
    check_cases(CASES, |rng| {
        let runs = runs(rng, 1, 15);
        let w = SeverityWeights::paper();
        let forward = w.severity(&runs).value();
        let mut reversed = runs.clone();
        reversed.reverse();
        assert!((w.severity(&reversed).value() - forward).abs() < 1e-12);
    });
}

#[test]
fn region_classification_is_monotone() {
    check_cases(CASES, |rng| {
        let runs = runs(rng, 1, 12);
        // Adding an SC run always yields Crash; adding any abnormal run
        // never moves the region towards Safe.
        let before = RegionKind::of_runs(runs.iter());
        let mut with_sc = runs.clone();
        with_sc.push(EffectSet::of(Effect::Sc));
        assert_eq!(RegionKind::of_runs(with_sc.iter()), RegionKind::Crash);
        let mut with_sdc = runs;
        with_sdc.push(EffectSet::of(Effect::Sdc));
        let after = RegionKind::of_runs(with_sdc.iter());
        let holds = match (before, after) {
            (RegionKind::Crash, x) => x == RegionKind::Crash,
            (_, RegionKind::Safe) => false,
            _ => true,
        };
        assert!(holds);
    });
}

#[test]
fn effect_set_union_is_commutative_and_idempotent() {
    check_cases(CASES, |rng| {
        let (a, b) = (effect_set(rng), effect_set(rng));
        assert_eq!(a.union(b), b.union(a));
        assert_eq!(a.union(a), a);
        // Union only grows.
        for e in a.iter() {
            assert!(a.union(b).contains(e));
        }
    });
}

#[test]
fn millivolt_step_arithmetic_roundtrips() {
    check_cases(CASES, |rng| {
        let base = 100 + rng.below(1900) as u32;
        let steps = rng.below(50) as u32;
        let v = Millivolts::new(base * 5);
        assert_eq!(v.down_steps(steps).up_steps(steps), v);
        assert!(v.down_steps(steps) <= v);
    });
}

#[test]
fn split_is_always_a_partition() {
    check_cases(CASES, |rng| {
        let n = len_in(rng, 2, 200);
        let s = train_test_split(n, 0.8, rng.next_u64());
        assert!(!s.train.is_empty());
        assert!(!s.test.is_empty());
        let mut all: Vec<usize> = s.train.iter().chain(&s.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    });
}

#[test]
fn ols_training_fit_is_at_least_as_good_as_the_mean() {
    check_cases(CASES, |rng| {
        let rows: Vec<Vec<f64>> = (0..len_in(rng, 8, 40))
            .map(|_| (0..3).map(|_| rng.range_f64(-100.0, 100.0)).collect())
            .collect();
        let coefs: Vec<f64> = (0..3).map(|_| rng.range_f64(-5.0, 5.0)).collect();
        // On its own training data, ridge-OLS explains at least (almost) as
        // much variance as the constant mean predictor.
        let y: Vec<f64> = rows
            .iter()
            .map(|r| {
                r.iter().zip(&coefs).map(|(x, c)| x * c).sum::<f64>() + rng.range_f64(-0.5, 0.5)
            })
            .collect();
        let model = LinearRegression::fit(&rows, &y).unwrap();
        let pred = model.predict_many(&rows);
        assert!(r2_score(&y, &pred) >= -1e-6);
    });
}

/// A deterministic campaign cache with `n` step entries (and a golden for
/// every other one), all fields mixed from `salt` so nearby salts produce
/// structurally different keys, runs and float payloads.
fn sample_cache(n: usize, salt: u64) -> CampaignCache {
    let effects = [
        EffectSet::new(),
        EffectSet::of(Effect::Sdc),
        EffectSet::of(Effect::Ce),
        EffectSet::of(Effect::Sc),
        EffectSet::of(Effect::Ue).union(EffectSet::of(Effect::Ac)),
    ];
    let programs = ["bwaves", "namd", "mcf"];
    let mut cache = CampaignCache::new();
    for i in 0..n {
        let k = salt
            .wrapping_add(i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let runs = (0..(k % 4))
            .map(|j| CachedRun {
                effects: effects[((k >> j) % effects.len() as u64) as usize],
                corrected_errors: k % 17,
                uncorrected_errors: k % 5,
                runtime_s: (k % 1000) as f64 * 1e-4,
                energy_j: (k % 777) as f64 * 1e-3,
            })
            .collect();
        cache.insert_step(
            StepKey {
                chip: format!("TTT#{}", k % 3),
                rail: if k & 1 == 0 { "vdd" } else { "soc" }.to_owned(),
                target_mhz: 2400,
                parked_mhz: 1200 + (k % 7) as u32,
                enhancements: (k >> 3) as u8 & 0x7,
                seed: k,
                iterations: 1 + (k % 9) as u32,
                program: programs[(k % 3) as usize].to_owned(),
                dataset: if k & 2 == 0 { "ref" } else { "train" }.to_owned(),
                core: (k % 8) as u8,
                mv: 830 + 5 * (k % 24) as u32,
            },
            StepEntry {
                runs,
                power_cycles: (k % 3) as u32,
            },
        );
        if i % 2 == 0 {
            cache.insert_golden(
                GoldenKey {
                    chip: format!("TFF#{}", k % 2),
                    target_mhz: 2400,
                    parked_mhz: 1200,
                    enhancements: (k % 8) as u8,
                    seed: k,
                    program: programs[(k % 3) as usize].to_owned(),
                    dataset: "ref".to_owned(),
                    core: (k % 8) as u8,
                },
                GoldenEntry {
                    digest: k ^ 0xABCD,
                    runtime_s: (k % 500) as f64 * 1e-3,
                },
            );
        }
    }
    cache
}

/// A cache must survive serialize → parse → serialize with byte-identical
/// JSONL and entry-identical contents.
fn check_roundtrip(cache: &CampaignCache) {
    let text = cache.to_jsonl();
    let reparsed = CampaignCache::from_jsonl(&text).expect("serialized cache must reparse");
    assert_eq!(reparsed.len(), cache.len());
    assert_eq!(
        reparsed.to_jsonl(),
        text,
        "JSONL encoding must be byte-deterministic across a round-trip"
    );
    for (key, entry) in cache.steps() {
        assert_eq!(
            reparsed.step(key),
            Some(entry),
            "step entry must survive the round-trip"
        );
    }
}

/// Parsing mangled cache text must yield `Ok` or a typed parse error —
/// never a panic, never an I/O error class.
fn expect_typed_parse(input: &str) {
    match CampaignCache::from_jsonl(input) {
        Ok(_) => {}
        Err(CacheError::Corrupt { line, .. }) => assert!(line >= 1, "corrupt lines are 1-based"),
        Err(e) => panic!("parsing returned a non-parse error class: {e}"),
    }
}

/// Truncates the sample cache's JSONL at an arbitrary byte and flips an
/// arbitrary byte; both mutations must parse to `Ok` or `Corrupt`.
fn check_corrupt_no_panic(cut: usize, pos: usize, byte: u8) {
    let text = sample_cache(6, 0xC0FF_EE00).to_jsonl();
    let bytes = text.as_bytes();
    let truncated = String::from_utf8_lossy(&bytes[..cut % (bytes.len() + 1)]).into_owned();
    expect_typed_parse(&truncated);
    let mut flipped = bytes.to_vec();
    let at = pos % flipped.len();
    flipped[at] = byte;
    expect_typed_parse(&String::from_utf8_lossy(&flipped));
}

/// A campaign must produce the identical outcome with no cache, with a
/// cold cache being populated, and with a warmed cache replaying — for
/// both the exhaustive sweep and an adaptive search.
fn check_cache_preserves_outcome(seed: u64) {
    let config = |strategy: SearchStrategy| {
        CampaignConfig::builder()
            .benchmarks(["namd"])
            .cores([CoreId::new(4)])
            .iterations(1)
            .start_voltage(Millivolts::new(890))
            .floor_voltage(Millivolts::new(875))
            .seed(seed)
            .search(strategy)
            .build()
            .expect("valid configuration")
    };
    for strategy in [SearchStrategy::Exhaustive, SearchStrategy::Bisection] {
        let campaign = Campaign::new(ChipSpec::new(Corner::Ttt, 0), config(strategy));
        let plain = campaign
            .run(&SerialExecutor, ExecContext::new())
            .expect("built-in executors uphold the delivery contract");
        let cache = SharedCampaignCache::new();
        let cold = campaign
            .run(
                &SerialExecutor,
                ExecContext {
                    cache: Some(&cache),
                    ..ExecContext::new()
                },
            )
            .expect("built-in executors uphold the delivery contract");
        let warm = campaign
            .run(
                &SerialExecutor,
                ExecContext {
                    cache: Some(&cache),
                    ..ExecContext::new()
                },
            )
            .expect("built-in executors uphold the delivery contract");
        assert_eq!(
            plain.runs, cold.runs,
            "{strategy}: cold cache changed the runs"
        );
        assert_eq!(plain.goldens, cold.goldens);
        assert_eq!(
            cold.runs, warm.runs,
            "{strategy}: cache replay changed the runs"
        );
        assert_eq!(cold.goldens, warm.goldens);
        assert_eq!(cold.watchdog_power_cycles, warm.watchdog_power_cycles);
        // A cache a real campaign populated must round-trip too.
        check_roundtrip(&cache.snapshot());
    }
}

#[test]
fn cache_jsonl_roundtrip_is_lossless() {
    for (n, salt) in [(0, 1), (1, 0xDEAD), (7, 42), (24, 0x5EED)] {
        check_roundtrip(&sample_cache(n, salt));
    }
    check_cases(16, |rng| {
        check_roundtrip(&sample_cache(len_in(rng, 0, 24), rng.next_u64()));
    });
}

#[test]
fn corrupted_caches_fail_typed_never_panic() {
    assert!(matches!(
        CampaignCache::from_jsonl("not json\n"),
        Err(CacheError::Corrupt { line: 1, .. })
    ));
    for (cut, pos, byte) in [
        (0, 0, b'{'),
        (17, 3, b'}'),
        (usize::MAX, 25, 0xFF),
        (101, 7, b'0'),
    ] {
        check_corrupt_no_panic(cut, pos, byte);
    }
    check_cases(16, |rng| {
        let (cut, pos) = (rng.next_u64() as usize, rng.next_u64() as usize);
        check_corrupt_no_panic(cut, pos, rng.next_u64() as u8);
    });
}

#[test]
fn campaign_cache_load_and_save_are_typed() {
    let missing = CampaignCache::load("/nonexistent/voltmargin-cache.jsonl")
        .expect("a missing cache file is an empty cache");
    assert!(missing.is_empty());
    assert!(matches!(
        CampaignCache::load(std::env::temp_dir()),
        Err(CacheError::Io { .. })
    ));
    let path = std::env::temp_dir().join(format!("voltmargin-cache-{}.jsonl", std::process::id()));
    let cache = sample_cache(5, 77);
    cache.save(&path).expect("cache saves");
    let loaded = CampaignCache::load(&path).expect("saved cache loads");
    assert_eq!(loaded.to_jsonl(), cache.to_jsonl());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cache_lookups_never_change_outcomes() {
    check_cache_preserves_outcome(0xBEEF);
    check_cases(6, |rng| check_cache_preserves_outcome(rng.next_u64()));
}
