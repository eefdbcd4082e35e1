//! Seeded request streams of the served workloads.
//!
//! The workload seed is the only input: the same seed gives the same
//! stream, job for job, and the server sees nothing but the requests.

use nemfpga::request::{ExperimentKind, ExperimentRequest};

/// Benchmark scale of every CAD request the served workloads send.
pub const CAD_SCALE: f64 = 0.02;

/// Seed of the small CAD results in the `served_hot` warm set.
const WARM_SEED: u64 = 42;

/// The splitmix64 mixer: a bijection on `u64` with good avalanche.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `served_hot` warm set: the device and crossbar experiments plus a
/// few small CAD results, 0.3 KB to 2 KB of output each. Fixed, so every
/// seed serves the same cached bytes and only the draw order varies.
pub fn warm_set() -> Vec<ExperimentRequest> {
    use ExperimentKind::*;
    let mut set: Vec<ExperimentRequest> =
        [Table1, Fig2b, Fig4, Fig5, Fig6, Fig11, Scaling, Faults, Yield]
            .into_iter()
            .map(ExperimentRequest::new)
            .collect();
    for (experiment, benchmarks) in [(Fig9, 1), (Wmin, 1), (Fig12, 1), (Fig12, 2)] {
        set.push(ExperimentRequest { experiment, scale: CAD_SCALE, benchmarks, seed: WARM_SEED });
    }
    set
}

/// Which warm-set entry job `i` of the `served_hot` stream requests.
pub fn hot_index(seed: u64, i: u64, warm_len: usize) -> usize {
    (mix(mix(seed) ^ i) % warm_len as u64) as usize
}

/// The `served_cold` job mix, cycled in order: experiment and suite
/// circuits. Cycling keeps every batch of [`COLD_MIX`]`.len()` jobs the
/// same shape, so rounds differ only in their seeds.
pub const COLD_MIX: [(ExperimentKind, usize); 7] = [
    (ExperimentKind::Fig9, 1),
    (ExperimentKind::Wmin, 1),
    (ExperimentKind::Wmin, 2),
    (ExperimentKind::Wmin, 3),
    (ExperimentKind::Fig12, 1),
    (ExperimentKind::Fig12, 2),
    (ExperimentKind::Fig12, 3),
];

/// Job `i` of the `served_cold` stream: the mix entry `i` selects, with
/// a seed no other job of the stream shares (so no key ever repeats and
/// every job misses the cache).
pub fn cold_request(seed: u64, i: u64) -> ExperimentRequest {
    let (experiment, benchmarks) = COLD_MIX[(i % COLD_MIX.len() as u64) as usize];
    // A 40-bit base per workload seed plus the job index: distinct for
    // every index, and far from the small seeds people type by hand.
    let job_seed = (mix(seed) >> 24) + i;
    ExperimentRequest { experiment, scale: CAD_SCALE, benchmarks, seed: job_seed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemfpga_service::job_key;
    use std::collections::HashSet;

    fn hot_stream(seed: u64) -> Vec<usize> {
        let n = warm_set().len();
        (0..2000).map(|i| hot_index(seed, i, n)).collect()
    }

    fn cold_keys(seed: u64, n: u64) -> Vec<String> {
        (0..n).map(|i| job_key(&cold_request(seed, i)).unwrap().as_hex().to_owned()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(hot_stream(42), hot_stream(42));
        assert_ne!(hot_stream(42), hot_stream(43));
        assert_eq!(cold_keys(42, 50), cold_keys(42, 50));
        assert_ne!(cold_keys(42, 50), cold_keys(43, 50));
    }

    #[test]
    fn hot_stream_draws_every_warm_entry() {
        let seen: HashSet<usize> = hot_stream(7).into_iter().collect();
        assert_eq!(seen.len(), warm_set().len());
    }

    #[test]
    fn cold_stream_never_repeats_a_key() {
        for seed in [0, 1, 42, u64::MAX] {
            let keys = cold_keys(seed, 5000);
            let unique: HashSet<&String> = keys.iter().collect();
            assert_eq!(unique.len(), keys.len(), "seed {seed} repeats a key");
        }
    }

    #[test]
    fn cold_stream_misses_the_warm_set() {
        let warm: HashSet<String> =
            warm_set().iter().map(|r| job_key(r).unwrap().as_hex().to_owned()).collect();
        assert_eq!(warm.len(), warm_set().len());
        assert!(cold_keys(42, 2000).iter().all(|k| !warm.contains(k)));
    }

    #[test]
    fn every_request_is_valid() {
        for r in
            warm_set().iter().chain((0..14).map(|i| cold_request(9, i)).collect::<Vec<_>>().iter())
        {
            r.validate().unwrap();
        }
    }
}
