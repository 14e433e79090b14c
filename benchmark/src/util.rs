//! Small shared helpers: seeded RNG, order statistics, `/proc` readers.

use std::path::Path;
use std::time::Instant;

/// Split-mix generator. The harness owns its randomness (key choice,
/// arrival jitter, delta contents) so a seed means the same inputs under
/// cargo and under the rustc + shims build alike.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct values below `n`, ascending.
    pub fn distinct(&mut self, k: usize, n: u64) -> Vec<u64> {
        let mut set = std::collections::BTreeSet::new();
        while set.len() < k.min(n as usize) {
            set.insert(self.below(n));
        }
        set.into_iter().collect()
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

/// Samples ranks from a Zipf(s) distribution over `n` items and maps them
/// through a seeded permutation, so the hot keys are spread over the id
/// space instead of clustering in one attribute block.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf {
            cdf,
            perm: rng.permutation(n),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

/// The `q`-quantile (nearest rank) of unsorted samples. Like every
/// estimator here it is NaN for an empty sample set, which the harness
/// refuses to print as a metric.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The first quartile: how every repeated timing of a run is summed up
/// (a verb on the same file, a rebuild of the same data, a cold start, the
/// p50 latency of each second). Interference on a shared host only ever
/// adds time, so the least disturbed quarter of the samples repeats from
/// run to run where the median follows whichever of the host's speeds
/// held for most of the run; and the minimum, which an earlier version
/// reported, follows whether the run caught the host's fast stretch at
/// all (README.md, "Estimators", has the numbers).
pub fn lower_quartile(samples: &[f64]) -> f64 {
    quantile(samples, 0.25)
}

/// [`lower_quartile`]'s counterpart for rates, where interference only
/// ever takes away.
pub fn upper_quartile(samples: &[f64]) -> f64 {
    quantile(samples, 0.75)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the acceptance rule for this benchmark is stated in.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Times `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Peak resident set (`VmHWM`) of a live process in MiB, from
/// `/proc/<pid>/status`. Unlike `ru_maxrss` it belongs to the process's
/// own address space, so a forked child never inherits the harness's peak.
pub fn vm_hwm_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .split_whitespace()
                .next()?
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Total bytes of the regular files under `path` (a file or a directory);
/// 0 for what cannot be read, which no metric accepts as a reading.
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| disk_bytes(&e.path()))
        .sum()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
