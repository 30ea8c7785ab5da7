//! Deterministic input generation: everything a workload feeds the
//! program is a pure function of `--seed`.

use bepi_core::BePi;
use std::time::Duration;

/// xoshiro256** seeded through SplitMix64. Local to the benchmark so the
/// inputs never shift with a change to the workspace's `rand` shim.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    /// A stream for one purpose: `(seed, stream)` pairs never share state,
    /// so adding a draw to one input list cannot shift another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The three seed classes of a preprocessed index. A dead-end seed skips
/// the Schur solve entirely and a hub seed skips the forward `H11` solve,
/// so query latency is multi-modal by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedClass {
    Spoke,
    Hub,
    DeadEnd,
}

/// Node ids (original numbering) by class, from `permutation()` and
/// `stats().{n1,n2,n3}`.
#[derive(Debug, Clone)]
pub struct SeedClasses {
    pub spokes: Vec<usize>,
    pub hubs: Vec<usize>,
    pub dead_ends: Vec<usize>,
    n1: usize,
    n2: usize,
    new_of_old: Vec<u32>,
}

impl SeedClasses {
    pub fn of(index: &BePi) -> Self {
        let stats = index.stats();
        let (n1, n2, n3) = (stats.n1, stats.n2, stats.n3);
        let old_of_new = index.permutation().old_of_new();
        let ids = |range: std::ops::Range<usize>| -> Vec<usize> {
            old_of_new[range].iter().map(|&o| o as usize).collect()
        };
        SeedClasses {
            spokes: ids(0..n1),
            hubs: ids(n1..n1 + n2),
            dead_ends: ids(n1 + n2..n1 + n2 + n3),
            n1,
            n2,
            new_of_old: index.permutation().new_of_old().to_vec(),
        }
    }

    pub fn class_of(&self, node: usize) -> SeedClass {
        let p = self.new_of_old[node] as usize;
        if p < self.n1 {
            SeedClass::Spoke
        } else if p < self.n1 + self.n2 {
            SeedClass::Hub
        } else {
            SeedClass::DeadEnd
        }
    }

    /// `count` distinct seeds drawn spoke : hub : dead-end = 6 : 3 : 1,
    /// so that p50 and p95 both sit inside the non-dead-end mode instead
    /// of on the cliff between modes. A class that runs out hands its
    /// remaining share to the spokes, then the hubs.
    pub fn draw_631(&self, rng: &mut Rng, count: usize) -> Vec<usize> {
        let mut pools = [
            self.spokes.clone(),
            self.hubs.clone(),
            self.dead_ends.clone(),
        ];
        for pool in &mut pools {
            rng.shuffle(pool);
        }
        let total: usize = pools.iter().map(Vec::len).sum();
        assert!(
            count <= total,
            "asked for {count} distinct seeds from a {total}-node index"
        );
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let ticket = rng.below(10);
            let preferred = match ticket {
                0..=5 => 0,
                6..=8 => 1,
                _ => 2,
            };
            let class = [preferred, 0, 1, 2]
                .into_iter()
                .find(|&c| !pools[c].is_empty())
                .expect("count <= total leaves a non-empty pool");
            out.push(pools[class].pop().expect("pool checked non-empty"));
        }
        out
    }
}

/// Zipf popularity over ranks `0..n`: rank `r` is drawn with weight
/// `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty universe");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cumulative.push(acc);
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let u = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// Arrival offsets of a Poisson process at `rate` per second over
/// `window`: independent users, so exponential gaps.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, window: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // 1 - unit() is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= window.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bepi_core::BePiConfig;
    use bepi_graph::generators;

    fn small_index() -> BePi {
        let g = generators::rmat(9, 3_000, generators::RmatParams::default(), 5).unwrap();
        let g = generators::inject_deadends(&g, 0.2, 6).unwrap();
        BePi::preprocess(&g, &BePiConfig::default()).unwrap()
    }

    #[test]
    fn rng_streams_are_deterministic_and_independent() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }

    #[test]
    fn mix_631_is_deterministic_distinct_and_in_ratio() {
        let index = small_index();
        let classes = SeedClasses::of(&index);
        let draw = |seed| classes.draw_631(&mut Rng::new(seed, 3), 200);
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len(), "seeds repeat");
        let share = |class| {
            a.iter().filter(|&&s| classes.class_of(s) == class).count() as f64 / a.len() as f64
        };
        assert!((share(SeedClass::Spoke) - 0.6).abs() < 0.12);
        assert!((share(SeedClass::Hub) - 0.3).abs() < 0.12);
        assert!((share(SeedClass::DeadEnd) - 0.1).abs() < 0.08);
    }

    #[test]
    fn exhausted_class_hands_its_share_on() {
        let index = small_index();
        let classes = SeedClasses::of(&index);
        let all = classes.spokes.len() + classes.hubs.len() + classes.dead_ends.len();
        let seeds = classes.draw_631(&mut Rng::new(1, 1), all);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..all).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_deterministic_and_head_heavy() {
        let z = Zipf::new(1024, 1.0);
        let run = |seed| {
            let mut r = Rng::new(seed, 9);
            (0..4000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = run(5);
        assert_eq!(a, run(5));
        assert_ne!(a, run(6));
        assert!(a.iter().all(|&r| r < 1024));
        let head = a.iter().filter(|&&r| r < 10).count() as f64 / a.len() as f64;
        // H(10) / H(1024) = 2.929 / 7.509 = 0.39
        assert!((head - 0.39).abs() < 0.05, "head share {head}");
    }

    #[test]
    fn poisson_arrivals_hold_the_rate() {
        let a = poisson_arrivals(&mut Rng::new(3, 4), 200.0, Duration::from_secs(10));
        assert_eq!(
            a,
            poisson_arrivals(&mut Rng::new(3, 4), 200.0, Duration::from_secs(10))
        );
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            (a.len() as f64 - 2000.0).abs() < 150.0,
            "{} arrivals",
            a.len()
        );
        assert!(a.last().unwrap() < &Duration::from_secs(10));
    }
}
