//! The statistics every metric goes through. Pure functions over slices,
//! so the harness's arithmetic is unit-tested apart from any workload.
//!
//! Three rules shape them. Percentiles are nearest-rank (no
//! interpolation: a latency is one that was actually observed). On a host
//! whose speed flips between two modes for seconds at a time, the daemon
//! workloads summarise the window as a *median over 2-second slices*, so a
//! slow phase that covers less than half the window does not move the
//! number. And because the host also drifts for longer than a run, each
//! slice is first *normalised* by the reference request timed in that same
//! slice (`host::HostGauge`). The raw and the mean-based twins stay
//! visible as per-layer metrics.

use crate::host::HostReading;

/// One completed work unit: when it finished (ns since the window opened),
/// how long it took, and how much work it carried (snapshots in a batch,
/// 1 for a verdict).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub end_ns: u64,
    pub latency_ns: u64,
    pub work: u64,
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q` of the sample at or below it. `None` on an empty slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile_sorted`] over unsorted values.
pub fn percentile(values: &[u64], q: f64) -> Option<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile_sorted(&v, q)
}

/// Median of floats (mean of the middle pair on an even count). `None`
/// on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Quartile distance as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread figure the A/A table reports and the driver gates on.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    // Mirrors CPython: j = k(n+1)//4 clamped to 1..n-1, delta from the
    // clamped j (so tiny samples extrapolate exactly as Python does).
    let quantile = |k: i64| {
        let (n, m) = (n as i64, n as i64 + 1);
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = k * m - j * 4;
        (v[j as usize - 1] * (4 - delta) as f64 + v[j as usize] * delta as f64) / 4.0
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (quantile(3) - quantile(1)) / med.abs())
}

/// Per-slice summary of a measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    pub wall_ns: u64,
    pub work: u64,
    /// Latencies of the samples that finished in this slice, ascending.
    pub latencies: Vec<u64>,
    /// Reference requests that finished in this slice, ascending.
    pub ref_request_ns: Vec<u64>,
    /// Wall the generator spent on host readings in this slice.
    pub ref_spent_ns: u64,
}

impl Slice {
    /// Work per second of the wall the generator had for work.
    pub fn work_per_s(&self) -> f64 {
        self.work as f64 * 1e9 / self.wall_ns.saturating_sub(self.ref_spent_ns).max(1) as f64
    }

    fn absorb(&mut self, other: Slice) {
        self.wall_ns += other.wall_ns;
        self.work += other.work;
        self.latencies.extend(other.latencies);
        self.ref_request_ns.extend(other.ref_request_ns);
        self.ref_spent_ns += other.ref_spent_ns;
    }
}

/// Cut a window of `window_ns` into slices of `slice_ns` by finish time
/// (of samples and of host readings alike); a trailing remainder shorter
/// than half a slice joins the last full one. Then merge any slice holding
/// fewer than `min_samples` into its neighbour (the following one, or the
/// preceding one at the end), so every slice's p90 has enough samples
/// beyond it.
pub fn slices(
    samples: &[Sample],
    readings: &[HostReading],
    window_ns: u64,
    slice_ns: u64,
    min_samples: usize,
) -> Vec<Slice> {
    let slice_ns = slice_ns.max(1);
    let mut n = (window_ns / slice_ns).max(1) as usize;
    if window_ns % slice_ns >= slice_ns / 2 && window_ns > slice_ns {
        n += 1;
    }
    let mut out: Vec<Slice> = (0..n)
        .map(|i| {
            let start = i as u64 * slice_ns;
            let end = if i + 1 == n {
                window_ns.max(start + 1)
            } else {
                start + slice_ns
            };
            Slice {
                wall_ns: end - start,
                work: 0,
                latencies: Vec::new(),
                ref_request_ns: Vec::new(),
                ref_spent_ns: 0,
            }
        })
        .collect();
    let index = |end_ns: u64| ((end_ns / slice_ns) as usize).min(n - 1);
    for s in samples {
        let slice = &mut out[index(s.end_ns)];
        slice.work += s.work;
        slice.latencies.push(s.latency_ns);
    }
    for r in readings {
        let slice = &mut out[index(r.end_ns)];
        slice.ref_request_ns.push(r.request_ns);
        slice.ref_spent_ns += r.spent_ns;
    }
    let mut merged: Vec<Slice> = Vec::with_capacity(out.len());
    let mut carry: Option<Slice> = None;
    for mut s in out {
        if let Some(c) = carry.take() {
            s.absorb(c);
        }
        if s.latencies.len() < min_samples {
            carry = Some(s);
        } else {
            merged.push(s);
        }
    }
    if let Some(c) = carry {
        match merged.last_mut() {
            Some(last) => last.absorb(c),
            None => merged.push(c),
        }
    }
    for s in &mut merged {
        s.latencies.sort_unstable();
        s.ref_request_ns.sort_unstable();
    }
    merged
}

/// The window's summary statistics (see the module docs). Rates and
/// latencies are *host-normalised*: each slice's own numbers, scaled by
/// how much slower than `nominal_ns` the reference request ran in that
/// same slice, then the median over slices. The raw twins are beside them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Median over slices of work / slice wall × the slice's slowdown.
    pub work_per_s: f64,
    /// Median over slices of each slice's median latency / its slowdown.
    pub p50_ns: u64,
    /// Median over slices of each slice's nearest-rank p90 / its slowdown.
    pub p90_ns: u64,
    /// Median over slices of work / slice wall, as the clock read it.
    pub raw_work_per_s: f64,
    /// Median over all samples, as the clock read it.
    pub raw_p50_ns: u64,
    /// Total work / window wall — the mean-based twin, raw.
    pub work_per_s_mean: f64,
    /// Share of slices whose raw rate fell below 0.8 × the median raw rate.
    pub slow_slice_share: f64,
    /// Median over slices of the slowdown: reference request p50 / nominal.
    pub slowdown: f64,
    pub slices: usize,
    pub samples: usize,
}

/// `readings` empty (or `nominal_ns` 0) means slowdown 1 everywhere: the
/// normalised numbers are then the raw ones.
pub fn window_stats(
    samples: &[Sample],
    readings: &[HostReading],
    window_ns: u64,
    slice_ns: u64,
    nominal_ns: u64,
) -> Option<WindowStats> {
    if samples.is_empty() {
        return None;
    }
    let sl = slices(samples, readings, window_ns, slice_ns, 100);
    // A slice without a reading of its own takes the window's.
    let all_refs: Vec<u64> = readings.iter().map(|r| r.request_ns).collect();
    let window_ref = percentile(&all_refs, 0.5);
    let slowdowns: Vec<f64> = sl
        .iter()
        .map(|s| {
            match (
                percentile_sorted(&s.ref_request_ns, 0.5).or(window_ref),
                nominal_ns,
            ) {
                (Some(r), n) if n > 0 => r as f64 / n as f64,
                _ => 1.0,
            }
        })
        .collect();
    let per_slice = |f: &dyn Fn(&Slice) -> Option<f64>, scale: &dyn Fn(f64, f64) -> f64| {
        let v: Vec<f64> = sl
            .iter()
            .zip(&slowdowns)
            .filter_map(|(s, &k)| f(s).map(|x| scale(x, k)))
            .collect();
        median(&v)
    };
    let quantile = |q: f64| move |s: &Slice| percentile_sorted(&s.latencies, q).map(|v| v as f64);
    let raw_rates: Vec<f64> = sl.iter().map(Slice::work_per_s).collect();
    let raw_work_per_s = median(&raw_rates)?;
    let slow = raw_rates
        .iter()
        .filter(|&&r| r < 0.8 * raw_work_per_s)
        .count();
    let all: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    let spent: u64 = readings.iter().map(|r| r.spent_ns).sum();
    Some(WindowStats {
        work_per_s: per_slice(&|s| Some(s.work_per_s()), &|x, k| x * k)?,
        p50_ns: per_slice(&quantile(0.5), &|x, k| x / k)? as u64,
        p90_ns: per_slice(&quantile(0.9), &|x, k| x / k)? as u64,
        raw_work_per_s,
        raw_p50_ns: percentile(&all, 0.5)?,
        work_per_s_mean: samples.iter().map(|s| s.work).sum::<u64>() as f64 * 1e9
            / window_ns.saturating_sub(spent).max(1) as f64,
        slow_slice_share: slow as f64 / sl.len() as f64,
        slowdown: median(&slowdowns)?,
        slices: sl.len(),
        samples: samples.len(),
    })
}

/// Deterministic splitmix64 stream: the harness's only randomness (cell
/// order, segment order), a function of the seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// Fisher–Yates shuffle driven by `seed` only.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(5));
        assert_eq!(percentile_sorted(&v, 0.9), Some(9));
        assert_eq!(percentile_sorted(&v, 0.91), Some(10));
        assert_eq!(percentile_sorted(&v, 1.0), Some(10));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1));
        assert_eq!(percentile_sorted(&[7], 0.9), Some(7));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        // Never interpolates: the answer is always an observed value.
        assert_eq!(percentile(&[10, 1000], 0.5), Some(10));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = quartile_spread(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        // Tiny samples extrapolate: quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = quartile_spread(&[1.0, 3.0]).unwrap();
        assert!((s - 1.5).abs() < 1e-12, "{s}");
    }

    fn sample(end_ms: u64, lat: u64) -> Sample {
        Sample {
            end_ns: end_ms * 1_000_000,
            latency_ns: lat,
            work: 1,
        }
    }

    #[test]
    fn median_of_slices_ignores_a_minority_slow_phase() {
        // Five 2 s slices; four run at 100 units/slice, one stalls at 10.
        let mut samples = Vec::new();
        for slice in 0..5u64 {
            let n = if slice == 2 { 10 } else { 100 };
            for i in 0..n {
                samples.push(sample(slice * 2000 + i * (2000 / n), 1000 * (slice + 1)));
            }
        }
        let sl = slices(&samples, &[], 10_000_000_000, 2_000_000_000, 5);
        assert_eq!(sl.len(), 5);
        let st = window_stats(&samples, &[], 10_000_000_000, 2_000_000_000, 1000).unwrap();
        // The thin slice (10 < 100 samples) merged into its successor, so
        // four slices remain and the median rate is the healthy one.
        assert_eq!(st.slices, 4);
        assert!((st.work_per_s - 50.0).abs() < 1e-9, "{}", st.work_per_s);
        // No host readings: normalised and raw are the same numbers.
        assert_eq!(st.work_per_s, st.raw_work_per_s);
        assert_eq!(st.slowdown, 1.0);
        // The mean-based twin does see the stall.
        assert!((st.work_per_s_mean - 41.0).abs() < 1e-9);
        assert_eq!(st.slow_slice_share, 0.25);
    }

    fn reading(end_ms: u64, request_ns: u64) -> HostReading {
        HostReading {
            end_ns: end_ms * 1_000_000,
            request_ns,
            spin_us: 0.0,
            spent_ns: 0,
        }
    }

    #[test]
    fn a_slow_host_cancels_slice_by_slice() {
        // Three 2 s slices on a host that runs at nominal speed, then 1.5x
        // slow, then 2x slow: work, latency and the reference request all
        // stretch by the same factor.
        let nominal = 1_000u64;
        let (mut samples, mut readings) = (Vec::new(), Vec::new());
        for (slice, slow_x2) in [(0u64, 2u64), (1, 3), (2, 4)] {
            let n = 1200 / slow_x2;
            for i in 0..n {
                samples.push(sample(slice * 2000 + i * 2000 / n, 500 * slow_x2));
            }
            for i in 0..10 {
                readings.push(reading(slice * 2000 + i * 200, nominal * slow_x2 / 2));
            }
        }
        let st = window_stats(&samples, &readings, 6_000_000_000, 2_000_000_000, nominal).unwrap();
        assert_eq!(st.slices, 3);
        // Normalised: every slice reads what the nominal-speed one reads.
        assert!((st.work_per_s - 300.0).abs() < 1e-9, "{}", st.work_per_s);
        assert_eq!(st.p50_ns, 1000);
        assert_eq!(st.p90_ns, 1000);
        // Raw: the middle slice's numbers.
        assert!((st.raw_work_per_s - 200.0).abs() < 1e-9);
        assert_eq!(st.raw_p50_ns, 1500);
        assert_eq!(st.slowdown, 1.5);
        // A regression of the program itself does not cancel: the same
        // latencies against an unchanged reference read twice as long.
        let steady: Vec<HostReading> = readings
            .iter()
            .map(|r| HostReading {
                request_ns: nominal,
                ..*r
            })
            .collect();
        let slower: Vec<Sample> = samples
            .iter()
            .map(|s| Sample {
                latency_ns: 2000,
                ..*s
            })
            .collect();
        let st = window_stats(&slower, &steady, 6_000_000_000, 2_000_000_000, nominal).unwrap();
        assert_eq!(st.p50_ns, 2000);
    }

    #[test]
    fn time_spent_on_host_readings_is_not_work_time() {
        // 100 units in a 2 s slice of which 0.4 s went to readings.
        let samples: Vec<Sample> = (0..100).map(|i| sample(i * 20, 7)).collect();
        let readings = vec![HostReading {
            spent_ns: 400_000_000,
            ..reading(1000, 1000)
        }];
        let sl = slices(&samples, &readings, 2_000_000_000, 2_000_000_000, 0);
        assert_eq!(sl.len(), 1);
        assert!((sl[0].work_per_s() - 62.5).abs() < 1e-9);
    }

    #[test]
    fn thin_slices_merge_forward_and_a_thin_tail_merges_back() {
        let mut samples = Vec::new();
        // slice 0: 3 samples (thin), slice 1: 10, slice 2: 2 (thin tail).
        for i in 0..3 {
            samples.push(sample(100 + i, 5));
        }
        for i in 0..10 {
            samples.push(sample(2100 + i, 7));
        }
        for i in 0..2 {
            samples.push(sample(4100 + i, 9));
        }
        let readings = [reading(150, 30), reading(2150, 10), reading(4150, 20)];
        let sl = slices(&samples, &readings, 6_000_000_000, 2_000_000_000, 5);
        assert_eq!(sl.len(), 1);
        assert_eq!(sl[0].latencies.len(), 15);
        assert_eq!(sl[0].wall_ns, 6_000_000_000);
        assert_eq!(sl[0].work, 15);
        assert_eq!(sl[0].latencies.first(), Some(&5));
        assert_eq!(sl[0].latencies.last(), Some(&9));
        // Host readings travel with the slice they were taken in.
        assert_eq!(sl[0].ref_request_ns, vec![10, 20, 30]);
        // Enough samples everywhere: nothing merges.
        let sl = slices(&samples, &readings, 6_000_000_000, 2_000_000_000, 2);
        assert_eq!(sl.len(), 3);
        assert_eq!(sl[1].ref_request_ns, vec![10]);
    }

    #[test]
    fn short_remainder_joins_the_last_slice() {
        let samples = vec![sample(500, 1), sample(2500, 1), sample(4400, 1)];
        // 4.5 s window, 2 s slices: the 0.5 s remainder joins slice 1.
        let sl = slices(&samples, &[], 4_500_000_000, 2_000_000_000, 0);
        assert_eq!(sl.len(), 2);
        assert_eq!(sl[1].wall_ns, 2_500_000_000);
        assert_eq!(sl[1].work, 2);
        // 5.5 s window: the 1.5 s remainder is a slice of its own.
        let sl = slices(&samples, &[], 5_500_000_000, 2_000_000_000, 0);
        assert_eq!(sl.len(), 3);
        assert_eq!(sl[2].wall_ns, 1_500_000_000);
    }

    #[test]
    fn shuffle_is_a_function_of_the_seed_only() {
        let base: Vec<u32> = (0..108).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        shuffle(&mut c, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, base);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, base, "a permutation, nothing lost");
    }
}
