//! Property tests for the measurement primitives.

use proptest::prelude::*;

use firesim_core::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
use firesim_core::stats::{Histogram, TimeSeries};
use firesim_core::{Cycle, SimRng};

/// Naive reference for [`Histogram::percentile`]: sort a fresh copy, find
/// the interpolation rank directly.
fn naive_interpolated(samples: &[u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some((s[lo] as f64 + (s[hi] as f64 - s[lo] as f64) * frac).round() as u64)
}

/// Naive reference for [`Histogram::percentile_nearest_rank`]: linear scan
/// of a sorted copy for the smallest sample whose cumulative count covers
/// `p` percent of all samples.
fn naive_nearest_rank(samples: &[u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let p = p.clamp(0.0, 100.0);
    let need = p / 100.0 * s.len() as f64;
    s.iter()
        .enumerate()
        .find(|&(i, _)| (i + 1) as f64 >= need)
        .map(|(_, &v)| v)
        .or_else(|| s.last().copied())
}

fn series_from(points: &[(u64, f64)], name: &str) -> TimeSeries {
    let mut ts = TimeSeries::new(name);
    for &(c, v) in points {
        ts.record(Cycle::new(c), v);
    }
    ts
}

/// Turns per-point `(cycle delta, value)` pairs into a nondecreasing-cycle
/// point list, the order [`TimeSeries::record`] expects.
fn sorted_points(deltas: &[(u32, u16)]) -> Vec<(u64, f64)> {
    let mut cycle = 0u64;
    deltas
        .iter()
        .map(|&(d, v)| {
            cycle += u64::from(d);
            (cycle, f64::from(v))
        })
        .collect()
}

/// Samples around the 32-bit boundary: small ones, `u32::MAX` and just
/// above it, and large ones (below 2⁵², where the `f64` reference
/// percentile is still exact).
fn boundary_sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..1_000_000,
        (0u64..4).prop_map(|d| u64::from(u32::MAX) + d),
        0u64..1 << 52,
    ]
}

/// The snapshot encoding a histogram had when it stored `Vec<u64>`: name,
/// the sample sequence, the sorted flag.
fn vec_u64_encoding(name: &str, samples: &Vec<u64>, sorted: bool) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_str(name);
    w.put(samples);
    w.put_bool(sorted);
    w.into_bytes()
}

fn histogram_bytes(h: &Histogram) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    h.save(&mut w);
    w.into_bytes()
}

proptest! {
    /// A stream that crosses 32 bits part-way keeps every sample, in
    /// order, and its percentiles match the reference before and after.
    #[test]
    fn widening_keeps_samples_and_percentiles(
        narrow in proptest::collection::vec(0u64..=u64::from(u32::MAX), 0..100),
        rest in proptest::collection::vec(boundary_sample(), 0..100),
        ps in proptest::collection::vec(0u32..=1000, 1..6),
    ) {
        let mut h = Histogram::new("t");
        let mut all = Vec::new();
        for &s in narrow.iter().chain(&rest) {
            h.record(s);
            all.push(s);
            prop_assert!(h.samples().eq(all.iter().copied()));
        }
        prop_assert_eq!(h.count(), all.len());
        prop_assert_eq!(h.min(), all.iter().copied().min());
        prop_assert_eq!(h.max(), all.iter().copied().max());
        for &p in &ps {
            let p = f64::from(p) / 10.0;
            prop_assert_eq!(h.percentile(p), naive_interpolated(&all, p));
            prop_assert_eq!(h.percentile_nearest_rank(p), naive_nearest_rank(&all, p));
        }
    }

    /// Merging narrow into wide, wide into narrow and narrow into narrow
    /// histograms concatenates the samples in order.
    #[test]
    fn merge_across_widths_concatenates(
        a in proptest::collection::vec(boundary_sample(), 0..60),
        b in proptest::collection::vec(boundary_sample(), 0..60),
    ) {
        let build = |samples: &[u64]| {
            let mut h = Histogram::new("t");
            for &s in samples {
                h.record(s);
            }
            h
        };
        let mut ab = build(&a);
        ab.merge(&build(&b));
        prop_assert!(ab.samples().eq(a.iter().chain(&b).copied()));
        let mut ba = build(&b);
        ba.merge(&build(&a));
        prop_assert!(ba.samples().eq(b.iter().chain(&a).copied()));
    }

    /// Snapshot bytes equal the `Vec<u64>` encoding at every width, sorted
    /// or not, and load back to a histogram that saves the same bytes.
    #[test]
    fn snapshot_bytes_match_the_u64_encoding(
        samples in proptest::collection::vec(boundary_sample(), 0..100),
        query in any::<bool>(),
    ) {
        let mut h = Histogram::new("lat");
        for &s in &samples {
            h.record(s);
        }
        let mut stored = samples.clone();
        if query {
            h.percentile(50.0);
            stored.sort_unstable();
        }
        let sorted = query || samples.is_empty();
        let bytes = histogram_bytes(&h);
        prop_assert_eq!(&bytes, &vec_u64_encoding("lat", &stored, sorted));
        let back = Histogram::load(&mut SnapshotReader::new(&bytes)).unwrap();
        prop_assert_eq!(histogram_bytes(&back), bytes);
        prop_assert!(back.samples().eq(stored.iter().copied()));
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentiles_monotone(samples in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let mut h = Histogram::new("t");
        for &s in &samples {
            h.record(s);
        }
        let min = h.min().unwrap();
        let max = h.max().unwrap();
        let mut prev = min;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
            let v = h.percentile(p).unwrap();
            prop_assert!(v >= prev.min(v)); // non-panicking guard
            prop_assert!(v >= min && v <= max, "p{p}: {v} outside [{min},{max}]");
            prop_assert!(v >= prev || p == 0.0, "p{p}: {v} < previous {prev}");
            prev = v;
        }
        prop_assert_eq!(h.percentile(0.0), Some(min));
        prop_assert_eq!(h.percentile(100.0), Some(max));
    }

    /// Merging histograms preserves the sample count and extremes.
    #[test]
    fn merge_preserves_samples(
        a in proptest::collection::vec(0u64..1_000, 1..100),
        b in proptest::collection::vec(0u64..1_000, 1..100),
    ) {
        let mut ha = Histogram::new("a");
        for &s in &a { ha.record(s); }
        let mut hb = Histogram::new("b");
        for &s in &b { hb.record(s); }
        let (amin, amax) = (ha.min().unwrap(), ha.max().unwrap());
        let (bmin, bmax) = (hb.min().unwrap(), hb.max().unwrap());
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), a.len() + b.len());
        prop_assert_eq!(ha.min(), Some(amin.min(bmin)));
        prop_assert_eq!(ha.max(), Some(amax.max(bmax)));
    }

    /// Split RNG streams are reproducible and (statistically) distinct.
    #[test]
    fn rng_split_stable(seed in any::<u64>(), stream in 0u64..1_000) {
        let root = SimRng::seed_from(seed);
        let mut a = root.split(stream);
        let mut b = root.split(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = root.split(stream.wrapping_add(1));
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        prop_assert_ne!(va, vc);
    }

    /// gen_range stays inside the requested inclusive range.
    #[test]
    fn gen_range_in_bounds(seed in any::<u64>(), lo in 0u64..1_000, span in 0u64..1_000) {
        let hi = lo + span;
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..64 {
            let v = rng.gen_range(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
        }
    }

    /// The interpolated percentile agrees with a from-scratch reference,
    /// regardless of insertion order and interleaved queries (which sort
    /// the reservoir in place).
    #[test]
    fn percentile_matches_naive_reference(
        samples in proptest::collection::vec(0u64..1_000_000, 1..200),
        ps in proptest::collection::vec(0u32..=1000, 1..8),
    ) {
        let mut h = Histogram::new("t");
        for &s in &samples {
            h.record(s);
        }
        for &p in &ps {
            let p = f64::from(p) / 10.0;
            prop_assert_eq!(h.percentile(p), naive_interpolated(&samples, p), "p = {}", p);
        }
    }

    /// Nearest-rank percentile agrees with the linear-scan reference on
    /// duplicate-heavy inputs (values drawn from a tiny domain), and always
    /// returns an actual sample.
    #[test]
    fn nearest_rank_matches_naive_reference(
        samples in proptest::collection::vec(0u64..8, 1..200),
        ps in proptest::collection::vec(0u32..=1000, 1..8),
    ) {
        let mut h = Histogram::new("t");
        for &s in &samples {
            h.record(s);
        }
        for &p in &ps {
            let p = f64::from(p) / 10.0;
            let got = h.percentile_nearest_rank(p);
            prop_assert_eq!(got, naive_nearest_rank(&samples, p), "p = {}", p);
            prop_assert!(samples.contains(&got.unwrap()), "p{}: {:?} not a sample", p, got);
        }
    }

    /// Histogram::merge is associative: merging per-worker shards in any
    /// grouping yields the same reservoir, hence identical percentiles.
    #[test]
    fn histogram_merge_associative(
        a in proptest::collection::vec(0u64..1_000, 0..60),
        b in proptest::collection::vec(0u64..1_000, 0..60),
        c in proptest::collection::vec(0u64..1_000, 0..60),
    ) {
        let build = |samples: &[u64]| {
            let mut h = Histogram::new("t");
            for &s in samples {
                h.record(s);
            }
            h
        };
        // (a ⊕ b) ⊕ c
        let mut left = build(&a);
        left.merge(&build(&b));
        left.merge(&build(&c));
        // a ⊕ (b ⊕ c)
        let mut right = build(&a);
        let mut bc = build(&b);
        bc.merge(&build(&c));
        right.merge(&bc);
        prop_assert!(left.samples().eq(right.samples()));
        if !left.is_empty() {
            for p in [0.0, 50.0, 95.0, 100.0] {
                prop_assert_eq!(left.percentile(p), right.percentile(p));
                prop_assert_eq!(
                    left.percentile_nearest_rank(p),
                    right.percentile_nearest_rank(p)
                );
            }
        }
    }

    /// TimeSeries::merge is associative for series recorded in
    /// nondecreasing cycle order.
    #[test]
    fn timeseries_merge_associative(
        a in proptest::collection::vec((0u32..1_000, any::<u16>()), 0..60),
        b in proptest::collection::vec((0u32..1_000, any::<u16>()), 0..60),
        c in proptest::collection::vec((0u32..1_000, any::<u16>()), 0..60),
    ) {
        let (a, b, c) = (sorted_points(&a), sorted_points(&b), sorted_points(&c));
        let mut left = series_from(&a, "l");
        left.merge(&series_from(&b, "t"));
        left.merge(&series_from(&c, "t"));
        let mut right = series_from(&a, "r");
        let mut bc = series_from(&b, "t");
        bc.merge(&series_from(&c, "t"));
        right.merge(&bc);
        prop_assert_eq!(left.points(), right.points());
        prop_assert_eq!(left.len(), a.len() + b.len() + c.len());
        // Merged output stays sorted by cycle.
        prop_assert!(left.points().windows(2).all(|w| w[0].0 <= w[1].0));
    }
}

#[test]
fn percentile_edge_cases_empty_singleton_duplicates() {
    let mut empty = Histogram::new("e");
    assert_eq!(empty.percentile(50.0), None);
    assert_eq!(empty.percentile_nearest_rank(50.0), None);

    let mut single = Histogram::new("s");
    single.record(42);
    for p in [0.0, 1.0, 50.0, 99.9, 100.0] {
        assert_eq!(single.percentile(p), Some(42));
        assert_eq!(single.percentile_nearest_rank(p), Some(42));
    }

    let mut dup = Histogram::new("d");
    for _ in 0..100 {
        dup.record(7);
    }
    for p in [0.0, 25.0, 50.0, 75.0, 100.0] {
        assert_eq!(dup.percentile(p), Some(7));
        assert_eq!(dup.percentile_nearest_rank(p), Some(7));
    }
}
