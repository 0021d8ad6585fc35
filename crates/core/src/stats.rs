//! Measurement primitives used by the evaluation harness: counters,
//! latency histograms with percentiles, and time series.
//!
//! The paper's experiments report 50th/95th-percentile latencies (Fig 7,
//! Table III), aggregate bandwidth over time (Fig 6), and simulation rates
//! (Figs 8-9). These types collect those measurements inside simulated
//! components and are cheap enough to leave enabled always.

use core::fmt;

use crate::error::SimResult;
use crate::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
use crate::time::Cycle;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use firesim_core::stats::Counter;
///
/// let mut packets = Counter::new("packets_rx");
/// packets.add(3);
/// packets.inc();
/// assert_eq!(packets.get(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// Creates a counter with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Counter {
            name: name.into(),
            value: 0,
        }
    }

    /// The counter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.value)
    }
}

/// A sample reservoir with exact percentiles.
///
/// Stores every sample, sorts lazily on query. Samples are kept 4 bytes
/// wide while every one fits in 32 bits (latencies in cycles do) and
/// widened to 8 bytes by the first that does not, so a long run's load
/// generators hold half the memory; what every method returns, and the
/// snapshot bytes, are the same either way.
///
/// # Examples
///
/// ```
/// use firesim_core::stats::Histogram;
///
/// let mut h = Histogram::new("rtt_us");
/// for v in 0..=100 {
///     h.record(v);
/// }
/// assert_eq!(h.percentile(50.0), Some(50));
/// assert_eq!(h.percentile(95.0), Some(95));
/// assert_eq!(h.min(), Some(0));
/// assert_eq!(h.max(), Some(100));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    name: String,
    samples: Samples,
    sorted: bool,
}

/// Samples per block of a narrow reservoir: 1 KiB.
const BLOCK: usize = 256;

/// A histogram's samples, in insertion order until sorted.
#[derive(Debug, Clone)]
enum Samples {
    /// Every sample so far fits in 32 bits. Kept in blocks of [`BLOCK`],
    /// each allocated at full size once, so growing copies and frees
    /// nothing: a long run's load generators, one reservoir each, grow
    /// together without leaving the heap full of outgrown buffers.
    Narrow(Vec<Vec<u32>>),
    Wide(Vec<u64>),
}

impl Default for Samples {
    fn default() -> Self {
        Samples::Narrow(Vec::new())
    }
}

impl Samples {
    fn len(&self) -> usize {
        match self {
            Samples::Narrow(blocks) => blocks
                .last()
                .map_or(0, |last| (blocks.len() - 1) * BLOCK + last.len()),
            Samples::Wide(v) => v.len(),
        }
    }

    fn get(&self, i: usize) -> u64 {
        match self {
            Samples::Narrow(blocks) => u64::from(blocks[i / BLOCK][i % BLOCK]),
            Samples::Wide(v) => v[i],
        }
    }

    fn iter(&self) -> SampleIter<'_> {
        let (narrow, wide): (&[Vec<u32>], &[u64]) = match self {
            Samples::Narrow(blocks) => (blocks, &[]),
            Samples::Wide(v) => (&[], v),
        };
        SampleIter {
            narrow: narrow.iter().flatten(),
            wide: wide.iter(),
            left: self.len(),
        }
    }

    fn sort(&mut self) {
        match self {
            Samples::Narrow(blocks) => {
                let mut all: Vec<u32> = blocks.iter().flatten().copied().collect();
                all.sort_unstable();
                for (block, sorted) in blocks.iter_mut().zip(all.chunks(BLOCK)) {
                    block.copy_from_slice(sorted);
                }
            }
            Samples::Wide(v) => v.sort_unstable(),
        }
    }

    /// The 8-byte samples, converting the 4-byte ones first.
    fn wide(&mut self) -> &mut Vec<u64> {
        if let Samples::Narrow(_) = self {
            *self = Samples::Wide(self.iter().collect());
        }
        match self {
            Samples::Wide(v) => v,
            Samples::Narrow(_) => unreachable!("just widened"),
        }
    }

    fn push(&mut self, value: u64) {
        match (self, u32::try_from(value)) {
            (Samples::Narrow(blocks), Ok(narrow)) => match blocks.last_mut() {
                Some(last) if last.len() < BLOCK => last.push(narrow),
                _ => {
                    let mut block = Vec::with_capacity(BLOCK);
                    block.push(narrow);
                    blocks.push(block);
                }
            },
            (samples, _) => samples.wide().push(value),
        }
    }
}

/// The samples of a [`Histogram`] as `u64`s, in stored order.
#[derive(Debug, Clone)]
pub struct SampleIter<'a> {
    narrow: core::iter::Flatten<core::slice::Iter<'a, Vec<u32>>>,
    wide: core::slice::Iter<'a, u64>,
    left: usize,
}

impl Iterator for SampleIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        let next = match self.narrow.next() {
            Some(&s) => Some(u64::from(s)),
            None => self.wide.next().copied(),
        };
        self.left -= usize::from(next.is_some());
        next
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for SampleIter<'_> {}

impl Histogram {
    /// Creates an empty histogram with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Histogram {
            name: name.into(),
            samples: Samples::default(),
            sorted: true,
        }
    }

    /// The histogram's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.len() == 0
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort();
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (0-100) by linear interpolation between ranks,
    /// or `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (self.samples.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            return Some(self.samples.get(lo));
        }
        let frac = rank - lo as f64;
        let a = self.samples.get(lo) as f64;
        let b = self.samples.get(hi) as f64;
        Some((a + (b - a) * frac).round() as u64)
    }

    /// The `p`-th percentile (0-100) by the nearest-rank definition: the
    /// smallest sample `v` such that at least `p` percent of all samples
    /// are `<= v`. Unlike [`Histogram::percentile`] this always returns an
    /// actual sample, which matters for duplicate-heavy distributions.
    /// `None` when empty.
    pub fn percentile_nearest_rank(&mut self, p: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let n = self.samples.len();
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        Some(self.samples.get(rank.clamp(1, n) - 1))
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.samples().min()
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.samples().max()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        Some(self.samples().map(|v| v as f64).sum::<f64>() / self.count() as f64)
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for s in other.samples() {
            self.samples.push(s);
        }
        self.sorted = false;
    }

    /// All samples in insertion order (unsorted view not guaranteed after a
    /// percentile query).
    pub fn samples(&self) -> SampleIter<'_> {
        self.samples.iter()
    }
}

/// A `(cycle, value)` time series, e.g. bandwidth at a switch over time
/// (Fig 6).
///
/// # Examples
///
/// ```
/// use firesim_core::stats::TimeSeries;
/// use firesim_core::Cycle;
///
/// let mut ts = TimeSeries::new("root_bw_gbps");
/// ts.record(Cycle::new(0), 0.0);
/// ts.record(Cycle::new(6400), 100.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.points()[1].1, 100.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    name: String,
    points: Vec<(Cycle, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series' name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point. Callers should append in nondecreasing cycle order.
    pub fn record(&mut self, at: Cycle, value: f64) {
        self.points.push((at, value));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The recorded points in insertion order.
    pub fn points(&self) -> &[(Cycle, f64)] {
        &self.points
    }

    /// Merges another series' points into this one by cycle (stable: on
    /// equal cycles, this series' points keep their place ahead of
    /// `other`'s). For series recorded in nondecreasing cycle order the
    /// merge is associative, so per-worker series can be combined in any
    /// grouping with the same result.
    pub fn merge(&mut self, other: &TimeSeries) {
        let mut merged = Vec::with_capacity(self.points.len() + other.points.len());
        let (mut i, mut j) = (0, 0);
        while i < self.points.len() && j < other.points.len() {
            if other.points[j].0 < self.points[i].0 {
                merged.push(other.points[j]);
                j += 1;
            } else {
                merged.push(self.points[i]);
                i += 1;
            }
        }
        merged.extend_from_slice(&self.points[i..]);
        merged.extend_from_slice(&other.points[j..]);
        self.points = merged;
    }

    /// Maximum value in the series, or `None` when empty.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

impl Snapshot for Counter {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_str(&self.name);
        w.put_u64(self.value);
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        Ok(Counter {
            name: r.get_str()?,
            value: r.get_u64()?,
        })
    }
}

impl Snapshot for Histogram {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_str(&self.name);
        // The `u64` sequence whatever the stored width, so the bytes do
        // not depend on it.
        w.put_usize(self.count());
        for s in self.samples() {
            w.put_u64(s);
        }
        // Sample order is observable (percentile queries sort in place), so
        // the sorted flag is real state.
        w.put_bool(self.sorted);
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        let name = r.get_str()?;
        let wide: Vec<u64> = r.get()?;
        let mut samples = Samples::default();
        for s in wide {
            samples.push(s);
        }
        Ok(Histogram {
            name,
            samples,
            sorted: r.get_bool()?,
        })
    }
}

impl Snapshot for TimeSeries {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_str(&self.name);
        w.put(&self.points);
    }
    fn load(r: &mut SnapshotReader<'_>) -> SimResult<Self> {
        Ok(TimeSeries {
            name: r.get_str()?,
            points: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new("x");
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "x: 11");
    }

    #[test]
    fn histogram_percentiles_small() {
        let mut h = Histogram::new("h");
        assert_eq!(h.percentile(50.0), None);
        h.record(5);
        assert_eq!(h.percentile(0.0), Some(5));
        assert_eq!(h.percentile(100.0), Some(5));
        h.record(15);
        assert_eq!(h.percentile(50.0), Some(10)); // interpolated
    }

    #[test]
    fn histogram_percentiles_uniform() {
        let mut h = Histogram::new("h");
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some(51)); // rank 49.5 -> 50.5 -> 51 rounded
        assert_eq!(h.percentile(95.0), Some(95));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_unsorted_insertion() {
        let mut h = Histogram::new("h");
        for v in [9, 1, 5, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some(5));
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new("a");
        let mut b = Histogram::new("b");
        a.record(1);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Some(3));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut h = Histogram::new("h");
        assert_eq!(h.percentile_nearest_rank(50.0), None);
        for v in [15, 20, 35, 40, 50] {
            h.record(v);
        }
        // Classic nearest-rank worked example.
        assert_eq!(h.percentile_nearest_rank(5.0), Some(15));
        assert_eq!(h.percentile_nearest_rank(30.0), Some(20));
        assert_eq!(h.percentile_nearest_rank(40.0), Some(20));
        assert_eq!(h.percentile_nearest_rank(50.0), Some(35));
        assert_eq!(h.percentile_nearest_rank(100.0), Some(50));
        assert_eq!(h.percentile_nearest_rank(0.0), Some(15));
    }

    #[test]
    fn timeseries_merge_interleaves_by_cycle() {
        let mut a = TimeSeries::new("a");
        a.record(Cycle::new(0), 1.0);
        a.record(Cycle::new(20), 3.0);
        let mut b = TimeSeries::new("b");
        b.record(Cycle::new(10), 2.0);
        b.record(Cycle::new(20), 4.0);
        a.merge(&b);
        assert_eq!(
            a.points(),
            &[
                (Cycle::new(0), 1.0),
                (Cycle::new(10), 2.0),
                (Cycle::new(20), 3.0), // stable: self's point first on ties
                (Cycle::new(20), 4.0),
            ]
        );
    }

    #[test]
    fn timeseries_points() {
        let mut ts = TimeSeries::new("bw");
        assert!(ts.is_empty());
        ts.record(Cycle::new(10), 1.5);
        ts.record(Cycle::new(20), 4.5);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.max_value(), Some(4.5));
        assert_eq!(ts.points()[0], (Cycle::new(10), 1.5));
    }
}
