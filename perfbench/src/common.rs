//! Shared pieces: seeded generators, latency statistics, optimizer
//! counter deltas, spans, and the report the benchmark prints.

use std::collections::BTreeMap;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use aldsp::rel::Database;
use xqeval::OptStats;

/// SplitMix64: a small, fast, fully seeded generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n`, sampled by inverting the CDF. Which key
/// gets which rank is a seeded permutation, so the hot keys move with
/// the seed.
pub struct Zipf {
    cdf: Vec<f64>,
    keys: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut keys: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            keys.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, keys }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        self.keys[rank]
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time a closure: `(result, milliseconds)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms(t.elapsed()))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used so far (ms). Time the thread
/// spends preempted, by another process or by the hypervisor, does not
/// count.
pub fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through a pointer to a live local.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Which clock a timed loop reads.
#[derive(Clone, Copy)]
pub enum Clock {
    /// Elapsed time, as a caller waiting for a reply sees it.
    Wall,
    /// The calling thread's CPU time: for single-threaded work that
    /// never blocks, elapsed time minus the time the host took away.
    ThreadCpu,
}

impl Clock {
    /// Time a closure on this clock: `(result, milliseconds)`.
    pub fn time<R>(self, f: impl FnOnce() -> R) -> (R, f64) {
        match self {
            Clock::Wall => timed(f),
            Clock::ThreadCpu => {
                let t = thread_cpu_ms();
                let r = f();
                (r, thread_cpu_ms() - t)
            }
        }
    }
}

/// A fixed piece of work that never touches the program: small
/// allocations, string formatting, ordered-map inserts and lookups.
/// Returns how long it took on `clock` (ms).
pub fn calibration_ms(clock: Clock) -> f64 {
    clock
        .time(|| {
            let mut map = BTreeMap::new();
            let mut rng = Rng::new(7, 7);
            for i in 0..4_000u64 {
                let k = rng.next_u64() % 100_000;
                map.insert(format!("k{k:06}"), vec![i; 4]);
            }
            let mut hits = 0u64;
            for i in 0..4_000u64 {
                if let Some(v) = map.get(&format!("k{:06}", (i * 7919) % 100_000)) {
                    hits += v[0];
                }
            }
            std::hint::black_box((map, hits))
        })
        .1
}

/// What `calibration_ms` takes on the reference host. Normalised times
/// are what the measured work would take there.
pub const REFERENCE_CALIBRATION_MS: f64 = 2.0;

/// How often a pooled loop calibrates.
pub const CALIBRATION_INTERVAL: Duration = Duration::from_millis(50);

/// Calibration shared by the threads of one timed loop. The host this
/// runs on is shared, and its speed moves by tens of percent within
/// seconds, so the loop stops at every tick, calibrates on all its
/// threads at once (one per CPU the work runs on), and each time taken
/// between two ticks is scaled by the reference time over the mean of
/// the calibrations at those two ticks. The calibration reads the same
/// clock as the times it scales.
pub struct HostClock {
    threads: usize,
    clock: Clock,
    barrier: Barrier,
    /// Summed calibration times per tick.
    sums: Mutex<Vec<f64>>,
}

impl HostClock {
    pub fn new(threads: usize, clock: Clock) -> HostClock {
        HostClock {
            threads,
            clock,
            barrier: Barrier::new(threads),
            sums: Mutex::new(Vec::new()),
        }
    }

    /// Wait for every thread, run `decide` on one of them while the
    /// others wait, calibrate on all at once, and return the mean
    /// calibration time of tick `tick` (ms).
    fn tick(&self, tick: usize, decide: impl FnOnce()) -> f64 {
        if self.barrier.wait().is_leader() {
            decide();
        }
        let c = calibration_ms(self.clock);
        {
            let mut sums = self.sums.lock().expect("calibration sink poisoned");
            if sums.len() <= tick {
                sums.resize(tick + 1, 0.0);
            }
            sums[tick] += c;
        }
        self.barrier.wait();
        self.sums.lock().expect("calibration sink poisoned")[tick] / self.threads as f64
    }
}

/// One thread's side of a `HostClock`: the times it took since the
/// last tick, waiting to be scaled.
pub struct Normalizer<'a> {
    clock: &'a HostClock,
    tick: usize,
    last: f64,
    pending: Vec<(&'static str, f64)>,
}

impl<'a> Normalizer<'a> {
    /// Take the first tick, the left edge of the first interval.
    pub fn start(clock: &'a HostClock) -> Normalizer<'a> {
        let last = clock.tick(0, || ());
        Normalizer {
            clock,
            tick: 0,
            last,
            pending: Vec::new(),
        }
    }

    /// A time taken since the last tick.
    pub fn push(&mut self, class: &'static str, raw: f64) {
        self.pending.push((class, raw));
    }

    /// Take the next tick (see `HostClock::tick` for `decide`), and
    /// return every pending time as `(class, raw, normalised)`.
    pub fn flush_with(&mut self, decide: impl FnOnce()) -> Vec<(&'static str, f64, f64)> {
        self.tick += 1;
        let now = self.clock.tick(self.tick, decide);
        let scale = REFERENCE_CALIBRATION_MS / ((self.last + now) / 2.0);
        self.last = now;
        self.pending
            .drain(..)
            .map(|(class, raw)| (class, raw, raw * scale))
            .collect()
    }

    pub fn flush(&mut self) -> Vec<(&'static str, f64, f64)> {
        self.flush_with(|| ())
    }
}

/// Restart the peak-RSS watermark, so `peak_rss_mb` covers the timed
/// phase and not the repeated set-ups before it.
pub fn reset_peak_rss() {
    release_free_memory();
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("reset VmHWM through /proc/self/clear_refs");
}

/// Hand the allocator's free pages back to the system, so the peak
/// that follows does not depend on which thread's arena the set-ups
/// left fragmented.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes a plain integer, touches only
    // the allocator's own free lists, and is safe to call at any time
    // from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Row counts of every table of the given databases, for the
/// stationarity guard.
pub fn row_counts(dbs: &[&Database]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for db in dbs {
        for t in db.table_names() {
            let n = db.row_count(&t).expect("table listed by the catalog");
            out.insert(format!("{}.{t}", db.name), n);
        }
    }
    out
}

/// Summed commits and aborts of the given databases.
pub fn tx_stats(dbs: &[&Database]) -> (u64, u64) {
    dbs.iter()
        .map(|db| db.stats())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

macro_rules! counts {
    ($($f:ident),* $(,)?) => {
        /// The optimizer counters the per-layer trace reads, as deltas.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts { $(pub $f: u64),* }

        impl Counts {
            pub fn of(s: &OptStats) -> Counts {
                Counts { $($f: s.$f),* }
            }

            /// `self - before`, field by field.
            pub fn since(&self, before: &Counts) -> Counts {
                Counts { $($f: self.$f - before.$f),* }
            }

            pub fn add(&mut self, other: &Counts) {
                $(self.$f += other.$f;)*
            }
        }
    };
}

counts!(
    join_hits,
    join_misses,
    mat_hits,
    mat_misses,
    pushdown_rewrites,
    indexed_selects,
    plan_hits,
    plan_misses,
    ws_requests,
    ws_issued,
    ws_coalesced,
    nodes_built,
    subtrees_grafted,
    deep_copy_nodes_avoided,
    interned_hits,
    tuples_pulled,
    early_exits,
    items_never_built,
);

/// Named samples, one per span or request; the name's suffix gives the
/// unit (`_ms`, `_us`, `_s`, `_bytes`).
#[derive(Default)]
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn merge(&mut self, other: Spans) {
        for (k, v) in other.0 {
            self.0.entry(k).or_default().extend(v);
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 when it is a single measurement).
    pub samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A latency series of one request class, with the percentiles the
/// benchmark reports.
pub struct Series {
    sorted: Vec<f64>,
}

impl Series {
    pub fn new(samples: Vec<f64>) -> Series {
        Series {
            sorted: sorted(samples),
        }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.sorted, 0.5)
    }

    pub fn at(&self, q: f64) -> f64 {
        percentile(&self.sorted, q)
    }

    /// Mean of the samples left after dropping the fastest and the
    /// slowest tenth. The calibration does not follow the host's two
    /// speeds exactly, so scaled times can form two clusters: the median
    /// jumps to whichever holds more than half the run, while this mean
    /// moves only by the share of the run that changed speed.
    pub fn trimmed_mean(&self) -> f64 {
        let cut = self.len() / 10;
        let kept = &self.sorted[cut..self.len() - cut];
        ratio(kept.iter().sum(), kept.len() as f64)
    }

    /// Samples strictly above the `q` quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        self.len() - (q * self.len() as f64).ceil() as usize
    }
}

/// What one run found: counts, failed checks, metrics and notes.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output or stationarity checks; any entry fails the run.
    pub failures: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Print the notes, every metric with its unit and sample count,
    /// and the one-line JSON result last.
    pub fn print(&self, trace: bool) {
        for line in &self.notes {
            println!("# {line}");
        }
        for f in &self.failures {
            println!("# CHECK FAILED: {f}");
        }
        let shown = if trace { &self.layers } else { &self.e2e };
        for m in shown {
            println!(
                "# metric {:<36} {:>14.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let body: Vec<String> = shown
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// Per-layer metrics shared by every workload. Layers a workload
/// bypasses read 0.
#[derive(Default)]
pub struct Layers {
    pub spans: Spans,
    /// Counter deltas over the traced direct requests.
    pub counts: Counts,
    /// Traced direct requests (copy batches for `etl_copy`).
    pub requests: u64,
    /// Rows or data graphs written during the traced requests.
    pub writes: u64,
    pub commits: u64,
    pub aborts: u64,
    pub pool_wait_ms: f64,
    pub worker_skew: f64,
    pub rows_to_sequence_ms: f64,
    pub rows_per_batch: f64,
    pub overhead_throughput_pct: f64,
    pub overhead_mean_pct: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.counts;
        let n = self.requests as usize;
        let per_req = |v: u64| ratio(v as f64, self.requests as f64);
        let span = |name: &'static str, unit: &'static str| {
            metric(
                name,
                self.spans.median(name),
                unit,
                self.spans.get(name).len(),
            )
        };
        let rows = self.rows_per_batch * self.requests as f64;
        let inserts = sorted(self.spans.get("rel.insert_us").to_vec());
        vec![
            metric("pool.wait_ms", self.pool_wait_ms, "ms", n),
            metric("pool.worker_skew", self.worker_skew, "ratio", 0),
            span("service.get_ms", "ms"),
            span("service.submit_ms", "ms"),
            span("decompose.plan_ms", "ms"),
            span("decompose.execute_ms", "ms"),
            metric(
                "rel.commits_per_write",
                ratio(self.commits as f64, self.writes as f64),
                "count",
                self.writes as usize,
            ),
            metric("rel.aborts", self.aborts as f64, "count", 0),
            span("xqparser.parse_ms", "ms"),
            span("xqeval.prepare_ms", "ms"),
            metric(
                "xqeval.plan_hit_ratio",
                ratio(c.plan_hits as f64, (c.plan_hits + c.plan_misses) as f64),
                "ratio",
                (c.plan_hits + c.plan_misses) as usize,
            ),
            span("xqeval.execute_ms", "ms"),
            metric(
                "xqeval.tuples_pulled_per_req",
                per_req(c.tuples_pulled),
                "count",
                n,
            ),
            metric(
                "xqeval.early_exits_per_req",
                per_req(c.early_exits),
                "count",
                n,
            ),
            metric(
                "xqeval.items_never_built_per_req",
                per_req(c.items_never_built),
                "count",
                n,
            ),
            metric(
                "xqeval.pushdown_rewrites_per_req",
                per_req(c.pushdown_rewrites),
                "count",
                n,
            ),
            metric(
                "xqeval.join_hit_ratio",
                ratio(c.join_hits as f64, (c.join_hits + c.join_misses) as f64),
                "ratio",
                (c.join_hits + c.join_misses) as usize,
            ),
            metric(
                "rel.indexed_selects_per_req",
                per_req(c.indexed_selects),
                "count",
                n,
            ),
            span("rel.select_indexed_us", "us"),
            metric(
                "rel.insert_us",
                percentile(&inserts, 0.5),
                "us",
                inserts.len(),
            ),
            metric(
                "rel.insert_p90_us",
                percentile(&inserts, 0.9),
                "us",
                inserts.len(),
            ),
            span("ws.call_ms", "ms"),
            metric("ws.requests_per_req", per_req(c.ws_requests), "count", n),
            metric("ws.issued_per_req", per_req(c.ws_issued), "count", n),
            metric(
                "ws.coalesced_ratio",
                ratio(c.ws_coalesced as f64, c.ws_requests as f64),
                "ratio",
                c.ws_requests as usize,
            ),
            metric(
                "xmlmap.mat_hit_ratio",
                ratio(c.mat_hits as f64, (c.mat_hits + c.mat_misses) as f64),
                "ratio",
                (c.mat_hits + c.mat_misses) as usize,
            ),
            metric(
                "xmlmap.mat_misses_per_req",
                per_req(c.mat_misses),
                "count",
                n,
            ),
            metric(
                "xmlmap.rows_to_sequence_ms",
                self.rows_to_sequence_ms,
                "ms",
                0,
            ),
            metric(
                "xdm.nodes_built_per_req",
                per_req(c.nodes_built),
                "count",
                n,
            ),
            metric(
                "xdm.subtrees_grafted_per_req",
                per_req(c.subtrees_grafted),
                "count",
                n,
            ),
            metric(
                "xdm.deep_copy_nodes_avoided_per_req",
                per_req(c.deep_copy_nodes_avoided),
                "count",
                n,
            ),
            metric(
                "xdm.interned_hits_per_req",
                per_req(c.interned_hits),
                "count",
                n,
            ),
            span("xmlparse.serialize_ms", "ms"),
            span("xmlparse.reply_bytes", "bytes"),
            span("core.call_procedure_ms", "ms"),
            metric(
                "core.per_row_us",
                ratio(
                    self.spans.median("core.call_procedure_ms") * 1e3,
                    self.rows_per_batch,
                ),
                "us",
                n,
            ),
            metric(
                "core.nodes_built_per_row",
                ratio(c.nodes_built as f64, rows),
                "count",
                n,
            ),
            metric(
                "core.indexed_selects_per_row",
                ratio(c.indexed_selects as f64, rows),
                "count",
                n,
            ),
            span("setup.load_s", "s"),
            span("setup.register_s", "s"),
            span("setup.pool_start_s", "s"),
            span("setup.warmup_s", "s"),
            metric(
                "trace.overhead_throughput_pct",
                self.overhead_throughput_pct,
                "%",
                0,
            ),
            metric("trace.overhead_mean_pct", self.overhead_mean_pct, "%", 0),
        ]
    }
}

/// Time `xmlmap::rows_to_sequence` over every table of `dbs` (median
/// of `reps` conversions per table) and return the summed medians: the
/// price of re-materializing every source table once.
pub fn rows_to_sequence_ms(dbs: &[&Database], reps: usize, report: &mut Report) -> f64 {
    let mut total = 0.0;
    for db in dbs {
        for t in db.table_names() {
            let schema = db.schema(&t).expect("listed table has a schema");
            let rows = db.scan(&t).expect("scan of a listed table");
            let ns = aldsp::xmlmap::service_namespace(&db.name, &t);
            let samples: Vec<f64> = (0..reps)
                .map(|_| {
                    timed(|| {
                        std::hint::black_box(aldsp::xmlmap::rows_to_sequence(&schema, &ns, &rows))
                    })
                    .1
                })
                .collect();
            let m = median(&samples);
            report.note(format!(
                "layer xmlmap.rows_to_sequence {}.{t} ({} rows): {m:.3} ms",
                db.name,
                rows.len()
            ));
            total += m;
        }
    }
    total
}

/// Copy every table of `dbs` row by row into fresh databases with the
/// same schemas, timing each `Database::insert` (µs). The copy starts
/// empty and is never registered with a data space, so it pays the
/// same primary-key checks as the workload's own initial load.
pub fn replica_insert_us(dbs: &[&Database], spans: &mut Spans) {
    for db in dbs {
        let copy = Database::new(&db.name);
        for t in db.table_names() {
            copy.create_table(db.schema(&t).expect("listed table has a schema"))
                .expect("fresh table");
            for row in db.scan(&t).expect("scan of a listed table") {
                let (r, took) = timed(|| copy.insert(&t, row));
                r.expect("replica insert of an existing row");
                spans.record("rel.insert_us", took * 1e3);
            }
        }
    }
}
