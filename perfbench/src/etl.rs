//! The `etl_copy` workload: the paper's use case 3 (`copyAllToEMP2`)
//! called on one thread, with no pool, web service or serialization.

use std::time::Instant;

use aldsp::rel::{Database, SqlValue, WriteOp};
use aldsp::service::DataSpace;
use xdm::error::XdmResult;
use xdm::qname::QName;
use xqeval::Env;
use xqse_bench::EtlFixture;

use crate::common::*;
use crate::Args;

const ROWS: i64 = 5_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const WARMUP_BATCHES: usize = 2;
/// The tail is p90, which needs ten batches beyond it.
const MIN_BATCHES: usize = 100;
/// Copied rows compared against the native copy.
const SAMPLE: usize = 50;

struct Batch {
    /// Elapsed time, as measured.
    ms: f64,
    /// The thread's CPU time.
    cpu_ms: f64,
    /// `cpu_ms` scaled to the reference host speed.
    norm_ms: f64,
    counts: Counts,
    commits: u64,
}

/// Empty the target, untimed, so every batch copies into the same
/// state.
fn empty_target(f: &EtlFixture) {
    let n = f.dst.row_count("EMP2").expect("EMP2 exists");
    f.dst
        .execute(vec![WriteOp::Delete {
            table: "EMP2".into(),
            cond: vec![],
            expect_rows: n,
        }])
        .expect("empty EMP2");
}

fn copy(f: &EtlFixture) -> XdmResult<String> {
    let mut env = Env::new();
    let name = QName::with_ns("ld:Employees", "copyAllToEMP2");
    f.space
        .xqse()
        .call_procedure(&name, Vec::new(), &mut env)?
        .string_value()
}

/// Batches per second of batch time, at the reference host speed.
fn batch_rate(batches: &[Batch]) -> f64 {
    ratio(
        batches.len() as f64,
        batches.iter().map(|b| b.norm_ms).sum::<f64>() / 1e3,
    )
}

/// One copy batch into an empty target, checked.
fn batch(f: &EtlFixture) -> Result<Batch, String> {
    empty_target(f);
    let before = Counts::of(&f.space.engine().opt_stats());
    let tx_before = tx_stats(&[&f.src, &f.dst]);
    let cpu0 = thread_cpu_ms();
    let (copied, took) = timed(|| copy(f));
    let cpu_ms = thread_cpu_ms() - cpu0;
    let copied = copied.map_err(|e| e.to_string())?;
    let tx_after = tx_stats(&[&f.src, &f.dst]);
    let counts = Counts::of(&f.space.engine().opt_stats()).since(&before);
    let held = f.dst.row_count("EMP2").map_err(|e| e.to_string())?;
    if copied != ROWS.to_string() || held != ROWS as usize {
        return Err(format!(
            "batch copied {copied} rows and EMP2 holds {held}, expected {ROWS}"
        ));
    }
    Ok(Batch {
        ms: took,
        cpu_ms,
        norm_ms: cpu_ms,
        counts,
        commits: tx_after.0 - tx_before.0,
    })
}

fn setup(spans: &mut Spans) -> EtlFixture {
    let clock = HostClock::new(1, Clock::Wall);
    let mut norm = Normalizer::start(&clock);
    let t0 = Instant::now();
    let f = xqse_bench::etl_space(ROWS);
    let load_s = t0.elapsed().as_secs_f64();
    norm.push("setup.load_s", load_s);
    let load = norm.flush();
    let t1 = Instant::now();
    for _ in 0..WARMUP_BATCHES {
        batch(&f).expect("warm-up batch");
    }
    let warmup_s = t1.elapsed().as_secs_f64();
    norm.push("setup.warmup_s", warmup_s);
    let warmup = norm.flush();
    spans.record("setup.load_s", load_s);
    spans.record("setup.warmup_s", warmup_s);
    spans.record("setup.raw_s", load_s + warmup_s);
    spans.record("setup_s", load[0].2 + warmup[0].2);
    f
}

/// Copy batches for `secs` seconds, extended to at least `min` batches
/// but never beyond four times `secs`. The loop calibrates between
/// batches, so each batch has a calibration on either side. A batch is
/// single-threaded and never blocks, so it is timed, and calibrated, in
/// thread CPU time: time the host gives to other work does not count.
fn phase(f: &EtlFixture, secs: f64, min: usize, report: &mut Report) -> Vec<Batch> {
    let start = Instant::now();
    let mut out = Vec::new();
    let clock = HostClock::new(1, Clock::ThreadCpu);
    let mut norm = Normalizer::start(&clock);
    loop {
        let t = start.elapsed().as_secs_f64();
        if t >= secs && (out.len() >= min || t >= 4.0 * secs) {
            break;
        }
        report.attempted += 1;
        match batch(f) {
            Ok(mut b) => {
                norm.push("batch", b.cpu_ms);
                b.norm_ms = norm.flush()[0].2;
                out.push(b);
            }
            Err(e) => {
                report.failed += 1;
                report.failures.push(e);
                break;
            }
        }
    }
    out
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setup_spans = Spans::default();
    let mut f = setup(&mut setup_spans);
    for _ in 1..SETUPS {
        drop(f);
        f = setup(&mut setup_spans);
    }
    let dbs = [&f.src, &f.dst];
    let rows_before = row_counts(&dbs);
    reset_peak_rss();

    let mut layers = Layers::default();
    let batches = if !args.trace {
        phase(&f, args.seconds, MIN_BATCHES, &mut report)
    } else {
        let untraced = phase(&f, args.seconds / 2.0, 0, &mut report);
        let traced = phase(&f, args.seconds / 2.0, 0, &mut report);
        for b in &traced {
            layers.spans.record("core.call_procedure_ms", b.ms);
            layers.counts.add(&b.counts);
            layers.commits += b.commits;
        }
        layers.requests = traced.len() as u64;
        layers.writes = layers.requests * ROWS as u64;
        layers.rows_per_batch = ROWS as f64;
        let (u, t) = (
            Series::new(untraced.iter().map(|b| b.norm_ms).collect()),
            Series::new(traced.iter().map(|b| b.norm_ms).collect()),
        );
        layers.overhead_mean_pct = 100.0 * (t.trimmed_mean() - u.trimmed_mean()) / u.trimmed_mean();
        layers.overhead_throughput_pct =
            100.0 * (batch_rate(&untraced) - batch_rate(&traced)) / batch_rate(&untraced);
        for (label, s) in [("untraced", &u), ("traced", &t)] {
            report.note(format!(
                "tracing overhead: {label:<8} mean_ms={:.3} (n={}) p90_ms={:.3} ({} beyond)",
                s.trimmed_mean(),
                s.len(),
                s.at(0.9),
                s.beyond(0.9)
            ));
        }
        report.note(format!(
            "tracing overhead: mean {:+.2}% (traced vs untraced)",
            layers.overhead_mean_pct
        ));
        untraced
    };

    // Stationarity: the same work every batch, and no table drift.
    let rows_after = row_counts(&dbs);
    report.check(rows_before == rows_after, || {
        format!("row counts drifted during the run: {rows_before:?} -> {rows_after:?}")
    });
    let key = |b: &Batch| {
        (
            b.counts.nodes_built,
            b.counts.indexed_selects,
            b.counts.plan_misses,
        )
    };
    if let Some(first) = batches.first() {
        let drifting = batches.iter().filter(|b| key(b) != key(first)).count();
        report.check(drifting == 0, || {
            format!(
                "{drifting} batches moved (nodes_built, indexed_selects, plan_misses) from {:?}",
                key(first)
            )
        });
        report.note(format!(
            "per-batch (nodes_built, indexed_selects, plan_misses) = {:?} in every batch",
            key(first)
        ));
    }
    check_against_native(&f, args.seed, &mut report);

    let s = Series::new(batches.iter().map(|b| b.norm_ms).collect());
    let raw = Series::new(batches.iter().map(|b| b.ms).collect());
    let cpu = Series::new(batches.iter().map(|b| b.cpu_ms).collect());
    if !args.trace {
        report.check(s.beyond(0.9) >= 10, || {
            format!("only {} batches beyond p90", s.beyond(0.9))
        });
    }
    report.note(format!(
        "latency batch (CPU time): mean_ms={:.3} p50_ms={:.3} p90_ms={:.3} (n={}, {} beyond p90); rows_per_s={:.1}",
        s.trimmed_mean(),
        s.p50(),
        s.at(0.9),
        s.len(),
        s.beyond(0.9),
        ROWS as f64 * batch_rate(&batches)
    ));
    report.note(format!(
        "latency batch as measured on this host: mean_ms={:.3} p50_ms={:.3} p90_ms={:.3}; CPU time p50_ms={:.3}",
        raw.trimmed_mean(),
        raw.p50(),
        raw.at(0.9),
        cpu.p50()
    ));
    report.note(format!(
        "failed_frac={} ({} of {} batches)",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    ));
    report.note("throughput_rps counts copy batches of 5000 rows per second of batch CPU time; mean_ms is the mean batch CPU time without the fastest and slowest tenth; tail_ms is the p90 batch CPU time");
    report.note(format!(
        "set-up as measured on this host: median {:.3} s",
        setup_spans.median("setup.raw_s")
    ));
    report.e2e = vec![
        metric("throughput_rps", batch_rate(&batches), "req/s", s.len()),
        metric("mean_ms", s.trimmed_mean(), "ms", s.len()),
        metric("tail_ms", s.at(0.9), "ms", s.len()),
        metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
        metric(
            "setup_s",
            setup_spans.median("setup_s"),
            "s",
            setup_spans.get("setup_s").len(),
        ),
    ];
    if args.trace {
        layers.spans.merge(setup_spans);
        layers.rows_to_sequence_ms = rows_to_sequence_ms(&[&f.src], 5, &mut report);
        for id in 1..=200 {
            let cond = vec![("EmployeeID".to_string(), SqlValue::Int(id))];
            let (r, took) = timed(|| f.src.select_indexed("EMPLOYEE", &cond));
            r.expect("indexed select");
            layers.spans.record("rel.select_indexed_us", took * 1e3);
        }
        replica_insert_us(&[&f.src], &mut layers.spans);
        report.layers = layers.metrics();
    }
    report
}

/// `EMP2` must hold every source row, and a seeded sample must match
/// the native copy (`xqse_bench::etl_run_native`).
fn check_against_native(f: &EtlFixture, seed: u64, report: &mut Report) {
    let native = EtlFixture {
        space: DataSpace::new(),
        src: f.src.clone(),
        dst: Database::new("backup"),
    };
    native
        .dst
        .create_table(f.dst.schema("EMP2").expect("EMP2 schema"))
        .expect("native target");
    let n = xqse_bench::etl_run_native(&native);
    report.check(n == ROWS, || format!("native copy wrote {n} rows"));
    let ids: Vec<i64> = f
        .dst
        .scan("EMP2")
        .expect("EMP2 scan")
        .iter()
        .map(|r| match r[0] {
            SqlValue::Int(i) => i,
            _ => 0,
        })
        .collect();
    let mut sorted_ids = ids.clone();
    sorted_ids.sort_unstable();
    report.check(sorted_ids == (1..=ROWS).collect::<Vec<_>>(), || {
        "EMP2 does not hold every source row".to_string()
    });
    let mut rng = Rng::new(seed, 2);
    let lexical = |db: &Database, id: i64| -> Vec<String> {
        db.select("EMP2", &vec![("EmpId".to_string(), SqlValue::Int(id))])
            .expect("EMP2 select")
            .iter()
            .flat_map(|r| r.iter().map(SqlValue::lexical))
            .collect()
    };
    for _ in 0..SAMPLE {
        let id = 1 + rng.below(ROWS as usize) as i64;
        let (got, want) = (lexical(&f.dst, id), lexical(&native.dst, id));
        report.check(got == want, || {
            format!("EMP2 row {id}: {got:?}, native copy {want:?}")
        });
    }
}
