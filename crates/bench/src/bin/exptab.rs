//! exptab — regenerate every table/figure of the constructed
//! evaluation (DESIGN.md §4) and print them in row form.
//!
//! Usage: `cargo run --release -p xqse-bench --bin exptab [quick|full] [--json] [--out DIR]`
//!
//! `quick` (default) uses smaller scales so the whole suite finishes
//! in well under a minute; `full` uses the scales recorded in
//! EXPERIMENTS.md. `--json` additionally writes one machine-readable
//! `BENCH_<ID>.json` per experiment (to the current directory, or to
//! `--out DIR`) — `scripts/check.sh` diffs these against the
//! checked-in baselines to flag perf regressions.


use std::path::PathBuf;

use aldsp::decompose::OccPolicy;
use aldsp::rel::{CrashPoint, SqlValue, TwoPhaseCoordinator, TxOutcome, WriteOp};
use xdm::qname::QName;
use xdm::sequence::{Item, Sequence};
use xqse_bench::*;

/// Emits each experiment table to stdout and (optionally) to
/// `BENCH_<ID>.json`.
struct Reporter {
    json_dir: Option<PathBuf>,
    mode: &'static str,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Reporter {
    fn table(&self, id: &str, title: &str, header: &[&str], rows: &[Vec<String>]) {
        print_table(title, header, rows);
        let Some(dir) = &self.json_dir else { return };
        let mut json = String::new();
        json.push_str(&format!(
            "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"mode\": \"{}\",\n  \"header\": [",
            json_escape(id),
            json_escape(title),
            self.mode,
        ));
        json.push_str(
            &header
                .iter()
                .map(|h| format!("\"{}\"", json_escape(h)))
                .collect::<Vec<_>>()
                .join(", "),
        );
        json.push_str("],\n  \"rows\": [\n");
        let body = rows
            .iter()
            .map(|row| {
                format!(
                    "    [{}]",
                    row.iter()
                        .map(|c| format!("\"{}\"", json_escape(c)))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        json.push_str(&body);
        json.push_str("\n  ]\n}\n");
        let path = dir.join(format!("BENCH_{id}.json"));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("exptab: cannot write {}: {e}", path.display());
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "full");
    let mut json = false;
    let mut out_dir = PathBuf::from(".");
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--out" => {
                if let Some(d) = it.next() {
                    out_dir = PathBuf::from(d);
                }
            }
            "--only" => {
                if let Some(id) = it.next() {
                    only = Some(id.to_string());
                }
            }
            _ => {}
        }
    }
    let r = Reporter {
        json_dir: json.then_some(out_dir),
        mode: if full { "full" } else { "quick" },
    };
    // `--only E14` reruns a single experiment (the check.sh serving
    // arm uses it so the tripwire doesn't pay for the full table).
    let want = |id: &str| only.as_deref().is_none_or(|o| o.eq_ignore_ascii_case(id));
    let reps = if full { 7 } else { 3 };
    if want("E1") {
        e1_getprofile(full, reps, &r);
    }
    if want("E2") {
        e2_mgmtchain(full, reps, &r);
    }
    if want("E3") {
        e3_etl(full, reps, &r);
    }
    if want("E4") {
        e4_replicate(full, reps, &r);
    }
    if want("E5") {
        e5_decompose(full, reps, &r);
    }
    if want("E6") {
        e6_occ(full, &r);
    }
    if want("E7") {
        e7_xqueryp(full, reps, &r);
    }
    if want("E8") {
        e8_parser(reps, &r);
    }
    if want("E9") {
        e9_xa(full, &r);
    }
    if want("E10") {
        e10_udelete(full, reps, &r);
    }
    if want("E11") {
        e11_join_ablation(full, reps, &r);
    }
    if want("E12") {
        e12_pushdown(full, reps, &r);
    }
    if want("E13") {
        e13_prepared(full, reps, &r);
    }
    if want("E14") {
        e14_serve(full, &r);
    }
    if want("E16") {
        e16_zero_copy(full, reps, &r);
    }
    if want("E17") {
        e17_lazy_streaming(full, reps, &r);
    }
}

/// E17: pipelined lazy evaluation ablation. Three early-exit read
/// shapes over the ETL employee table — a `fn:subsequence` page, a
/// `fn:exists` probe, and a page over a pushed-down department select
/// (the benchmark's `page_query` text) — run lazily (streamed FLWOR
/// tuples, early-exit interception) and eagerly
/// (`Engine::set_lazy(false)`) *in the same session*, so both arms
/// share the warmed materialization caches and differ only in
/// evaluation order. The first two use `fn:contains` predicates that
/// no rewrite applies to, isolating streaming; the third proves a
/// rewritten `for` streams too. Serialization is asserted
/// byte-identical between the arms on every run, and the
/// `tuples_pulled` counter must stay below the table size (the
/// department size for the pushdown page, whose rewrite must fire):
/// proof the stream engaged and exited early rather than draining.
fn e17_lazy_streaming(full: bool, reps: usize, r: &Reporter) {
    let sizes: &[i64] = if full { &[1000, 5000, 10000] } else { &[200, 1000] };
    const NS: &[(&str, &str)] = &[("ens1", "ld:hr/EMPLOYEE")];
    // A page of 10 constructed rows starting at position 2: the lazy
    // arm pulls 11 tuples and stops; the eager arm builds all n rows
    // first and then slices.
    const PAGE: &str = "fn:subsequence(for $e in ens1:EMPLOYEE() \
         where fn:contains(fn:string($e/Name), 'First') \
         return <row><id>{fn:data($e/EmployeeID)}</id>\
         <name>{fn:data($e/Name)}</name>\
         <dept>{fn:data($e/DeptNo)}</dept></row>, 2, 10)";
    // An existence probe whose first (and only) match is row 2: the
    // lazy arm stops after two tuples.
    const PROBE: &str = "fn:exists(for $e in ens1:EMPLOYEE() \
         where fn:contains(fn:string($e/Name), 'First2 ') \
         return <row>{fn:data($e/Name)}</row>)";
    // A page of 20 over one department, selected through the
    // pushed-down index: the lazy arm re-checks and builds 20 rows.
    const PAGE_PUSHDOWN: &str = "fn:subsequence(for $e in ens1:EMPLOYEE() \
         where $e/DeptNo eq 'D3' \
         return <row><id>{fn:data($e/EmployeeID)}</id>\
         <name>{fn:data($e/Name)}</name></row>, 1, 20)";
    let mut rows = Vec::new();
    for &n in sizes {
        let f = etl_space(n);
        let engine = f.space.engine();
        // `etl_space` puts row i in department `D{i % 7}`.
        let dept = (1..=n).filter(|i| i % 7 == 3).count() as u64;
        for (workload, query) in
            [("page", PAGE), ("probe", PROBE), ("page_pushdown", PAGE_PUSHDOWN)]
        {
            let run = |lazy: bool| {
                engine.set_lazy(lazy);
                let out = engine.eval_expr_str(query, NS).expect("E17 query");
                engine.set_lazy(true);
                out
            };
            // Warm the materialization caches and prove equivalence.
            let (lazy_out, eager_out) = (run(true), run(false));
            assert_eq!(
                xmlparse::serialize_sequence(&lazy_out),
                xmlparse::serialize_sequence(&eager_out),
                "lazy/eager must serialize byte-identically ({workload}, n={n})"
            );
            drop((lazy_out, eager_out));
            // One counted lazy run: the stream must have engaged and
            // stopped well short of the table.
            engine.reset_opt_stats();
            run(true);
            let stats = engine.opt_stats();
            let pulled = stats.tuples_pulled;
            let bound = if workload == "page_pushdown" {
                assert!(
                    stats.pushdown_rewrites >= 1,
                    "the department select must be pushed down (n={n})"
                );
                dept
            } else {
                n as u64
            };
            assert!(
                pulled >= 1 && pulled < bound,
                "stream must engage and exit early ({workload}, n={n}): \
                 pulled={pulled}, bound={bound}"
            );
            let lazy_secs = median_secs(reps, || {
                run(true);
            });
            let eager_secs = median_secs(reps, || {
                run(false);
            });
            let speedup = eager_secs / lazy_secs;
            if full && n >= 5000 {
                assert!(
                    speedup >= 5.0,
                    "lazy streaming must be >=5x at n={n} ({workload}): \
                     lazy={lazy_secs:.4}s eager={eager_secs:.4}s ({speedup:.2}x)"
                );
            }
            rows.push(vec![
                n.to_string(),
                workload.to_string(),
                format!("{:.3}", lazy_secs * 1e3),
                format!("{:.3}", eager_secs * 1e3),
                pulled.to_string(),
                format!("{speedup:.2}"),
            ]);
        }
    }
    r.table(
        "E17",
        "E17 pipelined lazy evaluation (paged read + exists probe + pushed-down page, lazy vs eager)",
        &[
            "rows",
            "workload",
            "lazy_ms",
            "eager_ms",
            "tuples_pulled",
            "speedup",
        ],
        &rows,
    );
}

/// E16: zero-copy XDM construction ablation. The E1-style snapshot
/// read wraps every already-materialized source tree (the versioned
/// materialization caches serve them sealed) into one constructed
/// document — the construction-bound hot path. Grafting adopts those
/// subtrees by reference; `Engine::set_graft(false)` restores the
/// deep-copy baseline *in the same session*, so both arms share the
/// warmed caches and differ only in construction. Serialization is
/// asserted byte-identical between the arms on every run.
fn e16_zero_copy(full: bool, reps: usize, r: &Reporter) {
    let sizes: &[usize] = if full { &[1000, 5000, 10000] } else { &[200, 1000] };
    const SNAPSHOT: &str = "<snapshot><customers>{ cus:CUSTOMER() }</customers>\
                            <orders>{ ord:ORDER() }</orders>\
                            <cards>{ cre:CREDIT_CARD() }</cards></snapshot>";
    const NS: &[(&str, &str)] = &[
        ("cus", "ld:db1/CUSTOMER"),
        ("ord", "ld:db1/ORDER"),
        ("cre", "ld:db2/CREDIT_CARD"),
    ];
    fn tree_size(n: &xdm::node::NodeHandle) -> u64 {
        1 + n.attributes().len() as u64
            + n.children().iter().map(tree_size).sum::<u64>()
    }
    let mut rows = Vec::new();
    for &n in sizes {
        let d = demo::build(n, 3, 2).expect("demo");
        let engine = d.space.engine();
        let snap = |graft: bool| {
            engine.set_graft(graft);
            let out = engine.eval_expr_str(SNAPSHOT, NS).expect("snapshot");
            engine.set_graft(true);
            out
        };
        // Warm the materialization caches (and prove equivalence).
        let (on, off) = (snap(true), snap(false));
        let bytes_on = xmlparse::serialize_sequence(&on);
        assert_eq!(
            bytes_on,
            xmlparse::serialize_sequence(&off),
            "graft on/off must serialize byte-identically (n={n})"
        );
        let Item::Node(root) = on.exactly_one().expect("one node").clone() else {
            panic!("snapshot is a node")
        };
        let nodes = tree_size(&root);
        drop((on, off));

        let graft_secs = median_secs(reps, || {
            snap(true);
        });
        let copy_secs = median_secs(reps, || {
            snap(false);
        });
        let speedup = copy_secs / graft_secs;
        if full && n >= 5000 {
            assert!(
                speedup >= 1.5,
                "zero-copy construction must be >=1.5x at n={n}: \
                 graft={graft_secs:.4}s copy={copy_secs:.4}s ({speedup:.2}x)"
            );
        }
        rows.push(vec![
            n.to_string(),
            nodes.to_string(),
            format!("{:.2}", graft_secs * 1e3),
            format!("{:.2}", copy_secs * 1e3),
            format!("{:.0}", nodes as f64 / graft_secs),
            format!("{:.0}", nodes as f64 / copy_secs),
            format!("{speedup:.2}"),
        ]);
    }
    r.table(
        "E16",
        "E16 zero-copy construction (grafted snapshot vs deep-copy, warm caches)",
        &[
            "customers",
            "snapshot_nodes",
            "graft_ms",
            "copy_ms",
            "graft nodes/s",
            "copy nodes/s",
            "speedup",
        ],
        &rows,
    );
}

/// E14: serving-pool throughput — queries/sec of the E1-style read
/// workload (`getProfileById` over distinct customers, each call
/// paying simulated web-service wire latency) served directly on one
/// thread vs through [`aldsp::pool::ServePool`] at 1/2/4/8 workers.
///
/// On this reproduction's single-core reference host the scaling
/// comes from workers *overlapping* the source waits — the ALDSP
/// middle-tier regime (PAPER §II) — not from CPU parallelism; see
/// EXPERIMENTS.md E14 for the methodology note.
fn e14_serve(full: bool, r: &Reporter) {
    use aldsp::pool::{drive_closed_loop, ServePool, ServeSpec};
    use aldsp::ws::WebService;

    let requests = if full { 64 } else { 32 };
    let delay_us = 2000u64;
    let d = demo::build(requests, 1, 1).expect("demo");

    // Direct baseline: the same workload, same delayed source, one
    // plain DataSpace on this thread — what a 1-worker pool must stay
    // within 10% of.
    let direct_space = demo::assemble(
        &d.db1,
        &d.db2,
        WebService::credit_rating_delayed(demo::CREDIT_TYPES_NS, delay_us),
    )
    .expect("assemble");
    let reqs = serve_profile_requests(requests);
    let started = std::time::Instant::now();
    let mut direct_sample = String::new();
    for (i, _req) in reqs.iter().enumerate() {
        let g = direct_space
            .get(
                "CustomerProfile",
                "getProfileById",
                vec![Sequence::one(Item::string((i + 1).to_string()))],
            )
            .expect("direct get");
        assert_eq!(g.len(), 1, "each id matches exactly one profile");
        if i == 0 {
            direct_sample = xmlparse::serialize_sequence(g.instances());
        }
    }
    let direct_elapsed = started.elapsed();
    let direct_qps = qps(requests, direct_elapsed);

    let mut rows = vec![vec![
        "direct".to_string(),
        "-".to_string(),
        requests.to_string(),
        format!("{:.1}", direct_elapsed.as_secs_f64() * 1e3),
        format!("{:.1}", direct_qps),
        "-".to_string(),
        "1.00".to_string(),
    ]];
    let mut one_worker_qps = 0.0f64;
    for workers in [1usize, 2, 4, 8] {
        let (db1, db2) = (d.db1.clone(), d.db2.clone());
        let pool = ServePool::start(ServeSpec::new(workers), move |_worker| {
            demo::assemble(
                &db1,
                &db2,
                WebService::credit_rating_delayed(demo::CREDIT_TYPES_NS, delay_us),
            )
        });
        let clients = pool.workers() * 2;
        let (replies, elapsed) = drive_closed_loop(&pool, &reqs, clients);
        let report = pool.shutdown();
        for reply in &replies {
            let body = reply.result.as_ref().expect("pooled get");
            assert!(!body.is_empty(), "pooled reply must carry the profile");
        }
        // Same engine, same plan, same data: worker 0's answer for
        // customer 1 must be byte-identical to the direct path's.
        assert_eq!(
            replies[0].result.as_ref().expect("reply 0"),
            &direct_sample,
            "pooled result diverges from single-threaded result"
        );
        let pool_qps = qps(replies.len(), elapsed);
        if workers == 1 {
            one_worker_qps = pool_qps;
        }
        rows.push(vec![
            format!("pool-{}", report.workers),
            report.workers.to_string(),
            replies.len().to_string(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            format!("{:.1}", pool_qps),
            format!("{:.2}", pool_qps / one_worker_qps.max(1e-9)),
            format!("{:.2}", pool_qps / direct_qps.max(1e-9)),
        ]);
    }
    r.table(
        "E14",
        "E14 serving-pool throughput (closed loop, 2 ms simulated source latency)",
        &["mode", "workers", "requests", "elapsed_ms", "qps", "speedup_vs_pool1", "vs_direct"],
        &rows,
    );
}

/// E12 (ablation): source pushdown — repeated keyed lookups over an
/// entity read function, three ways:
/// - `pushdown`: optimizer on; the where-clause is rewritten to
///   indexed point-selects answered by the source (secondary hash
///   index probes);
/// - `memoized`: optimizer off (the pre-pushdown baseline); the
///   hash-join rewrite scans once per statement and probes the
///   middle-tier index;
/// - `fullscan`: the predicate is wrapped in `fn:string(...)` so no
///   rewrite applies — one full scan-and-filter per key, the naive
///   middle-tier plan.
fn e12_pushdown(full: bool, reps: usize, r: &Reporter) {
    let sizes: &[i64] = if full { &[1000, 5000, 10000] } else { &[200, 1000] };
    const KEYS: usize = 20;
    let mut rows = Vec::new();
    for &n in sizes {
        let f = etl_space(n);
        // Point lookups on the (unique) Name column, spread across the
        // table — each key matches exactly one row.
        let keys = (0..KEYS)
            .map(|k| {
                let id = 1 + k as i64 * n / KEYS as i64;
                format!("'First{id} Last{id}'")
            })
            .collect::<Vec<_>>()
            .join(", ");
        let pushable = format!(
            "fn:sum(for $d in ({keys})
               return fn:count(for $e in ens1:EMPLOYEE()
                               where $e/Name eq $d
                               return $e))"
        );
        let opaque = format!(
            "fn:sum(for $d in ({keys})
               return fn:count(for $e in ens1:EMPLOYEE()
                               where fn:string($e/Name) eq $d
                               return $e))"
        );
        let nsenv = [("ens1", "ld:hr/EMPLOYEE")];
        let run = |expr: &str| -> i64 {
            f.space
                .engine()
                .eval_expr_str(expr, &nsenv)
                .expect("eval")
                .string_value()
                .expect("sum")
                .parse()
                .expect("int")
        };
        // All three plans must agree on the answer.
        f.space.engine().set_optimize(true);
        let expect = run(&pushable);
        assert_eq!(expect, KEYS as i64, "each key matches exactly one row");
        assert_eq!(run(&opaque), expect);
        f.space.engine().set_optimize(false);
        assert_eq!(run(&pushable), expect);
        assert_eq!(run(&opaque), expect);

        f.space.engine().set_optimize(true);
        let pushdown = median_secs(reps, || {
            run(&pushable);
        });
        f.space.engine().set_optimize(false);
        let memoized = median_secs(reps, || {
            run(&pushable);
        });
        let fullscan = median_secs(reps, || {
            run(&opaque);
        });
        f.space.engine().set_optimize(true);
        rows.push(vec![
            n.to_string(),
            KEYS.to_string(),
            format!("{:.2}", pushdown * 1e3),
            format!("{:.2}", memoized * 1e3),
            format!("{:.2}", fullscan * 1e3),
            format!("{:.1}x", fullscan / pushdown),
        ]);
    }
    r.table(
        "E12",
        "E12 ablation: source pushdown (indexed select) vs middle-tier join memoization vs full scan",
        &["rows", "keys", "pushdown_ms", "memoized_ms", "fullscan_ms", "fullscan/pushdown"],
        &rows,
    );
}

/// E11 (ablation): the declarative-core hash-join memoization inside
/// the platform's own read path — getProfile() with the optimizer on
/// vs off. Isolates the optimizer's contribution from E7's engine-mode
/// differences.
fn e11_join_ablation(full: bool, reps: usize, r: &Reporter) {
    let sizes: &[usize] = if full { &[50, 200, 800] } else { &[50, 200] };
    let mut rows = Vec::new();
    for &n in sizes {
        let d = demo::build(n, 2, 2).expect("demo");
        let run = || {
            d.space
                .get("CustomerProfile", "getProfile", vec![])
                .expect("get")
                .len()
        };
        // "Unoptimized" here means the full ablation: pushdown/caching
        // off AND the hash-join rewrite itself off (the join rewrite
        // survives the plain kill-switch, so it needs its own knob).
        d.space.engine().set_optimize(true);
        d.space.engine().set_join_rewrite(true);
        let on = median_secs(reps, || {
            assert_eq!(run(), n);
        });
        d.space.engine().set_optimize(false);
        d.space.engine().set_join_rewrite(false);
        let off = median_secs(reps, || {
            assert_eq!(run(), n);
        });
        d.space.engine().set_optimize(true);
        d.space.engine().set_join_rewrite(true);
        rows.push(vec![
            n.to_string(),
            format!("{:.2}", on * 1e3),
            format!("{:.2}", off * 1e3),
            format!("{:.1}x", off / on),
        ]);
    }
    r.table(
        "E11",
        "E11 ablation: join memoization in getProfile() (optimizer on vs off)",
        &["customers", "optimized_ms", "unoptimized_ms", "speedup"],
        &rows,
    );
}

/// E1 (Table 1): Figure-3 getProfile() integration read latency vs
/// customer count.
fn e1_getprofile(full: bool, reps: usize, r: &Reporter) {
    let sizes: &[usize] = if full { &[10, 100, 1000, 5000] } else { &[10, 100, 500] };
    let mut rows = Vec::new();
    for &n in sizes {
        let d = demo::build(n, 3, 2).expect("demo");
        let mut profiles = 0usize;
        let secs = median_secs(reps, || {
            let g = d.space.get("CustomerProfile", "getProfile", vec![]).expect("get");
            profiles = g.len();
        });
        rows.push(vec![
            n.to_string(),
            profiles.to_string(),
            format!("{:.2}", secs * 1e3),
            format!("{:.0}", n as f64 / secs),
        ]);
    }
    r.table(
        "E1",
        "E1  getProfile() read integration (2 RDBs + web service)",
        &["customers", "profiles", "latency_ms", "profiles_per_s"],
        &rows,
    );
}

/// E2 (Table 2): management chain, XQSE while vs recursive XQuery vs
/// native Rust, by chain depth.
fn e2_mgmtchain(full: bool, reps: usize, r: &Reporter) {
    let depths: &[usize] = if full { &[2, 8, 32, 64] } else { &[2, 8, 32] };
    let mut rows = Vec::new();
    for &d in depths {
        let space = mgmt_space(d);
        let db = space.database("hr").expect("db");
        assert_eq!(mgmt_chain_xqse(&space), d);
        assert_eq!(mgmt_chain_recursive(&space), d);
        assert_eq!(mgmt_chain_native(&db), d);
        let xq = median_secs(reps, || {
            mgmt_chain_xqse(&space);
        });
        let rec = median_secs(reps, || {
            mgmt_chain_recursive(&space);
        });
        let nat = median_secs(reps, || {
            mgmt_chain_native(&db);
        });
        rows.push(vec![
            d.to_string(),
            format!("{:.3}", xq * 1e3),
            format!("{:.3}", rec * 1e3),
            format!("{:.3}", nat * 1e3),
            format!("{:.2}", xq / rec),
        ]);
    }
    r.table(
        "E2",
        "E2  management chain (use case 2): XQSE while vs recursive XQuery vs native",
        &["depth", "xqse_ms", "recursive_ms", "native_ms", "xqse/recursive"],
        &rows,
    );
}

/// E3 (Table 3): ETL-lite copy throughput, XQSE iterate vs the native
/// ("Java override") baseline.
fn e3_etl(full: bool, reps: usize, r: &Reporter) {
    let sizes: &[i64] =
        if full { &[10, 100, 1000, 5000, 10000] } else { &[10, 100, 500] };
    let mut rows = Vec::new();
    for &n in sizes {
        let xqse_secs = median_secs(reps, || {
            let f = etl_space(n);
            assert_eq!(etl_run_xqse(&f), n);
        });
        let native_secs = median_secs(reps, || {
            let f = etl_space(n);
            assert_eq!(etl_run_native(&f), n);
        });
        rows.push(vec![
            n.to_string(),
            format!("{:.1}", xqse_secs * 1e3),
            format!("{:.0}", n as f64 / xqse_secs),
            format!("{:.1}", native_secs * 1e3),
            format!("{:.0}", n as f64 / native_secs),
            format!("{:.1}", xqse_secs / native_secs),
        ]);
    }
    r.table(
        "E3",
        "E3  ETL lite (use case 3): XQSE iterate vs native baseline",
        &["rows", "xqse_ms", "xqse_rows_per_s", "native_ms", "native_rows_per_s", "slowdown"],
        &rows,
    );
}

/// E4 (Table 4): replicating create — try/catch overhead and failure
/// injection.
fn e4_replicate(full: bool, reps: usize, r: &Reporter) {
    let batch: i64 = if full { 500 } else { 100 };
    let with = median_secs(reps, || {
        let f = replicate_space(true);
        assert_eq!(replicate_run(&f, employee_batch(1, batch)), Ok(batch));
    });
    let without = median_secs(reps, || {
        let f = replicate_space(false);
        assert_eq!(replicate_run(&f, employee_batch(1, batch)), Ok(batch));
    });
    // Failure injection: poison the backup with a conflicting row at
    // several positions; the procedure must stop with the wrapped
    // secondary error and leave exactly `pos` rows on the primary.
    let mut rows = vec![
        vec![
            format!("{batch}"),
            "0".into(),
            format!("{:.1}", with * 1e3),
            format!("{:.1}", without * 1e3),
            format!("{:+.1}%", (with / without - 1.0) * 100.0),
        ],
    ];
    for pos in [1i64, batch / 2, batch - 1] {
        let f = replicate_space(true);
        f.backup
            .insert(
                "EMPLOYEE",
                vec![SqlValue::Int(pos + 1), SqlValue::Str("ghost".into())],
            )
            .expect("poison");
        let out = replicate_run(&f, employee_batch(1, batch));
        assert_eq!(out, Err("SECONDARY_CREATE_FAILURE".into()));
        let created = f.primary.row_count("EMPLOYEE").expect("count");
        rows.push(vec![
            format!("{batch}"),
            format!("fail@{}", pos + 1),
            format!("created={created}"),
            "-".into(),
            "SECONDARY_CREATE_FAILURE".into(),
        ]);
    }
    r.table(
        "E4",
        "E4  replicating create (use case 4): try/catch overhead + failure injection",
        &["batch", "inject", "with_handlers_ms", "no_handlers_ms", "overhead/outcome"],
        &rows,
    );
}

/// E5 (Table 5): decomposition scaling — changed fields and fan-out.
fn e5_decompose(full: bool, reps: usize, r: &Reporter) {
    let n = if full { 1000 } else { 200 };
    let mut rows = Vec::new();
    for (label, changes) in [
        ("1 field / 1 source", vec![("LAST_NAME", None)]),
        (
            "2 fields same row",
            vec![("LAST_NAME", None), ("FIRST_NAME", None)],
        ),
        (
            "2 sources (2PC)",
            vec![("LAST_NAME", None), ("BRAND", Some("card"))],
        ),
        ("nested order row", vec![("STATUS", Some("order"))]),
    ] {
        let d = demo::build(n, 2, 1).expect("demo");
        let g = d.space.get("CustomerProfile", "getProfile", vec![]).expect("get");
        for (field, loc) in &changes {
            match loc {
                None => g.set_value(0, &[field], "CHANGED").expect("set"),
                Some("order") => g
                    .set_value(0, &["Orders", "ORDER", field], "CHANGED")
                    .expect("set"),
                Some(_) => g
                    .set_value(0, &["CreditCards", "CREDIT_CARD", field], "NEWVAL")
                    .expect("set"),
            }
        }
        let lineage = d.space.lineage("CustomerProfile").expect("lineage");
        let mut plan_stats = (0usize, 0usize);
        let secs = median_secs(reps, || {
            let plan = aldsp::decompose::decompose_update(
                &lineage,
                &g,
                &OccPolicy::UpdatedValues,
            )
            .expect("plan");
            plan_stats = (plan.statement_count(), plan.source_count());
        });
        rows.push(vec![
            label.to_string(),
            plan_stats.0.to_string(),
            plan_stats.1.to_string(),
            format!("{:.1}", secs * 1e6),
        ]);
    }
    r.table(
        "E5",
        "E5  update decomposition (change summary -> conditioned SQL)",
        &["scenario", "statements", "sources", "decompose_us"],
        &rows,
    );
}

/// E6 (Table 6): optimistic-concurrency policies — WHERE width, and
/// conflict detection vs concurrent writers hitting other columns.
fn e6_occ(full: bool, r: &Reporter) {
    let trials = if full { 200 } else { 50 };
    let mut rows = Vec::new();
    for (name, policy) in [
        ("ReadValues", OccPolicy::ReadValues),
        ("UpdatedValues", OccPolicy::UpdatedValues),
        (
            "ChosenSubset(FIRST_NAME)",
            OccPolicy::ChosenSubset(vec!["FIRST_NAME".into()]),
        ),
    ] {
        // WHERE width on a single-field update.
        let d = demo::build(5, 1, 1).expect("demo");
        d.space.set_occ_policy("CustomerProfile", policy.clone()).expect("policy");
        let g = d.space.get("CustomerProfile", "getProfile", vec![]).expect("get");
        g.set_value(0, &["LAST_NAME"], "X").expect("set");
        d.space.submit(&g).expect("submit");
        let sql = d.space.last_decomposition.borrow()[0].clone();
        let where_width = sql.split(" AND ").count();
        // Conflict detection rate under interleaved writers that touch
        // the SAME column (true conflicts)…
        let mut same_detected = 0;
        // …and a DIFFERENT column (conflicts only ReadValues sees).
        let mut other_detected = 0;
        for t in 0..trials {
            for other_col in [false, true] {
                let d = demo::build(3, 1, 1).expect("demo");
                d.space
                    .set_occ_policy("CustomerProfile", policy.clone())
                    .expect("policy");
                let g = d
                    .space
                    .get("CustomerProfile", "getProfile", vec![])
                    .expect("get");
                g.set_value(0, &["LAST_NAME"], &format!("mine{t}")).expect("set");
                let col = if other_col { "FIRST_NAME" } else { "LAST_NAME" };
                d.db1
                    .execute(vec![WriteOp::Update {
                        table: "CUSTOMER".into(),
                        set: vec![(col.into(), SqlValue::Str(format!("theirs{t}")))],
                        cond: vec![("CID".into(), SqlValue::Int(1))],
                        expect_rows: 1,
                    }])
                    .expect("interleave");
                let conflicted = d.space.submit(&g).is_err();
                if other_col {
                    other_detected += conflicted as u32;
                } else {
                    same_detected += conflicted as u32;
                }
            }
        }
        rows.push(vec![
            name.to_string(),
            where_width.to_string(),
            format!("{}/{trials}", same_detected),
            format!("{}/{trials}", other_detected),
        ]);
    }
    r.table(
        "E6",
        "E6  optimistic concurrency policies (SS2 claim: \"sameness\" in WHERE)",
        &["policy", "where_width", "same_col_conflicts_detected", "other_col_conflicts_detected"],
        &rows,
    );
}

/// E7 (Table 7): XQSE statement separation preserves declarative
/// optimization; XQueryP sequential mode pins evaluation order.
fn e7_xqueryp(full: bool, reps: usize, r: &Reporter) {
    let sizes: &[usize] = if full { &[20, 100, 400, 1000] } else { &[20, 100, 300] };
    let mut rows = Vec::new();
    for &n in sizes {
        let d = demo::build(n, 0, 2).expect("demo");
        let expect = (n * 2) as i64;
        assert_eq!(join_program_xqse(&d.space), expect);
        assert_eq!(join_program_xqueryp(&d.space), expect);
        let xqse_secs = median_secs(reps, || {
            join_program_xqse(&d.space);
        });
        let xp_secs = median_secs(reps, || {
            join_program_xqueryp(&d.space);
        });
        rows.push(vec![
            n.to_string(),
            format!("{:.2}", xqse_secs * 1e3),
            format!("{:.2}", xp_secs * 1e3),
            format!("{:.1}x", xp_secs / xqse_secs),
        ]);
    }
    r.table(
        "E7",
        "E7  XQSE (optimizable declarative core) vs XQueryP sequential mode",
        &["customers", "xqse_ms", "xqueryp_ms", "xqueryp/xqse"],
        &rows,
    );
}

/// E8 (Table 8): parser throughput over the paper's listings.
fn e8_parser(reps: usize, r: &Reporter) {
    let listings: &[(&str, String)] = &[
        ("hello_world", "{ return value \"Hello, World\"; }".to_string()),
        ("getProfile (Fig.3)", demo::GET_PROFILE_SRC.to_string()),
        (
            "getProfile x8",
            (0..8)
                .map(|i| {
                    demo::GET_PROFILE_SRC
                        .replace("getProfile", &format!("getProfile{i}"))
                })
                .collect::<Vec<_>>()
                .join("\n"),
        ),
    ];
    let mut rows = Vec::new();
    for (name, src) in listings {
        // The x8 listing redeclares namespaces; tolerate load failure
        // by measuring parse only.
        let secs = median_secs(reps.max(5), || {
            let _ = xqparser::parse_module(src);
        });
        rows.push(vec![
            name.to_string(),
            src.len().to_string(),
            format!("{:.1}", secs * 1e6),
            format!("{:.1}", src.len() as f64 / secs / 1e6),
        ]);
    }
    r.table(
        "E8",
        "E8  parser throughput (XQuery + XQSE grammar)",
        &["listing", "bytes", "parse_us", "MB_per_s"],
        &rows,
    );
}

/// E9 (Table 9): XA two-phase commit atomicity under coordinator
/// crash injection.
fn e9_xa(full: bool, r: &Reporter) {
    let trials = if full { 500 } else { 100 };
    let mut rows = Vec::new();
    for (name, crash) in [
        ("no crash", None),
        ("after first prepare", Some(CrashPoint::AfterFirstPrepare)),
        ("after all prepares", Some(CrashPoint::AfterAllPrepares)),
        ("after first commit", Some(CrashPoint::AfterFirstCommit)),
    ] {
        let mut committed = 0u32;
        let mut aborted = 0u32;
        let mut atomic = 0u32;
        for t in 0..trials {
            let d = demo::build(1, 1, 1).expect("demo");
            let ops1 = vec![WriteOp::Update {
                table: "CUSTOMER".into(),
                set: vec![("LAST_NAME".into(), SqlValue::Str(format!("t{t}")))],
                cond: vec![("CID".into(), SqlValue::Int(1))],
                expect_rows: 1,
            }];
            let ops2 = vec![WriteOp::Update {
                table: "CREDIT_CARD".into(),
                set: vec![("CC_BRAND".into(), SqlValue::Str(format!("b{t}")))],
                cond: vec![("CCID".into(), SqlValue::Int(1))],
                expect_rows: 1,
            }];
            let (outcome, _) = TwoPhaseCoordinator::new(vec![
                (d.db1.clone(), ops1),
                (d.db2.clone(), ops2),
            ])
            .run_with_crash(crash);
            let name_now = d
                .db1
                .select("CUSTOMER", &vec![("CID".into(), SqlValue::Int(1))])
                .expect("sel")[0][2]
                .lexical();
            let brand_now = d
                .db2
                .select("CREDIT_CARD", &vec![("CCID".into(), SqlValue::Int(1))])
                .expect("sel")[0][3]
                .lexical();
            let applied1 = name_now == format!("t{t}");
            let applied2 = brand_now == format!("b{t}");
            match outcome {
                TxOutcome::Committed => {
                    committed += 1;
                    atomic += (applied1 && applied2) as u32;
                }
                TxOutcome::Aborted(_) => {
                    aborted += 1;
                    atomic += (!applied1 && !applied2) as u32;
                }
            }
        }
        rows.push(vec![
            name.to_string(),
            format!("{committed}"),
            format!("{aborted}"),
            format!("{atomic}/{trials}"),
        ]);
    }
    r.table(
        "E9",
        "E9  XA two-phase commit with crash injection",
        &["crash point", "committed", "aborted", "atomic"],
        &rows,
    );
}

/// E10 (Fig. C): user-defined delete via XQSE wrapper vs direct
/// default delete, vs table size.
fn e10_udelete(full: bool, reps: usize, r: &Reporter) {
    let sizes: &[usize] = if full { &[100, 1000, 5000] } else { &[100, 500] };
    let mut rows = Vec::new();
    for &n in sizes {
        // Wrapped path: XQSE lookup + default delete.
        let wrapped = median_secs(reps, || {
            let d = demo::build(n, 0, 0).expect("demo");
            d.space
                .xqse()
                .load(
                    r#"
declare namespace uc1 = "urn:uc1";
declare namespace cus = "ld:db1/CUSTOMER";
declare procedure uc1:deleteByCID($cid as xs:string) as empty-sequence()
{
  declare $cust := cus:getByCID($cid);
  if (fn:not(fn:empty($cust))) then cus:deleteCUSTOMER($cust);
};
"#,
                )
                .expect("load");
            let mut env = xqeval::Env::new();
            d.space
                .xqse()
                .call_procedure(
                    &QName::with_ns("urn:uc1", "deleteByCID"),
                    vec![Sequence::one(Item::string((n / 2).to_string()))],
                    &mut env,
                )
                .expect("call");
        });
        // Direct path: call the generated delete procedure with a key
        // element.
        let direct = median_secs(reps, || {
            let d = demo::build(n, 0, 0).expect("demo");
            let key = xmlparse::parse(&format!(
                "<CUSTOMER><CID>{}</CID></CUSTOMER>",
                n / 2
            ))
            .expect("xml");
            let mut env = xqeval::Env::new();
            d.space
                .xqse()
                .call_procedure(
                    &QName::with_ns("ld:db1/CUSTOMER", "deleteCUSTOMER"),
                    vec![Sequence::one(Item::Node(key.children()[0].clone()))],
                    &mut env,
                )
                .expect("call");
        });
        rows.push(vec![
            n.to_string(),
            format!("{:.2}", wrapped * 1e3),
            format!("{:.2}", direct * 1e3),
            format!("{:.2}", wrapped / direct),
        ]);
    }
    r.table(
        "E10",
        "E10 user-defined delete (use case 1): XQSE wrapper vs direct C/U/D \
         (times include fixture build)",
        &["customers", "wrapped_ms", "direct_ms", "wrapped/direct"],
        &rows,
    );
}
/// E13: prepared-plan reuse — parse + prolog-load a program once and
/// re-execute the plan many times, vs. the pre-plan-cache behaviour
/// of re-parsing the program text on every call (the `--no-batch` /
/// `XQSE_DISABLE_BATCH=1` baseline).
fn e13_prepared(full: bool, reps: usize, r: &Reporter) {
    use std::rc::Rc;
    use xqeval::{Engine, Env};

    // A program whose cost is dominated by compilation: a multi-
    // function prolog with a cheap body, the shape a deployed data
    // service evaluates thousands of times with different contexts.
    let src = "\
        declare function local:band($n as xs:integer) as xs:string {\n\
          if ($n ge 720) then 'prime' else if ($n ge 640) then 'good'\n\
          else if ($n ge 560) then 'fair' else 'subprime'\n\
        };\n\
        declare function local:blend($a as xs:integer, $b as xs:integer) as xs:integer {\n\
          ($a * 3 + $b * 2) idiv 5\n\
        };\n\
        declare function local:score($seed as xs:integer) as xs:integer {\n\
          local:blend(520 + ($seed * 37) mod 300, 520 + ($seed * 91) mod 300)\n\
        };\n\
        declare function local:tier($seed as xs:integer) as xs:string {\n\
          local:band(local:score($seed))\n\
        };\n\
        declare function local:limit($seed as xs:integer) as xs:integer {\n\
          if (local:tier($seed) eq 'prime') then 50000\n\
          else if (local:tier($seed) eq 'good') then 20000\n\
          else if (local:tier($seed) eq 'fair') then 8000 else 1000\n\
        };\n\
        declare function local:fee($seed as xs:integer) as xs:decimal {\n\
          local:limit($seed) * 0.0025 + (if ($seed mod 2 eq 0) then 5.00 else 7.50)\n\
        };\n\
        declare function local:summary($seed as xs:integer) as xs:string {\n\
          concat(local:tier($seed), '/', string(local:limit($seed)))\n\
        };\n\
        local:band(688)";
    let iters: &[usize] = if full { &[100, 1000] } else { &[50, 200] };
    let mut rows = Vec::new();
    for &n in iters {
        let engine = Rc::new(Engine::new());
        let expect = engine.eval_query(src).expect("e13 query");
        let prepared = median_secs(reps, || {
            let engine = Rc::new(Engine::new());
            let pq = engine.prepare(src).expect("prepare");
            for _ in 0..n {
                let mut env = Env::new();
                let got = engine.execute_prepared_in(&pq, &mut env).expect("exec");
                assert_eq!(got.len(), expect.len());
            }
        });
        let reparse = median_secs(reps, || {
            let engine = Rc::new(Engine::new());
            engine.set_batch(false); // kill-switch: plan cache off, parse per call
            for _ in 0..n {
                let got = engine.eval_query(src).expect("eval");
                assert_eq!(got.len(), expect.len());
            }
        });
        rows.push(vec![
            n.to_string(),
            format!("{:.3}", prepared * 1e3),
            format!("{:.3}", reparse * 1e3),
            format!("{:.1}x", reparse / prepared),
        ]);
    }
    r.table(
        "E13",
        "E13 prepared-plan reuse: prepare once + execute N times vs re-parse per call",
        &["iters", "prepared_ms", "reparse_ms", "reparse/prepared"],
        &rows,
    );
}
