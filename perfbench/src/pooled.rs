//! The pooled workloads: `profile_update` and `page_query`. Each runs
//! 2 closed-loop client threads against a 2-worker `ServePool` in this
//! process.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use aldsp::decompose::{self, OccPolicy};
use aldsp::demo;
use aldsp::lineage::Lineage;
use aldsp::pool::{ServeArg, ServePool, ServeRequest, ServeSpec};
use aldsp::rel::{Database, SqlValue};
use aldsp::service::DataSpace;
use aldsp::ws::WebService;
use xdm::error::XdmResult;
use xdm::sequence::{Item, Sequence};
use xqeval::Env;

use crate::common::*;
use crate::Args;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ProfileUpdate,
    PageQuery,
}

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests per client in the fixed warm-up that ends each set-up.
const WARMUP_OPS: u64 = 100;
/// Untraced requests each direct-replay thread makes before tracing.
const DIRECT_WARMUP: u64 = 4;
/// A p99 needs ten samples beyond it.
const MIN_TAIL_SAMPLES: usize = 1_000;

const CUSTOMERS: usize = 100;
const SERVICE: &str = "CustomerProfile";
const METHOD: &str = "getProfileById";
/// The cycles writes take their values from; no initial value of the
/// demo data is among them, and consecutive values differ.
const LAST_NAMES: [&str; 4] = ["Kappa", "Lambda", "Sigma", "Omega"];
const BRANDS: [&str; 4] = ["AMEX", "DISCOVER", "JCB", "UNIONPAY"];
const BRAND_PATH: [&str; 3] = ["CreditCards", "CREDIT_CARD", "BRAND"];

const EMPLOYEES: i64 = 5_000;
/// `xqse_bench::etl_space` puts employee `i` in department `D{i % 7}`.
const DEPTS: usize = 7;
const PAGE: usize = 20;

#[derive(Clone)]
enum Op {
    Get {
        cid: i64,
    },
    Submit {
        cid: i64,
        last: &'static str,
        brand: &'static str,
    },
    Run {
        dept: usize,
        page: usize,
    },
}

impl Op {
    fn class(&self) -> &'static str {
        match self {
            Op::Get { .. } => "get",
            Op::Submit { .. } => "submit",
            Op::Run { .. } => "run",
        }
    }

    fn request(&self) -> ServeRequest {
        match self {
            Op::Get { cid } => ServeRequest::Get {
                service: SERVICE.into(),
                method: METHOD.into(),
                args: vec![ServeArg::Str(cid.to_string())],
            },
            Op::Submit { cid, last, brand } => ServeRequest::Submit {
                service: SERVICE.into(),
                method: METHOD.into(),
                args: vec![ServeArg::Str(cid.to_string())],
                sets: vec![
                    (0, vec!["LAST_NAME".into()], last.to_string()),
                    (
                        0,
                        BRAND_PATH.iter().map(|s| s.to_string()).collect(),
                        brand.to_string(),
                    ),
                ],
            },
            Op::Run { dept, page } => ServeRequest::Run {
                program: page_text(*dept, *page),
            },
        }
    }
}

fn page_text(dept: usize, page: usize) -> String {
    format!(
        "declare namespace ens1 = \"ld:hr/EMPLOYEE\";\n\
         fn:subsequence(for $e in ens1:EMPLOYEE() where $e/DeptNo eq 'D{dept}' \
         return <row><id>{{fn:data($e/EmployeeID)}}</id><name>{{fn:data($e/Name)}}</name></row>, \
         {}, {PAGE})",
        page * PAGE + 1
    )
}

fn dept_size(dept: usize) -> usize {
    (1..=EMPLOYEES)
        .filter(|i| *i as usize % DEPTS == dept)
        .count()
}

/// The seeded request generators, shared by all clients.
struct Workload {
    kind: Kind,
    /// Zipf (s = 1) over all customers, for reads.
    readers: Zipf,
    /// Zipf (s = 1) over one client's half of the customers, for writes.
    writers: Zipf,
    pages: Vec<usize>,
}

/// Expected replies per page for `page_query`.
#[derive(Default)]
struct Expected {
    pages: HashMap<(usize, usize), String>,
}

/// One closed-loop client: its generator, its half of the keys, and
/// what it observed.
struct Client {
    idx: usize,
    rng: Rng,
    step: u64,
    /// Successful writes per owned customer.
    writes: BTreeMap<i64, usize>,
    /// Latencies per class, scaled to the reference host speed.
    lat: BTreeMap<&'static str, Vec<f64>>,
    /// The same latencies as measured.
    raw: BTreeMap<&'static str, Vec<f64>>,
    done: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Client {
    fn new(seed: u64, idx: usize) -> Client {
        Client {
            idx,
            rng: Rng::new(seed, 10 + idx as u64),
            step: 0,
            writes: BTreeMap::new(),
            lat: BTreeMap::new(),
            raw: BTreeMap::new(),
            done: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn next_op(&mut self, w: &Workload) -> Op {
        self.step += 1;
        match w.kind {
            Kind::ProfileUpdate if self.step % 2 == 1 => Op::Get {
                cid: 1 + w.readers.sample(&mut self.rng) as i64,
            },
            Kind::ProfileUpdate => {
                // Client 0 owns the odd customers, client 1 the even ones.
                let cid = 2 * w.writers.sample(&mut self.rng) as i64 + 1 + self.idx as i64;
                let n = self.writes.get(&cid).copied().unwrap_or(0);
                Op::Submit {
                    cid,
                    last: LAST_NAMES[n % 4],
                    brand: BRANDS[n % 4],
                }
            }
            Kind::PageQuery => {
                let dept = self.rng.below(DEPTS);
                Op::Run {
                    dept,
                    page: self.rng.below(w.pages[dept]),
                }
            }
        }
    }

    /// Book latencies as `(class, raw_ms, normalised_ms)`.
    fn book(&mut self, samples: Vec<(&'static str, f64, f64)>) {
        for (class, raw, norm) in samples {
            self.raw.entry(class).or_default().push(raw);
            self.lat.entry(class).or_default().push(norm);
        }
    }

    /// Check one reply and count it.
    fn finish(&mut self, op: &Op, reply: Result<String, String>, expected: Option<&Expected>) {
        let verdict = match (op, reply) {
            (_, Err(e)) => Err(e),
            (Op::Get { cid }, Ok(r)) => {
                if r.contains(&format!("<CID>{cid}</CID>")) {
                    Ok(())
                } else {
                    Err(format!("profile {cid}: reply lacks its CID"))
                }
            }
            (Op::Submit { cid, .. }, Ok(r)) => {
                if r == "ok" {
                    *self.writes.entry(*cid).or_default() += 1;
                    Ok(())
                } else {
                    Err(format!("submit {cid}: reply {r:?}"))
                }
            }
            (Op::Run { dept, page }, Ok(r)) => {
                match expected.and_then(|e| e.pages.get(&(*dept, *page))) {
                    Some(want) if *want != r => Err(format!(
                        "page D{dept}/{page}: rows differ from the source slice"
                    )),
                    _ => Ok(()),
                }
            }
        };
        self.done += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 3 {
                self.errors.push(e);
            }
        }
    }
}

/// When a phase ends.
enum Stop {
    /// After this many requests per client.
    Ops(u64),
    /// After `secs` seconds, extended until each client has
    /// `min_primary` samples of the workload's primary class, but
    /// never beyond four times `secs`.
    Time { secs: f64, min_primary: usize },
}

/// What one phase measured.
struct Phase {
    wall_s: f64,
    done: u64,
    failed: u64,
    /// Closed-loop throughput at the reference host speed: each client
    /// completes one request per mean latency, summed over clients.
    rate: f64,
    /// Latencies per class, scaled to the reference host speed.
    lat: BTreeMap<&'static str, Vec<f64>>,
    /// The same latencies as measured.
    raw: BTreeMap<&'static str, Vec<f64>>,
}

impl Phase {
    fn throughput(&self) -> f64 {
        self.rate
    }

    /// Completed requests per second of wall time on this host.
    fn raw_throughput(&self) -> f64 {
        ratio(self.done as f64, self.wall_s)
    }

    fn series(&self, class: &str) -> Series {
        Series::new(self.lat.get(class).cloned().unwrap_or_default())
    }

    fn raw_series(&self, class: &str) -> Series {
        Series::new(self.raw.get(class).cloned().unwrap_or_default())
    }
}

/// Run every client on its own thread until `stop`. Each thread makes
/// its context with `make` (a data space is not `Send`, so it must be
/// built on the thread that uses it), issues requests through `call`,
/// and hands `finish(ctx)` back. A timed phase stops all clients every
/// `CALIBRATION_INTERVAL` to calibrate them at once (see `HostClock`),
/// and decides there whether to go on; the warm-up does not calibrate.
#[allow(clippy::too_many_arguments)]
fn drive<C, T: Send>(
    clients: &mut [Client],
    w: &Workload,
    primary: &'static str,
    stop: Stop,
    expected: Option<&Expected>,
    make: &(dyn Fn(usize) -> C + Sync),
    call: &(dyn Fn(&mut C, &Op) -> Result<String, String> + Sync),
    finish: &(dyn Fn(C) -> T + Sync),
) -> (Phase, Vec<T>) {
    let before: Vec<(u64, u64)> = clients.iter().map(|c| (c.done, c.failed)).collect();
    for c in clients.iter_mut() {
        c.lat.clear();
        c.raw.clear();
    }
    // Shared by the timed loop's threads: the tick, the primary-class
    // counts the stop decision reads, and that decision. Relaxed is
    // enough: one thread decides between the two barrier waits of a
    // tick, and the others read after the second.
    let clock = &HostClock::new(clients.len(), Clock::Wall);
    let primaries: &Vec<AtomicUsize> = &clients.iter().map(|_| AtomicUsize::new(0)).collect();
    let halt = &AtomicBool::new(false);
    let start = Instant::now();
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let stop = &stop;
                s.spawn(move || {
                    let mut ctx = make(c.idx);
                    let mut one = |c: &mut Client| {
                        let op = c.next_op(w);
                        let (reply, took) = timed(|| call(&mut ctx, &op));
                        c.finish(&op, reply, expected);
                        (op.class(), took)
                    };
                    match *stop {
                        Stop::Ops(n) => {
                            for _ in 0..n {
                                let (class, took) = one(c);
                                c.book(vec![(class, took, took)]);
                            }
                        }
                        Stop::Time { secs, min_primary } => {
                            let mut norm = Normalizer::start(clock);
                            loop {
                                let until = Instant::now() + CALIBRATION_INTERVAL;
                                while Instant::now() < until {
                                    let (class, took) = one(c);
                                    if class == primary {
                                        primaries[c.idx].fetch_add(1, Ordering::Relaxed);
                                    }
                                    norm.push(class, took);
                                }
                                let samples = norm.flush_with(|| {
                                    let t = start.elapsed().as_secs_f64();
                                    let fewest = primaries
                                        .iter()
                                        .map(|p| p.load(Ordering::Relaxed))
                                        .min()
                                        .unwrap_or(0);
                                    let more = t < secs || (fewest < min_primary && t < 4.0 * secs);
                                    halt.store(!more, Ordering::Relaxed);
                                });
                                c.book(samples);
                                if halt.load(Ordering::Relaxed) {
                                    break;
                                }
                            }
                        }
                    }
                    finish(ctx)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut lat: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut raw: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut done, mut failed, mut rate) = (0, 0, 0.0);
    for (c, (d0, f0)) in clients.iter_mut().zip(before) {
        done += c.done - d0;
        failed += c.failed - f0;
        let busy_ms: f64 = c.lat.values().flatten().sum();
        let n = c.lat.values().map(Vec::len).sum::<usize>();
        rate += ratio(n as f64, busy_ms / 1e3);
        for (k, v) in std::mem::take(&mut c.lat) {
            lat.entry(k).or_default().extend(v);
        }
        for (k, v) in std::mem::take(&mut c.raw) {
            raw.entry(k).or_default().extend(v);
        }
    }
    (
        Phase {
            wall_s,
            done,
            failed,
            rate,
            lat,
            raw,
        },
        outs,
    )
}

/// Span sink inside the benchmark-built `getCreditRating` handler.
#[derive(Default)]
struct WsSpans {
    on: AtomicBool,
    ms: Mutex<Vec<f64>>,
}

/// The stock zero-delay credit-rating service; with `spans`, its
/// handler is wrapped to time each issued call.
fn credit_rating(spans: Option<&Arc<WsSpans>>) -> WebService {
    let stock = WebService::credit_rating(demo::CREDIT_TYPES_NS);
    let Some(spans) = spans.cloned() else {
        return stock;
    };
    let op = stock
        .operation("getCreditRating")
        .expect("stock operation")
        .clone();
    let inner = op.handler.clone();
    let mut ws = WebService::new(&stock.name, &stock.namespace);
    ws.add_operation(
        &op.name,
        &op.input_element,
        &op.output_element,
        Rc::new(move |req: &Sequence| {
            if !spans.on.load(Ordering::Relaxed) {
                return inner(req);
            }
            let (out, took) = timed(|| inner(req));
            spans.ms.lock().expect("ws span sink poisoned").push(took);
            out
        }),
    );
    ws
}

/// One worker's (or replay thread's) data space over the shared sources.
fn assemble(kind: Kind, dbs: &[Database], ws: Option<&Arc<WsSpans>>) -> XdmResult<DataSpace> {
    match kind {
        Kind::ProfileUpdate => demo::assemble(&dbs[0], &dbs[1], credit_rating(ws)),
        Kind::PageQuery => {
            let space = DataSpace::new();
            space.register_relational_source(&dbs[0])?;
            Ok(space)
        }
    }
}

struct Fixture {
    dbs: Vec<Database>,
    /// The fixture's own data space, which registered the sources first.
    space: DataSpace,
    pool: ServePool,
    clients: Vec<Client>,
}

/// Load the data, start the pool and warm it up, recording set-up spans.
fn setup(
    kind: Kind,
    w: &Workload,
    seed: u64,
    ws: Option<&Arc<WsSpans>>,
    spans: &mut Spans,
) -> Fixture {
    let clock = HostClock::new(1, Clock::Wall);
    let mut norm = Normalizer::start(&clock);
    let t0 = Instant::now();
    let (space, dbs) = match kind {
        Kind::PageQuery => {
            let f = xqse_bench::etl_space(EMPLOYEES);
            (f.space, vec![f.src])
        }
        _ => {
            let d = demo::build(CUSTOMERS, 3, 2).expect("demo data");
            (d.space, vec![d.db1, d.db2])
        }
    };
    let load_s = t0.elapsed().as_secs_f64();
    norm.push("setup.load_s", load_s);
    let load = norm.flush();
    let loaded = Instant::now();
    // Builders run on the worker threads: record how long each took
    // and when it finished.
    let built: Arc<Mutex<Vec<(f64, Instant)>>> = Arc::default();
    let pool = {
        let (dbs, ws, built) = (dbs.clone(), ws.cloned(), built.clone());
        ServePool::start(ServeSpec::new(WORKERS), move |_| {
            let (space, took) = timed(|| assemble(kind, &dbs, ws.as_ref()));
            built
                .lock()
                .expect("builder sink poisoned")
                .push((took, Instant::now()));
            space
        })
    };
    let mut clients: Vec<Client> = (0..CLIENTS).map(|i| Client::new(seed, i)).collect();
    let (warm, _) = drive(
        &mut clients,
        w,
        "",
        Stop::Ops(WARMUP_OPS),
        None,
        &|_| &pool,
        &|p, op| p.call(op.request()).result.map_err(|e| e.to_string()),
        &|_| (),
    );
    assert_eq!(
        warm.failed, 0,
        "warm-up requests failed: {:?}",
        clients[0].errors
    );
    let end = Instant::now();
    let serve_s = (end - loaded).as_secs_f64();
    norm.push("setup.serve_s", serve_s);
    let serve = norm.flush();
    let built = built.lock().expect("builder sink poisoned");
    let ready = built.iter().map(|b| b.1).max().unwrap_or(loaded);
    spans.record("setup.load_s", load_s);
    spans.record(
        "setup.register_s",
        median(&built.iter().map(|b| b.0 / 1e3).collect::<Vec<_>>()),
    );
    spans.record("setup.pool_start_s", (ready - loaded).as_secs_f64());
    spans.record("setup.warmup_s", (end - ready).as_secs_f64());
    spans.record("setup.raw_s", load_s + serve_s);
    spans.record("setup_s", load[0].2 + serve[0].2);
    Fixture {
        dbs,
        space,
        pool,
        clients,
    }
}

fn expected(kind: Kind, dbs: &[Database], report: &mut Report) -> Expected {
    let mut e = Expected::default();
    match kind {
        Kind::ProfileUpdate => {}
        Kind::PageQuery => {
            for dept in 0..DEPTS {
                let rows = dbs[0]
                    .select_indexed(
                        "EMPLOYEE",
                        &vec![("DeptNo".into(), SqlValue::Str(format!("D{dept}")))],
                    )
                    .expect("department select");
                report.check(rows.len() == dept_size(dept), || {
                    format!(
                        "department D{dept} holds {} rows, expected {}",
                        rows.len(),
                        dept_size(dept)
                    )
                });
                for (page, chunk) in rows.chunks(PAGE).enumerate() {
                    let reply: String = chunk
                        .iter()
                        .map(|r| {
                            format!(
                                "<row><id>{}</id><name>{}</name></row>",
                                r[0].lexical(),
                                r[1].lexical()
                            )
                        })
                        .collect();
                    e.pages.insert((dept, page), reply);
                }
            }
        }
    }
    e
}

/// The traced replay's per-thread context.
struct Direct {
    space: DataSpace,
    lineage: Option<Lineage>,
    warm: u64,
    spans: Spans,
    counts: Counts,
    requests: u64,
}

/// Serve one request by calling the layers directly, as the pool
/// worker would, with a span around each call.
fn direct_call(d: &mut Direct, op: &Op) -> Result<String, String> {
    let tracing = d.warm == 0;
    d.warm = d.warm.saturating_sub(1);
    let before = Counts::of(&d.space.engine().opt_stats());
    let mut spans = Spans::default();
    let t0 = Instant::now();
    let out = direct_serve(d, op, &mut spans).map_err(|e| e.to_string());
    let total = ms(t0.elapsed());
    if tracing {
        // The extra parse and decomposition the trace makes are not
        // part of serving.
        let extra = spans.median("xqparser.parse_ms") + spans.median("decompose.plan_ms");
        spans.record(direct_class(op), total - extra);
        d.spans.merge(spans);
        d.counts
            .add(&Counts::of(&d.space.engine().opt_stats()).since(&before));
        d.requests += 1;
    }
    out
}

fn direct_class(op: &Op) -> &'static str {
    match op {
        Op::Get { .. } => "direct.get",
        Op::Submit { .. } => "direct.submit",
        Op::Run { .. } => "direct.run",
    }
}

fn direct_serve(d: &Direct, op: &Op, spans: &mut Spans) -> XdmResult<String> {
    let space = &d.space;
    let reply = match op {
        Op::Get { cid } => {
            let args = vec![Sequence::one(Item::string(cid.to_string()))];
            let (g, took) = timed(|| space.get(SERVICE, METHOD, args));
            spans.record("service.get_ms", took);
            let g = g?;
            let (reply, took) = timed(|| xmlparse::serialize_sequence(g.instances()));
            spans.record("xmlparse.serialize_ms", took);
            reply
        }
        Op::Submit { cid, last, brand } => {
            let args = vec![Sequence::one(Item::string(cid.to_string()))];
            let (g, took) = timed(|| space.get(SERVICE, METHOD, args));
            spans.record("service.get_ms", took);
            let g = g?;
            g.set_value(0, &["LAST_NAME"], last)?;
            g.set_value(0, &BRAND_PATH, brand)?;
            let lineage = d.lineage.as_ref().expect("logical service lineage");
            let (plan, plan_ms) =
                timed(|| decompose::decompose_update(lineage, &g, &OccPolicy::UpdatedValues));
            plan?;
            let (r, submit_ms) = timed(|| space.submit(&g));
            r?;
            spans.record("decompose.plan_ms", plan_ms);
            spans.record("service.submit_ms", submit_ms);
            spans.record("decompose.execute_ms", submit_ms - plan_ms);
            "ok".to_string()
        }
        Op::Run { dept, page } => {
            let text = page_text(*dept, *page);
            let (m, took) = timed(|| xqparser::parse_module(&text));
            m?;
            spans.record("xqparser.parse_ms", took);
            let engine = space.engine();
            let (pq, took) = timed(|| engine.prepare(&text));
            spans.record("xqeval.prepare_ms", took);
            let pq = pq?;
            let mut env = Env::new();
            let (seq, took) = timed(|| engine.execute_prepared_lazy_in(&pq, &mut env));
            spans.record("xqeval.execute_ms", took);
            let (reply, took) = timed(|| xmlparse::serialize_sequence_stream(&seq?));
            spans.record("xmlparse.serialize_ms", took);
            reply?
        }
    };
    if !matches!(op, Op::Submit { .. }) {
        spans.record("xmlparse.reply_bytes", reply.len() as f64);
    }
    Ok(reply)
}

pub fn run(kind: Kind, args: &Args) -> Report {
    let mut report = Report::default();
    let mut gen = Rng::new(args.seed, 1);
    let w = Workload {
        kind,
        readers: Zipf::new(CUSTOMERS, 1.0, &mut gen),
        writers: Zipf::new(CUSTOMERS / 2, 1.0, &mut gen),
        pages: (0..DEPTS).map(|d| dept_size(d).div_ceil(PAGE)).collect(),
    };
    let primary = match kind {
        Kind::ProfileUpdate => "submit",
        Kind::PageQuery => "run",
    };
    let ws = args.trace.then(|| Arc::new(WsSpans::default()));
    let mut setup_spans = Spans::default();
    let mut fx = setup(kind, &w, args.seed, ws.as_ref(), &mut setup_spans);
    for _ in 1..SETUPS {
        let Fixture {
            pool,
            dbs,
            space,
            clients,
        } = fx;
        pool.shutdown();
        drop((dbs, space, clients));
        fx = setup(kind, &w, args.seed, ws.as_ref(), &mut setup_spans);
    }
    let Fixture {
        pool,
        dbs: fx_dbs,
        space: _space,
        mut clients,
    } = fx;
    let expected = expected(kind, &fx_dbs, &mut report);
    let dbs: Vec<&Database> = fx_dbs.iter().collect();
    let rows_before = row_counts(&dbs);
    reset_peak_rss();
    // The untraced run is extended until its p99 has ten samples
    // beyond it; the traced run's phases are time-boxed.
    let min_primary = if args.trace {
        0
    } else {
        MIN_TAIL_SAMPLES.div_ceil(CLIENTS)
    };
    let pooled = |clients: &mut [Client], secs: f64| {
        drive(
            clients,
            &w,
            primary,
            Stop::Time { secs, min_primary },
            Some(&expected),
            &|_| &pool,
            &|p, op| p.call(op.request()).result.map_err(|e| e.to_string()),
            &|_| (),
        )
        .0
    };

    let mut phases = Vec::new();
    let mut layers = Layers::default();
    if !args.trace {
        phases.push(pooled(&mut clients, args.seconds));
    } else {
        let ws = ws.as_ref().expect("traced run has a ws sink");
        let secs = args.seconds / 3.0;
        let untraced = pooled(&mut clients, secs);
        // The replay below re-issues the traced phase's request list.
        let replay_from: Vec<(Rng, u64)> =
            clients.iter().map(|c| (c.rng.clone(), c.step)).collect();
        ws.on.store(true, Ordering::Relaxed);
        let traced = pooled(&mut clients, secs);
        for (c, (rng, step)) in clients.iter_mut().zip(replay_from) {
            c.rng = rng;
            c.step = step;
        }
        let tx_before = tx_stats(&dbs);
        let (direct, outs) = drive(
            &mut clients,
            &w,
            primary,
            Stop::Time {
                secs,
                min_primary: 0,
            },
            Some(&expected),
            &|_| {
                let space = assemble(kind, &fx_dbs, Some(ws)).expect("replay data space");
                let lineage = space.lineage(SERVICE);
                Direct {
                    space,
                    lineage,
                    warm: DIRECT_WARMUP,
                    spans: Spans::default(),
                    counts: Counts::default(),
                    requests: 0,
                }
            },
            &direct_call,
            &|d| (d.spans, d.counts, d.requests),
        );
        let tx_after = tx_stats(&dbs);
        for (spans, counts, requests) in outs {
            layers.spans.merge(spans);
            layers.counts.add(&counts);
            layers.requests += requests;
        }
        layers.writes = direct.lat.get("submit").map_or(0, Vec::len) as u64;
        layers.commits = tx_after.0 - tx_before.0;
        layers.aborts = tx_after.1 - tx_before.1;
        for v in ws.ms.lock().expect("ws span sink poisoned").drain(..) {
            layers.spans.record("ws.call_ms", v);
        }
        // Queue wait: pooled latency minus direct service time, per
        // class, weighted by the class's share of requests.
        let mut wait = 0.0;
        for (class, lat) in &traced.raw {
            let direct_ms = layers.spans.median(&format!("direct.{class}"));
            wait += (median(lat) - direct_ms) * lat.len() as f64;
        }
        layers.pool_wait_ms = ratio(wait, traced.done as f64);
        let (u, t) = (untraced.series(primary), traced.series(primary));
        layers.overhead_throughput_pct =
            100.0 * (untraced.throughput() - traced.throughput()) / untraced.throughput();
        layers.overhead_mean_pct = 100.0 * (t.trimmed_mean() - u.trimmed_mean()) / u.trimmed_mean();
        for (label, p) in [("untraced", &untraced), ("traced", &traced)] {
            let s = p.series(primary);
            report.note(format!(
                "tracing overhead (reference speed): {label:<8} throughput_rps={:.2} mean_ms={:.3} (n={}) p90_ms={:.3} ({} beyond)",
                p.throughput(),
                s.trimmed_mean(),
                s.len(),
                s.at(0.9),
                s.beyond(0.9)
            ));
        }
        report.note(format!(
            "tracing overhead: throughput {:+.2}%, mean {:+.2}% (traced vs untraced)",
            layers.overhead_throughput_pct, layers.overhead_mean_pct
        ));
        report.note(format!(
            "direct replay: {} requests on {CLIENTS} threads; xmlparse.serialize_ms of a streamed reply includes its pulled evaluation",
            direct.done
        ));
        phases.extend([untraced, traced, direct]);
    }

    let rows_after = row_counts(&dbs);
    report.check(rows_before == rows_after, || {
        format!("row counts drifted during the run: {rows_before:?} -> {rows_after:?}")
    });
    if kind == Kind::ProfileUpdate {
        check_last_writes(&fx_dbs, &clients, &mut report);
    }
    for c in &clients {
        for e in &c.errors {
            report.failures.push(format!("client {}: {e}", c.idx));
        }
    }
    report.attempted = phases.iter().map(|p| p.done).sum();
    report.failed = phases.iter().map(|p| p.failed).sum();

    let main = &phases[0];
    let s = main.series(primary);
    if !args.trace {
        report.check(s.beyond(0.99) >= 10, || {
            format!("only {} samples beyond p99", s.beyond(0.99))
        });
    }
    for (class, lat) in &main.lat {
        let cs = Series::new(lat.clone());
        let rs = main.raw_series(class);
        report.note(format!(
            "latency {class}: mean_ms={:.3} p50_ms={:.3} p90_ms={:.3} p99_ms={:.3} (n={}, {} beyond p99); as measured on this host: p50_ms={:.3} p99_ms={:.3}",
            cs.trimmed_mean(),
            cs.p50(),
            cs.at(0.9),
            cs.at(0.99),
            cs.len(),
            cs.beyond(0.99),
            rs.p50(),
            rs.at(0.99)
        ));
    }
    report.note(format!(
        "failed_frac={} ({} of {} requests)",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    ));
    let setup_n = setup_spans.get("setup_s").len();
    report.e2e = vec![
        metric(
            "throughput_rps",
            main.throughput(),
            "req/s",
            main.done as usize,
        ),
        metric("mean_ms", s.trimmed_mean(), "ms", s.len()),
        metric("tail_ms", s.at(0.9), "ms", s.len()),
        metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
        metric("setup_s", setup_spans.median("setup_s"), "s", setup_n),
    ];
    report.note(format!(
        "throughput_rps counts every completed request; mean_ms is the mean {primary} latency without the fastest and slowest tenth; tail_ms is its p90"
    ));
    report.note(format!(
        "as measured on this host: throughput_rps={:.2} (requests / wall time), set-up median {:.3} s",
        main.raw_throughput(),
        setup_spans.median("setup.raw_s")
    ));

    let pool_report = pool.shutdown();
    report.check(pool_report.init_errors.iter().all(Option::is_none), || {
        format!(
            "pool workers failed to start: {:?}",
            pool_report.init_errors
        )
    });
    report.note(format!("pool served per worker: {:?}", pool_report.served));
    if args.trace {
        let served = &pool_report.served;
        let (lo, hi) = (
            served.iter().min().copied().unwrap_or(0),
            served.iter().max().copied().unwrap_or(0),
        );
        layers.worker_skew = ratio(hi as f64, lo as f64);
        layers.spans.merge(setup_spans);
        layers.rows_to_sequence_ms = rows_to_sequence_ms(&dbs, 5, &mut report);
        probe_selects(kind, &fx_dbs, &mut layers.spans);
        replica_insert_us(&dbs, &mut layers.spans);
        report.layers = layers.metrics();
    }
    report
}

/// Time `Database::select_indexed` over the workload's keys (µs).
fn probe_selects(kind: Kind, dbs: &[Database], spans: &mut Spans) {
    let mut probe = |db: &Database, table: &str, col: &str, v: SqlValue| {
        let cond = vec![(col.to_string(), v)];
        let (r, took) = timed(|| db.select_indexed(table, &cond));
        r.expect("indexed select");
        spans.record("rel.select_indexed_us", took * 1e3);
    };
    match kind {
        Kind::PageQuery => {
            for _ in 0..10 {
                for dept in 0..DEPTS {
                    probe(
                        &dbs[0],
                        "EMPLOYEE",
                        "DeptNo",
                        SqlValue::Str(format!("D{dept}")),
                    );
                }
            }
        }
        _ => {
            for cid in 1..=CUSTOMERS as i64 {
                probe(&dbs[0], "ORDER", "CID", SqlValue::Int(cid));
                probe(&dbs[1], "CREDIT_CARD", "CID", SqlValue::Int(cid));
            }
        }
    }
}

/// 2PC atomicity: every written customer's `LAST_NAME` (db1) and first
/// card's `BRAND` (db2) both hold the last value written to them.
fn check_last_writes(dbs: &[Database], clients: &[Client], report: &mut Report) {
    let mut keys = 0;
    for c in clients {
        for (&cid, &n) in &c.writes {
            keys += 1;
            let by_cid = vec![("CID".to_string(), SqlValue::Int(cid))];
            let cust = dbs[0].select("CUSTOMER", &by_cid).expect("customer select");
            let cards = dbs[1].select("CREDIT_CARD", &by_cid).expect("card select");
            let got = (
                cust.first().map(|r| r[2].lexical()),
                cards.first().map(|r| r[3].lexical()),
            );
            let want = (
                Some(LAST_NAMES[(n - 1) % 4].to_string()),
                Some(BRANDS[(n - 1) % 4].to_string()),
            );
            report.check(got == want, || {
                format!("customer {cid}: sources hold {got:?}, last write was {want:?}")
            });
        }
    }
    report.check(keys > 0, || "no customer was written".to_string());
    report.note(format!("2PC atomicity checked on {keys} written customers"));
}
