//! xqsh — a small driver for XQSE programs.
//!
//! Usage:
//!   xqsh <file.xqse> [--trace] [--xqueryp] [--explain] [--features SPEC] [--doc URI=FILE]...
//!   echo '{ return value 1 + 1; }' | xqsh -
//!   xqsh --repl < lines.xqse
//!   xqsh --serve-bench N [--requests R] [--delay-us D] [--features SPEC] [--explain]
//!
//! Runs the module (expression or block body) and prints the
//! serialized result. `--trace` also prints `fn:trace` output;
//! `--xqueryp` executes in XQueryP sequential mode (the §IV baseline);
//! `--explain` prints the optimizer's hit/miss/invalidation counters
//! (join cache, materialization cache, pushdown rewrites, plan cache,
//! web-service coalescing) plus the XA crash-recovery totals to
//! stderr after the run; `--features SPEC` sets the evaluation layers
//! the engine may use (`xqeval::Features`: `opt`, `join`, `batch`,
//! `graft`, `lazy`), spelled as the enabled names (`opt,join,lazy`),
//! `none`, or removals from the full set (`-lazy,-graft`). It
//! overrides `XQSE_FEATURES`, which sets the same thing for every
//! engine in the process; a bad spec in either is a usage error.
//! `--doc` registers an XML file so `fn:doc("URI")` resolves.
//!
//! In script mode the result is serialized **incrementally**: items
//! are written (and stdout flushed) as the evaluator produces them,
//! so time-to-first-byte of a FLWOR body tracks the first tuple, not
//! the last. A
//! mid-stream error can therefore leave partial output on stdout
//! before the error report on stderr (see DESIGN.md §11).
//!
//! `--repl` reads stdin line by line, evaluating each non-empty line
//! as its own program against one shared engine and context. Repeated
//! lines hit the engine's prepared-plan cache instead of re-parsing —
//! `--explain` after a repeated line shows `plan cache hits` climbing.
//!
//! `--serve-bench N` starts the concurrent serving layer
//! (`aldsp::pool::ServePool`) with N workers over the demo dataspace
//! and replays a closed-loop read workload (`getProfileById` cycling
//! through at most 64 customers, each call paying `--delay-us`
//! microseconds of simulated web-service latency), printing
//! queries/sec. Under the pool, `--explain` prints the **aggregated**
//! per-worker counters as one totals line. `--features` applies to
//! every worker's engine.
//!
//! `--deadline-ms MS` / `--fuel N` attach a per-request budget: in
//! script/repl mode the whole program runs under one budget (real
//! elapsed time); under `--serve-bench` every pool request gets its
//! own. Exhaustion surfaces as the XQSE-catchable errors
//! `aldsp:DEADLINE_EXCEEDED` / `aldsp:FUEL_EXHAUSTED` (see
//! docs/LIMITS.md). `--overload` switches `--serve-bench` to the
//! load-shedding driver: clients submit at 4× pool concurrency
//! without back-pressure and excess arrivals are shed fast with
//! `aldsp:OVERLOADED`; the report line prints
//! offered/completed/shed/cancelled.

use std::io::{BufRead, Read};
use std::process::ExitCode;
use std::rc::Rc;

use xdm::{ErrorCode, XdmError};
use xqeval::{Engine, Env, Features, OptStats};
use xqse::xqueryp::XqueryP;
use xqse::Xqse;

fn usage() -> ExitCode {
    eprintln!(
        "usage: xqsh <file.xqse | - | --repl> [--trace] [--xqueryp] [--explain] \
         [--features SPEC] [--deadline-ms MS] [--fuel N] [--doc URI=FILE]...\n       \
         xqsh --serve-bench N [--requests R] [--delay-us D] [--overload] \
         [--features SPEC] [--deadline-ms MS] [--fuel N] [--explain]\n\
         SPEC: enabled features (opt,join,batch,graft,lazy), `none`, or \
         removals such as `-lazy,-graft`"
    );
    ExitCode::from(2)
}

fn print_explain_stats(s: &OptStats, features: Features) {
    // The feature set and every counter group print unconditionally —
    // zero-valued counters included — so bench scripts can parse the
    // explain block without first guessing which features were
    // engaged on this run.
    eprintln!("explain: features = {features}");
    eprintln!(
        "explain: join cache     hits={} misses={} invalidations={}",
        s.join_hits, s.join_misses, s.join_invalidations
    );
    eprintln!(
        "explain: mat cache      hits={} misses={} invalidations={}",
        s.mat_hits, s.mat_misses, s.mat_invalidations
    );
    eprintln!(
        "explain: pushdown       rewrites={} indexed-selects={} view-unfolds={}",
        s.pushdown_rewrites, s.indexed_selects, s.view_unfolds
    );
    eprintln!(
        "explain: plan cache     hits={} misses={}",
        s.plan_hits, s.plan_misses
    );
    eprintln!(
        "explain: web service    requests={} issued={} coalesced={} batches={}",
        s.ws_requests, s.ws_issued, s.ws_coalesced, s.ws_batches
    );
    eprintln!(
        "explain: xa recovery    runs={} in-doubt={} rolled-forward={} \
         rolled-back={} replays-skipped={}",
        s.xa_recovery_runs,
        s.xa_in_doubt,
        s.xa_rolled_forward,
        s.xa_rolled_back,
        s.xa_replays_skipped
    );
    eprintln!(
        "explain: budgets        shed={} cancelled={} deadline={} fuel={} memory={}",
        s.budget_shed, s.budget_cancelled, s.budget_deadline, s.budget_fuel, s.budget_memory
    );
    eprintln!(
        "explain: xdm            nodes-built={} subtrees-grafted={} \
         deep-copy-nodes-avoided={} interned-hits={}",
        s.nodes_built, s.subtrees_grafted, s.deep_copy_nodes_avoided, s.interned_hits
    );
    eprintln!(
        "explain: streaming      tuples-pulled={} early-exits={} items-never-built={}",
        s.tuples_pulled, s.early_exits, s.items_never_built
    );
}

fn print_explain(engine: &Engine) {
    print_explain_stats(&engine.opt_stats(), engine.features());
}

/// The most customers the `--serve-bench` fixture holds.
const SERVE_CUSTOMERS: usize = 64;

/// The `--serve-bench` mode: the E14 closed-loop throughput driver,
/// or (with `overload`) the E15 load-shedding driver.
#[allow(clippy::too_many_arguments)]
fn serve_bench(
    workers: usize,
    requests: usize,
    delay_us: u64,
    explain: bool,
    overload: bool,
    deadline_ms: Option<u64>,
    fuel: Option<u64>,
    features: Features,
) -> ExitCode {
    use aldsp::demo;
    use aldsp::pool::{
        drive_closed_loop, drive_open_loop, ServeArg, ServePool, ServeRequest, ServeSpec,
    };
    use aldsp::ws::WebService;

    // Requests cycle through at most SERVE_CUSTOMERS customers, so a
    // long request list does not grow the view every request filters.
    // Each request still pays its own round trip: the delayed service
    // caches no responses and every `DataSpace::get` starts a fresh
    // `Env`.
    let customers = requests.clamp(1, SERVE_CUSTOMERS);
    let demo = match demo::build(customers, 1, 1) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xqsh: serve-bench fixture failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (db1, db2) = (demo.db1.clone(), demo.db2.clone());
    let mut spec = ServeSpec::new(workers);
    if overload {
        // Admission control needs a bound to enforce: cap the queue at
        // one waiting request per worker so the 4× offered load
        // actually overflows it and sheds, instead of parking in an
        // effectively unbounded queue.
        spec.queue_capacity = workers.max(1);
    }
    if let Some(ms) = deadline_ms {
        spec = spec.with_deadline_ms(ms);
    }
    if let Some(steps) = fuel {
        spec = spec.with_fuel(steps);
    }
    let pool = ServePool::start(spec, move |_worker| {
        let space = demo::assemble(
            &db1,
            &db2,
            WebService::credit_rating_delayed(demo::CREDIT_TYPES_NS, delay_us),
        );
        if let Ok(s) = &space {
            s.engine().set_features(features);
        }
        space
    });
    let reqs: Vec<ServeRequest> = (0..requests)
        .map(|i| ServeRequest::Get {
            service: "CustomerProfile".to_string(),
            method: "getProfileById".to_string(),
            args: vec![ServeArg::Str((i % customers + 1).to_string())],
        })
        .collect();
    // Overload mode offers 4× the pool's concurrency without
    // back-pressure; the closed loop stays at the E14 shape.
    let clients = if overload { pool.workers() * 4 } else { pool.workers() * 2 };
    let (replies, elapsed) = if overload {
        drive_open_loop(&pool, &reqs, clients)
    } else {
        drive_closed_loop(&pool, &reqs, clients)
    };
    // Budget-governed outcomes (sheds, deadline/fuel/memory
    // terminations, cancels) are expected under overload or tight
    // budgets and are reported via the pool counters, not as errors.
    let budget_outcomes = replies
        .iter()
        .filter(|r| {
            use aldsp::errors::AldspCode as C;
            matches!(
                r.result.as_ref().err().and_then(C::of),
                Some(
                    C::Overloaded
                        | C::DeadlineExceeded
                        | C::FuelExhausted
                        | C::MemoryLimit
                        | C::Cancelled
                )
            )
        })
        .count();
    let errors = replies.iter().filter(|r| r.result.is_err()).count() - budget_outcomes;
    let report = pool.shutdown();
    let qps = replies.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "serve-bench: workers={} clients={} requests={} errors={} elapsed_ms={:.1} qps={:.1}",
        report.workers,
        clients,
        replies.len(),
        errors,
        elapsed.as_secs_f64() * 1e3,
        qps
    );
    // Digest of every reply in request order (FNV-1a over bodies and
    // error codes), so runs under different flags can be checked for
    // byte-identical replies.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for r in &replies {
        let text = match &r.result {
            Ok(body) => body.clone(),
            Err(e) => format!("error {}", e.code),
        };
        for b in text.bytes().chain([0]) {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("serve-bench: replies-digest={digest:016x}");
    if overload {
        // Goodput = completed work per second; sheds fail fast and are
        // reported separately, not as errors.
        let goodput = report.completed as f64 / elapsed.as_secs_f64().max(1e-9);
        println!(
            "serve-bench: mode=overload offered={} completed={} shed={} cancelled={} goodput_qps={:.1}",
            report.offered, report.completed, report.shed, report.cancelled, goodput
        );
    }
    for (i, err) in report.init_errors.iter().enumerate() {
        if let Some(err) = err {
            eprintln!("xqsh: worker {i} failed to initialize: {err}");
        }
    }
    if errors > 0 {
        if let Some(e) = replies.iter().find_map(|r| r.result.as_ref().err()) {
            eprintln!("xqsh: first request error: {e}");
        }
    }
    if explain {
        // Aggregated per-worker counters, one totals block; every
        // worker ran with `features`.
        print_explain_stats(&report.stats, features);
    }
    if errors > 0 || report.init_errors.iter().any(Option::is_some) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    // Every engine reads XQSE_FEATURES and panics on a bad spec; report
    // it as a usage error before building any.
    let mut features = match Features::from_env() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xqsh: {e}");
            return ExitCode::from(2);
        }
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut source_arg: Option<String> = None;
    let mut trace = false;
    let mut sequential = false;
    let mut explain = false;
    let mut repl = false;
    let mut serve_workers: Option<usize> = None;
    let mut serve_requests: usize = 64;
    let mut serve_delay_us: u64 = 2000;
    let mut overload = false;
    let mut deadline_ms: Option<u64> = None;
    let mut fuel: Option<u64> = None;
    let mut docs: Vec<(String, String)> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace = true,
            "--xqueryp" => sequential = true,
            "--explain" => explain = true,
            "--features" => match it.next().map(|spec| Features::parse(&spec)) {
                Some(Ok(f)) => features = f,
                Some(Err(e)) => {
                    eprintln!("xqsh: --features: {e}");
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            "--repl" => repl = true,
            "--overload" => overload = true,
            "--deadline-ms" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => deadline_ms = Some(n),
                _ => return usage(),
            },
            "--fuel" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => fuel = Some(n),
                _ => return usage(),
            },
            "--serve-bench" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => serve_workers = Some(n),
                _ => return usage(),
            },
            "--requests" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => serve_requests = n,
                _ => return usage(),
            },
            "--delay-us" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => serve_delay_us = n,
                _ => return usage(),
            },
            "--doc" => match it.next().and_then(|d| {
                d.split_once('=').map(|(u, f)| (u.to_string(), f.to_string()))
            }) {
                Some(pair) => docs.push(pair),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            other if source_arg.is_none() => source_arg = Some(other.to_string()),
            _ => return usage(),
        }
    }
    if let Some(workers) = serve_workers {
        if source_arg.is_some() || repl || sequential {
            return usage();
        }
        return serve_bench(
            workers,
            serve_requests,
            serve_delay_us,
            explain,
            overload,
            deadline_ms,
            fuel,
            features,
        );
    }
    if overload || (repl && (source_arg.is_some() || sequential)) {
        return usage();
    }

    let engine = Rc::new(Engine::new());
    engine.set_features(features);
    if deadline_ms.is_some() || fuel.is_some() {
        // One budget covers the whole script (or repl session), on
        // real elapsed time.
        let t0 = std::time::Instant::now();
        let clock: xqeval::BudgetClock =
            std::sync::Arc::new(move || t0.elapsed().as_millis() as u64);
        let mut budget = xqeval::Budget::with_clock(clock);
        if let Some(ms) = deadline_ms {
            budget = budget.deadline_in(ms);
        }
        if let Some(steps) = fuel {
            budget = budget.limit_fuel(steps);
        }
        engine.set_budget(Some(std::sync::Arc::new(budget)));
    }
    for (uri, file) in docs {
        let xml = match std::fs::read_to_string(&file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xqsh: cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match xmlparse::parse(&xml) {
            Ok(doc) => engine.register_document(uri, doc),
            Err(e) => {
                eprintln!("xqsh: cannot parse {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if repl {
        // One engine, one context: every line is its own program, but
        // repeated program texts re-execute the cached prepared plan
        // instead of being parsed and prolog-loaded again.
        let xqse = Xqse::with_engine(engine.clone());
        let mut env = Env::new();
        let mut failed = false;
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("xqsh: failed to read stdin: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let program = line.trim();
            if program.is_empty() || program.starts_with('#') {
                continue;
            }
            match xqse.run_with_env(program, &mut env) {
                Ok(seq) => println!("{}", xmlparse::serialize_sequence(&seq)),
                Err(e) => {
                    eprintln!("xqsh: {e}");
                    failed = true;
                }
            }
        }
        if trace {
            for line in env.trace_messages() {
                eprintln!("trace: {line}");
            }
        }
        if explain {
            print_explain(&engine);
        }
        return if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    }

    let Some(path) = source_arg else { return usage() };

    let src = if path == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("xqsh: failed to read stdin");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xqsh: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let mut env = Env::new();
    let status = if sequential {
        // The XQueryP baseline stays fully eager: it is the §IV
        // comparison point, so its output path is the batch one.
        let xp = XqueryP::with_engine(engine.clone());
        match xp.run_with_env(&src, &mut env) {
            Ok(seq) => {
                println!("{}", xmlparse::serialize_sequence(&seq));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xqsh: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        emit_streaming(&Xqse::with_engine(engine.clone()), &src, &mut env)
    };
    if trace {
        for line in env.trace_messages() {
            eprintln!("trace: {line}");
        }
    }
    if explain {
        print_explain(&engine);
    }
    status
}

/// Run `src`, writing each result item to stdout as it is produced and
/// flushing after every item, so the first tuple is visible before the
/// last one is computed. A mid-stream error leaves the already-emitted
/// prefix on stdout and reports the error on stderr — the documented
/// streaming deviation (DESIGN.md §11).
fn emit_streaming(xqse: &Xqse, src: &str, env: &mut Env) -> ExitCode {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut ser = xmlparse::IncrementalSerializer::new();
    let mut wrote = false;
    let run = xqse.run_to_sink(src, env, &mut |item| {
        ser.write_item(&item);
        wrote = true;
        if out.write_all(ser.take_delta().as_bytes()).is_err() || out.flush().is_err() {
            return Err(XdmError::new(ErrorCode::FOER0000, "failed to write stdout"));
        }
        Ok(())
    });
    match run {
        Ok(()) => {
            let _ = out.write_all(b"\n");
            let _ = out.flush();
            ExitCode::SUCCESS
        }
        Err(e) => {
            if wrote {
                // Terminate the partial line before reporting.
                let _ = out.write_all(b"\n");
                let _ = out.flush();
            }
            eprintln!("xqsh: {e}");
            ExitCode::FAILURE
        }
    }
}
