//! E10: resilience-layer overhead on the no-fault hot path.
//!
//! The `Access` handle sits on every source call, so its cost when
//! nothing is installed (pass-through) and when a resilience policy is
//! installed but no faults fire must be negligible — the target is
//! <5% over the seed `bench_getprofile` figure. A third case measures
//! the cost of actually riding out a probabilistic transient storm.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aldsp::{FaultInjector, FaultKind, FaultPlan, FaultRule, Op, Policy, Resilience};
use xqse_bench::demo;

const N: usize = 100;

fn read_once(d: &demo::Demo) -> usize {
    d.space
        .get("CustomerProfile", "getProfile", vec![])
        .expect("get")
        .len()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_resilience");
    g.sample_size(10);

    // Baseline: Access::none() — the seed hot path.
    let passthrough = demo::build(N, 3, 2).expect("demo");
    g.bench_function("passthrough", |b| {
        b.iter(|| black_box(read_once(&passthrough)))
    });

    // Resilience installed, zero faults: pure bookkeeping overhead
    // (breaker admission + success recording per source call).
    let guarded = demo::build(N, 3, 2).expect("demo");
    guarded.space.install_resilience(Resilience::new(Policy::default()));
    g.bench_function("resilience_no_faults", |b| {
        b.iter(|| black_box(read_once(&guarded)))
    });

    // A seeded 10% transient rate on db2 scans: every blip is retried
    // away (virtual-clock backoff, so no real sleeping), and the reads
    // still all succeed.
    let stormy = demo::build(N, 3, 2).expect("demo");
    stormy.space.install_fault_injector(FaultInjector::new(FaultPlan::seeded(42).rule(
        FaultRule::new("db2", Op::Scan, FaultKind::Transient).with_probability(0.10),
    )));
    // A generous retry budget keeps the storm statistically invisible
    // (P[7 consecutive 10% blips] ~ 1e-7 per scan).
    stormy.space.install_resilience(Resilience::new(Policy {
        max_retries: 6,
        ..Policy::default()
    }));
    g.bench_function("transient_storm_p10", |b| {
        b.iter(|| black_box(read_once(&stormy)))
    });

    // PR 8 budget guard, same <5% target: (a) no budget installed —
    // the hot loop pays one Cell read per eval step; (b) a fully
    // armed budget (far-future deadline + fuel ceiling) that never
    // trips — the full bookkeeping path. Compare both against
    // `resilience_no_faults` above.
    let unbudgeted = demo::build(N, 3, 2).expect("demo");
    unbudgeted.space.install_resilience(Resilience::new(Policy::default()));
    g.bench_function("budget_none", |b| {
        b.iter(|| black_box(read_once(&unbudgeted)))
    });

    let budgeted = demo::build(N, 3, 2).expect("demo");
    budgeted.space.install_resilience(Resilience::new(Policy::default()));
    let t0 = std::time::Instant::now();
    let clock: xqeval::BudgetClock =
        std::sync::Arc::new(move || t0.elapsed().as_millis() as u64);
    budgeted.space.engine().set_budget(Some(std::sync::Arc::new(
        xqeval::Budget::with_clock(clock)
            .deadline_in(3_600_000)
            .limit_fuel(u64::MAX / 4),
    )));
    g.bench_function("budget_armed_never_trips", |b| {
        b.iter(|| black_box(read_once(&budgeted)))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
