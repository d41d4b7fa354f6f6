//! The three workloads: `replay`, `live` and `adapt`.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use jarvis_runtime::{
    Envelope, EventKind, FineTuneConfig, OnlineConfig, Outcome, PolicyStore, RuntimeConfig,
    RuntimeSnapshot, ServingRuntime, ShadowGates, SupervisorConfig, SwapPoint,
};
use jarvis_sim::{ChaosInjector, ChaosKind, ChaosPlan, ChaosRule};
use jarvis_stdkit::json::ToJson;
use jarvis_stdkit::pool::WorkerPool;

use crate::check::{bitwise_equal, ratio, Counts, Reenactor};
use crate::fixture::{self, Fixture, Source, Spec, StageTimes};
use crate::openloop::{self, Clock, Tick, WallClock};
use crate::stats::{median, percentile, weighted_percentile, Pct};
use crate::trace::Tracer;
use crate::{alloc, Args, Failure, Report};

/// Homes in the `replay` and `live` fleet.
const FLEET_HOMES: u32 = 64;
/// Learning-phase days each home is onboarded from.
const LEARN_DAYS: u32 = 7;
/// Distinct fleet-days generated in set-up and served in turn.
const POOL_DAYS: u32 = 8;
/// Share of `replay`/`live` decision-query slots carrying an attack.
const FLEET_ATTACK_RATE: f64 = 0.005;
/// The runtime's batching window.
const BATCH_WINDOW: usize = 64;
/// Set-ups per end-to-end run; `setup_s` is the fastest of them, so a
/// burst of load from other tenants of the host inflates only the repeats
/// it lands on.
const SETUP_REPEATS: usize = 5;
/// Leading `replay` segments (fleet-days) left out of the medians.
const WARMUP_SEGMENTS: usize = 3;
/// Leading `replay` segments re-enacted and compared after the run.
const CHECKED_SEGMENTS: usize = 5;
/// Lone decision queries served after each later `replay` segment; their
/// round trip is `replay`'s `latency_p50_ms`.
const REPLAY_PROBES: usize = 16;

/// Simulated minutes per `live` tick.
const TICK_MINUTES: u32 = 15;
/// Wall time between two `live` ticks.
const TICK_INTERVAL_NS: u64 = 2_000_000;
/// Leading `live` ticks (one fleet-day) left out of the medians.
const WARMUP_TICKS: usize = 96;
/// Leading `live` ticks re-enacted and compared after the run.
const CHECKED_TICKS: usize = 192;

/// Homes in the `adapt` fleet.
const ADAPT_HOMES: u32 = 16;
/// `adapt` days generated in set-up: one before the occupant change, then
/// after-change days that are served in turn.
const ADAPT_DAYS: u32 = 12;
/// Share of `adapt` decision-query slots carrying an attack (the fleet is
/// small, so more slots are needed for a steady detection rate).
const ADAPT_ATTACK_RATE: f64 = 0.02;
/// Wall time between the starts of two `adapt` days.
const DAY_INTERVAL_NS: u64 = 1_000_000_000;
/// Leading `adapt` days left out of the medians.
const WARMUP_DAYS: usize = 2;
/// Leading `adapt` days replayed by the uninterrupted oracle (traced run).
/// Lone queries are served only after these days, since the oracle serves
/// the days alone.
const ORACLE_DAYS: usize = 3;
/// Lone decision queries served after each later `adapt` day through the
/// supervised online path; their round trip is `adapt`'s `latency_p50_ms`.
const ADAPT_PROBES: usize = 4;
/// `adapt` days `2, 2 + SWAP_EVERY, …` swap the staged candidate in at the
/// day's first seq (day 2 is inside the oracle's days).
const SWAP_EVERY: usize = 4;
/// Re-serves of one day per variant when the traced `adapt` run splits a
/// day's time between its layers.
const SHARE_REPEATS: usize = 3;
/// Probability that an envelope of an `adapt` day panics its shard once.
const CHAOS_RATE: f64 = 1.0 / 1500.0;

/// Lone queries timed after a `live` run for `runtime.serve_call_us`.
const SERVE_CALLS: usize = 1000;

/// The instant the process started measuring (first call wins).
pub fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Threaded serving with one shard (router + one worker) and blocking
/// backpressure.
fn serving_config(deterministic: bool) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(1);
    config.batch_window = BATCH_WINDOW;
    config.deterministic = deterministic;
    config
}

/// The `adapt` supervisor: the default WAL checkpoint cadence
/// (`SupervisorConfig::default()`, every 64 envelopes per shard) with a
/// restart budget that a whole run's injected panics cannot exhaust.
fn supervisor() -> SupervisorConfig {
    SupervisorConfig {
        restart_budget: 64,
        ..SupervisorConfig::default()
    }
}

/// Build the fixture `SETUP_REPEATS` times (once when tracing) and return
/// the last one with the fastest set-up time in seconds. `finish` runs the
/// workload's own remaining set-up and is timed with it.
fn setup(
    a: &Args,
    spec: &Spec,
    source: impl Fn() -> Source,
    finish: impl Fn(&mut Fixture),
    tr: &mut Tracer,
) -> (Fixture, f64) {
    let reps = if a.trace { 1 } else { SETUP_REPEATS };
    let mut secs = Vec::with_capacity(reps);
    let mut fixture = None;
    for k in 0..reps {
        // The previous fixture is dropped before the clock starts.
        drop(fixture.take());
        let t0 = if k == 0 {
            process_start()
        } else {
            Instant::now()
        };
        let mut f = fixture::build(spec, &source(), tr);
        finish(&mut f);
        secs.push(t0.elapsed().as_secs_f64());
        fixture = Some(f);
    }
    eprintln!("e2ebench: set-ups took {secs:.3?} s");
    let fastest = secs.iter().copied().fold(f64::INFINITY, f64::min);
    (fixture.expect("at least one set-up"), fastest)
}

fn incorrect(counts: &Counts, why: String) -> Failure {
    Failure::Incorrect {
        attempted: counts.submitted,
        failed: counts.failed,
        why,
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An empty report accounting for everything `counts` saw submitted.
fn report_for(counts: &Counts) -> Report {
    Report {
        attempted: counts.submitted,
        failed: counts.failed,
        metrics: Vec::new(),
    }
}

/// The end-to-end metrics every workload reports.
fn e2e_report(setup_s: f64, rate: Pct, latency_ms: Pct, counts: &Counts) -> Report {
    let mut r = report_for(counts);
    r.push("setup_s", setup_s, "s");
    r.push_pct("events_per_s", rate, "ev/s");
    r.push_pct("latency_p50_ms", latency_ms, "ms");
    r.push("detection_rate", counts.detection_rate(), "fraction");
    r.push("peak_rss_mb", peak_rss_mb(), "MB");
    r
}

/// Per-layer figures of a traced run; layers a workload does not exercise
/// stay 0.
#[derive(Debug, Default)]
struct Layers {
    setup: StageTimes,
    serve_ns_per_event: f64,
    serve_call_us: f64,
    det_serve_ns_per_event: f64,
    rejected: u64,
    allocs_per_event: f64,
    step_ns: f64,
    psafe_check_ns: f64,
    valid_set_ns: f64,
    encode_ns: f64,
    q_batch_ns_per_row: f64,
    rank_walk_ns_per_row: f64,
    rank_skipped_mean: f64,
    unattributed_share: f64,
    overhead_share: f64,
    folds: u64,
    admitted: u64,
    checkpoints: u64,
    restarts: u64,
    fallback_share: f64,
    fine_tune_ms: f64,
    promote_ms: f64,
    checkpoint_share: f64,
    learn_share: f64,
    fine_tune_share: f64,
    serve_share: f64,
    swaps: u64,
    snapshot_ms: f64,
    snapshot_kb: f64,
    latency_p99_ms: Pct,
    lag_p99_ms: Pct,
    ticks: u64,
}

/// The traced run's set-up figures, with the simulator's share of ingest
/// timed after set-up.
fn traced_layers(f: &Fixture, spec: &Spec, source: &Source, tr: &mut Tracer) -> Layers {
    let mut setup = f.times.clone();
    setup.activity_ns = fixture::activity_ns(spec, source, tr);
    Layers {
        setup,
        ..Layers::default()
    }
}

fn layer_report(l: &Layers, counts: &Counts) -> Report {
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_event = |ns: u64| ns as f64 / l.setup.ingest_events.max(1) as f64;
    let mut r = report_for(counts);
    r.push("smart-home.log_parse_ms", ms(l.setup.log_parse_ns), "ms");
    r.push("policy.spl_ms", ms(l.setup.spl_ns), "ms");
    r.push("core.dqn_train_ms", ms(l.setup.dqn_train_ns), "ms");
    r.push("runtime.register_ms", ms(l.setup.register_ns), "ms");
    r.push("sim.generate_ms", ms(l.setup.generate_ns), "ms");
    r.push(
        "policy.false_alarm_rate",
        counts.false_alarm_rate(),
        "fraction",
    );
    r.push("runtime.serve_ns_per_event", l.serve_ns_per_event, "ns");
    r.push("runtime.serve_call_us", l.serve_call_us, "us");
    r.push(
        "runtime.det_serve_ns_per_event",
        l.det_serve_ns_per_event,
        "ns",
    );
    r.push("runtime.rejected", l.rejected as f64, "count");
    r.push("serve.allocs_per_event", l.allocs_per_event, "count");
    r.push("iot-model.step_ns", l.step_ns, "ns");
    r.push("policy.psafe_check_ns", l.psafe_check_ns, "ns");
    r.push("policy.valid_set_ns", l.valid_set_ns, "ns");
    r.push("core.encode_ns", l.encode_ns, "ns");
    r.push("rl.q_batch_ns_per_row", l.q_batch_ns_per_row, "ns");
    r.push("runtime.rank_walk_ns_per_row", l.rank_walk_ns_per_row, "ns");
    r.push("rl.rank_skipped_mean", l.rank_skipped_mean, "count");
    r.push(
        "runtime.unattributed_share",
        l.unattributed_share,
        "fraction",
    );
    r.push("trace.overhead_share", l.overhead_share, "fraction");
    r.push(
        "runtime.ingest_ns_per_event",
        per_event(l.setup.ingest_ns),
        "ns",
    );
    r.push(
        "sim.activity_ns_per_event",
        per_event(l.setup.activity_ns),
        "ns",
    );
    r.push("online.folds", l.folds as f64, "count");
    r.push("online.admitted", l.admitted as f64, "count");
    r.push("online.admit_ratio", ratio(l.admitted, l.folds), "fraction");
    r.push("supervisor.checkpoints", l.checkpoints as f64, "count");
    r.push("supervisor.restarts", l.restarts as f64, "count");
    r.push("supervisor.fallback_share", l.fallback_share, "fraction");
    r.push("runtime.fine_tune_ms", l.fine_tune_ms, "ms");
    r.push("runtime.promote_ms", l.promote_ms, "ms");
    r.push(
        "supervisor.checkpoint_share",
        l.checkpoint_share,
        "fraction",
    );
    r.push("online.learn_share", l.learn_share, "fraction");
    r.push("runtime.fine_tune_share", l.fine_tune_share, "fraction");
    r.push("runtime.serve_share", l.serve_share, "fraction");
    r.push("policy_store.swaps", l.swaps as f64, "count");
    r.push("runtime.snapshot_ms", l.snapshot_ms, "ms");
    r.push("runtime.snapshot_kb", l.snapshot_kb, "KiB");
    r.push_pct("live.latency_p99_ms", l.latency_p99_ms, "ms");
    r.push_pct("live.generator_lag_p99_ms", l.lag_p99_ms, "ms");
    r.push("live.ticks", l.ticks as f64, "count");
    r
}

/// Write the recorded spans next to the benchmark's sources.
fn write_spans(a: &Args, tr: &Tracer) {
    let dir = std::path::Path::new("e2ebench").join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json_lines()));
    match written {
        Ok(()) => eprintln!(
            "e2ebench: {} spans written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
    }
}

/// One served call that is kept for the post-run checks.
struct Kept {
    day: usize,
    range: std::ops::Range<usize>,
    base: u64,
    outcomes: Vec<Outcome>,
    ns: u64,
}

/// Re-enact the kept calls through the layers' public functions; calls
/// from `traced_from` on are recorded as spans in `tr`. Returns the wall
/// time of the calls from `traced_from` on.
fn reenact(f: &Fixture, kept: &[Kept], traced_from: usize, tr: &mut Tracer) -> Result<u64, String> {
    let mut re = Reenactor::new(&f.home, &f.tables, fixture::deployed_mode(), BATCH_WINDOW);
    let mut off = Tracer::new(false);
    let mut timed = 0u64;
    for (i, k) in kept.iter().enumerate() {
        let envelopes = f.days[k.day].sequenced(k.range.clone(), k.base);
        let t0 = Instant::now();
        let sink = if i >= traced_from { &mut *tr } else { &mut off };
        re.serve(&f.policy, &envelopes, &k.outcomes, sink, i as u64)?;
        if i >= traced_from {
            timed += ns(t0.elapsed());
        }
    }
    Ok(timed)
}

/// Serve the kept calls again in deterministic mode (single-threaded, the
/// same call boundaries) and require bitwise-equal outcomes. Returns the
/// serve time and the allocations made inside the serve calls.
fn deterministic_replay(
    f: &Fixture,
    kept: &[Kept],
    tr: &mut Tracer,
) -> Result<(u64, u64, u64), String> {
    let mut det = fixture::register(&f.home, &f.tables, &f.policy, &serving_config(true));
    let mut serve_ns = 0u64;
    let mut allocs = 0u64;
    let mut events = 0u64;
    for k in kept {
        let envelopes = f.days[k.day].sequenced(k.range.clone(), k.base);
        events += envelopes.len() as u64;
        let span = tr.begin("runtime.det_serve", k.base);
        let t0 = Instant::now();
        let (report, n) = alloc::count(|| det.serve(envelopes));
        serve_ns += ns(t0.elapsed());
        tr.end(span);
        allocs += n;
        let report = report.map_err(|e| format!("deterministic serve: {e}"))?;
        if !bitwise_equal(&report.outcomes, &k.outcomes) {
            return Err(format!(
                "threaded outcomes differ from deterministic mode at base seq {}",
                k.base
            ));
        }
    }
    Ok((serve_ns, allocs, events))
}

/// The traced serving layers: re-enactment spans reconciled against the
/// runtime's serve time for the same calls, plus the untraced baselines.
fn serving_layers(
    f: &Fixture,
    kept: &[Kept],
    warm: usize,
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<(), String> {
    let plain_ns = reenact(f, kept, warm, &mut Tracer::new(false))?;
    let traced_ns = reenact(f, kept, warm, tr)?;
    l.overhead_share = traced_ns as f64 / plain_ns.max(1) as f64 - 1.0;
    let layers = tr.layers();
    let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let step = get("iot-model.step");
    let check = get("policy.psafe_check");
    let valid = get("policy.valid_set");
    let encode = get("core.encode");
    let batch = get("rl.q_batch");
    let walk = get("runtime.rank_walk");
    let rows = encode.count.max(1) as f64;
    l.step_ns = step.mean_self_ns();
    l.psafe_check_ns = check.mean_self_ns();
    l.valid_set_ns = valid.mean_self_ns();
    l.encode_ns = encode.mean_self_ns();
    l.q_batch_ns_per_row = batch.self_ns as f64 / rows;
    l.rank_walk_ns_per_row = walk.self_ns as f64 / rows;
    let layer_ns = step.self_ns
        + check.self_ns
        + valid.self_ns
        + encode.self_ns
        + batch.self_ns
        + walk.self_ns;
    let serve_ns: u64 = kept[warm..].iter().map(|k| k.ns).sum();
    l.unattributed_share = 1.0 - layer_ns as f64 / serve_ns.max(1) as f64;

    let (det_ns, allocs, events) = deterministic_replay(f, kept, tr)?;
    l.det_serve_ns_per_event = det_ns as f64 / events.max(1) as f64;
    l.allocs_per_event = allocs as f64 / events.max(1) as f64;
    Ok(())
}

/// A decision query arriving alone: `n` one-event calls through `serve`,
/// sequenced from `base` over `homes` homes and tallied in `counts`.
/// Returns each call's round trip in ms.
fn lone_queries(
    n: usize,
    homes: u64,
    base: u64,
    counts: &mut Counts,
    tr: &mut Tracer,
    mut serve: impl FnMut(Vec<Envelope>) -> Result<(Vec<Outcome>, usize), String>,
) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(n);
    for seq in base..base + n as u64 {
        let query = Envelope {
            seq: 0,
            home: seq % homes,
            minute: 720,
            kind: EventKind::Query {
                indoor_c: 21.0,
                outdoor_c: 15.0,
                price_per_kwh: 0.12,
            },
        };
        let events = vec![Envelope {
            seq,
            ..query.clone()
        }];
        let span = tr.begin("runtime.serve_call", seq);
        let t0 = Instant::now();
        let served = serve(events);
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        tr.end(span);
        let (outcomes, rejected) = served.inspect_err(|_| {
            counts.submitted += 1;
            counts.failed += 1;
        })?;
        counts.tally(&[query], &[false], seq, &outcomes, rejected)?;
    }
    Ok(samples)
}

/// `serve`, as the outcomes and the number of rejected events.
fn serve_plain(
    rt: &mut ServingRuntime,
    events: Vec<Envelope>,
) -> Result<(Vec<Outcome>, usize), String> {
    rt.serve(events)
        .map(|r| (r.outcomes, r.rejected.len()))
        .map_err(|e| format!("serve: {e}"))
}

fn fleet_spec(a: &Args) -> Spec {
    Spec {
        seed: a.seed,
        learn_days: LEARN_DAYS,
        serve_days: POOL_DAYS,
        attack_rate: FLEET_ATTACK_RATE,
        config: serving_config(false),
    }
}

/// Offline fleet replay: one `serve` call per fleet-day, back to back,
/// with a few lone decision queries between later fleet-days.
pub fn replay(a: &Args) -> Result<Report, Failure> {
    let mut tr = Tracer::new(a.trace);
    let (mut f, setup_s) = setup(
        a,
        &fleet_spec(a),
        || Source::fleet(a.seed, FLEET_HOMES),
        |_| {},
        &mut tr,
    );

    let mut counts = Counts::default();
    let mut rates = Vec::new();
    let mut probe_ms = Vec::new();
    let mut kept = Vec::new();
    let mut base = 0u64;
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    let mut seg = 0usize;
    while seg < CHECKED_SEGMENTS || Instant::now() < deadline {
        let d = seg % f.days.len();
        let day = &f.days[d];
        let len = day.envelopes.len();
        let events = day.sequenced(0..len, base);
        let span = tr.begin("runtime.serve", seg as u64);
        let t0 = Instant::now();
        let served = f.runtime.serve(events);
        let elapsed = ns(t0.elapsed());
        tr.end(span);
        let report = served.map_err(|e| {
            counts.submitted += len as u64;
            counts.failed += len as u64;
            incorrect(&counts, format!("serve: {e}"))
        })?;
        counts
            .tally(
                &day.envelopes,
                &day.attack,
                base,
                &report.outcomes,
                report.rejected.len(),
            )
            .map_err(|e| incorrect(&counts, e))?;
        if seg >= WARMUP_SEGMENTS {
            rates.push(len as f64 / (elapsed as f64 / 1e9));
        }
        if seg < CHECKED_SEGMENTS {
            kept.push(Kept {
                day: d,
                range: 0..len,
                base,
                outcomes: report.outcomes,
                ns: elapsed,
            });
        }
        base += len as u64;
        // The checked segments are re-served without the lone queries, so
        // these start after them.
        if seg >= CHECKED_SEGMENTS {
            let homes = u64::from(FLEET_HOMES);
            let rt = &mut f.runtime;
            let probes = lone_queries(REPLAY_PROBES, homes, base, &mut counts, &mut tr, |ev| {
                serve_plain(rt, ev)
            })
            .map_err(|e| incorrect(&counts, e))?;
            probe_ms.extend(probes);
            base += REPLAY_PROBES as u64;
        }
        seg += 1;
    }
    counts.guard().map_err(Failure::Degenerate)?;

    if !a.trace {
        reenact(&f, &kept, kept.len(), &mut Tracer::new(false))
            .map_err(|e| incorrect(&counts, e))?;
        deterministic_replay(&f, &kept, &mut Tracer::new(false))
            .map_err(|e| incorrect(&counts, e))?;
        return Ok(e2e_report(
            setup_s,
            median(&rates),
            median(&probe_ms),
            &counts,
        ));
    }

    let mut l = traced_layers(
        &f,
        &fleet_spec(a),
        &Source::fleet(a.seed, FLEET_HOMES),
        &mut tr,
    );
    serving_layers(&f, &kept, WARMUP_SEGMENTS, &mut tr, &mut l)
        .map_err(|e| incorrect(&counts, e))?;
    l.serve_ns_per_event = 1e9 / median(&rates).value;
    l.serve_call_us = median(&probe_ms).value * 1e3;
    l.rejected = counts.rejected;
    l.rank_skipped_mean = ratio(counts.rank_sum, counts.decisions);
    write_spans(a, &tr);
    Ok(layer_report(&l, &counts))
}

/// Open loop on the same fleet: 15-minute ticks sent on a fixed schedule.
pub fn live(a: &Args) -> Result<Report, Failure> {
    let mut tr = Tracer::new(a.trace);
    let (mut f, setup_s) = setup(
        a,
        &fleet_spec(a),
        || Source::fleet(a.seed, FLEET_HOMES),
        |_| {},
        &mut tr,
    );

    // Tick boundaries of every pooled day, and each day's seq offset in one
    // pass over the pool.
    let mut ticks: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    let mut offsets = Vec::with_capacity(f.days.len());
    let mut pool_events = 0u64;
    for (d, day) in f.days.iter().enumerate() {
        offsets.push(pool_events);
        pool_events += day.envelopes.len() as u64;
        let mut start = 0usize;
        for t in 0..jarvis_sim::MINUTES_PER_DAY / TICK_MINUTES {
            let end = day
                .envelopes
                .partition_point(|e| e.minute < (t + 1) * TICK_MINUTES);
            ticks.push((d, start..end));
            start = end;
        }
    }
    let base_of = |k: usize| {
        let (d, _) = &ticks[k % ticks.len()];
        (k / ticks.len()) as u64 * pool_events + offsets[*d]
    };

    let planned =
        usize::try_from(a.seconds * 1_000_000_000 / TICK_INTERVAL_NS).unwrap_or(usize::MAX);
    let planned = planned.max(CHECKED_TICKS + 1);
    let give_up = Instant::now() + Duration::from_secs(3 * a.seconds);
    let mut counts = Counts::default();
    let mut kept: Vec<Kept> = Vec::new();
    let mut error: Option<String> = None;
    let mut clock = WallClock::new();
    let days = &f.days;
    let rt = &mut f.runtime;
    let record: Vec<Tick> = openloop::run(
        &mut clock,
        TICK_INTERVAL_NS,
        planned,
        |k| {
            let (d, range) = &ticks[k % ticks.len()];
            days[*d].sequenced(range.clone(), base_of(k))
        },
        |k, events| {
            if error.is_some() || Instant::now() > give_up {
                return None;
            }
            let (d, range) = &ticks[k % ticks.len()];
            let len = events.len();
            let span = tr.begin("runtime.serve", k as u64);
            let t0 = Instant::now();
            let served = rt.serve(events);
            let elapsed = ns(t0.elapsed());
            tr.end(span);
            let day = &days[*d];
            let outcome = served
                .map_err(|e| format!("serve: {e}"))
                .and_then(|report| {
                    counts.tally(
                        &day.envelopes[range.clone()],
                        &day.attack[range.clone()],
                        base_of(k),
                        &report.outcomes,
                        report.rejected.len(),
                    )?;
                    Ok(report.outcomes)
                });
            match outcome {
                Ok(outcomes) => {
                    if k < CHECKED_TICKS {
                        kept.push(Kept {
                            day: *d,
                            range: range.clone(),
                            base: base_of(k),
                            outcomes,
                            ns: elapsed,
                        });
                    }
                    Some(len)
                }
                Err(e) => {
                    counts.submitted += len as u64;
                    counts.failed += len as u64;
                    error = Some(e);
                    None
                }
            }
        },
    );
    if let Some(e) = error {
        return Err(incorrect(&counts, e));
    }
    if record.len() <= WARMUP_TICKS {
        return Err(incorrect(
            &counts,
            format!("only {} ticks served", record.len()),
        ));
    }
    counts.guard().map_err(Failure::Degenerate)?;

    let steady = &record[WARMUP_TICKS..];
    let rates: Vec<f64> = steady
        .iter()
        .filter(|t| t.events > 0)
        .map(|t| t.events as f64 / (t.call_ns() as f64 / 1e9))
        .collect();
    let latency: Vec<(f64, usize)> = steady
        .iter()
        .map(|t| (t.latency_ns() as f64 / 1e6, t.events))
        .collect();

    if !a.trace {
        reenact(&f, &kept, kept.len(), &mut Tracer::new(false))
            .map_err(|e| incorrect(&counts, e))?;
        deterministic_replay(&f, &kept, &mut Tracer::new(false))
            .map_err(|e| incorrect(&counts, e))?;
        return Ok(e2e_report(
            setup_s,
            median(&rates),
            weighted_percentile(&latency, 0.5),
            &counts,
        ));
    }

    let mut l = traced_layers(
        &f,
        &fleet_spec(a),
        &Source::fleet(a.seed, FLEET_HOMES),
        &mut tr,
    );
    serving_layers(&f, &kept, WARMUP_TICKS, &mut tr, &mut l).map_err(|e| incorrect(&counts, e))?;
    let events: usize = steady.iter().map(|t| t.events).sum();
    let call_ns: u64 = steady.iter().map(Tick::call_ns).sum();
    l.serve_ns_per_event = call_ns as f64 / events.max(1) as f64;
    let next = base_of(record.len());
    let rt = &mut f.runtime;
    let calls = lone_queries(
        SERVE_CALLS,
        u64::from(FLEET_HOMES),
        next,
        &mut counts,
        &mut tr,
        |ev| serve_plain(rt, ev),
    )
    .map_err(|e| incorrect(&counts, e))?;
    l.serve_call_us = median(&calls).value * 1e3;
    l.rejected = counts.rejected;
    l.rank_skipped_mean = ratio(counts.rank_sum, counts.decisions);
    l.latency_p99_ms = weighted_percentile(&latency, 0.99);
    let lags: Vec<f64> = steady.iter().map(|t| t.lag_ns() as f64 / 1e6).collect();
    l.lag_p99_ms = percentile(&lags, 0.99);
    l.ticks = record.len() as u64;
    write_spans(a, &tr);
    Ok(layer_report(&l, &counts))
}

/// The `adapt` fleet: households that switch occupants after the first
/// served day.
fn adapt_source(a: &Args) -> Source {
    Source::drift(a.seed, ADAPT_HOMES, LEARN_DAYS + 1)
}

/// The continual-learning settings of the `adapt` runtime.
fn online_config() -> OnlineConfig {
    OnlineConfig {
        support_threshold: 2,
        ..OnlineConfig::default()
    }
}

/// Turn continual learning on and attach every home's optimizer
/// checkpoint — the last step of the `adapt` set-up.
fn enable_learning(f: &mut Fixture) {
    learn_online(&mut f.runtime, f.tables.len(), &f.checkpoint);
}

/// Continual learning on `rt`, with the optimizer checkpoint attached to
/// each of its `homes` homes.
fn learn_online(rt: &mut ServingRuntime, homes: usize, checkpoint: &str) {
    rt.enable_online(online_config(), ShadowGates::default())
        .expect("online learning config");
    for h in 0..homes {
        rt.attach_checkpoint(h as u64, checkpoint.to_owned())
            .expect("registered home");
    }
}

/// The pooled day served as `adapt` day `k`: the before-change day once,
/// then the after-change days in turn.
fn adapt_day(k: usize, pool: usize) -> usize {
    if k < pool {
        k
    } else {
        1 + (k - 1) % (pool - 1)
    }
}

/// What one `adapt` day returned, kept for the oracle comparison.
struct AdaptDay {
    day: usize,
    base: u64,
    swaps: Vec<SwapPoint>,
    outcomes: Vec<Outcome>,
    tuned: jarvis_runtime::FineTuneReport,
    promoted: bool,
}

/// The swap plan of `adapt` day `k` starting at `at_seq`: on swap days, the
/// staged candidate serves the whole day.
fn swap_plan(rt: &ServingRuntime, k: usize, at_seq: u64) -> Vec<SwapPoint> {
    let staged = rt.policy_store().and_then(PolicyStore::candidate);
    match staged {
        Some(version) if k % SWAP_EVERY == 2 => vec![SwapPoint { at_seq, version }],
        _ => Vec::new(),
    }
}

/// Serve one `adapt` day through the supervised online path under the
/// day's swap plan, then try to promote and fine-tune: the day's timed work.
fn adapt_step(
    rt: &mut ServingRuntime,
    pool: &WorkerPool,
    events: Vec<Envelope>,
    chaos: Option<&jarvis_sim::ChaosSchedule>,
    swaps: &[SwapPoint],
    tr: &mut Tracer,
    id: u64,
) -> Result<
    (
        jarvis_runtime::SupervisedReport,
        jarvis_runtime::FineTuneReport,
        bool,
        [u64; 3],
    ),
    String,
> {
    let t0 = Instant::now();
    let span = tr.begin("runtime.serve_online_supervised", id);
    let report = rt
        .serve_online_supervised(events, &supervisor(), chaos, swaps)
        .map_err(|e| format!("supervised serve: {e}"))?;
    tr.end(span);
    // The candidate staged yesterday was shadow-scored by today's traffic:
    // promote it if it clears the gates (it serves from tomorrow's first
    // seq), then stage a new candidate from today's deltas.
    let t1 = Instant::now();
    let span = tr.begin("runtime.try_promote", id);
    let promoted = rt
        .try_promote()
        .map_err(|e| format!("try_promote: {e}"))?
        .is_some();
    tr.end(span);
    let t2 = Instant::now();
    let span = tr.begin("runtime.fine_tune", id);
    let tuned = rt
        .fine_tune(pool, &FineTuneConfig::default())
        .map_err(|e| format!("fine_tune: {e}"))?;
    tr.end(span);
    let t3 = Instant::now();
    Ok((
        report,
        tuned,
        promoted,
        [ns(t1 - t0), ns(t3 - t2), ns(t2 - t1)],
    ))
}

/// `serve_online_supervised` without chaos or swaps, as the outcomes and
/// the number of rejected events.
fn serve_supervised_plain(
    rt: &mut ServingRuntime,
    events: Vec<Envelope>,
) -> Result<(Vec<Outcome>, usize), String> {
    rt.serve_online_supervised(events, &supervisor(), None, &[])
        .map(|r| (r.report.outcomes, r.report.rejected.len()))
        .map_err(|e| format!("supervised serve: {e}"))
}

/// Median time, ms, of serving `events` under `sup` on `rt` restored from
/// `snap` each time: online and supervised when `online`, else supervised
/// only.
fn reserve_ms(
    rt: &mut ServingRuntime,
    snap: &RuntimeSnapshot,
    events: &[Envelope],
    sup: &SupervisorConfig,
    online: bool,
) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(SHARE_REPEATS);
    for _ in 0..SHARE_REPEATS {
        rt.restore(snap).map_err(|e| format!("restore: {e}"))?;
        let events = events.to_vec();
        let t0 = Instant::now();
        let served = if online {
            rt.serve_online_supervised(events, sup, None, &[])
        } else {
            rt.serve_supervised(events, sup, None)
        };
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        served.map_err(|e| format!("re-served day: {e}"))?;
    }
    Ok(median(&ms).value)
}

/// Split an `adapt` day's time between its layers. The day `events` is
/// served again from the state in `snap` three ways: as in the run, with
/// no WAL checkpoint after the first, and with no checkpoint and no online
/// learning (folds, shadow scoring, replay deltas). Fine-tuning and
/// promotion are the run's medians.
fn adapt_shares(
    f: &mut Fixture,
    snap: &RuntimeSnapshot,
    events: &[Envelope],
    l: &mut Layers,
) -> Result<(), String> {
    let no_checkpoints = SupervisorConfig {
        checkpoint_every: u64::MAX,
        ..supervisor()
    };
    let full = reserve_ms(&mut f.runtime, snap, events, &supervisor(), true)?;
    let unlogged = reserve_ms(&mut f.runtime, snap, events, &no_checkpoints, true)?;
    let mut offline_snap = snap.clone();
    offline_snap.online = None;
    offline_snap.store = None;
    for home in &mut offline_snap.homes {
        home.online = None;
    }
    let mut offline = fixture::register(&f.home, &f.tables, &f.policy, &serving_config(false));
    let plain = reserve_ms(&mut offline, &offline_snap, events, &no_checkpoints, false)?;
    let day = full + l.fine_tune_ms + l.promote_ms;
    l.checkpoint_share = (full - unlogged) / day;
    l.learn_share = (unlogged - plain) / day;
    l.serve_share = plain / day;
    l.fine_tune_share = l.fine_tune_ms / day;
    Ok(())
}

/// Writes beside reads: supervised online serving of a drifting fleet with
/// rare injected panics, scheduled policy swaps, and fine-tuning and
/// promotion at every day boundary.
pub fn adapt(a: &Args) -> Result<Report, Failure> {
    let mut tr = Tracer::new(a.trace);
    let spec = Spec {
        seed: a.seed,
        learn_days: LEARN_DAYS,
        serve_days: ADAPT_DAYS,
        attack_rate: ADAPT_ATTACK_RATE,
        config: serving_config(false),
    };
    let (mut f, setup_s) = setup(a, &spec, || adapt_source(a), enable_learning, &mut tr);
    let pool = WorkerPool::with_workers(1);

    let mut counts = Counts::default();
    let mut rates = Vec::new();
    let mut probe_ms = Vec::new();
    let mut serve_ns = Vec::new();
    let mut tune_ms = Vec::new();
    let mut promote_ms = Vec::new();
    let mut kept: Vec<AdaptDay> = Vec::new();
    let (mut checkpoints, mut restarts, mut fallback) = (0u64, 0u64, 0u64);
    let mut base = 0u64;
    // Days arrive on a fixed schedule, so every run serves the same days
    // (and grows the policy store by the same versions) in about
    // `--seconds`; each day's work is timed on its own.
    let planned =
        usize::try_from(a.seconds * 1_000_000_000 / DAY_INTERVAL_NS).unwrap_or(usize::MAX);
    let planned = planned.max(WARMUP_DAYS.max(ORACLE_DAYS) + 1);
    let mut clock = WallClock::new();
    let start = clock.now_ns();
    for k in 0..planned {
        let d = adapt_day(k, f.days.len());
        let day = &f.days[d];
        let len = day.envelopes.len();
        let events = day.sequenced(0..len, base);
        let plan = ChaosPlan {
            seed: a.seed ^ (k as u64).wrapping_mul(0x9E37_79B9),
            rules: vec![
                ChaosRule::every_kth(ChaosKind::Panic { attempts: 1 }, 1).with_rate(CHAOS_RATE)
            ],
        };
        let chaos = ChaosInjector::new(plan)
            .expect("valid chaos plan")
            .schedule(events.iter().map(|e| e.seq).collect::<Vec<_>>());
        let swaps = swap_plan(&f.runtime, k, base);
        clock.wait_until(start + k as u64 * DAY_INTERVAL_NS);
        let (report, tuned, promoted, times) = adapt_step(
            &mut f.runtime,
            &pool,
            events,
            Some(&chaos),
            &swaps,
            &mut tr,
            k as u64,
        )
        .map_err(|e| {
            counts.submitted += len as u64;
            counts.failed += len as u64;
            incorrect(&counts, e)
        })?;
        counts
            .tally(
                &day.envelopes,
                &day.attack,
                base,
                &report.report.outcomes,
                report.report.rejected.len(),
            )
            .map_err(|e| incorrect(&counts, e))?;
        checkpoints += report.recovery.checkpoints;
        restarts += report.recovery.restarts.len() as u64;
        fallback += report.recovery.fallback_decisions;
        if k >= WARMUP_DAYS {
            let day_ns: u64 = times.iter().sum();
            rates.push(len as f64 / (day_ns as f64 / 1e9));
            serve_ns.push(times[0] as f64 / len as f64);
            tune_ms.push(times[1] as f64 / 1e6);
            promote_ms.push(times[2] as f64 / 1e6);
        }
        if a.trace && k < ORACLE_DAYS {
            kept.push(AdaptDay {
                day: d,
                base,
                swaps,
                outcomes: report.report.outcomes,
                tuned,
                promoted,
            });
        }
        base += len as u64;
        if k >= ORACLE_DAYS {
            let rt = &mut f.runtime;
            let homes = u64::from(ADAPT_HOMES);
            let probes = lone_queries(ADAPT_PROBES, homes, base, &mut counts, &mut tr, |ev| {
                serve_supervised_plain(rt, ev)
            })
            .map_err(|e| incorrect(&counts, e))?;
            probe_ms.extend(probes);
            base += ADAPT_PROBES as u64;
        }
    }
    counts.guard().map_err(Failure::Degenerate)?;
    if !a.trace {
        return Ok(e2e_report(
            setup_s,
            median(&rates),
            median(&probe_ms),
            &counts,
        ));
    }

    // The uninterrupted oracle: the same days, deterministic, no chaos.
    let mut oracle = fixture::register(&f.home, &f.tables, &f.policy, &serving_config(true));
    learn_online(&mut oracle, f.tables.len(), &f.checkpoint);
    let mut off = Tracer::new(false);
    for (k, day) in kept.iter().enumerate() {
        let src = &f.days[day.day];
        let events = src.sequenced(0..src.envelopes.len(), day.base);
        let swaps = swap_plan(&oracle, k, day.base);
        let (report, tuned, promoted, _) =
            adapt_step(&mut oracle, &pool, events, None, &swaps, &mut off, 0)
                .map_err(|e| incorrect(&counts, e))?;
        if swaps != day.swaps
            || !bitwise_equal(&report.report.outcomes, &day.outcomes)
            || tuned != day.tuned
            || promoted != day.promoted
        {
            return Err(incorrect(
                &counts,
                format!(
                    "supervised day at base seq {} differs from the uninterrupted oracle",
                    day.base
                ),
            ));
        }
    }

    let mut l = traced_layers(&f, &spec, &adapt_source(a), &mut tr);
    l.serve_ns_per_event = median(&serve_ns).value;
    l.serve_call_us = median(&probe_ms).value * 1e3;
    l.rejected = counts.rejected;
    l.rank_skipped_mean = ratio(counts.rank_sum, counts.decisions);
    for h in 0..f.tables.len() as u64 {
        if let Some(learner) = f.runtime.slot(h).and_then(|s| s.online()) {
            l.folds += learner.folds;
            l.admitted += learner.admitted;
        }
    }
    l.checkpoints = checkpoints;
    l.restarts = restarts;
    l.fallback_share = ratio(fallback, counts.decisions);
    l.fine_tune_ms = median(&tune_ms).value;
    l.promote_ms = median(&promote_ms).value;
    l.swaps = f
        .runtime
        .policy_store()
        .map_or(0, |s| s.swaps().len() as u64);
    let span = tr.begin("runtime.snapshot", planned as u64);
    let t0 = Instant::now();
    let snap = f.runtime.snapshot();
    let bytes = snap.to_json().len();
    l.snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.end(span);
    l.snapshot_kb = bytes as f64 / 1024.0;
    let next = &f.days[adapt_day(planned, f.days.len())];
    let events = next.sequenced(0..next.envelopes.len(), base);
    adapt_shares(&mut f, &snap, &events, &mut l).map_err(|e| incorrect(&counts, e))?;
    write_spans(a, &tr);
    Ok(layer_report(&l, &counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deterministic counts of a short `adapt`-style run: a small
    /// drifting fleet served threaded and supervised, with chaos, online
    /// learning, fine-tuning and promotion at every day boundary.
    fn counts_of_a_short_run(seed: u64) -> (Counts, u64, u64, usize) {
        let spec = Spec {
            seed,
            learn_days: 2,
            serve_days: 3,
            attack_rate: 0.05,
            config: serving_config(false),
        };
        let mut f = fixture::build(&spec, &Source::drift(seed, 3, 3), &mut Tracer::new(false));
        enable_learning(&mut f);
        let pool = WorkerPool::with_workers(1);
        let mut counts = Counts::default();
        let mut base = 0u64;
        for k in 0..5 {
            let day = &f.days[adapt_day(k, f.days.len())];
            let events = day.sequenced(0..day.envelopes.len(), base);
            let plan = ChaosPlan {
                seed,
                rules: vec![ChaosRule::every_kth(ChaosKind::Panic { attempts: 1 }, 97)],
            };
            let chaos = ChaosInjector::new(plan)
                .unwrap()
                .schedule(events.iter().map(|e| e.seq).collect::<Vec<_>>());
            let swaps = swap_plan(&f.runtime, k, base);
            let (report, _, _, _) = adapt_step(
                &mut f.runtime,
                &pool,
                events,
                Some(&chaos),
                &swaps,
                &mut Tracer::new(false),
                0,
            )
            .unwrap();
            counts
                .tally(
                    &day.envelopes,
                    &day.attack,
                    base,
                    &report.report.outcomes,
                    0,
                )
                .unwrap();
            base += day.envelopes.len() as u64;
        }
        let (mut folds, mut admitted) = (0, 0);
        for h in 0..3 {
            let learner = f.runtime.slot(h).and_then(|s| s.online()).unwrap();
            folds += learner.folds;
            admitted += learner.admitted;
        }
        let swaps = f.runtime.policy_store().unwrap().swaps().len();
        (counts, folds, admitted, swaps)
    }

    #[test]
    fn deterministic_counts_repeat_exactly() {
        let first = counts_of_a_short_run(21);
        let second = counts_of_a_short_run(21);
        assert_eq!(
            first, second,
            "events, attacks, detections, false alarms, folds, swaps"
        );
        let (counts, folds, _, swaps) = first;
        assert!(counts.submitted > 0 && counts.attacks > 0 && folds > 0);
        assert!(swaps > 0, "the swap plan swaps the staged candidate in");
        assert_eq!(counts.failed, 0);
    }

    #[test]
    fn deterministic_serving_allocations_repeat_exactly() {
        let spec = Spec {
            seed: 4,
            learn_days: 2,
            serve_days: 1,
            attack_rate: 0.05,
            config: serving_config(false),
        };
        let mut f = fixture::build(&spec, &Source::fleet(4, 3), &mut Tracer::new(false));
        let len = f.days[0].envelopes.len();
        let outcomes = f
            .runtime
            .serve(f.days[0].sequenced(0..len, 0))
            .unwrap()
            .outcomes;
        let kept = [Kept {
            day: 0,
            range: 0..len,
            base: 0,
            outcomes,
            ns: 0,
        }];
        // Threaded outcomes equal deterministic ones, and the deterministic
        // replay's allocation count repeats exactly.
        let (_, first, events) = deterministic_replay(&f, &kept, &mut Tracer::new(false)).unwrap();
        let (_, second, _) = deterministic_replay(&f, &kept, &mut Tracer::new(false)).unwrap();
        assert_eq!(events, len as u64);
        assert!(first > 0);
        assert_eq!(first, second);
        reenact(&f, &kept, 0, &mut Tracer::new(false)).unwrap();
    }

    #[test]
    fn the_adapt_schedule_serves_the_change_day_once_then_cycles() {
        let order: Vec<usize> = (0..8).map(|k| adapt_day(k, 4)).collect();
        assert_eq!(order, [0, 1, 2, 3, 1, 2, 3, 1]);
    }
}
