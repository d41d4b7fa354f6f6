//! The worker-shard event loop: monitor checks, sensor application, and the
//! work-stealing batched decision path.
//!
//! Two execution flavours share one event-application core:
//!
//! - [`process_sequential`] — the deterministic reference: one thread walks
//!   one shard's stream, closing a decision batch whenever the window fills
//!   and flushing the remainder at end of stream.
//! - [`run_worker`] — the threaded work-stealing loop: each worker drains
//!   its own lock-free ingest ring, parks queries in a batching window,
//!   publishes closed batches as [`InferenceTask`]s on its own run queue,
//!   and — when its own queues are dry — *steals* batches from sibling
//!   shards in a fixed victim order.
//!
//! Stealing cannot change any decision: a batch snapshots every query's
//! observation, valid-action set, and flat→mini action map at in-order
//! processing time, and the batched forward is bit-identical per row to a
//! single-row forward, so an [`InferenceTask`] is a pure function of the
//! policy — whichever worker runs it, whenever, produces the same bytes.

use crate::event::{DecisionSource, Envelope, EventKind, Outcome};
use crate::policy_store::ShadowRow;
use crate::slot::HomeSlot;
use jarvis::JarvisError;
use jarvis_iot_model::MiniAction;
use jarvis_rl::{DqnAgent, QuantizedPolicy};
use jarvis_stdkit::sync::{PushError, StealQueue};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bound on queued-but-unexecuted inference batches per shard. When the run
/// queue is full the owner executes the batch inline instead — lossless,
/// just momentarily unstealable.
const TASK_QUEUE_CAPACITY: usize = 32;

/// The policies one batch executes against: the active agent, its optional
/// quantized deployment, and an optional shadow candidate scored alongside
/// the active policy without ever answering a query (DESIGN.md §16).
#[derive(Clone, Copy)]
pub(crate) struct PolicyView<'a> {
    /// The active f64 policy agent.
    pub policy: &'a DqnAgent,
    /// The active policy's deployed int8 snapshot, if any.
    pub quantized: Option<&'a QuantizedPolicy>,
    /// The staged shadow candidate, if any.
    pub shadow: Option<&'a DqnAgent>,
}

impl<'a> PolicyView<'a> {
    pub(crate) fn new(
        policy: &'a DqnAgent,
        quantized: Option<&'a QuantizedPolicy>,
        shadow: Option<&'a DqnAgent>,
    ) -> Self {
        PolicyView { policy, quantized, shadow }
    }
}

/// What one shard's worker produced: outcomes for the events it applied
/// plus the decisions of every batch it executed (its own and stolen).
#[derive(Debug, Default)]
pub(crate) struct ShardOutput {
    /// Outcomes in this worker's processing order (globally re-sorted by
    /// the runtime before reporting).
    pub outcomes: Vec<Outcome>,
    /// Nanoseconds from each query's enqueue (router hand-off in threaded
    /// mode, first touch in deterministic mode) to its decision — true
    /// per-event latency including queueing, window residency, and
    /// inference. Empty unless the caller injected a telemetry clock
    /// ([`crate::RuntimeConfig::telemetry`]); the deterministic path makes
    /// zero clock calls otherwise (lint rule R2).
    pub latencies_ns: Vec<u64>,
    /// Per-decision shadow-evaluation rows, when a candidate is staged.
    /// Aggregated sorted by seq, so the accumulated score is independent of
    /// shard count, steal schedule, and batch grouping.
    pub shadow: Vec<ShadowRow>,
}

/// One routed event plus its telemetry enqueue stamp (`None` when no clock
/// is injected).
pub(crate) struct Job {
    pub env: Envelope,
    pub enqueued: Option<u64>,
}

/// A query parked in the batching window, its observation, valid set, and
/// action map snapshotted at in-order processing time so neither later
/// events nor the executing worker can change the answer.
pub(crate) struct Pending {
    pub(crate) seq: u64,
    home: u64,
    obs: Vec<f64>,
    valid: Vec<usize>,
    /// The home's flat-index → mini-action map (shared, immutable), so a
    /// thief can materialize the decision without touching the slot.
    actions: Arc<Vec<MiniAction>>,
    /// Telemetry-clock reading at enqueue time; `None` without a clock.
    enqueued: Option<u64>,
}

/// A closed batch of snapshotted queries: self-contained inference work
/// executable by any worker with bitwise-identical results.
pub(crate) struct InferenceTask {
    pub(crate) entries: Vec<Pending>,
}

/// Everything the worker threads share: per-shard ingest rings, per-shard
/// run queues of closed batches, per-shard done-publishing flags, and the
/// abort latch that fails the whole serve call fast.
pub(crate) struct WorkerShared {
    pub ingest: Vec<StealQueue<Job>>,
    pub tasks: Vec<StealQueue<InferenceTask>>,
    pub done: Vec<AtomicBool>,
    pub abort: AtomicBool,
}

impl WorkerShared {
    pub(crate) fn new(shards: usize, ingest_capacity: usize) -> Self {
        // The lock-free ring needs at least two slots (see
        // `StealQueue::new`); a configured capacity of 1 still gets honest
        // backpressure, just one event later.
        let ingest_capacity = ingest_capacity.max(2);
        WorkerShared {
            ingest: (0..shards).map(|_| StealQueue::new(ingest_capacity)).collect(),
            tasks: (0..shards).map(|_| StealQueue::new(TASK_QUEUE_CAPACITY)).collect(),
            done: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            abort: AtomicBool::new(false),
        }
    }
}

/// The fixed victim order for shard `idx` among `shards` shards: ring
/// order `idx + 1`, `idx + 2`, … (mod `shards`). Deriving the order from
/// the shard id keeps every run's steal *schedule* reproducible; the steal
/// *timing* does not matter because stolen batches are pure.
fn steal_order(idx: usize, shards: usize) -> Vec<usize> {
    (1..shards).map(|k| (idx + k) % shards).collect()
}

/// Apply one event to its slot: actions are monitor-checked, sensors step
/// the state, queries snapshot into the batching window.
///
/// `learn` gates the slot's continual-learning hooks: normal serving
/// passes `true`; quarantined and degraded-mode windows pass `false` so
/// anomalous traffic never feeds the SPL delta or the replay delta.
pub(crate) fn apply_event(
    slots: &mut BTreeMap<u64, HomeSlot>,
    job: Job,
    clock: Option<fn() -> u64>,
    learn: bool,
    pending: &mut Vec<Pending>,
    out: &mut ShardOutput,
) -> Result<(), JarvisError> {
    let env = job.env;
    let slot = slots.get_mut(&env.home).ok_or_else(|| {
        JarvisError::Config(format!("event {} targets unregistered home {}", env.seq, env.home))
    })?;
    slot.note_event(env.minute, learn);
    match env.kind {
        EventKind::Action(mini) => {
            let verdict = slot.observe_action(mini, learn)?;
            out.outcomes.push(Outcome::Verdict { seq: env.seq, home: env.home, verdict });
        }
        EventKind::Sensor(mini) => {
            slot.apply_sensor(mini)?;
            out.outcomes.push(Outcome::SensorApplied { seq: env.seq, home: env.home });
        }
        EventKind::Query { indoor_c, outdoor_c, price_per_kwh } => {
            if learn {
                slot.note_ambient(indoor_c, outdoor_c, price_per_kwh);
            }
            pending.push(Pending {
                seq: env.seq,
                home: env.home,
                obs: slot.encode(env.minute, indoor_c, outdoor_c, price_per_kwh),
                valid: slot.valid_actions(),
                actions: slot.actions(),
                // Deterministic mode stamps at first touch (enqueue ==
                // dequeue there); threaded mode keeps the router's stamp.
                enqueued: job.enqueued.or_else(|| clock.map(|now| now())),
            });
        }
    }
    Ok(())
}

/// Execute one closed batch: a single batched forward, then one
/// descending-Q ranking walk per row down to the best action each home's
/// safe set allows (`Max(Q, c)`).
///
/// When a deployed [`QuantizedPolicy`] is supplied, the batched forward
/// runs through its int8 fixed-point network instead of the f64 agent —
/// the ranking walk is identical, only the Q source changes. Quantized Q
/// values are bit-deterministic across SIMD tiers, pool sizes, and batch
/// groupings (i32 accumulation), so the serving determinism contract is
/// unchanged.
pub(crate) fn run_batch(
    task: InferenceTask,
    view: PolicyView<'_>,
    clock: Option<fn() -> u64>,
    out: &mut ShardOutput,
) -> Result<(), JarvisError> {
    if task.entries.is_empty() {
        return Ok(());
    }
    let rows: Vec<&[f64]> = task.entries.iter().map(|p| p.obs.as_slice()).collect();
    let q_rows = match view.quantized {
        Some(qp) => qp.q_values_batch(&rows)?,
        None => view.policy.q_values_batch(&rows)?,
    };
    // The shadow candidate sees the exact observations the active policy
    // answered — scored, never served.
    let shadow_rows = match view.shadow {
        Some(sh) => Some(sh.q_values_batch(&rows)?),
        None => None,
    };
    let mut ranked: Vec<usize> = Vec::new();
    for (i, (p, q)) in task.entries.into_iter().zip(q_rows).enumerate() {
        // Rank the whole head once, descending Q with ascending-index tie
        // breaks — element `c` is exactly `top_c(&q, &all, c)`, without
        // re-sorting per walked rank.
        ranked.clear();
        ranked.extend(0..q.len());
        ranked.sort_by(|&a, &b| {
            q[b].partial_cmp(&q[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        let mut decision = None;
        for (c, &a) in ranked.iter().enumerate() {
            if p.valid.contains(&a) {
                decision = Some((a, q[a], c));
                break;
            }
        }
        // The no-op is always in the valid set, so the walk always lands;
        // fall back to it defensively anyway.
        let (flat, q_value, rank) =
            decision.unwrap_or((0, q.first().copied().unwrap_or(0.0), 0));
        if let Some(shadow_q) = &shadow_rows {
            out.shadow.push(score_shadow(&p, flat, &q, &shadow_q[i], &mut ranked));
        }
        let action = if flat == 0 { None } else { p.actions.get(flat - 1).copied() };
        out.outcomes.push(Outcome::Decision {
            seq: p.seq,
            home: p.home,
            action,
            flat,
            q_value,
            rank,
            source: DecisionSource::Policy,
        });
        if let (Some(now), Some(t0)) = (clock, p.enqueued) {
            out.latencies_ns.push(now().saturating_sub(t0));
        }
    }
    Ok(())
}

/// Score one shadow decision: the candidate's constrained choice under the
/// same `Max(Q, c)` walk, safety parity of the unconstrained argmaxes, and
/// Q-regret of the candidate's choice under the active policy's estimate.
fn score_shadow(
    p: &Pending,
    active_flat: usize,
    active_q: &[f64],
    shadow_q: &[f64],
    ranked: &mut Vec<usize>,
) -> ShadowRow {
    ranked.clear();
    ranked.extend(0..shadow_q.len());
    ranked.sort_by(|&a, &b| {
        shadow_q[b]
            .partial_cmp(&shadow_q[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let shadow_flat = ranked.iter().copied().find(|a| p.valid.contains(a)).unwrap_or(0);
    let raw_argmax = |q: &[f64]| {
        let mut best = 0usize;
        for a in 1..q.len() {
            if q[a] > q[best] {
                best = a;
            }
        }
        best
    };
    let parity_ok =
        p.valid.contains(&raw_argmax(active_q)) == p.valid.contains(&raw_argmax(shadow_q));
    let regret = (active_q.get(active_flat).copied().unwrap_or(0.0)
        - active_q.get(shadow_flat).copied().unwrap_or(0.0))
    .max(0.0);
    ShadowRow { seq: p.seq, agree: shadow_flat == active_flat, parity_ok, regret }
}

/// Close the current window: publish it on this shard's run queue so an
/// idle sibling can steal it, or — when the run queue is full — execute it
/// inline right now.
fn close_batch(
    run_queue: &StealQueue<InferenceTask>,
    pending: &mut Vec<Pending>,
    view: PolicyView<'_>,
    clock: Option<fn() -> u64>,
    out: &mut ShardOutput,
) -> Result<(), JarvisError> {
    if pending.is_empty() {
        return Ok(());
    }
    let task = InferenceTask { entries: std::mem::take(pending) };
    match run_queue.try_push(task) {
        Ok(()) => Ok(()),
        Err(PushError::Full(task)) => run_batch(task, view, clock, out),
    }
}

/// Drive one shard sequentially over its whole stream — the bit-exact
/// deterministic reference for any shard count and any steal schedule.
pub(crate) fn process_sequential(
    slots: &mut BTreeMap<u64, HomeSlot>,
    view: PolicyView<'_>,
    batch_window: usize,
    clock: Option<fn() -> u64>,
    events: impl Iterator<Item = Envelope>,
) -> Result<ShardOutput, JarvisError> {
    let mut out = ShardOutput::default();
    let mut pending: Vec<Pending> = Vec::new();
    for env in events {
        apply_event(slots, Job { env, enqueued: None }, clock, true, &mut pending, &mut out)?;
        if pending.len() >= batch_window {
            run_batch(
                InferenceTask { entries: std::mem::take(&mut pending) },
                view,
                clock,
                &mut out,
            )?;
        }
    }
    run_batch(InferenceTask { entries: pending }, view, clock, &mut out)?;
    Ok(out)
}

/// Marks this shard done-publishing on every exit path — including panics
/// and error returns — and trips the abort latch on the unclean ones, so
/// neither the router nor sibling workers can wait forever on a dead shard.
struct ExitGuard<'a> {
    done: &'a AtomicBool,
    abort: &'a AtomicBool,
    clean: bool,
}

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        if !self.clean {
            self.abort.store(true, Ordering::Release);
        }
        self.done.store(true, Ordering::Release);
    }
}

/// The threaded work-stealing worker loop for shard `idx`.
pub(crate) fn run_worker(
    idx: usize,
    slots: &mut BTreeMap<u64, HomeSlot>,
    view: PolicyView<'_>,
    batch_window: usize,
    throttle: Duration,
    clock: Option<fn() -> u64>,
    shared: &WorkerShared,
) -> Result<ShardOutput, JarvisError> {
    let mut guard = ExitGuard { done: &shared.done[idx], abort: &shared.abort, clean: false };
    let result = worker_loop(idx, slots, view, batch_window, throttle, clock, shared);
    guard.clean = result.is_ok();
    drop(guard);
    result
}

fn worker_loop(
    idx: usize,
    slots: &mut BTreeMap<u64, HomeSlot>,
    view: PolicyView<'_>,
    batch_window: usize,
    throttle: Duration,
    clock: Option<fn() -> u64>,
    shared: &WorkerShared,
) -> Result<ShardOutput, JarvisError> {
    let ingest = &shared.ingest[idx];
    let run_queue = &shared.tasks[idx];
    let victims = steal_order(idx, shared.tasks.len());
    let mut out = ShardOutput::default();
    let mut pending: Vec<Pending> = Vec::new();
    let mut done_publishing = false;

    loop {
        let mut progress = false;

        // 1. Drain the ingest ring: monitor/sensor work applies inline,
        //    queries snapshot into the batching window.
        while let Some(job) = ingest.pop() {
            progress = true;
            if !throttle.is_zero() {
                std::thread::sleep(throttle);
            }
            apply_event(slots, job, clock, true, &mut pending, &mut out)?;
            if pending.len() >= batch_window {
                close_batch(run_queue, &mut pending, view, clock, &mut out)?;
            }
        }

        // 2. Adaptive close: the ring ran dry with queries parked — answer
        //    them now instead of letting them age until the window fills.
        //    This keeps tail latency flat when a shard's share of the
        //    stream arrives slower than `batch_window` events at a time, and
        //    cannot change a decision: batch boundaries only group pure
        //    per-row forwards.
        if !pending.is_empty() {
            close_batch(run_queue, &mut pending, view, clock, &mut out)?;
            progress = true;
        }

        // 3. End of stream: flush the remainder, then announce that this
        //    shard will never publish another task.
        if !done_publishing && ingest.is_drained() {
            close_batch(run_queue, &mut pending, view, clock, &mut out)?;
            shared.done[idx].store(true, Ordering::Release);
            done_publishing = true;
        }

        // 4. Execute own batches first (freshest cache), then steal from
        //    the fixed victim schedule.
        if let Some(task) = run_queue.pop() {
            run_batch(task, view, clock, &mut out)?;
            continue;
        }
        for &victim in &victims {
            if let Some(task) = shared.tasks[victim].pop() {
                run_batch(task, view, clock, &mut out)?;
                progress = true;
                break;
            }
        }
        if progress {
            continue;
        }

        // 5. Nothing anywhere: abort fast if a sibling failed, terminate
        //    when every shard is done publishing and every run queue is
        //    empty, otherwise yield and look again.
        if shared.abort.load(Ordering::Acquire) {
            break;
        }
        if done_publishing
            && shared.done.iter().all(|d| d.load(Ordering::Acquire))
            && shared.tasks.iter().all(StealQueue::is_empty)
        {
            break;
        }
        std::thread::yield_now();
    }
    Ok(out)
}
