//! The serving runtime: home registry, event ingest, sharded serve loop,
//! and shard snapshot/restore.

use crate::event::{Envelope, EventKind, Outcome, OverloadPolicy, Rejection};
use crate::online::{FineTuneConfig, FineTuneReport, OnlineConfig};
use crate::policy_store::{PolicyStore, ShadowGates, ShadowRow, SwapPoint, SwapRecord};
use crate::shard::{self, Job, PolicyView, ShardOutput, WorkerShared};
use crate::slot::{HomeSlot, HomeSnapshot};
use crate::supervisor::{
    RecoveryReport, Roster, ShardSupervisor, SupervisedReport, SupervisorConfig,
};
use crate::wal::ShardWal;
use jarvis::{JarvisError, OptimizerCheckpoint};
use jarvis_policy::{MatchMode, SafeTransitionTable};
use jarvis_rl::{DqnAgent, DqnCheckpoint, Experience, QuantizedPolicy};
use jarvis_sim::{
    ChaosSchedule, FaultInjector, FaultSummary, FleetGenerator, HomeDataset, MINUTES_PER_DAY,
};
use jarvis_smart_home::logger::normalize_action;
use jarvis_smart_home::SmartHome;
use jarvis_stdkit::json::{FromJson, ToJson};
use jarvis_stdkit::json_struct;
use jarvis_stdkit::pool::{ScopedTask, WorkerPool};
use jarvis_stdkit::sync::PushError;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Configuration of a [`ServingRuntime`].
///
/// (Not `PartialEq`: the `telemetry` field is a function pointer, whose
/// comparison is address-based and unpredictable.)
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker shards.
    pub shards: usize,
    /// Bound of each shard's lock-free ingest ring (threaded mode only).
    /// Values below 2 are served with a 2-slot ring — the sequence
    /// protocol's minimum — while overload errors still report the
    /// configured value.
    pub queue_capacity: usize,
    /// Maximum queries parked before a batched forward is forced. 1 =
    /// per-query single-row inference.
    pub batch_window: usize,
    /// What the router does when a shard's ingest ring is full (threaded
    /// mode).
    pub overload: OverloadPolicy,
    /// Run shards sequentially on the caller's thread instead of spawning
    /// workers. Outputs are bit-identical to threaded serving for any shard
    /// count or batch window; queue bounds and throttling do not apply.
    pub deterministic: bool,
    /// Match mode for safe-transition lookups in the per-home monitors.
    pub match_mode: MatchMode,
    /// Artificial per-event worker delay in nanoseconds (threaded mode
    /// only). Zero in production; non-zero values let tests and benchmarks
    /// make a shard deterministically slower than the router to exercise
    /// the overload paths.
    pub worker_throttle_ns: u64,
    /// Injectable telemetry clock for decision latencies (monotonic
    /// nanoseconds). `None` (the default) makes serving perform zero
    /// wall-clock calls — timing is not part of the determinism contract,
    /// so the clock is opt-in (lint rule R2, DESIGN.md §12). Benchmarks
    /// pass [`jarvis_stdkit::bench::monotonic_ns`].
    pub telemetry: Option<fn() -> u64>,
}

impl RuntimeConfig {
    /// Defaults: `queue_capacity` 256, `batch_window` 16, blocking
    /// backpressure, threaded execution, exact-match monitoring.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        RuntimeConfig {
            shards,
            queue_capacity: 256,
            batch_window: 16,
            overload: OverloadPolicy::Block,
            deterministic: false,
            match_mode: MatchMode::Exact,
            worker_throttle_ns: 0,
            telemetry: None,
        }
    }

    fn validate(&self) -> Result<(), JarvisError> {
        if self.shards == 0 {
            return Err(JarvisError::Config("shard count must be at least 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(JarvisError::Config("queue capacity must be at least 1".into()));
        }
        if self.batch_window == 0 {
            return Err(JarvisError::Config("batch window must be at least 1".into()));
        }
        Ok(())
    }
}

/// What `ingest_day` turned a day of home activity into.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// The sequenced envelopes, ready for [`ServingRuntime::serve`].
    pub envelopes: Vec<Envelope>,
    /// Activity events that mapped onto the home's catalogue.
    pub mapped: usize,
    /// Decision queries injected.
    pub queries: usize,
    /// Activity events whose device or action is outside the catalogue
    /// (counted, never silently lost).
    pub unmapped: usize,
    /// What the fault injector did, when one was attached.
    pub faults: Option<FaultSummary>,
}

/// The result of one [`ServingRuntime::serve`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// One outcome per delivered event, sorted by global sequence number.
    pub outcomes: Vec<Outcome>,
    /// Every event shed under [`OverloadPolicy::Shed`], in routing order.
    pub rejected: Vec<Rejection>,
    /// Per-decision latencies (enqueue → decision: queueing + batch-window
    /// residency + inference, per event), unordered. Informational: timing
    /// is *not* part of the determinism contract, and this is empty unless
    /// [`RuntimeConfig::telemetry`] injected a clock.
    pub latencies_ns: Vec<u64>,
}

impl ServeReport {
    /// Delivered outcomes plus explicit rejections — equals the number of
    /// events submitted (the no-silent-drop invariant).
    #[must_use]
    pub fn total_accounted(&self) -> usize {
        self.outcomes.len() + self.rejected.len()
    }

    /// Number of policy decisions made.
    #[must_use]
    pub fn decisions(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Decision { .. }))
            .count()
    }

    /// A decision-latency percentile in nanoseconds (`q` in `[0, 1]`), or
    /// `None` when no decisions were made.
    #[must_use]
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        if self.latencies_ns.is_empty() {
            return None;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted.get(rank).copied()
    }
}

/// A whole-runtime snapshot: fleet policy plus every home's dynamic state.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeSnapshot {
    /// Shard count the snapshot was taken under.
    pub shards: usize,
    /// Next global sequence number.
    pub next_seq: u64,
    /// The fleet policy agent, as a PR-3 style bit-exact checkpoint.
    pub policy: DqnCheckpoint,
    /// Every registered home's dynamic state, ordered by id.
    pub homes: Vec<HomeSnapshot>,
    /// The continual-learning configuration, when online learning is on.
    pub online: Option<OnlineConfig>,
    /// The versioned policy store, when online learning is on. Restoring
    /// it alongside `policy` is what makes rollback byte-identical.
    pub store: Option<PolicyStore>,
}

json_struct!(RuntimeSnapshot { shards, next_seq, policy, homes, online, store });

/// A single shard's snapshot: the fleet policy plus the dynamic state of
/// the homes that shard owns — everything needed to stand the shard back up.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// The shard index.
    pub shard: usize,
    /// Shard count the snapshot was taken under (routing depends on it).
    pub shards: usize,
    /// The fleet policy agent at snapshot time.
    pub policy: DqnCheckpoint,
    /// The shard's homes, ordered by id.
    pub homes: Vec<HomeSnapshot>,
}

json_struct!(ShardSnapshot { shard, shards, policy, homes });

/// A sharded multi-home serving runtime over one shared policy agent.
///
/// See DESIGN.md §11 for the base architecture (shard ownership, queue
/// bounds, the batching window, the determinism contract) and §13 for the
/// work-stealing run queues, the fixed steal schedule, and load-aware
/// placement.
#[derive(Debug)]
pub struct ServingRuntime {
    config: RuntimeConfig,
    policy: DqnAgent,
    /// An int8 fixed-point snapshot of `policy` for the decision path,
    /// deployed by [`ServingRuntime::quantize_policy`] after passing its
    /// rank-ordering accuracy gate. `None` (the default) serves f64.
    quantized: Option<QuantizedPolicy>,
    homes: BTreeMap<u64, HomeSlot>,
    /// Current home → shard placement. Seeded modulo at registration,
    /// deterministically rebalanced per serve call (see `rebalance`).
    assignments: BTreeMap<u64, usize>,
    next_seq: u64,
    /// Continual-learning configuration; `None` until
    /// [`ServingRuntime::enable_online`].
    online: Option<OnlineConfig>,
    /// Versioned policy storage with shadow evaluation; created by
    /// [`ServingRuntime::enable_online`] with the current policy as
    /// version 0.
    store: Option<PolicyStore>,
}

impl ServingRuntime {
    /// Build a runtime serving `policy` under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] for a zero shard count, queue
    /// capacity, or batch window.
    pub fn new(config: RuntimeConfig, policy: DqnAgent) -> Result<Self, JarvisError> {
        config.validate()?;
        Ok(ServingRuntime {
            config,
            policy,
            quantized: None,
            homes: BTreeMap::new(),
            assignments: BTreeMap::new(),
            next_seq: 0,
            online: None,
            store: None,
        })
    }

    /// The runtime's configuration.
    #[must_use]
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The shared fleet policy agent.
    #[must_use]
    pub fn policy(&self) -> &DqnAgent {
        &self.policy
    }

    /// The deployed quantized policy, when one passed the gate.
    #[must_use]
    pub fn quantized_policy(&self) -> Option<&QuantizedPolicy> {
        self.quantized.as_ref()
    }

    /// Observation vectors covering every registered home over a fixed grid
    /// of (minute, indoor °C, outdoor °C, price/kWh) ambient conditions —
    /// the default calibration corpus for [`ServingRuntime::quantize_policy`].
    /// Deterministic: ordered by home id, then grid order.
    #[must_use]
    pub fn calibration_observations(&self) -> Vec<Vec<f64>> {
        const MINUTES: [u32; 4] = [0, 480, 960, 1439];
        const INDOOR_C: [f64; 3] = [16.0, 21.0, 26.0];
        const OUTDOOR_C: [f64; 3] = [-5.0, 10.0, 30.0];
        const PRICE: [f64; 3] = [0.05, 0.15, 0.45];
        let mut rows = Vec::with_capacity(self.homes.len() * 108);
        for slot in self.homes.values() {
            for &minute in &MINUTES {
                for &indoor in &INDOOR_C {
                    for &outdoor in &OUTDOOR_C {
                        for &price in &PRICE {
                            rows.push(slot.encode(minute, indoor, outdoor, price));
                        }
                    }
                }
            }
        }
        rows
    }

    /// Quantize the fleet policy to int8 fixed-point and deploy it on the
    /// decision path — **iff** it passes the rank-ordering accuracy gate:
    /// the quantized greedy argmax must agree with the f64 network on at
    /// least `min_agreement` of the calibration corpus (pass the
    /// [`ServingRuntime::calibration_observations`] grid, or any corpus of
    /// states the deployment actually visits). Returns the measured
    /// agreement on success; on gate failure the runtime keeps serving f64.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] when the gate fails or `calib` is
    /// empty, and [`JarvisError::Neural`] for ragged or mis-sized rows.
    pub fn quantize_policy(
        &mut self,
        calib: &[&[f64]],
        min_agreement: f64,
    ) -> Result<f64, JarvisError> {
        if calib.is_empty() {
            return Err(JarvisError::Config(
                "quantization needs a non-empty calibration corpus".into(),
            ));
        }
        let qp = self.policy.quantize_policy(calib)?;
        let agreement = qp.agreement();
        if agreement < min_agreement {
            return Err(JarvisError::Config(format!(
                "quantized policy agreement {agreement:.4} below the {min_agreement:.4} gate \
                 on {} calibration states; keeping the f64 policy",
                calib.len()
            )));
        }
        self.quantized = Some(qp);
        Ok(agreement)
    }

    /// Undeploy the quantized policy and return to f64 serving.
    pub fn clear_quantized_policy(&mut self) {
        self.quantized = None;
    }

    /// Turn on online continual learning (DESIGN.md §16): every registered
    /// home (and every home registered later) gets an [`OnlineLearner`]
    /// under `cfg`, and a [`PolicyStore`] is created with the current fleet
    /// policy as version 0, active, gated by `gates`.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] for invalid `cfg` or when online
    /// learning is already enabled.
    ///
    /// [`OnlineLearner`]: crate::OnlineLearner
    pub fn enable_online(
        &mut self,
        cfg: OnlineConfig,
        gates: ShadowGates,
    ) -> Result<(), JarvisError> {
        cfg.validate()?;
        if self.online.is_some() {
            return Err(JarvisError::Config("online learning is already enabled".into()));
        }
        for slot in self.homes.values_mut() {
            slot.enable_online(cfg.clone());
        }
        self.store = Some(PolicyStore::new(self.policy.checkpoint(), gates));
        self.online = Some(cfg);
        Ok(())
    }

    /// The continual-learning configuration, when enabled.
    #[must_use]
    pub fn online_config(&self) -> Option<&OnlineConfig> {
        self.online.as_ref()
    }

    /// The versioned policy store, when online learning is enabled.
    #[must_use]
    pub fn policy_store(&self) -> Option<&PolicyStore> {
        self.store.as_ref()
    }

    /// Mutable access to the policy store (staging candidates, adjusting
    /// swap history in tests). The store's own API guards its invariants.
    #[must_use]
    pub fn policy_store_mut(&mut self) -> Option<&mut PolicyStore> {
        self.store.as_mut()
    }

    /// Number of registered homes.
    #[must_use]
    pub fn num_homes(&self) -> usize {
        self.homes.len()
    }

    /// The slot serving home `id`, if registered.
    #[must_use]
    pub fn slot(&self, id: u64) -> Option<&HomeSlot> {
        self.homes.get(&id)
    }

    /// The shard that currently owns home `id`: the load-aware placement
    /// of the most recent serve call (modulo before the first one); unknown
    /// ids fall
    /// back to modulo routing so their events still reach a shard that can
    /// reject them loudly.
    #[must_use]
    pub fn shard_of(&self, id: u64) -> usize {
        self.assignments
            .get(&id)
            .copied()
            .unwrap_or((id % self.config.shards as u64) as usize)
    }

    /// Recompute the home → shard placement for a stream about to be
    /// served: deterministic longest-processing-time-first bin packing.
    /// Homes sorted by event count descending (id ascending on ties) are
    /// each assigned to the least-loaded shard (lowest index on ties)
    /// weighted by `events + 1`, so idle homes still spread across shards
    /// for snapshot partitioning. The same stream always produces the same
    /// placement.
    fn rebalance(&mut self, events: &[Envelope]) {
        let mut counts: BTreeMap<u64, u64> = self.homes.keys().map(|&id| (id, 0u64)).collect();
        for env in events {
            if let Some(count) = counts.get_mut(&env.home) {
                *count += 1;
            }
        }
        let mut order: Vec<(u64, u64)> =
            counts.into_iter().map(|(id, count)| (count, id)).collect();
        order.sort_by_key(|&(count, id)| (std::cmp::Reverse(count), id));
        let mut loads = vec![0u64; self.config.shards];
        self.assignments.clear();
        for (count, id) in order {
            let shard = loads
                .iter()
                .enumerate()
                .min_by_key(|&(idx, &load)| (load, idx))
                .map_or(0, |(idx, _)| idx);
            loads[shard] += count + 1;
            self.assignments.insert(id, shard);
        }
    }

    /// Register a home with its learned safe-transition table.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] when `id` is already registered or
    /// the home's observation/action dimensions do not match the policy
    /// network.
    pub fn register_home(
        &mut self,
        id: u64,
        home: SmartHome,
        table: SafeTransitionTable,
    ) -> Result<(), JarvisError> {
        if self.homes.contains_key(&id) {
            return Err(JarvisError::Config(format!("home {id} is already registered")));
        }
        let slot = HomeSlot::new(id, home, table, self.config.match_mode);
        let want_dim = self.policy.config().state_dim;
        let want_actions = self.policy.config().num_actions;
        if slot.obs_dim() != want_dim {
            return Err(JarvisError::Config(format!(
                "home {id} encodes {}-dim observations, policy expects {want_dim}",
                slot.obs_dim()
            )));
        }
        if slot.num_actions() != want_actions {
            return Err(JarvisError::Config(format!(
                "home {id} has {} actions, policy expects {want_actions}",
                slot.num_actions()
            )));
        }
        let mut slot = slot;
        if let Some(cfg) = &self.online {
            slot.enable_online(cfg.clone());
        }
        self.homes.insert(id, slot);
        self.assignments.insert(id, (id % self.config.shards as u64) as usize);
        Ok(())
    }

    /// Attach an `OptimizerCheckpoint` JSON to a registered home so it
    /// rides along in shard snapshots.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] when `id` is not registered.
    pub fn attach_checkpoint(&mut self, id: u64, checkpoint: String) -> Result<(), JarvisError> {
        match self.homes.get_mut(&id) {
            Some(slot) => {
                slot.set_checkpoint(Some(checkpoint));
                Ok(())
            }
            None => Err(JarvisError::Config(format!("home {id} is not registered"))),
        }
    }

    /// Turn one home's day of recorded activity into sequenced envelopes:
    /// catalogue commands become monitor-checked [`EventKind::Action`]s,
    /// sensor attribute changes become [`EventKind::Sensor`]s, and a
    /// decision [`EventKind::Query`] carrying the trace's ambient telemetry
    /// is injected every `query_every` minutes. When a [`FaultInjector`] is
    /// attached, the stream is corrupted *before* mapping — the ingest
    /// boundary is where sensors fail in the field.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] when `home` is not registered or
    /// `query_every` is `Some(0)`.
    pub fn ingest_day(
        &mut self,
        home: u64,
        data: &HomeDataset,
        day: u32,
        injector: Option<&FaultInjector>,
        query_every: Option<u32>,
    ) -> Result<IngestReport, JarvisError> {
        let items = self.day_items(home, data, day, injector, query_every)?;
        Ok(self.seal(vec![items]))
    }

    /// Ingest one day for a whole [`FleetGenerator`] fleet: member `i`
    /// must be registered as home id `i`. Every member's stream is built
    /// independently, then merged by `(minute, home)` into one fleet-wide
    /// arrival order before sequencing.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] when a fleet member is not
    /// registered or `query_every` is `Some(0)`.
    pub fn ingest_fleet_day(
        &mut self,
        fleet: &FleetGenerator,
        day: u32,
        injector: Option<&FaultInjector>,
        query_every: Option<u32>,
    ) -> Result<IngestReport, JarvisError> {
        let mut per_home = Vec::with_capacity(fleet.num_homes() as usize);
        for idx in 0..fleet.num_homes() {
            let data = fleet.dataset(idx);
            per_home.push(self.day_items(u64::from(idx), &data, day, injector, query_every)?);
        }
        Ok(self.seal(per_home))
    }

    /// Build one home's unsequenced `(minute, intra, kind)` items for a day.
    fn day_items(
        &self,
        home: u64,
        data: &HomeDataset,
        day: u32,
        injector: Option<&FaultInjector>,
        query_every: Option<u32>,
    ) -> Result<DayItems, JarvisError> {
        let Some(slot) = self.homes.get(&home) else {
            return Err(JarvisError::Config(format!("home {home} is not registered")));
        };
        if query_every == Some(0) {
            return Err(JarvisError::Config("query_every must be at least 1 minute".into()));
        }
        let activity = data.activity(day);
        let (events, faults) = match injector {
            Some(inj) => {
                let faulted = inj.inject_day(&activity);
                (faulted.events, Some(faulted.summary))
            }
            None => (activity.events.clone(), None),
        };

        let fsm = slot.home().fsm();
        let mut items: Vec<(u32, u32, EventKind)> = Vec::with_capacity(events.len());
        let mut unmapped = 0usize;
        for event in &events {
            let mapped = fsm.device_by_name(&event.device).and_then(|device| {
                normalize_action(&event.device, &event.name).and_then(|name| {
                    fsm.device(device)
                        .ok()
                        .and_then(|spec| spec.action_idx(&name))
                        .map(|action| jarvis_iot_model::MiniAction { device, action })
                })
            });
            match mapped {
                Some(mini) if event.is_sensor => {
                    items.push((event.minute, 0, EventKind::Sensor(mini)));
                }
                Some(mini) => items.push((event.minute, 0, EventKind::Action(mini))),
                None => unmapped += 1,
            }
        }
        let mapped = items.len();

        let mut queries = 0usize;
        if let Some(every) = query_every {
            let mut minute = every;
            while minute < MINUTES_PER_DAY {
                let indoor_c = activity
                    .trace
                    .indoor_temp
                    .get(minute as usize)
                    .copied()
                    .unwrap_or(21.0);
                let outdoor_c = data.weather().outdoor_temp(day, minute);
                let price_per_kwh = data.prices().price_per_kwh(day, minute / 60);
                // Queries sort after same-minute events: decide on the state
                // the home has actually reached by that minute.
                items.push((minute, 1, EventKind::Query { indoor_c, outdoor_c, price_per_kwh }));
                queries += 1;
                minute += every;
            }
        }
        items.sort_by_key(|&(minute, tag, _)| (minute, tag));
        Ok(DayItems { home, items, mapped, queries, unmapped, faults })
    }

    /// Merge per-home item lists into fleet arrival order and assign global
    /// sequence numbers.
    fn seal(&mut self, per_home: Vec<DayItems>) -> IngestReport {
        let mut mapped = 0;
        let mut queries = 0;
        let mut unmapped = 0;
        let mut faults: Option<FaultSummary> = None;
        let mut merged: Vec<(u32, u64, u32, EventKind)> = Vec::new();
        for day in per_home {
            mapped += day.mapped;
            queries += day.queries;
            unmapped += day.unmapped;
            if let Some(f) = day.faults {
                let total = faults.get_or_insert_with(FaultSummary::default);
                total.dropped += f.dropped;
                total.duplicated += f.duplicated;
                total.delayed += f.delayed;
                total.stuck_suppressed += f.stuck_suppressed;
                total.offline_suppressed += f.offline_suppressed;
            }
            for (minute, tag, kind) in day.items {
                merged.push((minute, day.home, tag, kind));
            }
        }
        merged.sort_by_key(|&(minute, home, tag, _)| (minute, home, tag));
        let envelopes = merged
            .into_iter()
            .map(|(minute, home, _, kind)| {
                let seq = self.next_seq;
                self.next_seq += 1;
                Envelope { seq, home, minute, kind }
            })
            .collect();
        IngestReport { envelopes, mapped, queries, unmapped, faults }
    }

    /// Serve a stream of envelopes through the worker shards and report
    /// one outcome per delivered event, sorted by sequence number.
    ///
    /// Placement is rebalanced for the stream first (see
    /// [`RuntimeConfig::placement`]). In deterministic mode the shards run
    /// sequentially on the caller's thread; in threaded mode each shard
    /// owns a scoped worker fed through a lock-free bounded ingest ring,
    /// with the configured [`OverloadPolicy`] deciding what a full ring
    /// does, and idle workers stealing closed inference batches from
    /// sibling run queues in a fixed victim order.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Overload`] under [`OverloadPolicy::Error`]
    /// when a queue fills, [`JarvisError::Config`] for events targeting
    /// unregistered homes, and model/neural errors from the slots or the
    /// policy network.
    pub fn serve(&mut self, events: Vec<Envelope>) -> Result<ServeReport, JarvisError> {
        self.rebalance(&events);
        let submitted = events.len();
        let shadow = self.shadow_agent()?;
        let (outputs, rejected) = if self.config.deterministic {
            (self.serve_deterministic(events, shadow.as_ref())?, Vec::new())
        } else {
            self.serve_threaded(events, shadow.as_ref())?
        };
        let mut outcomes = Vec::with_capacity(submitted);
        let mut latencies_ns = Vec::new();
        let mut shadow_rows: Vec<ShadowRow> = Vec::new();
        for output in outputs {
            outcomes.extend(output.outcomes);
            latencies_ns.extend(output.latencies_ns);
            shadow_rows.extend(output.shadow);
        }
        outcomes.sort_by_key(Outcome::seq);
        self.absorb_shadow(shadow_rows);
        Ok(ServeReport { outcomes, rejected, latencies_ns })
    }

    /// Materialize the staged candidate as a shadow agent, when one is
    /// staged. Rebuilt per serve call from the store's immutable bytes.
    fn shadow_agent(&self) -> Result<Option<DqnAgent>, JarvisError> {
        let Some(store) = &self.store else { return Ok(None) };
        let Some(candidate) = store.candidate() else { return Ok(None) };
        let version = store.version(candidate).ok_or_else(|| {
            JarvisError::Config(format!("staged candidate {candidate} is not stored"))
        })?;
        Ok(Some(DqnAgent::from_checkpoint(version.checkpoint.clone())?))
    }

    /// Fold shadow rows into the staged candidate's score, sorted by seq so
    /// the floating-point accumulation is independent of shard count, steal
    /// schedule, and batch grouping.
    fn absorb_shadow(&mut self, mut rows: Vec<ShadowRow>) {
        if rows.is_empty() {
            return;
        }
        if let Some(store) = self.store.as_mut() {
            rows.sort_by_key(|r| r.seq);
            store.absorb(&rows);
        }
    }

    /// Serve a stream under supervision: every shard runs inside a
    /// `catch_unwind` panic boundary with a write-ahead log, and failures —
    /// worker panics or deadline-overrunning stalls, optionally injected by
    /// a [`ChaosSchedule`] — are recovered by restoring the shard's last
    /// WAL checkpoint, replaying the logged suffix, and retrying, with
    /// seeded exponential backoff in virtual ticks (see
    /// [`SupervisorConfig`] and DESIGN.md §15).
    ///
    /// Recovery is deterministic: with a transient chaos plan (attempt
    /// counts below the quarantine threshold) the supervised run's
    /// outcomes, snapshot bytes, and rejection/quarantine accounting are
    /// bitwise identical to an uninterrupted [`ServingRuntime::serve`] in
    /// deterministic mode. Poison pills and exhausted restart budgets
    /// degrade to safe-table-only serving
    /// ([`DecisionSource::SafeTableFallback`](crate::DecisionSource)) —
    /// enforcement never lapses.
    ///
    /// In deterministic mode shards run sequentially on the caller's
    /// thread; otherwise each shard owns one scoped supervised worker.
    /// Both modes are bitwise identical (shards are independent here —
    /// supervised serving uses no ingest rings, so `rejected` is always
    /// empty and no queue bound applies).
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] for invalid supervisor settings,
    /// events targeting unregistered homes, or a shard that fails again
    /// after exhausting its restart budget, plus model/neural errors from
    /// the slots or the policy network.
    pub fn serve_supervised(
        &mut self,
        events: Vec<Envelope>,
        sup: &SupervisorConfig,
        chaos: Option<&ChaosSchedule>,
    ) -> Result<SupervisedReport, JarvisError> {
        let shadow = self.shadow_agent()?;
        let active = self.policy.clone();
        self.serve_supervised_epochs(events, sup, chaos, &[], &[active], shadow.as_ref())
    }

    /// Serve a stream under supervision with a scheduled mid-stream policy
    /// swap plan: `swaps[k]` activates its version for every envelope with
    /// `seq >= at_seq` (see [`SwapPoint`]). Shards flush their batching
    /// window at epoch boundaries — a batch never spans a swap — and log a
    /// WAL swap record, so crash recovery replays every envelope under the
    /// policy that first served it and lands on the same active version.
    /// After the call, the last swap's version is the runtime's active
    /// policy and the store records every swap.
    ///
    /// # Errors
    ///
    /// Everything [`ServingRuntime::serve_supervised`] returns, plus
    /// [`JarvisError::Config`] when online learning is not enabled or the
    /// swap plan is unordered / names unknown versions.
    pub fn serve_online_supervised(
        &mut self,
        events: Vec<Envelope>,
        sup: &SupervisorConfig,
        chaos: Option<&ChaosSchedule>,
        swaps: &[SwapPoint],
    ) -> Result<SupervisedReport, JarvisError> {
        self.validate_swaps(swaps)?;
        // invariant: validate_swaps errored already if the store is missing
        let store = self.store.as_ref().expect("validate_swaps checked the store");
        let mut epoch_agents = Vec::with_capacity(swaps.len() + 1);
        epoch_agents.push(self.policy.clone());
        for sp in swaps {
            // invariant: validate_swaps checked every plan version exists
            let version = store.version(sp.version).expect("validate_swaps checked versions");
            epoch_agents.push(DqnAgent::from_checkpoint(version.checkpoint.clone())?);
        }
        let shadow = self.shadow_agent()?;
        let report =
            self.serve_supervised_epochs(events, sup, chaos, swaps, &epoch_agents, shadow.as_ref())?;
        self.commit_swaps(swaps, epoch_agents)?;
        Ok(report)
    }

    /// The shared supervised-serving core: one epoch per entry of
    /// `epoch_agents` (`swaps.len() + 1` of them; `epoch_agents[0]` is the
    /// policy active at entry, later entries the swapped-in versions).
    fn serve_supervised_epochs(
        &mut self,
        events: Vec<Envelope>,
        sup: &SupervisorConfig,
        chaos: Option<&ChaosSchedule>,
        swaps: &[SwapPoint],
        epoch_agents: &[DqnAgent],
        shadow: Option<&DqnAgent>,
    ) -> Result<SupervisedReport, JarvisError> {
        sup.validate()?;
        self.rebalance(&events);
        let shards = self.config.shards;
        let submitted = events.len();
        let mut streams: Vec<Vec<Envelope>> = (0..shards).map(|_| Vec::new()).collect();
        for env in events {
            let shard = self.shard_of(env.home);
            streams[shard].push(env);
        }
        let mut parts: Vec<BTreeMap<u64, HomeSlot>> =
            (0..shards).map(|_| BTreeMap::new()).collect();
        for (id, slot) in std::mem::take(&mut self.homes) {
            let shard = self.shard_of(id);
            parts[shard].insert(id, slot);
        }

        // The quantized deployment belongs to the entry policy; swapped-in
        // epochs serve f64 until re-quantized and re-gated explicitly.
        let quantized = self.quantized.as_ref();
        let views: Vec<PolicyView<'_>> = epoch_agents
            .iter()
            .enumerate()
            .map(|(k, agent)| {
                PolicyView::new(agent, if k == 0 { quantized } else { None }, shadow)
            })
            .collect();
        let roster = Roster { views, swaps };
        let roster = &roster;
        let batch_window = self.config.batch_window;
        let clock = self.config.telemetry;
        let mut results: Vec<Result<(ShardOutput, RecoveryReport, ShardWal), JarvisError>> =
            Vec::with_capacity(shards);

        if self.config.deterministic {
            for (idx, (part, stream)) in parts.iter_mut().zip(streams).enumerate() {
                results.push(
                    ShardSupervisor::new(idx, sup, chaos)
                        .run(part, roster, batch_window, clock, stream),
                );
            }
        } else {
            std::thread::scope(|s| {
                let mut handles = Vec::with_capacity(shards);
                for (idx, (part, stream)) in parts.iter_mut().zip(streams).enumerate() {
                    handles.push(s.spawn(move || {
                        ShardSupervisor::new(idx, sup, chaos)
                            .run(part, roster, batch_window, clock, stream)
                    }));
                }
                for handle in handles {
                    results.push(handle.join().unwrap_or_else(|_| {
                        Err(JarvisError::Config(
                            "a supervised shard worker died outside its panic boundary".into(),
                        ))
                    }));
                }
            });
        }

        // Reassemble home ownership before surfacing any error, so the
        // runtime stays usable after a failed supervised serve.
        for part in parts {
            self.homes.extend(part);
        }
        let mut outcomes = Vec::with_capacity(submitted);
        let mut latencies_ns = Vec::new();
        let mut shadow_rows: Vec<ShadowRow> = Vec::new();
        let mut recovery = RecoveryReport::default();
        let mut wals = Vec::with_capacity(shards);
        for result in results {
            let (output, shard_recovery, wal) = result?;
            outcomes.extend(output.outcomes);
            latencies_ns.extend(output.latencies_ns);
            shadow_rows.extend(output.shadow);
            recovery.absorb(shard_recovery);
            wals.push(wal);
        }
        outcomes.sort_by_key(Outcome::seq);
        self.absorb_shadow(shadow_rows);
        Ok(SupervisedReport {
            report: ServeReport { outcomes, rejected: Vec::new(), latencies_ns },
            recovery,
            wals,
        })
    }

    /// Serve a stream with a scheduled mid-stream policy swap plan:
    /// `swaps[k]` activates its version for every envelope with `seq >=
    /// at_seq`. The stream is split at each swap point and served segment by
    /// segment, so a batching window never spans a swap; each applied swap
    /// is recorded in the store. Every scheduled swap is applied even when
    /// the stream ends early — the plan is a commitment, not a hint — and
    /// after the call the last swap's version is the active policy.
    ///
    /// The swap schedule is part of the determinism contract: the same
    /// `(stream, swaps)` pair reproduces outcomes bitwise across shard
    /// counts, steal schedules, and serving modes.
    ///
    /// # Errors
    ///
    /// Everything [`ServingRuntime::serve`] returns, plus
    /// [`JarvisError::Config`] when online learning is not enabled or the
    /// swap plan is unordered / names unknown versions.
    pub fn serve_online(
        &mut self,
        events: Vec<Envelope>,
        swaps: &[SwapPoint],
    ) -> Result<ServeReport, JarvisError> {
        self.validate_swaps(swaps)?;
        let mut remaining = events;
        remaining.sort_by_key(|env| env.seq);
        let mut report =
            ServeReport { outcomes: Vec::new(), rejected: Vec::new(), latencies_ns: Vec::new() };
        let absorb = |report: &mut ServeReport, part: ServeReport| {
            report.outcomes.extend(part.outcomes);
            report.rejected.extend(part.rejected);
            report.latencies_ns.extend(part.latencies_ns);
        };
        for sp in swaps {
            let cut = remaining.partition_point(|env| env.seq < sp.at_seq);
            let tail = remaining.split_off(cut);
            let head = std::mem::replace(&mut remaining, tail);
            if !head.is_empty() {
                let part = self.serve(head)?;
                absorb(&mut report, part);
            }
            self.apply_swap(*sp)?;
        }
        if !remaining.is_empty() {
            let part = self.serve(remaining)?;
            absorb(&mut report, part);
        }
        report.outcomes.sort_by_key(Outcome::seq);
        Ok(report)
    }

    /// Check a swap plan: online learning enabled, `at_seq` strictly
    /// increasing, every version registered.
    fn validate_swaps(&self, swaps: &[SwapPoint]) -> Result<(), JarvisError> {
        let Some(store) = &self.store else {
            return Err(JarvisError::Config(
                "scheduled policy swaps need online learning enabled (enable_online)".into(),
            ));
        };
        let mut last: Option<u64> = None;
        for sp in swaps {
            if store.version(sp.version).is_none() {
                return Err(JarvisError::Config(format!(
                    "swap plan names unregistered policy version {}",
                    sp.version
                )));
            }
            if last.is_some_and(|prev| sp.at_seq <= prev) {
                return Err(JarvisError::Config(
                    "swap plan must be strictly increasing in at_seq".into(),
                ));
            }
            last = Some(sp.at_seq);
        }
        Ok(())
    }

    /// Activate one scheduled swap: rebuild the agent from the stored
    /// bytes, record the swap, drop the (old-weights) quantized deployment.
    fn apply_swap(&mut self, sp: SwapPoint) -> Result<(), JarvisError> {
        // invariant: validate_swaps errored already if the store is missing
        let store = self.store.as_mut().expect("validate_swaps checked the store");
        // invariant: validate_swaps checked every plan version exists
        let version = store.version(sp.version).expect("validate_swaps checked versions");
        let agent = DqnAgent::from_checkpoint(version.checkpoint.clone())?;
        store.force_swap(sp.at_seq, sp.version)?;
        self.policy = agent;
        self.quantized = None;
        Ok(())
    }

    /// Record an already-executed supervised swap plan in the store and
    /// install the final epoch's policy as active.
    fn commit_swaps(
        &mut self,
        swaps: &[SwapPoint],
        mut epoch_agents: Vec<DqnAgent>,
    ) -> Result<(), JarvisError> {
        if swaps.is_empty() {
            return Ok(());
        }
        // invariant: validate_swaps errored already if the store is missing
        let store = self.store.as_mut().expect("validate_swaps checked the store");
        for sp in swaps {
            store.force_swap(sp.at_seq, sp.version)?;
        }
        // invariant: callers pass swaps.len() + 1 epoch agents, never zero
        self.policy = epoch_agents.pop().expect("one agent per epoch");
        self.quantized = None;
        Ok(())
    }

    /// One background fine-tuning pass (DESIGN.md §16): drain every
    /// eligible slot's replay delta — at least
    /// [`FineTuneConfig::min_delta`] experiences and an attached
    /// `OptimizerCheckpoint` — and replay it into that home's checkpoint
    /// through `pool`, off the decision path. The drained deltas are then
    /// pooled (in home-id order) into a fleet-level candidate: the current
    /// policy's checkpoint replayed over every drained experience,
    /// registered in the store and staged for shadow evaluation.
    ///
    /// Deterministic across pool sizes: the pool schedules *where* each
    /// per-home tune runs, never *what* it computes, and per-home results
    /// land in pre-assigned slots.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] for invalid `cfg`, when online
    /// learning is not enabled, or when a home carries a corrupt optimizer
    /// checkpoint, and [`JarvisError::Neural`] from the replay passes.
    pub fn fine_tune(
        &mut self,
        pool: &WorkerPool,
        cfg: &FineTuneConfig,
    ) -> Result<FineTuneReport, JarvisError> {
        cfg.validate()?;
        if self.store.is_none() {
            return Err(JarvisError::Config(
                "fine-tuning needs online learning enabled (enable_online)".into(),
            ));
        }
        let mut homes_skipped = 0usize;
        let mut work: Vec<(u64, OptimizerCheckpoint, Vec<Experience>)> = Vec::new();
        let mut pooled: Vec<Experience> = Vec::new();
        for (&id, slot) in &mut self.homes {
            let Some(learner) = slot.online() else { continue };
            if learner.replay.len() < cfg.min_delta {
                homes_skipped += 1;
                continue;
            }
            let Some(json) = slot.checkpoint_json() else {
                homes_skipped += 1;
                continue;
            };
            let ocp = OptimizerCheckpoint::from_json(json).map_err(|err| {
                JarvisError::Config(format!(
                    "home {id} carries a corrupt optimizer checkpoint: {err}"
                ))
            })?;
            // invariant: slot.online() returned Some a few lines up
            let delta = slot.online_mut().expect("learner checked above").drain_replay();
            pooled.extend(delta.iter().cloned());
            work.push((id, ocp, delta));
        }

        let steps = cfg.replay_steps;
        let mut tuned: Vec<Option<Result<(u64, String), JarvisError>>> =
            work.iter().map(|_| None).collect();
        {
            let mut tasks: Vec<ScopedTask<'_>> = Vec::with_capacity(work.len());
            for (out, (id, ocp, delta)) in tuned.iter_mut().zip(&work) {
                tasks.push(Box::new(move || {
                    *out = Some(tune_one(*id, ocp, delta, steps));
                }));
            }
            pool.run_scoped(tasks);
        }

        let mut homes_tuned = 0usize;
        let mut experiences = 0usize;
        for (result, (_, _, delta)) in tuned.into_iter().zip(&work) {
            // invariant: run_scoped returns only after every task executed
            let (id, json) = result.expect("the pool runs every task")?;
            if let Some(slot) = self.homes.get_mut(&id) {
                slot.set_checkpoint(Some(json));
            }
            homes_tuned += 1;
            experiences += delta.len();
        }

        let mut candidate = None;
        if !pooled.is_empty() {
            let mut agent = DqnAgent::from_checkpoint(self.policy.checkpoint())?;
            for exp in &pooled {
                agent.remember(exp.clone());
            }
            for _ in 0..steps {
                agent.replay()?;
            }
            // invariant: fine_tune errored at entry if the store is missing
            let store = self.store.as_mut().expect("checked above");
            let id = store.register(agent.checkpoint());
            // A candidate whose bytes dedup to the active version learned
            // nothing — don't stage a self-shadow.
            if id != store.active() {
                if store.candidate() != Some(id) {
                    store.stage(id)?;
                }
                candidate = Some(id);
            }
        }
        Ok(FineTuneReport { homes_tuned, homes_skipped, experiences, candidate })
    }

    /// Promote the staged shadow candidate iff its accumulated score clears
    /// every [`ShadowGates`] gate, swapping it in as the active policy at
    /// the current stream position. Returns the swap record on promotion,
    /// `None` when the gates hold it back.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] when online learning is not enabled
    /// and [`JarvisError::Neural`] for a corrupt stored checkpoint.
    pub fn try_promote(&mut self) -> Result<Option<SwapRecord>, JarvisError> {
        let at_seq = self.next_seq;
        let Some(store) = self.store.as_mut() else {
            return Err(JarvisError::Config(
                "promotion needs online learning enabled (enable_online)".into(),
            ));
        };
        let Some(record) = store.try_promote(at_seq) else {
            return Ok(None);
        };
        // invariant: try_promote only returns ids the store holds
        let version = store.version(record.to).expect("promoted version is stored");
        self.policy = DqnAgent::from_checkpoint(version.checkpoint.clone())?;
        self.quantized = None;
        Ok(Some(record))
    }

    /// Sequential reference execution: same shard partitioning, no threads,
    /// no queue bounds — the bit-exact baseline for any shard count and any
    /// steal schedule.
    fn serve_deterministic(
        &mut self,
        events: Vec<Envelope>,
        shadow: Option<&DqnAgent>,
    ) -> Result<Vec<ShardOutput>, JarvisError> {
        let shards = self.config.shards;
        let mut streams: Vec<Vec<Envelope>> = (0..shards).map(|_| Vec::new()).collect();
        for env in events {
            let shard = self.shard_of(env.home);
            streams[shard].push(env);
        }
        let view = PolicyView::new(&self.policy, self.quantized.as_ref(), shadow);
        let mut outputs = Vec::with_capacity(shards);
        for stream in streams {
            // The full slot map is passed through: shard routing already
            // confined each stream to the homes that shard owns.
            outputs.push(shard::process_sequential(
                &mut self.homes,
                view,
                self.config.batch_window,
                self.config.telemetry,
                stream.into_iter(),
            )?);
        }
        Ok(outputs)
    }

    /// Threaded work-stealing execution: one scoped worker per shard behind
    /// a lock-free bounded ingest ring; the router applies the overload
    /// policy; closed inference batches are published on per-shard run
    /// queues that idle siblings steal from in a fixed victim order.
    fn serve_threaded(
        &mut self,
        events: Vec<Envelope>,
        shadow: Option<&DqnAgent>,
    ) -> Result<(Vec<ShardOutput>, Vec<Rejection>), JarvisError> {
        let shards = self.config.shards;
        let route: Vec<usize> = events.iter().map(|env| self.shard_of(env.home)).collect();
        let mut parts: Vec<BTreeMap<u64, HomeSlot>> = (0..shards).map(|_| BTreeMap::new()).collect();
        for (id, slot) in std::mem::take(&mut self.homes) {
            let shard = self.shard_of(id);
            parts[shard].insert(id, slot);
        }

        let view = PolicyView::new(&self.policy, self.quantized.as_ref(), shadow);
        let batch_window = self.config.batch_window;
        let throttle = Duration::from_nanos(self.config.worker_throttle_ns);
        let capacity = self.config.queue_capacity;
        let overload = self.config.overload;
        let telemetry = self.config.telemetry;

        let shared = WorkerShared::new(shards, capacity);
        let mut rejected: Vec<Rejection> = Vec::new();
        let mut overload_err: Option<JarvisError> = None;
        let mut results: Vec<Result<ShardOutput, JarvisError>> = Vec::with_capacity(shards);

        std::thread::scope(|s| {
            let shared = &shared;
            let mut handles = Vec::with_capacity(shards);
            for (idx, part) in parts.iter_mut().enumerate() {
                handles.push(s.spawn(move || {
                    shard::run_worker(
                        idx,
                        part,
                        view,
                        batch_window,
                        throttle,
                        telemetry,
                        shared,
                    )
                }));
            }
            'route: for (env, &shard_idx) in events.into_iter().zip(&route) {
                // The enqueue stamp is taken at router hand-off, so reported
                // latency covers queueing + window residency + inference —
                // and, under Block backpressure, the blocking wait itself.
                let mut job = Job { env, enqueued: telemetry.map(|now| now()) };
                match overload {
                    OverloadPolicy::Block => loop {
                        match shared.ingest[shard_idx].try_push(job) {
                            Ok(()) => break,
                            Err(PushError::Full(back)) => {
                                job = back;
                                // A shard that stopped consuming mid-route
                                // died: its error surfaces from the join.
                                if shared.done[shard_idx].load(Ordering::Acquire)
                                    || shared.abort.load(Ordering::Acquire)
                                {
                                    break 'route;
                                }
                                std::thread::yield_now();
                            }
                        }
                    },
                    OverloadPolicy::Shed => {
                        if let Err(PushError::Full(back)) = shared.ingest[shard_idx].try_push(job) {
                            rejected.push(Rejection {
                                seq: back.env.seq,
                                home: back.env.home,
                                shard: shard_idx,
                            });
                        }
                    }
                    OverloadPolicy::Error => {
                        if let Err(PushError::Full(_)) = shared.ingest[shard_idx].try_push(job) {
                            overload_err =
                                Some(JarvisError::Overload { shard: shard_idx, capacity });
                            break 'route;
                        }
                    }
                }
            }
            for ring in &shared.ingest {
                ring.close();
            }
            for handle in handles {
                results.push(handle.join().unwrap_or_else(|_| {
                    Err(JarvisError::Config("a worker shard panicked".into()))
                }));
            }
        });

        // Reassemble home ownership before surfacing any error, so the
        // runtime stays usable after an overload abort.
        for part in parts {
            self.homes.extend(part);
        }
        if let Some(err) = overload_err {
            return Err(err);
        }
        let mut outputs = Vec::with_capacity(shards);
        for result in results {
            outputs.push(result?);
        }
        Ok((outputs, rejected))
    }

    /// Snapshot the whole runtime: fleet policy plus every home.
    #[must_use]
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            shards: self.config.shards,
            next_seq: self.next_seq,
            policy: self.policy.checkpoint(),
            homes: self.homes.values().map(HomeSlot::snapshot).collect(),
            online: self.online.clone(),
            store: self.store.clone(),
        }
    }

    /// Snapshot one shard: the fleet policy plus the homes it owns.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] when `shard` is out of range.
    pub fn shard_snapshot(&self, shard: usize) -> Result<ShardSnapshot, JarvisError> {
        if shard >= self.config.shards {
            return Err(JarvisError::Config(format!(
                "shard {shard} out of range for {} shards",
                self.config.shards
            )));
        }
        Ok(ShardSnapshot {
            shard,
            shards: self.config.shards,
            policy: self.policy.checkpoint(),
            homes: self
                .homes
                .values()
                .filter(|slot| self.shard_of(slot.id()) == shard)
                .map(HomeSlot::snapshot)
                .collect(),
        })
    }

    /// Restore one shard's homes from a snapshot. The homes must already be
    /// registered (the device catalogue is deployment configuration, not
    /// snapshot payload); their dynamic state — table, device state, clock,
    /// counters, attached checkpoint — is replaced byte-for-byte.
    ///
    /// The fleet policy itself is *not* replaced here (it is shared across
    /// shards); the snapshot's policy checkpoint is validated for
    /// compatibility instead. Use [`ServingRuntime::restore`] to restore
    /// policy and homes together.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] when the snapshot was taken under a
    /// different shard count, names an unregistered home, or carries a
    /// policy with mismatched dimensions.
    pub fn restore_shard(&mut self, snap: &ShardSnapshot) -> Result<(), JarvisError> {
        if snap.shards != self.config.shards {
            return Err(JarvisError::Config(format!(
                "snapshot taken under {} shards, runtime has {}",
                snap.shards, self.config.shards
            )));
        }
        self.check_policy_compat(&snap.policy)?;
        self.restore_homes(&snap.homes)
    }

    /// Restore the whole runtime from a [`RuntimeSnapshot`]: the fleet
    /// policy resumes from its bit-exact checkpoint and every home's
    /// dynamic state is replaced. Homes must already be registered.
    ///
    /// # Errors
    ///
    /// Returns [`JarvisError::Config`] for unregistered homes and
    /// [`JarvisError::Neural`] when the policy checkpoint is corrupt.
    pub fn restore(&mut self, snap: &RuntimeSnapshot) -> Result<(), JarvisError> {
        self.check_policy_compat(&snap.policy)?;
        self.restore_homes(&snap.homes)?;
        self.policy = DqnAgent::from_checkpoint(snap.policy.clone())?;
        // The quantized snapshot was taken from the *old* weights; a
        // restored policy must be re-quantized (and re-gated) explicitly.
        self.quantized = None;
        self.next_seq = snap.next_seq;
        // Online learning state travels with the snapshot: restoring the
        // store alongside the policy is what makes rollback byte-identical.
        self.online = snap.online.clone();
        self.store = snap.store.clone();
        Ok(())
    }

    fn check_policy_compat(&self, cp: &DqnCheckpoint) -> Result<(), JarvisError> {
        let mine = self.policy.config();
        if cp.config.state_dim != mine.state_dim || cp.config.num_actions != mine.num_actions {
            return Err(JarvisError::Config(format!(
                "snapshot policy is {}x{}, runtime policy is {}x{}",
                cp.config.state_dim, cp.config.num_actions, mine.state_dim, mine.num_actions
            )));
        }
        Ok(())
    }

    fn restore_homes(&mut self, snaps: &[HomeSnapshot]) -> Result<(), JarvisError> {
        // Validate all ids up front so a failed restore leaves no home
        // half-updated.
        for snap in snaps {
            if !self.homes.contains_key(&snap.id) {
                return Err(JarvisError::Config(format!(
                    "snapshot names unregistered home {}",
                    snap.id
                )));
            }
        }
        for snap in snaps {
            if let Some(slot) = self.homes.get_mut(&snap.id) {
                slot.restore(snap)?;
            }
        }
        Ok(())
    }
}

/// Replay one home's drained delta into its optimizer checkpoint. Pure:
/// the result depends only on the inputs, so the worker pool can run these
/// on any thread in any order without affecting the bytes produced.
fn tune_one(
    id: u64,
    ocp: &OptimizerCheckpoint,
    delta: &[Experience],
    steps: u32,
) -> Result<(u64, String), JarvisError> {
    let mut agent = DqnAgent::from_checkpoint(ocp.agent.clone())?;
    for exp in delta {
        agent.remember(exp.clone());
    }
    for _ in 0..steps {
        agent.replay()?;
    }
    let mut updated = ocp.clone();
    updated.agent = agent.checkpoint();
    Ok((id, updated.to_json()))
}

/// One home's unsequenced ingest items plus accounting.
struct DayItems {
    home: u64,
    items: Vec<(u32, u32, EventKind)>,
    mapped: usize,
    queries: usize,
    unmapped: usize,
    faults: Option<FaultSummary>,
}
