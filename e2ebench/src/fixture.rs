//! The learned fleet fixture every workload serves, and the seeded input
//! streams it is served with.
//!
//! Everything here runs before the timed region. Homes are onboarded the way
//! a deployment onboards them: their learning-phase days are written as
//! logger JSON lines (generator work), then parsed back
//! (`EventLog::from_json_lines` → `parse_episodes`) and learned into a
//! per-home `P_safe` (`learn_safe_transitions`). One fleet policy is trained
//! with `Optimizer::train` in the deployed network shape. The served stream
//! is built with `ingest_day` and engineered attacks from
//! `jarvis_attacks::build_corpus` are spliced into it at seeded positions.

use std::time::Instant;

use jarvis::{
    DayScenario, HomeRlEnv, JarvisConfig, Optimizer, OptimizerCheckpoint, OptimizerConfig,
    Parallelism, SmartReward,
};
use jarvis_iot_model::{EpisodeConfig, MiniAction};
use jarvis_policy::{learn_safe_transitions, MatchMode, SafeTransitionTable, SplConfig};
use jarvis_rl::DqnAgent;
use jarvis_runtime::{Envelope, EventKind, RuntimeConfig, ServingRuntime};
use jarvis_sim::{DriftSchedule, FleetGenerator, HomeDataset};
use jarvis_smart_home::{EventLog, SmartHome};
use jarvis_stdkit::json::ToJson;
use jarvis_stdkit::rng::{ChaCha8Rng, Rng, SeedableRng};

use crate::trace::Tracer;

/// Fleet DQN training episodes (one simulated day of 1,440 steps each).
/// The deployed default is 20; a handful keeps set-up from dominating a
/// run while still producing a trained, non-degenerate policy.
pub const TRAIN_EPISODES: usize = 3;

/// Replay memory a deployed policy keeps for fine-tuning (experiences).
pub const HOME_REPLAY_CAPACITY: usize = 256;

/// Minutes between two decision queries of one home.
pub const QUERY_EVERY: u32 = 15;

/// Where a workload's homes come from.
pub enum Source {
    /// `FleetGenerator` members: the replay/live fleet.
    Fleet(Vec<HomeDataset>),
    /// One occupant-change drift schedule per home: the adapt fleet.
    Drift(Vec<DriftSchedule>),
}

impl Source {
    /// A `FleetGenerator` fleet of `homes` members.
    #[must_use]
    pub fn fleet(seed: u64, homes: u32) -> Self {
        let fleet = FleetGenerator::new(seed, homes);
        Source::Fleet((0..homes).map(|h| fleet.dataset(h)).collect())
    }

    /// `homes` households, each switching occupants on `change_day`.
    #[must_use]
    pub fn drift(seed: u64, homes: u32, change_day: u32) -> Self {
        let fleet = FleetGenerator::new(seed, homes);
        Source::Drift(
            (0..homes)
                .map(|h| DriftSchedule::occupant_change(fleet.member_seed(h), change_day))
                .collect(),
        )
    }

    fn homes(&self) -> usize {
        match self {
            Source::Fleet(d) => d.len(),
            Source::Drift(s) => s.len(),
        }
    }

    /// The dataset and generator-calendar day behind `day` of home `h`.
    fn day(&self, h: usize, day: u32) -> (&HomeDataset, u32) {
        match self {
            Source::Fleet(d) => (&d[h], day),
            Source::Drift(s) => (s[h].dataset(day), s[h].effective_day(day)),
        }
    }
}

/// Wall time of each set-up stage, in nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTimes {
    /// Generator work: datasets, learning-phase logs written as JSON lines,
    /// stream ingest and attack splicing.
    pub generate_ns: u64,
    /// `EventLog::from_json_lines` + `parse_episodes`.
    pub log_parse_ns: u64,
    /// `learn_safe_transitions`.
    pub spl_ns: u64,
    /// Fleet DQN training.
    pub dqn_train_ns: u64,
    /// `ServingRuntime::new` + `register_home` for every home.
    pub register_ns: u64,
    /// `ingest_day` calls building the served stream (part of generate).
    pub ingest_ns: u64,
    /// Envelopes those calls produced.
    pub ingest_events: u64,
    /// `HomeDataset::activity` for the same home-days, timed on its own
    /// after set-up (traced runs only; see [`activity_ns`]).
    pub activity_ns: u64,
}

/// One served day of the whole fleet: envelopes sequenced from 0 in arrival
/// order, with the positions that carry an injected attack.
#[derive(Debug, Clone, PartialEq)]
pub struct Day {
    /// The day's envelopes; `seq` is the index here (re-based when served).
    pub envelopes: Vec<Envelope>,
    /// `attack[i]`: envelope `i` is an injected attack.
    pub attack: Vec<bool>,
}

impl Day {
    /// The envelopes of `self.envelopes[range]`, sequenced from `base`.
    #[must_use]
    pub fn sequenced(&self, range: std::ops::Range<usize>, base: u64) -> Vec<Envelope> {
        self.envelopes[range.clone()]
            .iter()
            .zip(range)
            .map(|(env, i)| Envelope {
                seq: base + i as u64,
                ..env.clone()
            })
            .collect()
    }
}

/// Everything a workload serves: per-home learned tables, the trained
/// fleet policy, and the pool of served days.
pub struct Fixture {
    /// The home catalogue every fleet member shares.
    pub home: SmartHome,
    /// Per-home learned `P_safe`, indexed by home id.
    pub tables: Vec<SafeTransitionTable>,
    /// The trained fleet policy (replay memory emptied).
    pub policy: DqnAgent,
    /// The trained optimizer's checkpoint JSON, replay memory emptied
    /// (attached per home for fine-tuning).
    pub checkpoint: String,
    /// The served days, in order.
    pub days: Vec<Day>,
    /// The runtime the stream was ingested through, homes registered.
    pub runtime: ServingRuntime,
    /// Set-up stage times.
    pub times: StageTimes,
}

/// The fixture's shape.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload seed.
    pub seed: u64,
    /// Learning-phase days per home (days `0..learn_days`).
    pub learn_days: u32,
    /// Served days (days `learn_days..learn_days + serve_days`).
    pub serve_days: u32,
    /// Share of decision-query slots replaced by an engineered attack.
    pub attack_rate: f64,
    /// Runtime configuration the homes are registered under.
    pub config: RuntimeConfig,
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The deployed monitor's match mode (`JarvisConfig::default()`).
#[must_use]
pub fn deployed_mode() -> MatchMode {
    JarvisConfig::default().constraint_mode
}

/// Single-mini attack actions of the engineered violation corpus.
#[must_use]
pub fn attack_actions(home: &SmartHome) -> Vec<MiniAction> {
    jarvis_attacks::build_corpus(home)
        .iter()
        .filter(|v| v.action.len() == 1)
        .map(|v| v.action.minis()[0])
        .collect()
}

/// A runtime under `config` (in the deployed match mode) serving `policy`,
/// with home `h` registered under `tables[h]`.
///
/// # Panics
///
/// Panics when the runtime rejects the configuration or a home — the
/// fixture is sized for the policy, so this is a bug.
#[must_use]
pub fn register(
    home: &SmartHome,
    tables: &[SafeTransitionTable],
    policy: &DqnAgent,
    config: &RuntimeConfig,
) -> ServingRuntime {
    let mut config = config.clone();
    config.match_mode = deployed_mode();
    let mut runtime = ServingRuntime::new(config, policy.clone()).expect("runtime config");
    for (h, table) in tables.iter().enumerate() {
        runtime
            .register_home(h as u64, home.clone(), table.clone())
            .expect("register home");
    }
    runtime
}

/// Build the fixture: onboarding, training, registration, stream. Each
/// stage is wrapped in a span when `tracer` records.
///
/// # Panics
///
/// Panics when a workspace layer rejects the generated inputs — a bug in
/// the program or the benchmark, never an expected outcome.
pub fn build(spec: &Spec, source: &Source, tracer: &mut Tracer) -> Fixture {
    let home = SmartHome::evaluation_home();
    let deployed = JarvisConfig::default();
    let mut times = StageTimes::default();
    let homes = source.homes();
    let setup = tracer.begin("setup", spec.seed);

    // Onboarding: write each home's learning phase as logger JSON lines,
    // parse it back, and learn the home's P_safe.
    let mut tables = Vec::with_capacity(homes);
    let mut behavior0 = None;
    for h in 0..homes {
        let span = tracer.begin("sim.generate", h as u64);
        let t0 = Instant::now();
        let mut log = EventLog::new();
        for day in 0..spec.learn_days {
            let (data, gen_day) = source.day(h, day);
            log.record_activity(&home, &data.activity(gen_day));
        }
        let lines = log.to_json_lines().expect("logger records serialize");
        times.generate_ns += elapsed_ns(t0);
        tracer.end(span);

        let span = tracer.begin("smart-home.log_parse", h as u64);
        let t0 = Instant::now();
        let parsed = EventLog::from_json_lines(&lines)
            .expect("logger lines parse")
            .parse_episodes(&home, deployed.episode)
            .expect("logged days replay through the FSM");
        times.log_parse_ns += elapsed_ns(t0);
        tracer.end(span);

        let span = tracer.begin("policy.spl", h as u64);
        let t0 = Instant::now();
        let outcome =
            learn_safe_transitions(home.fsm(), &parsed.episodes, None, &SplConfig::default());
        times.spl_ns += elapsed_ns(t0);
        tracer.end(span);
        tables.push(outcome.table);
        if h == 0 {
            behavior0 = Some(outcome.behavior);
        }
    }

    // One fleet policy, trained on home 0's first served day against its
    // learned table, in the deployed network shape, single-threaded.
    let span = tracer.begin("core.dqn_train", spec.seed);
    let t0 = Instant::now();
    let (data0, gen_day0) = source.day(0, spec.learn_days);
    let scenario = DayScenario::from_dataset(&home, data0, gen_day0);
    let mut reward = SmartReward::evaluation(
        deployed.weights,
        scenario.peak_price(),
        behavior0.expect("the fleet has a home 0"),
        EpisodeConfig::DAILY_MINUTES,
        home.fsm().num_devices(),
    );
    reward.set_chi(deployed.chi);
    let mode = deployed_mode();
    let mut env = HomeRlEnv::new(&home, &scenario, &reward)
        .constrained(&tables[0], mode)
        .with_detector(&tables[0], mode);
    let opt_cfg = OptimizerConfig {
        episodes: TRAIN_EPISODES,
        seed: spec.seed,
        parallelism: Parallelism::Single,
        ..deployed.optimizer.clone()
    };
    let mut optimizer = Optimizer::new(&env, opt_cfg.clone()).expect("deployed network shape");
    let stats = optimizer.train(&mut env).expect("DQN training");
    // The fleet serves, and homes carry, the trained weights and optimizer
    // state; the learning phase's replay memory stays behind (a home
    // fine-tunes on its own serving delta, in a bounded replay memory).
    let mut agent = optimizer.agent().checkpoint();
    agent.replay.clear();
    agent.config.replay_capacity = HOME_REPLAY_CAPACITY;
    let policy = DqnAgent::from_checkpoint(agent.clone()).expect("a trained checkpoint restores");
    let checkpoint = OptimizerCheckpoint {
        config: opt_cfg,
        agent,
        episodes_done: TRAIN_EPISODES,
        stats,
    }
    .to_json();
    times.dqn_train_ns = elapsed_ns(t0);
    tracer.end(span);

    let span = tracer.begin("runtime.register", spec.seed);
    let t0 = Instant::now();
    let mut runtime = register(&home, &tables, &policy, &spec.config);
    times.register_ns = elapsed_ns(t0);
    tracer.end(span);

    // The served stream: per-home ingest, merged into fleet arrival order,
    // with attacks spliced over seeded decision-query slots.
    let span = tracer.begin("sim.generate", spec.seed);
    let t0 = Instant::now();
    let attacks = attack_actions(&home);
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0xA77A_C4ED);
    let mut days = Vec::with_capacity(spec.serve_days as usize);
    for day in spec.learn_days..spec.learn_days + spec.serve_days {
        let ingest_span = tracer.begin("runtime.ingest", u64::from(day));
        let t_ingest = Instant::now();
        let mut merged: Vec<(u32, u64, usize, Envelope)> = Vec::new();
        for h in 0..homes {
            let (data, gen_day) = source.day(h, day);
            let report = runtime
                .ingest_day(h as u64, data, gen_day, None, Some(QUERY_EVERY))
                .expect("ingest a registered home");
            for (i, env) in report.envelopes.into_iter().enumerate() {
                merged.push((env.minute, env.home, i, env));
            }
        }
        merged.sort_by_key(|&(minute, home, i, _)| (minute, home, i));
        times.ingest_ns += elapsed_ns(t_ingest);
        times.ingest_events += merged.len() as u64;
        tracer.end(ingest_span);

        let mut envelopes = Vec::with_capacity(merged.len());
        let mut attack = Vec::with_capacity(merged.len());
        for (i, (_, _, _, mut env)) in merged.into_iter().enumerate() {
            env.seq = i as u64;
            let hit =
                matches!(env.kind, EventKind::Query { .. }) && rng.gen::<f64>() < spec.attack_rate;
            if hit {
                env.kind = EventKind::Action(attacks[rng.gen_range(0..attacks.len())]);
            }
            attack.push(hit);
            envelopes.push(env);
        }
        days.push(Day { envelopes, attack });
    }
    times.generate_ns += elapsed_ns(t0);
    tracer.end(span);

    tracer.end(setup);
    Fixture {
        home,
        tables,
        policy,
        checkpoint,
        days,
        runtime,
        times,
    }
}

/// The simulator's share of ingest: `HomeDataset::activity` for every
/// served home-day, timed on its own (one span).
#[must_use]
pub fn activity_ns(spec: &Spec, source: &Source, tracer: &mut Tracer) -> u64 {
    let span = tracer.begin("sim.activity", spec.seed);
    let t0 = Instant::now();
    for day in spec.learn_days..spec.learn_days + spec.serve_days {
        for h in 0..source.homes() {
            let (data, gen_day) = source.day(h, day);
            std::hint::black_box(data.activity(gen_day));
        }
    }
    let ns = elapsed_ns(t0);
    tracer.end(span);
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> Spec {
        let mut config = RuntimeConfig::new(1);
        config.deterministic = true;
        Spec {
            seed,
            learn_days: 2,
            serve_days: 2,
            attack_rate: 0.05,
            config,
        }
    }

    fn small(seed: u64) -> Fixture {
        build(
            &spec(seed),
            &Source::fleet(seed, 3),
            &mut Tracer::new(false),
        )
    }

    #[test]
    fn the_generator_is_deterministic_per_seed() {
        let a = small(5);
        let b = small(5);
        assert_eq!(
            a.days, b.days,
            "same seed: same envelopes and attack positions"
        );
        assert_eq!(a.tables, b.tables);
        assert_eq!(a.checkpoint, b.checkpoint);
        assert!(
            a.days.iter().flat_map(|d| &d.attack).any(|&hit| hit),
            "attacks are injected"
        );
    }

    #[test]
    fn two_seeds_give_different_streams() {
        let a = small(5);
        let b = small(6);
        assert_ne!(a.days, b.days);
    }

    #[test]
    fn homes_are_registered_with_learned_tables_in_the_deployed_mode() {
        let f = small(7);
        assert_eq!(f.runtime.config().match_mode, MatchMode::Generalized);
        assert_eq!(f.runtime.num_homes(), 3);
        assert!(
            f.tables.iter().all(|t| t != &SafeTransitionTable::new()),
            "tables are learned"
        );
    }
}
