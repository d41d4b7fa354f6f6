//! Work-stealing invariants: whatever the shard count or batch window, the
//! served outcome stream is bitwise identical to the single-shard oracle —
//! stealing moves work, never answers.

use jarvis::{Jarvis, JarvisConfig, OptimizerConfig};
use jarvis_policy::SafeTransitionTable;
use jarvis_rl::{DqnAgent, DqnConfig};
use jarvis_runtime::{Envelope, EventKind, Outcome, RuntimeConfig, ServingRuntime};
use jarvis_sim::{FleetGenerator, HomeDataset};
use jarvis_smart_home::SmartHome;

/// A home catalogue, a learned table, and a policy agent sized for it.
struct Fixture {
    home: SmartHome,
    table: SafeTransitionTable,
    policy: DqnAgent,
}

fn fixture() -> Fixture {
    let home = SmartHome::evaluation_home();
    let config = JarvisConfig { optimizer: OptimizerConfig::fast(), ..JarvisConfig::default() };
    let mut jarvis = Jarvis::new(home.clone(), config);
    jarvis.learning_phase(&HomeDataset::home_a(3), 0..2).expect("learning phase");
    jarvis.learn_policies().expect("SPL");
    let table = jarvis.outcome().expect("outcome").table.clone();

    let state_dim = home.fsm().state_sizes().iter().sum::<usize>() + 5;
    let num_actions = home.agent_mini_actions().len() + 1;
    let mut cfg = DqnConfig::new(state_dim, num_actions);
    cfg.hidden = vec![16];
    cfg.seed = 11;
    let policy = DqnAgent::new(cfg).expect("policy net");
    Fixture { home, table, policy }
}

fn build_runtime(f: &Fixture, config: RuntimeConfig, homes: u32) -> ServingRuntime {
    let mut rt = ServingRuntime::new(config, f.policy.clone()).expect("runtime");
    for id in 0..homes {
        rt.register_home(u64::from(id), f.home.clone(), f.table.clone()).expect("register");
    }
    rt
}

/// Bitwise outcome comparison: `PartialEq` plus the Debug rendering, which
/// prints `f64`s with shortest-round-trip precision and so distinguishes
/// any bit difference.
fn assert_outcomes_bit_identical(a: &[Outcome], b: &[Outcome], what: &str) {
    assert_eq!(a, b, "{what}: outcome lists differ");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: f64 bits differ");
}

/// The single-shard deterministic serve of a fleet day — the oracle every
/// other configuration must match byte for byte.
fn oracle(f: &Fixture, fleet: &FleetGenerator, day: u32) -> (Vec<Envelope>, Vec<Outcome>) {
    let mut config = RuntimeConfig::new(1);
    config.deterministic = true;
    let mut rt = build_runtime(f, config, fleet.num_homes());
    let ingest = rt.ingest_fleet_day(fleet, day, None, Some(30)).expect("ingest");
    let report = rt.serve(ingest.envelopes.clone()).expect("oracle serve");
    (ingest.envelopes, report.outcomes)
}

#[test]
fn outputs_are_invariant_across_shard_counts_det_and_threaded() {
    let f = fixture();
    let fleet = FleetGenerator::new(61, 8);
    let (envelopes, want) = oracle(&f, &fleet, 1);
    for shards in [2usize, 4, 8] {
        for deterministic in [true, false] {
            let mut config = RuntimeConfig::new(shards);
            config.deterministic = deterministic;
            config.batch_window = 8;
            let mut rt = build_runtime(&f, config, fleet.num_homes());
            let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(30)).expect("ingest");
            assert_eq!(envelopes, ingest.envelopes, "ingest is shard-count independent");
            let report = rt.serve(ingest.envelopes).expect("serve");
            assert!(report.rejected.is_empty(), "Block serving never sheds");
            assert_outcomes_bit_identical(
                &want,
                &report.outcomes,
                &format!("{shards} shards, deterministic={deterministic}"),
            );
        }
    }
}

/// One hot home receives the overwhelming majority of the stream while
/// seven idle homes barely tick: the threaded work-stealing run must still
/// answer byte-identically to the single-shard oracle, and load-aware
/// placement must isolate the hot home on its own shard.
#[test]
fn skewed_hot_home_with_stealing_matches_single_shard_oracle() {
    let f = fixture();
    let fleet = FleetGenerator::new(73, 8);

    // Synthesize the skewed stream directly: hand-built query envelopes
    // keep the skew exact and the sequencing deterministic.
    let make_stream = || -> Vec<Envelope> {
        let mut envs = Vec::new();
        let mut seq = 0u64;
        for minute in 0..240u32 {
            // Home 0 is queried every minute; the others once an hour.
            let homes: Vec<u64> = if minute % 60 == 0 { (0..8).collect() } else { vec![0] };
            for home in homes {
                envs.push(Envelope {
                    seq,
                    home,
                    minute,
                    kind: EventKind::Query {
                        indoor_c: 21.0 + f64::from(minute % 7),
                        outdoor_c: 12.5,
                        price_per_kwh: 0.21,
                    },
                });
                seq += 1;
            }
        }
        envs
    };

    let mut oracle_cfg = RuntimeConfig::new(1);
    oracle_cfg.deterministic = true;
    let mut oracle_rt = build_runtime(&f, oracle_cfg, fleet.num_homes());
    let want = oracle_rt.serve(make_stream()).expect("oracle serve").outcomes;

    let mut config = RuntimeConfig::new(4);
    config.batch_window = 8;
    let mut rt = build_runtime(&f, config, fleet.num_homes());
    let report = rt.serve(make_stream()).expect("threaded skewed serve");
    assert_outcomes_bit_identical(&want, &report.outcomes, "skewed hot home");

    // Load-aware placement puts the hot home alone on its shard: its event
    // count dwarfs the rest, so LPT assigns it first and nothing else joins
    // until every other shard carries more weight.
    let hot_shard = rt.shard_of(0);
    for id in 1..8u64 {
        assert_ne!(
            rt.shard_of(id),
            hot_shard,
            "idle home {id} must not share the hot home's shard"
        );
    }
}

/// Deploy the quantized policy on a runtime (gate at `min_agreement`) and
/// return the measured agreement.
fn deploy_quantized(rt: &mut ServingRuntime, min_agreement: f64) -> f64 {
    let calib = rt.calibration_observations();
    let rows: Vec<&[f64]> = calib.iter().map(Vec::as_slice).collect();
    rt.quantize_policy(&rows, min_agreement).expect("quantize + gate")
}

#[test]
fn quantized_serving_is_invariant_across_shards_and_modes() {
    let f = fixture();
    let fleet = FleetGenerator::new(83, 6);

    // Quantized single-shard deterministic serve is the quantized oracle.
    let mut config = RuntimeConfig::new(1);
    config.deterministic = true;
    let mut rt = build_runtime(&f, config, fleet.num_homes());
    let agreement = deploy_quantized(&mut rt, 0.0);
    assert!((0.0..=1.0).contains(&agreement));
    let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(30)).expect("ingest");
    let envelopes = ingest.envelopes;
    let want = rt.serve(envelopes.clone()).expect("quantized oracle").outcomes;
    assert!(want.iter().any(|o| matches!(o, Outcome::Decision { .. })));

    // Every shard count × execution mode reproduces it bit for bit: the
    // int8 forward is i32-associative, so batch grouping, stealing, and
    // pool scheduling cannot move a single bit.
    for shards in [2usize, 4] {
        for deterministic in [true, false] {
            let mut config = RuntimeConfig::new(shards);
            config.deterministic = deterministic;
            config.batch_window = 8;
            let mut rt = build_runtime(&f, config, fleet.num_homes());
            deploy_quantized(&mut rt, 0.0);
            let mut ingest_rt = rt.ingest_fleet_day(&fleet, 1, None, Some(30)).expect("ingest");
            assert_eq!(envelopes, ingest_rt.envelopes);
            let report = rt.serve(std::mem::take(&mut ingest_rt.envelopes)).expect("serve");
            assert_outcomes_bit_identical(
                &want,
                &report.outcomes,
                &format!("quantized {shards} shards det={deterministic}"),
            );
        }
    }
}

#[test]
fn quantized_gate_rejects_and_keeps_f64_serving() {
    let f = fixture();
    let fleet = FleetGenerator::new(83, 2);
    let mut config = RuntimeConfig::new(1);
    config.deterministic = true;
    let mut rt = build_runtime(&f, config, fleet.num_homes());

    // An impossible gate (> 1.0) must fail and leave the f64 path deployed.
    let calib = rt.calibration_observations();
    let rows: Vec<&[f64]> = calib.iter().map(Vec::as_slice).collect();
    assert!(rt.quantize_policy(&rows, 1.5).is_err(), "gate above 1.0 cannot pass");
    assert!(rt.quantized_policy().is_none(), "failed gate must not deploy");
    assert!(rt.quantize_policy(&[], 0.0).is_err(), "empty calibration corpus");

    // f64 outcomes after the failed gate match a never-quantized runtime.
    let (_, want) = oracle(&f, &fleet, 1);
    let ingest = rt.ingest_fleet_day(&fleet, 1, None, Some(30)).expect("ingest");
    let report = rt.serve(ingest.envelopes).expect("serve");
    assert_outcomes_bit_identical(&want, &report.outcomes, "f64 after failed gate");

    // A passing gate deploys; clearing undeploys and f64 serving returns.
    let agreement = deploy_quantized(&mut rt, 0.0);
    assert!(rt.quantized_policy().is_some());
    assert!(
        rt.quantized_policy().map(jarvis_rl::QuantizedPolicy::agreement)
            == Some(agreement)
    );
    rt.clear_quantized_policy();
    assert!(rt.quantized_policy().is_none());
}
