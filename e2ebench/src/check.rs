//! Output accounting and correctness checks.
//!
//! [`Counts`] tallies every served slice against what was submitted.
//! [`Reenactor`] re-enacts the runtime's serving path through the layers'
//! public calls — FSM step, `P_safe` check, observation encoding, batched
//! Q forward, rank walk — and requires its verdicts and decisions to equal
//! the runtime's outcomes. With a recording tracer, every one of those calls
//! is a span, which is where the traced run's per-layer times come from.

use jarvis::{encode_observation, Verdict};
use jarvis_iot_model::{EnvAction, EnvState, MiniAction};
use jarvis_policy::{MatchMode, SafeTransitionTable};
use jarvis_rl::DqnAgent;
use jarvis_runtime::{DecisionSource, Envelope, EventKind, Outcome};
use jarvis_sim::MINUTES_PER_DAY;
use jarvis_smart_home::SmartHome;

use crate::trace::Tracer;

/// Deterministic counts over everything served in a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Events submitted to `serve*`.
    pub submitted: u64,
    /// Events rejected under backpressure.
    pub rejected: u64,
    /// Events without an outcome (rejected, lost, or in a failed call).
    pub failed: u64,
    /// Benign (non-injected) actions.
    pub benign_actions: u64,
    /// `Violation` verdicts on benign actions.
    pub false_alarms: u64,
    /// Injected attacks.
    pub attacks: u64,
    /// Injected attacks with a `Violation` verdict.
    pub detected: u64,
    /// Events that stepped an FSM: safe actions plus sensor events.
    pub fsm_steps: u64,
    /// Decisions returned.
    pub decisions: u64,
    /// Decisions other than the no-op.
    pub non_noop: u64,
    /// Sum of `Outcome::Decision.rank` (unsafe higher-Q actions skipped).
    pub rank_sum: u64,
}

impl Counts {
    /// Tally one `serve*` call: `envelopes` as generated (local seqs, sorted)
    /// and submitted re-sequenced from `base`, `attack` aligned with them,
    /// `outcomes` sorted by seq.
    ///
    /// # Errors
    ///
    /// Describes the first outcome that answers no submitted event, answers
    /// one with the wrong kind, or breaks the accounting identity.
    pub fn tally(
        &mut self,
        envelopes: &[Envelope],
        attack: &[bool],
        base: u64,
        outcomes: &[Outcome],
        rejected: usize,
    ) -> Result<(), String> {
        if outcomes.len() + rejected != envelopes.len() {
            return Err(format!(
                "{} outcomes + {rejected} rejections != {} events submitted",
                outcomes.len(),
                envelopes.len()
            ));
        }
        self.submitted += envelopes.len() as u64;
        self.rejected += rejected as u64;
        self.failed += (envelopes.len() - outcomes.len()) as u64;
        let mut next = outcomes.iter().peekable();
        for (env, &hit) in envelopes.iter().zip(attack) {
            let seq = base + env.seq;
            let Some(out) = next.next_if(|o| o.seq() == seq) else {
                continue;
            };
            if out.home() != env.home {
                return Err(format!(
                    "seq {seq}: outcome for home {}, event for {}",
                    out.home(),
                    env.home
                ));
            }
            match (&env.kind, out) {
                (EventKind::Action(_), Outcome::Verdict { verdict, .. }) => {
                    let violation = *verdict == Verdict::Violation;
                    if hit {
                        self.attacks += 1;
                        self.detected += u64::from(violation);
                    } else {
                        self.benign_actions += 1;
                        self.false_alarms += u64::from(violation);
                    }
                    self.fsm_steps += u64::from(*verdict == Verdict::Safe);
                }
                (EventKind::Sensor(_), Outcome::SensorApplied { .. }) => self.fsm_steps += 1,
                (EventKind::Query { .. }, Outcome::Decision { flat, rank, .. }) => {
                    self.decisions += 1;
                    self.non_noop += u64::from(*flat != 0);
                    self.rank_sum += *rank as u64;
                }
                _ => return Err(format!("seq {seq}: outcome kind does not answer the event")),
            }
        }
        if let Some(extra) = next.next() {
            return Err(format!(
                "outcome for seq {} answers no submitted event",
                extra.seq()
            ));
        }
        Ok(())
    }

    /// Detected attacks ÷ attacks injected.
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        ratio(self.detected, self.attacks)
    }

    /// False alarms ÷ benign actions.
    #[must_use]
    pub fn false_alarm_rate(&self) -> f64 {
        ratio(self.false_alarms, self.benign_actions)
    }

    /// The degeneracy guards: refuse to report a fixture that collapsed
    /// into the empty-table path (every action a violation, the FSM never
    /// stepping, every decision the no-op) or that carries no attacks.
    ///
    /// # Errors
    ///
    /// Names every guard that tripped.
    pub fn guard(&self) -> Result<(), String> {
        let mut tripped = Vec::new();
        if 2 * self.false_alarms >= self.benign_actions {
            tripped.push(format!(
                "{} of {} benign actions flagged (at least half)",
                self.false_alarms, self.benign_actions
            ));
        }
        if self.fsm_steps == 0 {
            tripped.push("no event stepped an FSM".to_owned());
        }
        if self.non_noop == 0 {
            tripped.push(format!("all {} decisions are the no-op", self.decisions));
        }
        if self.attacks == 0 {
            tripped.push("no attack was injected".to_owned());
        }
        if tripped.is_empty() {
            Ok(())
        } else {
            Err(tripped.join("; "))
        }
    }
}

/// `num / den`, 0 for an empty base.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Bitwise outcome equality: `PartialEq` plus the `Debug` rendering, which
/// prints every `f64` with shortest round-trip precision.
#[must_use]
pub fn bitwise_equal(a: &[Outcome], b: &[Outcome]) -> bool {
    a == b && format!("{a:?}") == format!("{b:?}")
}

/// A query parked for the next batched forward.
struct Parked {
    seq: u64,
    home: u64,
    obs: Vec<f64>,
    valid: Vec<usize>,
}

/// The runtime's serving path, re-enacted through public calls.
pub struct Reenactor<'a> {
    home: &'a SmartHome,
    tables: &'a [SafeTransitionTable],
    mode: MatchMode,
    window: usize,
    sizes: Vec<usize>,
    actions: Vec<MiniAction>,
    states: Vec<EnvState>,
    valid: Vec<Option<Vec<usize>>>,
    parked: Vec<Parked>,
}

impl<'a> Reenactor<'a> {
    /// Every home at its midnight state, as freshly registered.
    #[must_use]
    pub fn new(
        home: &'a SmartHome,
        tables: &'a [SafeTransitionTable],
        mode: MatchMode,
        window: usize,
    ) -> Self {
        Reenactor {
            home,
            tables,
            mode,
            window,
            sizes: home.fsm().state_sizes(),
            actions: home.agent_mini_actions(),
            states: vec![home.midnight_state(); tables.len()],
            valid: vec![None; tables.len()],
            parked: Vec::new(),
        }
    }

    fn step(
        &mut self,
        h: usize,
        mini: MiniAction,
        tr: &mut Tracer,
        seq: u64,
    ) -> Result<(), String> {
        let span = tr.begin("iot-model.step", seq);
        let next = self
            .home
            .fsm()
            .step(&self.states[h], &EnvAction::single(mini));
        tr.end(span);
        self.states[h] = next.map_err(|e| format!("seq {seq}: FSM step failed: {e}"))?;
        self.valid[h] = None;
        Ok(())
    }

    fn valid_set(&mut self, h: usize, tr: &mut Tracer, seq: u64) -> Vec<usize> {
        if let Some(v) = &self.valid[h] {
            return v.clone();
        }
        let span = tr.begin("policy.valid_set", seq);
        let mut out = vec![0usize];
        for (i, &mini) in self.actions.iter().enumerate() {
            if self.tables[h].is_safe_action(&self.states[h], &EnvAction::single(mini), self.mode) {
                out.push(i + 1);
            }
        }
        tr.end(span);
        self.valid[h] = Some(out.clone());
        out
    }

    /// Re-enact one `serve` call: `envelopes` sorted by seq, `outcomes` the
    /// runtime's answer to exactly them.
    ///
    /// # Errors
    ///
    /// Describes the first verdict or decision that differs from the
    /// runtime's, and any decision whose action is unsafe under its home's
    /// table in the state the query saw.
    pub fn serve(
        &mut self,
        policy: &DqnAgent,
        envelopes: &[Envelope],
        outcomes: &[Outcome],
        tr: &mut Tracer,
        id: u64,
    ) -> Result<(), String> {
        if envelopes.len() != outcomes.len() {
            return Err(format!(
                "{} outcomes for {} events",
                outcomes.len(),
                envelopes.len()
            ));
        }
        let span = tr.begin("reenact", id);
        let mut want: std::collections::BTreeMap<u64, &Outcome> = std::collections::BTreeMap::new();
        for (env, out) in envelopes.iter().zip(outcomes) {
            if env.seq != out.seq() {
                return Err(format!(
                    "outcome seq {} for event seq {}",
                    out.seq(),
                    env.seq
                ));
            }
            let h = usize::try_from(env.home).expect("home ids index the fleet");
            match env.kind {
                EventKind::Action(mini) => {
                    let check = tr.begin("policy.psafe_check", env.seq);
                    let safe = self.tables[h].is_safe_action(
                        &self.states[h],
                        &EnvAction::single(mini),
                        self.mode,
                    );
                    tr.end(check);
                    if safe {
                        self.step(h, mini, tr, env.seq)?;
                    }
                    let verdict = if safe {
                        Verdict::Safe
                    } else {
                        Verdict::Violation
                    };
                    if *out
                        != (Outcome::Verdict {
                            seq: env.seq,
                            home: env.home,
                            verdict,
                        })
                    {
                        return Err(format!(
                            "seq {}: runtime {out:?}, re-enactment {verdict:?}",
                            env.seq
                        ));
                    }
                }
                EventKind::Sensor(mini) => {
                    self.step(h, mini, tr, env.seq)?;
                    if *out
                        != (Outcome::SensorApplied {
                            seq: env.seq,
                            home: env.home,
                        })
                    {
                        return Err(format!(
                            "seq {}: runtime {out:?}, re-enactment SensorApplied",
                            env.seq
                        ));
                    }
                }
                EventKind::Query {
                    indoor_c,
                    outdoor_c,
                    price_per_kwh,
                } => {
                    let enc = tr.begin("core.encode", env.seq);
                    let obs = encode_observation(
                        &self.states[h],
                        &self.sizes,
                        env.minute,
                        MINUTES_PER_DAY,
                        indoor_c,
                        outdoor_c,
                        price_per_kwh,
                    );
                    tr.end(enc);
                    let valid = self.valid_set(h, tr, env.seq);
                    self.parked.push(Parked {
                        seq: env.seq,
                        home: env.home,
                        obs,
                        valid,
                    });
                    want.insert(env.seq, out);
                    if self.parked.len() == self.window {
                        self.flush(policy, &want, tr)?;
                    }
                }
            }
        }
        self.flush(policy, &want, tr)?;
        tr.end(span);
        Ok(())
    }

    /// One batched forward over the parked queries, then the rank walk.
    fn flush(
        &mut self,
        policy: &DqnAgent,
        want: &std::collections::BTreeMap<u64, &Outcome>,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        if self.parked.is_empty() {
            return Ok(());
        }
        let parked = std::mem::take(&mut self.parked);
        let id = parked[0].seq;
        let span = tr.begin("rl.q_batch", id);
        let rows: Vec<&[f64]> = parked.iter().map(|p| p.obs.as_slice()).collect();
        let q_rows = policy
            .q_values_batch(&rows)
            .map_err(|e| format!("batched forward: {e}"))?;
        tr.end(span);

        let span = tr.begin("runtime.rank_walk", id);
        let mut ranked: Vec<usize> = Vec::new();
        let mut expect = Vec::with_capacity(parked.len());
        for (p, q) in parked.iter().zip(&q_rows) {
            ranked.clear();
            ranked.extend(0..q.len());
            ranked.sort_by(|&a, &b| {
                q[b].partial_cmp(&q[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let (rank, flat) = ranked
                .iter()
                .enumerate()
                .find(|(_, a)| p.valid.contains(a))
                .map_or((0, 0), |(c, &a)| (c, a));
            let action = if flat == 0 {
                None
            } else {
                self.actions.get(flat - 1).copied()
            };
            expect.push(Outcome::Decision {
                seq: p.seq,
                home: p.home,
                action,
                flat,
                q_value: q[flat],
                rank,
                source: DecisionSource::Policy,
            });
        }
        tr.end(span);

        for (p, expect) in parked.iter().zip(&expect) {
            let Some(got) = want.get(&p.seq).copied() else {
                return Err(format!("seq {}: no runtime decision", p.seq));
            };
            if let Outcome::Decision { flat, .. } = got {
                if !p.valid.contains(flat) {
                    return Err(format!(
                        "seq {}: decision {flat} is unsafe for home {}",
                        p.seq, p.home
                    ));
                }
            }
            if !bitwise_equal(std::slice::from_ref(got), std::slice::from_ref(expect)) {
                return Err(format!(
                    "seq {}: runtime {got:?}, re-enactment {expect:?}",
                    p.seq
                ));
            }
        }
        Ok(())
    }
}
