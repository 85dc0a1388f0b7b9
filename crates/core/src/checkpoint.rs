//! Typed checkpoint records: the [`PlanRecord`]s that
//! [`crate::NeuroPlan`] appends to `<checkpoint-dir>/checkpoint.jsonl`
//! and the [`ReplanRecord`]s of `<checkpoint-dir>/replan.jsonl`
//! (format: DESIGN.md §10 and §14; substrate: [`np_chaos::checkpoint`]).
//!
//! Every record is a derived type: the enum variant names the record,
//! every `f64` that must survive bit-exactly (costs, returns, cut
//! coefficients) is a [`HexF64`], small counters are plain JSON numbers.
//! A line that does not decode as its file's record enum ends the valid
//! prefix like a torn tail. A record that decodes but does not fit the
//! instance (a plan without one entry per link, a certificate naming a
//! link that does not exist) is never used: the pipeline then ignores
//! the checkpoint and starts fresh rather than resuming from a record it
//! cannot fully trust.

use crate::config::NeuroPlanConfig;
use crate::env::EnvState;
use crate::master::MasterOutcome;
use crate::pipeline::FirstStage;
use np_chaos::checkpoint::{fnv1a64, HexF64};
use np_eval::{CertRecord, EvalState};
use np_lp::MipStatus;
use np_rl::{AgentState, EpochStats, TrainProgress, TrainReport};
use np_supervisor::PlanQuality;
use np_topology::Network;
use serde::{Deserialize, Serialize};

/// Stable fingerprint of (instance, run-shaping config). A resume under
/// a different topology, seed or budget must not splice runs together,
/// so the `Meta` record carries this and mismatches discard the file.
pub fn fingerprint(net: &Network, cfg: &NeuroPlanConfig) -> String {
    // Supervisor knobs shape which rung of the ladder produced the
    // recorded result, so they are part of the fingerprint: a resume
    // under a different budget or retry policy must recompute, not
    // splice. The wall budget travels as bits so INFINITY is stable.
    let sup = &cfg.supervisor;
    // The *resolved* simplex backend is part of the fingerprint: the two
    // engines may reach equal-cost plans through different pivot
    // sequences, so a resume across a backend switch (flag or
    // NP_LP_BACKEND) must recompute rather than splice.
    let tag = format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{:016x}|{:?}|{:?}|{}|{}|{:?}",
        cfg.seed,
        cfg.train.epochs,
        cfg.train.steps_per_epoch,
        cfg.train.num_actors,
        cfg.relax_factor,
        cfg.max_units_per_step,
        cfg.final_rollouts,
        cfg.mip_node_limit,
        sup.budget.wall_secs.to_bits(),
        sup.budget.max_nodes,
        sup.budget.max_epochs,
        sup.retry.max_retries,
        sup.degrade,
        cfg.lp_backend.resolved(),
    );
    format!(
        "{:016x}",
        fnv1a64(format!("{}\n{tag}", net.to_json()).as_bytes())
    )
}

/// One line of `checkpoint.jsonl`: a `Meta` record carrying the
/// [`fingerprint`], one `Epoch` record per completed training epoch, then
/// a `FirstStage` and a `Master` record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlanRecord {
    /// The run's [`fingerprint`]; always the first record.
    Meta(String),
    /// Trainer state after one epoch.
    Epoch(EpochRecord),
    /// The finished RL stage.
    FirstStage(FirstStageRecord),
    /// The finished second stage.
    Master(MasterRecord),
}

impl PlanRecord {
    /// Whether the record fits an instance of `links` links: every plan
    /// has one entry per link and every certificate names an existing
    /// link. Epoch records are checked when they are restored.
    pub(crate) fn fits(&self, links: usize) -> bool {
        match self {
            PlanRecord::FirstStage(f) => {
                f.units.len() == links && f.certs.iter().all(|c| c.fits(links))
            }
            PlanRecord::Master(m) => m.units.len() == links,
            PlanRecord::Meta(_) | PlanRecord::Epoch(_) => true,
        }
    }
}

/// The epoch records of a checkpoint, in file order, and its first
/// `FirstStage` and `Master` records.
pub(crate) fn split_records(
    records: Vec<PlanRecord>,
) -> (
    Vec<EpochRecord>,
    Option<FirstStageRecord>,
    Option<MasterRecord>,
) {
    let (mut epochs, mut first, mut master) = (Vec::new(), None, None);
    for r in records {
        match r {
            PlanRecord::Meta(_) => {}
            PlanRecord::Epoch(e) => epochs.push(e),
            PlanRecord::FirstStage(f) => first = first.or(Some(f)),
            PlanRecord::Master(m) => master = master.or(Some(m)),
        }
    }
    (epochs, first, master)
}

/// The loop counters a resume needs plus the agent and environment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    pub epoch: usize,
    pub mean_return: HexF64,
    pub completed: usize,
    pub truncated: usize,
    pub mean_length: HexF64,
    /// Epoch index the resumed run continues from.
    pub next_epoch: usize,
    /// Convergence streak after this epoch.
    pub converged_run: usize,
    /// Mean return the next convergence check compares against.
    pub prev_return: HexF64,
    /// NaN rollbacks so far (feeds the recovery stream seed).
    pub recovery_nonce: u64,
    /// The agent after this epoch.
    pub agent: AgentState,
    /// The environment after this epoch.
    pub env: EnvState,
}

impl EpochRecord {
    /// The record of the epoch `p` reports.
    pub(crate) fn new(p: &TrainProgress<'_>, agent: AgentState, env: EnvState) -> Self {
        EpochRecord {
            epoch: p.stats.epoch,
            mean_return: HexF64(p.stats.mean_return),
            completed: p.stats.completed,
            truncated: p.stats.truncated,
            mean_length: HexF64(p.stats.mean_length),
            next_epoch: p.next_epoch,
            converged_run: p.converged_run,
            prev_return: HexF64(p.prev_return),
            recovery_nonce: p.recovery_nonce,
            agent,
            env,
        }
    }

    /// This epoch's statistics.
    pub(crate) fn stats(&self) -> EpochStats {
        EpochStats {
            epoch: self.epoch,
            mean_return: self.mean_return.0,
            completed: self.completed,
            truncated: self.truncated,
            mean_length: self.mean_length.0,
        }
    }
}

/// The first stage's plan and certificates. The per-epoch stats are
/// reassembled from the epoch records; the evaluator stats of the
/// original run are not kept.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FirstStageRecord {
    pub units: Vec<u32>,
    pub cost: HexF64,
    pub rl_cost: Option<HexF64>,
    pub reference_cost: HexF64,
    pub certs: Vec<CertRecord>,
}

impl From<&FirstStage> for FirstStageRecord {
    fn from(first: &FirstStage) -> Self {
        FirstStageRecord {
            units: first.units.clone(),
            cost: HexF64(first.cost),
            rl_cost: first.rl_cost.map(HexF64),
            reference_cost: HexF64(first.reference_cost),
            certs: first.certificates.iter().map(CertRecord::from).collect(),
        }
    }
}

impl FirstStageRecord {
    /// The recorded first stage, with `report` as its training report.
    pub(crate) fn restore(&self, report: TrainReport) -> FirstStage {
        FirstStage {
            units: self.units.clone(),
            cost: self.cost.0,
            rl_cost: self.rl_cost.map(|c| c.0),
            reference_cost: self.reference_cost.0,
            report,
            certificates: self.certs.iter().map(Into::into).collect(),
            stats: np_eval::EvalStats::default(),
        }
    }
}

/// The master's outcome and the ladder rung the supervised second stage
/// settled on — a finished-run resume must report the same
/// [`PlanQuality`] the original run did, so it is recorded rather than
/// re-derived.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MasterRecord {
    pub status: MipStatus,
    pub cost: HexF64,
    pub units: Vec<u32>,
    pub nodes: usize,
    pub cuts_added: usize,
    pub best_bound: HexF64,
    pub overshoot_us: u64,
    /// The rung the second stage settled on.
    pub quality: PlanQuality,
}

impl MasterRecord {
    /// The record of `m`, settled at `quality`.
    pub(crate) fn new(m: &MasterOutcome, quality: PlanQuality) -> Self {
        MasterRecord {
            status: m.status,
            cost: HexF64(m.cost),
            units: m.units.clone(),
            nodes: m.nodes,
            cuts_added: m.cuts_added,
            best_bound: HexF64(m.best_bound),
            overshoot_us: m.deadline_overshoot_us,
            quality,
        }
    }

    /// The recorded outcome and quality.
    pub(crate) fn restore(&self) -> (MasterOutcome, PlanQuality) {
        let outcome = MasterOutcome {
            status: self.status,
            cost: self.cost.0,
            units: self.units.clone(),
            nodes: self.nodes,
            cuts_added: self.cuts_added,
            best_bound: self.best_bound.0,
            deadline_overshoot_us: self.overshoot_us,
        };
        (outcome, self.quality)
    }
}

/// How a checkpoint relates to the instance a resume was asked for.
///
/// Historically a checkpoint was only usable on the *identical* run
/// (`Exact`). Re-planning relaxes that to *resumable ancestry*: a
/// checkpoint taken against topology `T` is still usable on a perturbed
/// `T′` when the chain of per-event records connects them — each record
/// carries the fingerprint of the state it was taken from
/// (`ancestor_fp`) and the state it produced (`fp`), so the resume can locate the current
/// instance in the chain and replay only what follows. Unchanged runs
/// still match `Exact` and keep bit-identical kill-and-resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaMatch {
    /// The instance is the one the checkpoint started from.
    Exact,
    /// The instance is a recorded descendant: resume from the matching
    /// record (0-based index into the event records) instead of the top.
    Ancestor(usize),
    /// The checkpoint belongs to a different instance/stream; ignore it.
    Mismatch,
}

/// Stable tag of a churn stream + replan knobs. Part of the replan meta
/// record: resuming under a different event list or solver setting must
/// recompute, not splice. `events` are the event display strings;
/// `knob_bits` the replan config's numeric knobs as raw bits.
pub fn replan_stream_tag(events: &[String], initial_units: &[u32], knob_bits: &[u64]) -> String {
    let mut blob = events.join(";");
    blob.push('\n');
    for u in initial_units {
        blob.push_str(&format!("{u},"));
    }
    blob.push('\n');
    for b in knob_bits {
        blob.push_str(&format!("{b:016x},"));
    }
    format!("{:016x}", fnv1a64(blob.as_bytes()))
}

/// One line of `replan.jsonl`: a `Meta` record, then one `Event` record
/// per re-planned event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ReplanRecord {
    /// Where the stream started; always the first record.
    Meta(ReplanMeta),
    /// One re-planned event.
    Event(ReplanEventRecord),
}

/// The fingerprint of the pre-stream instance, the stream tag, and the
/// starting plan's cost (`cost0` — an ancestor resume has no way to
/// recompute it, since the caller no longer holds the pre-stream
/// instance).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplanMeta {
    /// [`fingerprint`] of the instance the stream started from.
    pub fp: String,
    /// [`replan_stream_tag`] of the stream.
    pub stream: String,
    /// Cost of the starting plan.
    pub cost0: HexF64,
}

impl ReplanMeta {
    /// Classify a resume request against this meta record: `fp_now` is
    /// the fingerprint of the instance the caller holds, `event_fps` the
    /// post-event fingerprints of the decoded event records in order.
    pub(crate) fn classify(&self, stream: &str, fp_now: &str, event_fps: &[String]) -> MetaMatch {
        if self.stream != stream {
            return MetaMatch::Mismatch;
        }
        if self.fp == fp_now {
            return MetaMatch::Exact;
        }
        match event_fps.iter().rposition(|fp| fp == fp_now) {
            Some(i) => MetaMatch::Ancestor(i),
            None => MetaMatch::Mismatch,
        }
    }
}

/// Everything the re-planning loop needs to resume *after* one event
/// without recomputing it — the plan it settled on, the evaluator state
/// (certificates included, so no still-valid cut is re-derived), and
/// the fingerprint chain that proves the record belongs to this
/// instance's history.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplanEventRecord {
    /// 0-based position in the event stream.
    pub index: usize,
    /// Event class (`demand-scale`, `link-add`, ...).
    pub class: String,
    /// Event display string (re-parseable by `np_churn`).
    pub event: String,
    /// Fingerprint of the instance *before* this event (the ancestor).
    pub ancestor_fp: String,
    /// Fingerprint of the instance *after* this event.
    pub fp: String,
    /// Plan cost after re-planning this event.
    pub cost: HexF64,
    /// Plan units after re-planning this event.
    pub units: Vec<u32>,
    /// Evaluator state after the event's solve (carries every retained
    /// certificate).
    pub eval: EvalState,
    /// Ladder rung the event's solve settled on.
    pub quality: PlanQuality,
    /// `Some(reason)` when the event could not be applied and was skipped
    /// (the instance and plan are unchanged).
    pub skipped: Option<String>,
    /// L1 distance between the carried plan and the re-planned one.
    pub churn: u64,
    /// Certificates carried through the event's perturbation.
    pub retained: u64,
    /// Certificates invalidated by the event's perturbation.
    pub dropped: u64,
    /// Whether a chaos link-flap was recovered during this event.
    pub flapped: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_chaos::checkpoint::{append_record, fnv1a64, read_records, HexF64s, HexU64};
    use np_chaos::Chaos;
    use np_topology::{generator::GeneratorConfig, TopologyPreset};
    use serde_json::Value;

    /// `-0.0`, a subnormal, `±inf` and a NaN with payload bits.
    const SPECIAL: [f64; 5] = [
        -0.0,
        f64::MIN_POSITIVE / 2.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(0xfff8_0000_0000_0123),
    ];

    fn tmp(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("np-core-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Write `records` through the substrate, read them back, and require
    /// the same serialization — hex makes that a bitwise comparison.
    fn assert_round_trip<T: Serialize + Deserialize>(name: &str, records: &[T]) {
        let path = tmp(name);
        for r in records {
            append_record(&path, r, &Chaos::disabled()).unwrap();
        }
        let back: Vec<T> = read_records(&path);
        assert_eq!(serde_json::to_value(&back), serde_json::to_value(records));
        let _ = std::fs::remove_file(&path);
    }

    fn eval_state() -> EvalState {
        EvalState {
            cursor: 2,
            certs: vec![
                None,
                Some(CertRecord {
                    rhs: HexF64(SPECIAL[1]),
                    coeff: vec![(0, HexF64(SPECIAL[0])), (2, HexF64(SPECIAL[4]))],
                }),
            ],
        }
    }

    fn plan_records() -> Vec<PlanRecord> {
        let [neg_zero, subnormal, inf, neg_inf, nan] = SPECIAL;
        vec![
            PlanRecord::Meta("00112233aabbccdd".to_string()),
            PlanRecord::Epoch(EpochRecord {
                epoch: 3,
                mean_return: HexF64(neg_zero),
                completed: 7,
                truncated: 1,
                mean_length: HexF64(subnormal),
                next_epoch: 4,
                converged_run: 2,
                prev_return: HexF64(nan),
                recovery_nonce: 1,
                agent: AgentState {
                    actor_steps: 12,
                    critic_steps: 13,
                    rng: [
                        HexU64(0),
                        HexU64(1),
                        HexU64(u64::MAX),
                        HexU64(0x0123_4567_89ab_cdef),
                    ],
                    explore_temp: HexF64(1.5),
                    params: HexF64s(SPECIAL.to_vec()),
                },
                env: EnvState {
                    steps: 99,
                    best: Some((HexF64(inf), vec![1, 0, 3])),
                    eval: eval_state(),
                },
            }),
            PlanRecord::FirstStage(FirstStageRecord {
                units: vec![1, 0, 3],
                cost: HexF64(123.456),
                rl_cost: None,
                reference_cost: HexF64(neg_inf),
                certs: eval_state().certs.into_iter().flatten().collect(),
            }),
            PlanRecord::FirstStage(FirstStageRecord {
                units: vec![4, 5, 6],
                cost: HexF64(nan),
                rl_cost: Some(HexF64(neg_zero)),
                reference_cost: HexF64(subnormal),
                certs: vec![],
            }),
            PlanRecord::Master(MasterRecord {
                status: MipStatus::TimeLimit,
                cost: HexF64(neg_zero),
                units: vec![2, 2, 0],
                nodes: 17,
                cuts_added: 4,
                best_bound: HexF64(neg_inf),
                overshoot_us: 123,
                quality: PlanQuality::Incumbent,
            }),
        ]
    }

    fn replan_records() -> Vec<ReplanRecord> {
        let event = ReplanEventRecord {
            index: 4,
            class: "link-remove".to_string(),
            event: "link-remove:2".to_string(),
            ancestor_fp: "00112233aabbccdd".to_string(),
            fp: "ffeeddcc44556677".to_string(),
            cost: HexF64(SPECIAL[4]),
            units: vec![0, 3, 7],
            eval: eval_state(),
            quality: PlanQuality::Rounded,
            skipped: None,
            churn: 9,
            retained: 5,
            dropped: 2,
            flapped: true,
        };
        vec![
            ReplanRecord::Meta(ReplanMeta {
                fp: "aaaa000000000000".to_string(),
                stream: "bbbb000000000000".to_string(),
                cost0: HexF64(SPECIAL[0]),
            }),
            ReplanRecord::Event(event.clone()),
            ReplanRecord::Event(ReplanEventRecord {
                skipped: Some("structurally infeasible".to_string()),
                flapped: false,
                cost: HexF64(SPECIAL[2]),
                ..event
            }),
        ]
    }

    #[test]
    fn plan_records_round_trip_bit_exactly() {
        let records = plan_records();
        assert_round_trip("plan", &records);
        let PlanRecord::Epoch(e) = &records[1] else {
            unreachable!()
        };
        assert_eq!(e.stats().mean_return.to_bits(), (-0.0f64).to_bits());
        let PlanRecord::Master(m) = &records[4] else {
            unreachable!()
        };
        let (outcome, quality) = m.restore();
        assert_eq!(
            serde_json::to_value(&MasterRecord::new(&outcome, quality)),
            serde_json::to_value(m)
        );
    }

    #[test]
    fn replan_records_round_trip_bit_exactly() {
        assert_round_trip("replan", &replan_records());
    }

    #[test]
    fn old_versions_and_noncanonical_hex_decode_to_nothing() {
        // A v1 line with a valid checksum.
        let path = tmp("v1");
        let payload = r#"{"v":1,"kind":"meta","body":{"fp":"00112233aabbccdd"}}"#;
        let line = format!(
            "{{\"sum\":\"{:016x}\",\"rec\":{payload}}}\n",
            fnv1a64(payload.as_bytes())
        );
        std::fs::write(&path, line).unwrap();
        assert!(read_records::<PlanRecord>(&path).is_empty());
        let _ = std::fs::remove_file(&path);

        // A master record whose bound hex is made non-canonical, written
        // with a valid checksum after one good record.
        let good = plan_records();
        let master = serde_json::to_value(&good[4]);
        let hex = master["Master"]["best_bound"].as_str().unwrap().to_string();
        assert_ne!(hex, hex.to_uppercase(), "the hex has letters to change");
        for bad in [
            hex.to_uppercase(),
            format!("+{}", &hex[1..]),
            hex[1..].to_string(),
        ] {
            let mut tampered = master.clone();
            let Value::Object(outer) = &mut tampered else {
                unreachable!()
            };
            let Value::Object(fields) = &mut outer[0].1 else {
                unreachable!()
            };
            fields
                .iter_mut()
                .find(|(k, _)| k == "best_bound")
                .unwrap()
                .1 = Value::Str(bad.clone());
            let path = tmp("hex");
            append_record(&path, &good[0], &Chaos::disabled()).unwrap();
            append_record(&path, &tampered, &Chaos::disabled()).unwrap();
            let back: Vec<PlanRecord> = read_records(&path);
            assert_eq!(back.len(), 1, "{bad}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn records_that_do_not_fit_the_instance_are_flagged() {
        let records = plan_records();
        assert!(records.iter().all(|r| r.fits(3)));
        assert!(!records[4].fits(18), "master units of the wrong length");
        let PlanRecord::FirstStage(mut first) = records[2].clone() else {
            unreachable!()
        };
        first.certs[0].coeff[0].0 = 99_999;
        assert!(
            !PlanRecord::FirstStage(first).fits(3),
            "certificate link out of range"
        );
    }

    #[test]
    fn fingerprint_separates_instances_and_configs() {
        let a = GeneratorConfig::preset(TopologyPreset::A).generate();
        let b = GeneratorConfig::preset(TopologyPreset::B).generate();
        let cfg = NeuroPlanConfig::quick();
        let fa = fingerprint(&a, &cfg);
        assert_eq!(fa, fingerprint(&a, &cfg), "fingerprint is stable");
        assert_ne!(fa, fingerprint(&b, &cfg), "topology changes it");
        assert_ne!(
            fa,
            fingerprint(&a, &cfg.clone().with_seed(9)),
            "seed changes it"
        );
    }

    #[test]
    fn replan_meta_classifies_exact_ancestor_and_mismatch() {
        let stream = replan_stream_tag(
            &["demand-scale:1.1".to_string()],
            &[1, 2, 3],
            &[0, u64::MAX, 7],
        );
        let meta = ReplanMeta {
            fp: "aaaa000000000000".to_string(),
            stream: stream.clone(),
            cost0: HexF64(512.25),
        };
        let fps = vec![
            "1111000000000000".to_string(),
            "2222000000000000".to_string(),
        ];
        assert_eq!(
            meta.classify(&stream, "aaaa000000000000", &fps),
            MetaMatch::Exact
        );
        assert_eq!(
            meta.classify(&stream, "2222000000000000", &fps),
            MetaMatch::Ancestor(1)
        );
        assert_eq!(
            meta.classify(&stream, "9999000000000000", &fps),
            MetaMatch::Mismatch
        );
        // A different stream never matches, even from the exact instance.
        assert_eq!(
            meta.classify("other-stream", "aaaa000000000000", &fps),
            MetaMatch::Mismatch
        );
        // The tag is sensitive to every component of the stream spec.
        let other_events =
            replan_stream_tag(&["link-add:0".to_string()], &[1, 2, 3], &[0, u64::MAX, 7]);
        let other_units = replan_stream_tag(
            &["demand-scale:1.1".to_string()],
            &[1, 2],
            &[0, u64::MAX, 7],
        );
        assert_ne!(stream, other_events);
        assert_ne!(stream, other_units);
    }

    #[test]
    fn fingerprint_tracks_supervisor_knobs() {
        let net = GeneratorConfig::preset(TopologyPreset::A).generate();
        let cfg = NeuroPlanConfig::quick();
        let base = fingerprint(&net, &cfg);
        assert_ne!(
            base,
            fingerprint(&net, &cfg.clone().with_stage_budget(30.0)),
            "stage budget changes it"
        );
        assert_ne!(
            base,
            fingerprint(&net, &cfg.clone().with_degrade(false)),
            "degradation toggle changes it"
        );
        assert_ne!(
            base,
            fingerprint(&net, &cfg.clone().with_max_retries(7)),
            "retry policy changes it"
        );
    }

    #[test]
    fn fingerprint_tracks_resolved_lp_backend() {
        let net = GeneratorConfig::preset(TopologyPreset::A).generate();
        let cfg = NeuroPlanConfig::quick();
        let dense = fingerprint(&net, &cfg.clone().with_lp_backend(np_lp::LpBackend::Dense));
        let sparse = fingerprint(&net, &cfg.clone().with_lp_backend(np_lp::LpBackend::Sparse));
        assert_ne!(dense, sparse, "backend switch changes the fingerprint");
        // Auto resolves to sparse unless NP_LP_BACKEND says otherwise, so
        // an explicit Sparse must fingerprint identically to the default.
        if np_lp::LpBackend::Auto.resolved() == np_lp::ResolvedBackend::Sparse {
            assert_eq!(sparse, fingerprint(&net, &cfg), "Auto == resolved Sparse");
        }
    }
}
