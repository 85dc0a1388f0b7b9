//! The actor-critic network of Fig. 6.
//!
//! Architecture: `L` GCN layers (Eq. 7) encode the node-link-transformed
//! topology into per-node embeddings `H`; the **actor** MLP is applied
//! per node to produce `m` logits per node (flattened to the
//! `node · m + units` action space and masked); the **critic** MLP reads
//! the mean-pooled embedding and outputs a scalar value.
//!
//! Both heads share the GCN (parameters `θ_g` of Algorithm 1), and both
//! the policy and value updates flow gradients into it — we keep two
//! Adam optimizers (actor lr / critic lr from Table 2) and let each step
//! the GCN with its own loss, mirroring Algorithm 1 lines 16–22.

use crate::buffer::StepRecord;
use np_chaos::checkpoint::{HexF64, HexF64s, HexU64};
use np_neural::ops::{masked_log_prob, masked_softmax, policy_logit_grad, sample_categorical};
use np_neural::{Adam, Csr, Gat, Gcn, Matrix, Mlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The checkpointed learning state of an [`ActorCritic`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AgentState {
    /// Bias-correction step count of the actor's Adam optimizer.
    pub actor_steps: u64,
    /// Bias-correction step count of the critic's Adam optimizer.
    pub critic_steps: u64,
    /// Sampling-RNG state words.
    pub rng: [HexU64; 4],
    /// Exploration temperature.
    pub explore_temp: HexF64,
    /// Each parameter's values, then its first and second Adam moments,
    /// parameter after parameter.
    pub params: HexF64s,
}

/// Which graph encoder the agent uses (§4.2 compares both and finds the
/// GCN stronger for this problem; the GAT is kept for the ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoder {
    /// Graph convolution (Eq. 7) over the normalized adjacency.
    Gcn,
    /// Single-head graph attention.
    Gat,
}

/// Agent hyperparameters (Table 2).
#[derive(Clone, Debug)]
pub struct AgentConfig {
    /// Graph encoder type.
    pub encoder: Encoder,
    /// Number of GNN layers (0, 2 or 4 in the paper's sensitivity study).
    pub gnn_layers: usize,
    /// Width of the GCN embeddings.
    pub gnn_hidden: usize,
    /// Hidden widths of both MLP heads (e.g. `[64, 64]` … `[512, 512]`).
    pub mlp_hidden: Vec<usize>,
    /// Actor learning rate (Table 2: 3e-4).
    pub actor_lr: f64,
    /// Critic learning rate (Table 2: 1e-3).
    pub critic_lr: f64,
    /// Parameter-initialization seed.
    pub seed: u64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            encoder: Encoder::Gcn,
            gnn_layers: 2,
            gnn_hidden: 64,
            mlp_hidden: vec![64, 64],
            actor_lr: 3e-4,
            critic_lr: 1e-3,
            seed: 0,
        }
    }
}

/// The stack of graph layers shared by both heads.
#[derive(Clone)]
enum EncoderStack {
    Gcn(Vec<Gcn>),
    Gat(Vec<Gat>),
}

impl EncoderStack {
    fn forward(&mut self, features: &Matrix) -> Matrix {
        let mut h = features.clone();
        match self {
            EncoderStack::Gcn(layers) => {
                for l in layers {
                    h = l.forward(&h);
                }
            }
            EncoderStack::Gat(layers) => {
                for l in layers {
                    h = l.forward(&h);
                }
            }
        }
        h
    }

    /// Accumulates every encoder parameter gradient. The first layer's
    /// input is the observation, so its input gradient is not computed.
    fn backward(&mut self, grad: &Matrix) {
        let mut g = grad.clone();
        match self {
            EncoderStack::Gcn(layers) => {
                if let Some((first, rest)) = layers.split_first_mut() {
                    for l in rest.iter_mut().rev() {
                        g = l.backward(&g);
                    }
                    first.backward_params(&g);
                }
            }
            EncoderStack::Gat(layers) => {
                if let Some((first, rest)) = layers.split_first_mut() {
                    for l in rest.iter_mut().rev() {
                        g = l.backward(&g);
                    }
                    first.backward_params(&g);
                }
            }
        }
    }

    fn params_mut(&mut self) -> Vec<&mut np_neural::Param> {
        match self {
            EncoderStack::Gcn(layers) => layers.iter_mut().flat_map(|l| l.params_mut()).collect(),
            EncoderStack::Gat(layers) => layers.iter_mut().flat_map(|l| l.params_mut()).collect(),
        }
    }
}

/// The shared-encoder actor-critic.
///
/// `Clone` duplicates the full parameter state (weights, optimizer
/// moments, sampling RNG) — parallel rollout actors clone the master
/// agent at the top of each epoch and act with private RNG streams.
#[derive(Clone)]
pub struct ActorCritic {
    encoder: EncoderStack,
    actor: Mlp,
    critic: Mlp,
    adam_actor: Adam,
    adam_critic: Adam,
    num_unit_choices: usize,
    /// RNG for action sampling (separate from init so runs with the same
    /// seed sample identically regardless of architecture size).
    sample_rng: StdRng,
    /// Exploration temperature dividing the logits at sampling time.
    /// 1.0 (the default) leaves the policy untouched — and is skipped
    /// entirely, so pre-existing runs stay bit-identical. The trainer
    /// raises it after a NaN rollback to reanneal exploration.
    explore_temp: f64,
}

impl ActorCritic {
    /// Build for a fixed graph (`adjacency` from the node-link
    /// transformation), `feature_dim` input features per node and `m`
    /// unit choices per node.
    pub fn new(
        adjacency: Csr,
        feature_dim: usize,
        num_unit_choices: usize,
        cfg: &AgentConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut dim = feature_dim;
        let encoder = match cfg.encoder {
            Encoder::Gcn => {
                let mut layers = Vec::new();
                for _ in 0..cfg.gnn_layers {
                    layers.push(Gcn::new(adjacency.clone(), dim, cfg.gnn_hidden, &mut rng));
                    dim = cfg.gnn_hidden;
                }
                EncoderStack::Gcn(layers)
            }
            Encoder::Gat => {
                let neighbors = adjacency.neighbor_lists();
                let mut layers = Vec::new();
                for _ in 0..cfg.gnn_layers {
                    layers.push(Gat::new(neighbors.clone(), dim, cfg.gnn_hidden, &mut rng));
                    dim = cfg.gnn_hidden;
                }
                EncoderStack::Gat(layers)
            }
        };
        let mut actor_widths = vec![dim];
        actor_widths.extend_from_slice(&cfg.mlp_hidden);
        actor_widths.push(num_unit_choices);
        let mut critic_widths = vec![dim];
        critic_widths.extend_from_slice(&cfg.mlp_hidden);
        critic_widths.push(1);
        ActorCritic {
            encoder,
            actor: Mlp::new(&actor_widths, &mut rng),
            critic: Mlp::new(&critic_widths, &mut rng),
            adam_actor: Adam::new(cfg.actor_lr),
            adam_critic: Adam::new(cfg.critic_lr),
            num_unit_choices,
            sample_rng: StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15),
            explore_temp: 1.0,
        }
    }

    fn embed(&mut self, features: &Matrix) -> Matrix {
        self.encoder.forward(features)
    }

    /// Flat masked logits and the critic value for an observation.
    pub fn policy_value(&mut self, features: &Matrix) -> (Vec<f64>, f64) {
        let h = self.embed(features);
        let logits = self.actor.forward(&h); // n × m
        let pooled = h.mean_rows();
        let value = self.critic.forward(&pooled).get(0, 0);
        (logits.as_slice().to_vec(), value)
    }

    /// Critic value only.
    pub fn value(&mut self, features: &Matrix) -> f64 {
        let h = self.embed(features);
        let pooled = h.mean_rows();
        self.critic.forward(&pooled).get(0, 0)
    }

    /// Sample an action from the masked policy; returns
    /// `(action, log_prob, value)`.
    pub fn act(&mut self, features: &Matrix, mask: &[bool]) -> (usize, f64, f64) {
        let mut rng = std::mem::replace(&mut self.sample_rng, StdRng::seed_from_u64(0));
        let out = self.act_with(features, mask, &mut rng);
        self.sample_rng = rng;
        out
    }

    /// Like [`ActorCritic::act`] but drawing from a caller-provided RNG.
    /// Parallel actors sample from private per-actor streams, so the
    /// action sequence depends only on the stream seeds — never on worker
    /// count or scheduling.
    pub fn act_with(
        &mut self,
        features: &Matrix,
        mask: &[bool],
        rng: &mut StdRng,
    ) -> (usize, f64, f64) {
        let (mut logits, value) = self.policy_value(features);
        if self.explore_temp != 1.0 {
            let inv = 1.0 / self.explore_temp;
            for l in &mut logits {
                *l *= inv;
            }
        }
        let probs = masked_softmax(&logits, mask);
        let action = sample_categorical(&probs, rng);
        let logp = masked_log_prob(&logits, mask, action);
        (action, logp, value)
    }

    /// Policy update (Algorithm 1's `ComputePLoss` + line 19): mean
    /// policy-gradient loss over the epoch, backpropagated through the
    /// actor *and* the shared GCN, then one Adam step on both.
    pub fn update_policy(&mut self, steps: &[StepRecord]) {
        let scale = 1.0 / steps.len().max(1) as f64;
        for step in steps {
            let h = self.embed(&step.features);
            let logits = self.actor.forward(&h);
            let probs = masked_softmax(logits.as_slice(), &step.mask);
            let grad_flat =
                policy_logit_grad(&probs, &step.mask, step.action, step.advantage * scale);
            let grad = Matrix::from_vec(logits.rows(), logits.cols(), grad_flat);
            let grad_h = self.actor.backward(&grad);
            self.backprop_gcn(&grad_h);
        }
        let mut params = self.actor.params_mut();
        params.extend(self.encoder.params_mut());
        self.adam_actor.step(&mut params);
    }

    /// Value update (`ComputeVLoss` + line 22): mean squared error against
    /// rewards-to-go, backpropagated through the critic *and* the GCN.
    pub fn update_value(&mut self, steps: &[StepRecord]) {
        let scale = 1.0 / steps.len().max(1) as f64;
        for step in steps {
            let h = self.embed(&step.features);
            let pooled = h.mean_rows();
            let v = self.critic.forward(&pooled).get(0, 0);
            let dv = 2.0 * (v - step.reward_to_go) * scale;
            let grad_pooled = self.critic.backward(&Matrix::from_vec(1, 1, vec![dv]));
            // Mean-pool backward: distribute evenly over nodes.
            let n = h.rows();
            let mut grad_h = Matrix::zeros(n, h.cols());
            for r in 0..n {
                for c in 0..h.cols() {
                    grad_h.set(r, c, grad_pooled.get(0, c) / n as f64);
                }
            }
            self.backprop_gcn(&grad_h);
        }
        let mut params = self.critic.params_mut();
        params.extend(self.encoder.params_mut());
        self.adam_critic.step(&mut params);
    }

    fn backprop_gcn(&mut self, grad_h: &Matrix) {
        self.encoder.backward(grad_h);
    }

    /// `m`: unit choices per node.
    pub fn num_unit_choices(&self) -> usize {
        self.num_unit_choices
    }

    /// Total trainable parameter count (diagnostics).
    pub fn num_params(&mut self) -> usize {
        let enc: usize = self.encoder.params_mut().iter().map(|p| p.len()).sum();
        enc + self.actor.num_params() + self.critic.num_params()
    }

    /// Reseed the sampling RNG (used to decorrelate evaluation rollouts).
    pub fn reseed_sampling(&mut self, seed: u64) {
        self.sample_rng = StdRng::seed_from_u64(seed);
    }

    /// Current exploration temperature.
    pub fn explore_temp(&self) -> f64 {
        self.explore_temp
    }

    /// Set the exploration temperature (must be positive and finite).
    pub fn set_explore_temp(&mut self, temp: f64) {
        assert!(temp.is_finite() && temp > 0.0, "bad temperature {temp}");
        self.explore_temp = temp;
    }

    fn all_params(&mut self) -> Vec<&mut np_neural::Param> {
        let mut ps = self.encoder.params_mut();
        ps.extend(self.actor.params_mut());
        ps.extend(self.critic.params_mut());
        ps
    }

    /// `true` iff every trainable weight is finite. The trainer checks
    /// this after each update and rolls back to the last good snapshot
    /// when it fails.
    pub fn params_finite(&mut self) -> bool {
        self.all_params()
            .iter()
            .all(|p| p.value.as_slice().iter().all(|v| v.is_finite()))
    }

    /// Corrupt the first trainable weight with NaN — the deterministic
    /// stand-in for a NaN gradient blowing through an update (the
    /// `nan-grad` chaos fault). Only the fault-injection path calls this.
    pub fn inject_nan(&mut self) {
        if let Some(p) = self.all_params().into_iter().next() {
            p.value.as_mut_slice()[0] = f64::NAN;
        }
    }

    /// The full learning state: optimizer step counts, sampling-RNG
    /// state, exploration temperature, and every parameter's value and
    /// Adam moments, all bit-exact.
    pub fn state(&mut self) -> AgentState {
        let mut params = Vec::new();
        for p in self.all_params() {
            params.extend_from_slice(p.value.as_slice());
            params.extend_from_slice(p.m.as_slice());
            params.extend_from_slice(p.v.as_slice());
        }
        AgentState {
            actor_steps: self.adam_actor.steps(),
            critic_steps: self.adam_critic.steps(),
            rng: self.sample_rng.state().map(HexU64),
            explore_temp: HexF64(self.explore_temp),
            params: HexF64s(params),
        }
    }

    /// Restore state captured by [`ActorCritic::state`]. Returns `false`
    /// (leaving the agent untouched) if the parameter count does not
    /// match this agent or the temperature is not a positive number.
    pub fn restore_state(&mut self, state: &AgentState) -> bool {
        let vals = &state.params.0;
        let temp = state.explore_temp.0;
        let total: usize = self.all_params().iter().map(|p| p.len()).sum();
        if vals.len() != 3 * total || !(temp.is_finite() && temp > 0.0) {
            return false;
        }
        let mut at = 0;
        for p in self.all_params() {
            let n = p.len();
            p.value.as_mut_slice().copy_from_slice(&vals[at..at + n]);
            p.m.as_mut_slice()
                .copy_from_slice(&vals[at + n..at + 2 * n]);
            p.v.as_mut_slice()
                .copy_from_slice(&vals[at + 2 * n..at + 3 * n]);
            at += 3 * n;
        }
        self.adam_actor.restore_steps(state.actor_steps);
        self.adam_critic.restore_steps(state.critic_steps);
        self.sample_rng = StdRng::from_state(state.rng.map(|w| w.0));
        self.explore_temp = temp;
        true
    }

    /// [`ActorCritic::state`] as JSON text.
    pub fn export_state(&mut self) -> String {
        serde_json::to_string(&self.state()).expect("agent state serializes")
    }

    /// Restore JSON text written by [`ActorCritic::export_state`];
    /// `false` (agent untouched) if it does not decode or fit.
    pub fn import_state(&mut self, blob: &str) -> bool {
        serde_json::from_str::<AgentState>(blob).is_ok_and(|s| self.restore_state(&s))
    }

    /// Sample greedily (argmax) instead of stochastically — used when
    /// extracting the final first-stage plan.
    pub fn act_greedy(&mut self, features: &Matrix, mask: &[bool]) -> usize {
        let (logits, _) = self.policy_value(features);
        let probs = masked_softmax(&logits, mask);
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .expect("non-empty action space")
    }
}

/// Draw a u64 seed from an RNG (helper for deterministic seed fan-out).
pub fn derive_seed(rng: &mut impl Rng) -> u64 {
    rng.gen()
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_neural::Csr;

    fn agent(n: usize, layers: usize) -> ActorCritic {
        let adj = Csr::identity(n);
        ActorCritic::new(
            adj,
            1,
            2,
            &AgentConfig {
                encoder: Encoder::Gcn,
                gnn_layers: layers,
                gnn_hidden: 8,
                mlp_hidden: vec![16],
                actor_lr: 0.02,
                critic_lr: 0.05,
                ..Default::default()
            },
        )
    }

    fn obs(n: usize) -> Matrix {
        Matrix::from_vec(n, 1, (0..n).map(|i| i as f64 / n as f64).collect())
    }

    #[test]
    fn logits_cover_the_flat_action_space() {
        let mut a = agent(5, 2);
        let (logits, _) = a.policy_value(&obs(5));
        assert_eq!(logits.len(), 10);
    }

    #[test]
    fn zero_gnn_layers_degenerates_to_mlp() {
        let mut a = agent(4, 0);
        let (logits, v) = a.policy_value(&obs(4));
        assert_eq!(logits.len(), 8);
        assert!(v.is_finite());
    }

    #[test]
    fn act_respects_the_mask() {
        let mut a = agent(3, 1);
        let mut mask = vec![false; 6];
        mask[4] = true;
        for _ in 0..10 {
            let (action, logp, _) = a.act(&obs(3), &mask);
            assert_eq!(action, 4);
            assert!((logp - 0.0).abs() < 1e-9, "single valid action has prob 1");
        }
    }

    #[test]
    fn policy_update_shifts_probability_toward_advantaged_actions() {
        let mut a = agent(3, 1);
        let features = obs(3);
        let mask = vec![true; 6];
        let (logits0, _) = a.policy_value(&features);
        let p0 = masked_softmax(&logits0, &mask)[2];
        // Fake an epoch where action 2 had positive advantage: descending
        // the −logp·A loss must raise its probability.
        let steps: Vec<StepRecord> = (0..8)
            .map(|_| StepRecord {
                features: features.clone(),
                mask: mask.clone(),
                action: 2,
                reward: 0.0,
                value: 0.0,
                advantage: 1.0,
                reward_to_go: 0.0,
            })
            .collect();
        a.update_policy(&steps);
        let (logits1, _) = a.policy_value(&features);
        let p1 = masked_softmax(&logits1, &mask)[2];
        assert!(
            p1 > p0,
            "positive advantage must increase the action's probability (p0={p0}, p1={p1})"
        );
        // And sustained negative advantage must push it back down (several
        // updates: a single step cannot overcome Adam's first-moment
        // momentum from the positive phase).
        let mut down = steps;
        for s in &mut down {
            s.advantage = -1.0;
        }
        for _ in 0..10 {
            a.update_policy(&down);
        }
        let (logits2, _) = a.policy_value(&features);
        let p2 = masked_softmax(&logits2, &mask)[2];
        assert!(
            p2 < p1,
            "sustained negative advantage must decrease the probability"
        );
    }

    #[test]
    fn value_update_regresses_toward_targets() {
        let mut a = agent(3, 1);
        let features = obs(3);
        let target = -5.0;
        for _ in 0..300 {
            let v = a.value(&features);
            let steps = vec![StepRecord {
                features: features.clone(),
                mask: vec![true; 6],
                action: 0,
                reward: 0.0,
                value: v,
                advantage: 0.0,
                reward_to_go: target,
            }];
            a.update_value(&steps);
        }
        assert!((a.value(&features) - target).abs() < 0.5);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mk = || {
            let mut a = agent(4, 1);
            let mask = vec![true; 8];
            (0..5).map(|_| a.act(&obs(4), &mask).0).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn greedy_action_is_the_argmax() {
        let mut a = agent(3, 0);
        let mask = vec![true; 6];
        let (logits, _) = a.policy_value(&obs(3));
        let probs = masked_softmax(&logits, &mask);
        let argmax = probs
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(a.act_greedy(&obs(3), &mask), argmax);
    }

    #[test]
    fn gat_encoder_is_a_drop_in_replacement() {
        let adj = Csr::from_triples(
            3,
            &[
                (0, 0, 0.5),
                (1, 1, 0.4),
                (2, 2, 0.5),
                (0, 1, 0.3),
                (1, 0, 0.3),
                (1, 2, 0.3),
                (2, 1, 0.3),
            ],
        );
        let mut a = ActorCritic::new(
            adj,
            1,
            2,
            &AgentConfig {
                encoder: Encoder::Gat,
                gnn_layers: 2,
                gnn_hidden: 8,
                mlp_hidden: vec![16],
                actor_lr: 0.02,
                critic_lr: 0.05,
                ..Default::default()
            },
        );
        let mask = vec![true; 6];
        let (logits0, v0) = a.policy_value(&obs(3));
        assert_eq!(logits0.len(), 6);
        assert!(v0.is_finite());
        // A policy update with positive advantage on action 1 must raise
        // its probability — the GAT gradients flow end to end.
        let probs0 = masked_softmax(&logits0, &mask);
        let steps: Vec<StepRecord> = (0..8)
            .map(|_| StepRecord {
                features: obs(3),
                mask: mask.clone(),
                action: 1,
                reward: 0.0,
                value: 0.0,
                advantage: 1.0,
                reward_to_go: 0.0,
            })
            .collect();
        a.update_policy(&steps);
        let (logits1, _) = a.policy_value(&obs(3));
        let probs1 = masked_softmax(&logits1, &mask);
        assert!(probs1[1] > probs0[1]);
    }

    #[test]
    fn state_blob_roundtrips_bit_exactly() {
        let mut a = agent(4, 2);
        let mask = vec![true; 8];
        // Advance everything that lives in the blob: weights, Adam
        // moments and step counts, the sampling RNG.
        let steps: Vec<StepRecord> = (0..4)
            .map(|_| StepRecord {
                features: obs(4),
                mask: mask.clone(),
                action: 1,
                reward: 0.0,
                value: 0.0,
                advantage: 0.7,
                reward_to_go: -1.3,
            })
            .collect();
        a.update_policy(&steps);
        a.update_value(&steps);
        a.act(&obs(4), &mask);
        let blob = a.export_state();

        let mut b = agent(4, 2);
        assert!(b.import_state(&blob), "blob must restore into a twin");
        assert_eq!(b.export_state(), blob, "round-trip is bit-exact");
        let drive =
            |ag: &mut ActorCritic| (0..6).map(|_| ag.act(&obs(4), &mask).0).collect::<Vec<_>>();
        assert_eq!(drive(&mut a), drive(&mut b), "restored RNG stream");
    }

    #[test]
    fn import_rejects_mismatched_or_corrupt_blobs() {
        let mut big = agent(5, 2);
        let blob = big.export_state();
        let mut small = agent(3, 1);
        assert!(!small.import_state(&blob), "wrong shape");
        let mut twin = agent(5, 2);
        let mut state = big.state();
        state.explore_temp = HexF64(0.0);
        assert!(!twin.restore_state(&state), "non-positive temperature");
        let rng = serde_json::to_string(&big.state().rng).unwrap();
        let hostile = blob.replacen(&rng[2..18], "é000000000000000", 1);
        assert!(!twin.import_state(&hostile), "non-hex RNG word");
        assert!(!twin.import_state("garbage"), "not a blob at all");
        // Rejection must leave the agent usable.
        assert!(twin.params_finite());
    }

    /// FNV-1a over the exported state: any changed bit changes the hash.
    fn state_hash(a: &mut ActorCritic) -> u64 {
        a.export_state()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Three epochs of both updates at the preset-A shape of `plan
    /// --quick` (20 link nodes, 5 features, 4 unit choices, 32-wide GNN
    /// and heads) on a fixed synthetic buffer.
    fn preset_a_shape_updates(encoder: Encoder) -> u64 {
        let n = 20;
        let mut triples = Vec::new();
        for i in 0..n {
            for j in [
                i,
                (i + 1) % n,
                (i + n - 1) % n,
                (i + 7) % n,
                (i + n - 7) % n,
            ] {
                triples.push((i, j, 0.2));
            }
        }
        let mut a = ActorCritic::new(
            Csr::from_triples(n, &triples),
            5,
            4,
            &AgentConfig {
                encoder,
                gnn_layers: 2,
                gnn_hidden: 32,
                mlp_hidden: vec![32, 32],
                seed: 11,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        let steps: Vec<StepRecord> = (0..48)
            .map(|_| {
                let features = (0..n * 5)
                    .map(|_| {
                        if rng.gen_range(0..3) == 0 {
                            0.0
                        } else {
                            rng.gen_range(-2.0..2.0)
                        }
                    })
                    .collect();
                let mask: Vec<bool> = (0..n * 4).map(|_| rng.gen_range(0..4) != 0).collect();
                let action = (0..n * 4).find(|&i| mask[i]).expect("some action is valid");
                StepRecord {
                    features: Matrix::from_vec(n, 5, features),
                    mask,
                    action,
                    reward: 0.0,
                    value: 0.0,
                    advantage: rng.gen_range(-1.0..1.0),
                    reward_to_go: rng.gen_range(-3.0..0.0),
                }
            })
            .collect();
        for _ in 0..3 {
            a.update_policy(&steps);
            a.update_value(&steps);
        }
        state_hash(&mut a)
    }

    /// The constants were recorded with the untiled kernels, before the
    /// encoder's first layer stopped computing its input gradient: the
    /// kernel contract and the parameters-only backward keep every bit.
    #[test]
    fn updates_keep_the_bits_they_had_before_the_tiled_kernels() {
        assert_eq!(preset_a_shape_updates(Encoder::Gcn), 0x9cd6_4b1b_6685_aa29);
        assert_eq!(preset_a_shape_updates(Encoder::Gat), 0x8f81_4e48_4162_4900);
    }

    #[test]
    fn nan_injection_is_detected_by_the_finite_check() {
        let mut a = agent(3, 1);
        assert!(a.params_finite());
        a.inject_nan();
        assert!(!a.params_finite());
    }

    #[test]
    fn explore_temperature_flattens_sampling_but_not_updates() {
        let mut a = agent(3, 1);
        let mask = vec![true; 6];
        let (logits, _) = a.policy_value(&obs(3));
        let p_ref = masked_softmax(&logits, &mask);
        a.set_explore_temp(4.0);
        // policy_value (used by updates) is untouched by temperature.
        let (logits_t, _) = a.policy_value(&obs(3));
        assert_eq!(logits, logits_t);
        // Sampling frequencies flatten toward uniform.
        let mut counts = [0usize; 6];
        for _ in 0..2000 {
            counts[a.act(&obs(3), &mask).0] += 1;
        }
        let max_ref = p_ref.iter().cloned().fold(f64::MIN, f64::max);
        let max_obs = counts.iter().cloned().max().unwrap() as f64 / 2000.0;
        assert!(
            max_obs < max_ref + 0.05,
            "temperature must not sharpen the policy (ref {max_ref}, obs {max_obs})"
        );
    }

    #[test]
    fn num_params_counts_all_components() {
        let mut with_gnn = agent(4, 2);
        let mut without = agent(4, 0);
        assert!(with_gnn.num_params() > without.num_params());
    }
}
