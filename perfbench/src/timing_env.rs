//! A timing adapter at the public `GraphEnv` trait.
//!
//! The RL first stage interleaves two layers: the agent (policy
//! forward, sampling, the update) and the environment (`reset`/`step`:
//! feature build plus the np-eval feasibility check). Wrapping the
//! environment and timing its two entry points splits the stage from
//! outside the program, without a span inside it.

use np_neural::Csr;
use np_rl::{GraphEnv, Observation};
use std::time::{Duration, Instant};

/// `E` with the wall time spent inside `reset` and `step` accumulated.
pub struct TimingEnv<E> {
    /// The wrapped environment.
    pub inner: E,
    /// Time spent in `reset`/`step` so far (forked children included
    /// once they are absorbed).
    pub busy: Duration,
}

impl<E> TimingEnv<E> {
    pub fn new(inner: E) -> Self {
        TimingEnv {
            inner,
            busy: Duration::ZERO,
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut E) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.busy += t0.elapsed();
        out
    }
}

/// A forked child as handed out by the wrapped environment. The slot is
/// emptied when the parent absorbs the child.
pub struct Forked(Option<Box<dyn GraphEnv + Send>>);

impl Forked {
    fn env(&self) -> &(dyn GraphEnv + Send) {
        self.0
            .as_deref()
            .expect("forked environment already absorbed")
    }

    fn env_mut(&mut self) -> &mut (dyn GraphEnv + Send) {
        self.0
            .as_deref_mut()
            .expect("forked environment already absorbed")
    }
}

impl GraphEnv for Forked {
    fn num_nodes(&self) -> usize {
        self.env().num_nodes()
    }
    fn feature_dim(&self) -> usize {
        self.env().feature_dim()
    }
    fn num_unit_choices(&self) -> usize {
        self.env().num_unit_choices()
    }
    fn adjacency(&self) -> &Csr {
        self.env().adjacency()
    }
    fn reset(&mut self) -> Observation {
        self.env_mut().reset()
    }
    fn step(&mut self, action: usize) -> (Observation, f64, bool) {
        self.env_mut().step(action)
    }
    fn fork(&self) -> Option<Box<dyn GraphEnv + Send>> {
        self.env().fork()
    }
    fn absorb(&mut self, child: Box<dyn GraphEnv + Send>) {
        self.env_mut().absorb(child)
    }
    fn state_json(&self) -> Option<String> {
        self.env().state_json()
    }
    fn restore_state_json(&mut self, blob: &str) -> bool {
        self.env_mut().restore_state_json(blob)
    }
}

impl<E: GraphEnv + 'static> GraphEnv for TimingEnv<E> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }
    fn num_unit_choices(&self) -> usize {
        self.inner.num_unit_choices()
    }
    fn adjacency(&self) -> &Csr {
        self.inner.adjacency()
    }
    fn reset(&mut self) -> Observation {
        self.timed(|e| e.reset())
    }
    fn step(&mut self, action: usize) -> (Observation, f64, bool) {
        self.timed(|e| e.step(action))
    }

    /// Children are timed too, so parallel rollouts would still be
    /// accounted (as busy time, not wall time).
    fn fork(&self) -> Option<Box<dyn GraphEnv + Send>> {
        let child = self.inner.fork()?;
        Some(Box::new(TimingEnv::new(Forked(Some(child)))))
    }

    /// Unwraps a child this adapter forked and hands the wrapped
    /// environment's own child to `E::absorb`, which downcasts it.
    fn absorb(&mut self, mut child: Box<dyn GraphEnv + Send>) {
        let timed = child
            .as_any_mut()
            .and_then(|any| any.downcast_mut::<TimingEnv<Forked>>());
        match timed {
            Some(timed) => {
                self.busy += timed.busy;
                if let Some(inner_child) = timed.inner.0.take() {
                    self.inner.absorb(inner_child);
                }
            }
            None => self.inner.absorb(child),
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
    fn state_json(&self) -> Option<String> {
        self.inner.state_json()
    }
    fn restore_state_json(&mut self, blob: &str) -> bool {
        self.inner.restore_state_json(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuroplan::{NeuroPlanConfig, PlanningEnv};
    use np_topology::{GeneratorConfig, TopologyPreset};

    fn env() -> TimingEnv<PlanningEnv> {
        let net = GeneratorConfig::preset(TopologyPreset::A).generate();
        TimingEnv::new(PlanningEnv::new(net, NeuroPlanConfig::quick().eval, 4, 1.0))
    }

    /// Take up to `n` valid steps.
    fn walk(env: &mut dyn GraphEnv, n: usize) -> usize {
        let mut obs = env.reset();
        for k in 0..n {
            let Some(action) = obs.action_mask.iter().position(|&ok| ok) else {
                return k;
            };
            let (o, _, done) = env.step(action);
            if done {
                return k + 1;
            }
            obs = o;
        }
        n
    }

    #[test]
    fn times_reset_and_step() {
        let mut e = env();
        let steps = walk(&mut e, 3);
        assert!(steps > 0);
        assert!(!e.busy.is_zero());
        assert_eq!(e.inner.steps_taken(), steps as u64);
    }

    #[test]
    fn forwards_fork_and_absorb() {
        let mut parent = env();
        let mut child = parent.fork().expect("the planning environment forks");
        let steps = walk(child.as_mut(), 3);
        assert!(steps > 0);
        parent.absorb(child);
        // The child's timing and the wrapped environment's own merge
        // (its step counter) both reached the parent.
        assert!(!parent.busy.is_zero());
        assert_eq!(parent.inner.steps_taken(), steps as u64);
    }
}
