//! BAD fixture for the `epoch` rule: a tagged causal state with a
//! `&mut self` mutator that never bumps the `StateTag` — the cached
//! wire frame would keep serving pre-mutation bytes.

pub struct StateTag {
    epoch: u64,
}

pub struct DotFun<V>(Vec<V>);

pub struct Causal<S> {
    store: S,
    tag: StateTag,
}

pub struct AWSet<E>(Causal<DotFun<E>>);

impl<S> Causal<S> {
    pub fn mutate(&mut self, write: impl Fn(&mut S)) {
        write(&mut self.store);
        self.tag.note_mutation();
    }

    /// Mutates the store but forgets the epoch: stale-frame bug.
    pub fn reset(&mut self, store: S) {
        self.store = store;
    }
}

impl<E> AWSet<E> {
    /// Delegates to a non-bumping mutator: still a stale-frame bug.
    pub fn clear_quietly(&mut self) {
        self.0.reset(DotFun(Vec::new()));
    }
}
