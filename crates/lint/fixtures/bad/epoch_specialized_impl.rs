//! BAD fixture for the `epoch` rule: the generic `Causal<S>` impl bumps
//! everywhere, but an inherent mutator on one store shape
//! (`impl<V> Causal<DotFun<V>>`) reaches into the store and skips
//! `note_mutation` — a specialised impl block is no exemption.

pub struct StateTag {
    epoch: u64,
}

pub struct DotFun<V>(Vec<V>);

pub struct Causal<S> {
    store: S,
    tag: StateTag,
}

impl<S> Causal<S> {
    pub fn mutate(&mut self, write: impl Fn(&mut S)) {
        write(&mut self.store);
        self.tag.note_mutation();
    }
}

impl<V> Causal<DotFun<V>> {
    /// Value-aware removal that forgets the epoch: stale-frame bug.
    pub fn remove_where(&mut self, dead: impl Fn(&V) -> bool) {
        self.store.0.retain(|v| !dead(v));
    }
}
