//! GOOD fixture for the `epoch` rule: every `&mut self` mutator on
//! tagged state reaches a bump — directly, by delegation, or is
//! explicitly allowlisted as frame-neutral.

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

    pub fn join_assign(&mut self, other: Self) -> bool {
        let changed = other.tag.epoch != 0;
        if changed {
            self.tag = StateTag::fresh();
        }
        changed
    }
}

impl<V> Causal<DotFun<V>> {
    /// A mutator on one store shape bumps like any other.
    pub fn truncate(&mut self, keep: usize) {
        self.store.0.truncate(keep);
        self.tag.note_mutation();
    }
}

impl<E> AWSet<E> {
    /// Bumps by delegation through `mutate`.
    pub fn add(&mut self, e: E) {
        self.0.mutate(|store| store.0.push(e));
    }

    // lint: allow(epoch) — capacity-only reshape; encoded bytes are identical
    pub fn shrink_to_fit(&mut self) {
        self.0.store.0.shrink_to_fit();
    }
}
