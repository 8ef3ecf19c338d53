//! Measurement infrastructure mirroring the paper's evaluation (§V):
//! transmission (elements + payload/metadata bytes), memory footprint
//! sampled per round, and CPU time spent in protocol processing.

use crdt_sync::MemoryUsage;

/// Per-worker phase timings → `(summed work, critical path)`: the sum
/// over all per-node entries, and the busiest thread-chunk's sum under
/// contiguous `threads`-way chunking (the chunking
/// [`crate::parallel::par_map_chunked_ctx`] uses).
pub(crate) fn phase_split(nanos: &[u64], threads: usize) -> (u64, u64) {
    let chunk = nanos.len().div_ceil(threads).max(1);
    let critical = nanos
        .chunks(chunk)
        .map(|c| c.iter().sum::<u64>())
        .max()
        .unwrap_or(0);
    (nanos.iter().sum(), critical)
}

/// Measurements for one synchronization round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundMetrics {
    /// Messages handed to the fabric. Batching runners
    /// (`ShardedEngineRunner`) count one per wire frame — O(links) —
    /// while [`RoundMetrics::envelopes`] keeps counting per-object
    /// protocol envelopes.
    pub messages: u64,
    /// Per-object protocol envelopes produced this round, *before* any
    /// per-destination batching. For unbatched runners this equals
    /// [`RoundMetrics::messages`]; `envelopes / messages` is the
    /// batch-amortization ratio.
    pub envelopes: u64,
    /// Lattice elements of CRDT payload transmitted (Table I's unit).
    pub payload_elements: u64,
    /// Payload bytes transmitted.
    pub payload_bytes: u64,
    /// Metadata bytes transmitted (digests, vectors, dots, acks).
    pub metadata_bytes: u64,
    /// Sum of per-node memory snapshots at the end of the round.
    pub memory: MemoryUsage,
    /// Nanoseconds spent inside protocol callbacks this round, **summed
    /// over all nodes/threads** — total work, the Fig. 12 quantity.
    pub cpu_nanos: u64,
    /// Nanoseconds on the round's critical path: per phase, the busiest
    /// worker's time; summed over phases. For sequential runners this
    /// equals [`RoundMetrics::cpu_nanos`] (one worker does everything),
    /// so parallel speedup is `seq.critical_path / par.critical_path` —
    /// never a ratio of a wall-clock quantity to a summed one.
    pub critical_path_nanos: u64,
    /// Nanoseconds spent drawing and routing workload operations —
    /// driver overhead, deliberately kept *out* of `cpu_nanos` so
    /// per-round protocol CPU is comparable across runners.
    pub workload_nanos: u64,
}

impl RoundMetrics {
    /// Total bytes on the wire this round.
    pub fn total_bytes(&self) -> u64 {
        self.payload_bytes + self.metadata_bytes
    }

    fn absorb(&mut self, other: &RoundMetrics) {
        self.messages += other.messages;
        self.envelopes += other.envelopes;
        self.payload_elements += other.payload_elements;
        self.payload_bytes += other.payload_bytes;
        self.metadata_bytes += other.metadata_bytes;
        self.cpu_nanos += other.cpu_nanos;
        self.critical_path_nanos += other.critical_path_nanos;
        self.workload_nanos += other.workload_nanos;
    }
}

/// Measurements for a whole run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Per-round series (Fig. 1's x-axis).
    pub rounds: Vec<RoundMetrics>,
    /// Number of nodes (for per-node averages).
    pub n_nodes: usize,
}

impl RunMetrics {
    /// Start a run over `n_nodes` replicas.
    pub fn new(n_nodes: usize) -> Self {
        RunMetrics {
            rounds: Vec::new(),
            n_nodes,
        }
    }

    /// Append a finished round.
    pub fn push_round(&mut self, round: RoundMetrics) {
        self.rounds.push(round);
    }

    /// Aggregate totals over all rounds (memory is averaged, not summed).
    pub fn totals(&self) -> RoundMetrics {
        let mut t = RoundMetrics::default();
        for r in &self.rounds {
            t.absorb(r);
        }
        t.memory = self.avg_memory();
        t
    }

    /// Total transmitted elements.
    pub fn total_elements(&self) -> u64 {
        self.rounds.iter().map(|r| r.payload_elements).sum()
    }

    /// Total payload bytes.
    pub fn total_payload_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.payload_bytes).sum()
    }

    /// Total metadata bytes.
    pub fn total_metadata_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.metadata_bytes).sum()
    }

    /// Total bytes (payload + metadata).
    pub fn total_bytes(&self) -> u64 {
        self.total_payload_bytes() + self.total_metadata_bytes()
    }

    /// Total messages.
    pub fn total_messages(&self) -> u64 {
        self.rounds.iter().map(|r| r.messages).sum()
    }

    /// Total protocol CPU time (work summed over all nodes/threads).
    pub fn total_cpu_nanos(&self) -> u64 {
        self.rounds.iter().map(|r| r.cpu_nanos).sum()
    }

    /// Total critical-path time (per phase, the busiest worker). The
    /// denominator/numerator for parallel speedup comparisons.
    pub fn total_critical_path_nanos(&self) -> u64 {
        self.rounds.iter().map(|r| r.critical_path_nanos).sum()
    }

    /// Total time spent drawing/routing workload operations (driver
    /// overhead, excluded from protocol CPU).
    pub fn total_workload_nanos(&self) -> u64 {
        self.rounds.iter().map(|r| r.workload_nanos).sum()
    }

    /// Total per-object protocol envelopes (pre-batching).
    pub fn total_envelopes(&self) -> u64 {
        self.rounds.iter().map(|r| r.envelopes).sum()
    }

    /// Envelopes per wire frame — how much per-destination batching
    /// amortizes (1.0 for unbatched runners).
    pub fn batch_amortization(&self) -> f64 {
        let messages = self.total_messages();
        if messages == 0 {
            1.0
        } else {
            self.total_envelopes() as f64 / messages as f64
        }
    }

    /// Metadata as a fraction of all transmitted bytes (§V-B2: "75%, 99%,
    /// and 97% … while the overhead of delta-based synchronization is only
    /// 7.7%").
    pub fn metadata_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.total_metadata_bytes() as f64 / total as f64
        }
    }

    /// Memory usage averaged over rounds (the Fig. 10 metric), summed over
    /// nodes.
    pub fn avg_memory(&self) -> MemoryUsage {
        if self.rounds.is_empty() {
            return MemoryUsage::default();
        }
        let n = self.rounds.len() as u64;
        let mut m = MemoryUsage::default();
        for r in &self.rounds {
            m.crdt_elements += r.memory.crdt_elements;
            m.crdt_bytes += r.memory.crdt_bytes;
            m.meta_elements += r.memory.meta_elements;
            m.meta_bytes += r.memory.meta_bytes;
        }
        MemoryUsage {
            crdt_elements: m.crdt_elements / n,
            crdt_bytes: m.crdt_bytes / n,
            meta_elements: m.meta_elements / n,
            meta_bytes: m.meta_bytes / n,
        }
    }

    /// Average total memory elements per node per round.
    pub fn avg_memory_elements_per_node(&self) -> f64 {
        let m = self.avg_memory();
        m.total_elements() as f64 / self.n_nodes.max(1) as f64
    }

    /// Average total memory bytes per node per round.
    pub fn avg_memory_bytes_per_node(&self) -> f64 {
        let m = self.avg_memory();
        m.total_bytes() as f64 / self.n_nodes.max(1) as f64
    }

    /// Cumulative payload-element series (the Fig. 1 left plot).
    pub fn cumulative_elements(&self) -> Vec<u64> {
        let mut acc = 0;
        self.rounds
            .iter()
            .map(|r| {
                acc += r.payload_elements;
                acc
            })
            .collect()
    }

    /// Pointwise sum with another run (same deployment hosting both
    /// object families); shorter runs are padded with empty rounds.
    pub fn merged(&self, other: &RunMetrics) -> RunMetrics {
        let len = self.rounds.len().max(other.rounds.len());
        let mut rounds = Vec::with_capacity(len);
        for i in 0..len {
            let mut r = self.rounds.get(i).copied().unwrap_or_default();
            if let Some(o) = other.rounds.get(i) {
                r.messages += o.messages;
                r.envelopes += o.envelopes;
                r.payload_elements += o.payload_elements;
                r.payload_bytes += o.payload_bytes;
                r.metadata_bytes += o.metadata_bytes;
                r.cpu_nanos += o.cpu_nanos;
                r.critical_path_nanos += o.critical_path_nanos;
                r.workload_nanos += o.workload_nanos;
                r.memory.crdt_elements += o.memory.crdt_elements;
                r.memory.crdt_bytes += o.memory.crdt_bytes;
                r.memory.meta_elements += o.memory.meta_elements;
                r.memory.meta_bytes += o.memory.meta_bytes;
            }
            rounds.push(r);
        }
        RunMetrics {
            rounds,
            n_nodes: self.n_nodes.max(other.n_nodes),
        }
    }

    /// Restrict to a sub-range of rounds (Fig. 11 reports first and second
    /// halves separately).
    pub fn slice(&self, range: std::ops::Range<usize>) -> RunMetrics {
        RunMetrics {
            rounds: self.rounds[range].to_vec(),
            n_nodes: self.n_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(elements: u64, payload: u64, meta: u64) -> RoundMetrics {
        RoundMetrics {
            messages: 1,
            envelopes: 3,
            payload_elements: elements,
            payload_bytes: payload,
            metadata_bytes: meta,
            memory: MemoryUsage {
                crdt_elements: elements,
                crdt_bytes: payload,
                meta_elements: 0,
                meta_bytes: meta,
            },
            cpu_nanos: 10,
            critical_path_nanos: 4,
            workload_nanos: 2,
        }
    }

    #[test]
    fn phase_split_sums_work_and_finds_the_busiest_chunk() {
        // 4 nodes on 2 threads → chunks [7, 1] and [4, 4].
        assert_eq!(phase_split(&[7, 1, 4, 4], 2), (16, 8));
        // One thread: critical path is all the work.
        assert_eq!(phase_split(&[7, 1, 4, 4], 1), (16, 16));
        assert_eq!(phase_split(&[], 4), (0, 0));
    }

    #[test]
    fn totals_accumulate() {
        let mut m = RunMetrics::new(2);
        m.push_round(round(3, 24, 8));
        m.push_round(round(5, 40, 8));
        assert_eq!(m.total_elements(), 8);
        assert_eq!(m.total_payload_bytes(), 64);
        assert_eq!(m.total_metadata_bytes(), 16);
        assert_eq!(m.total_bytes(), 80);
        assert_eq!(m.total_messages(), 2);
        assert_eq!(m.total_cpu_nanos(), 20);
        assert_eq!(m.total_critical_path_nanos(), 8);
        assert_eq!(m.total_workload_nanos(), 4);
        assert_eq!(m.total_envelopes(), 6);
        assert!((m.batch_amortization() - 3.0).abs() < 1e-12);
        assert_eq!(RunMetrics::new(1).batch_amortization(), 1.0);
    }

    #[test]
    fn metadata_fraction() {
        let mut m = RunMetrics::new(1);
        m.push_round(round(0, 25, 75));
        assert!((m.metadata_fraction() - 0.75).abs() < 1e-9);
        assert_eq!(RunMetrics::new(1).metadata_fraction(), 0.0);
    }

    #[test]
    fn memory_is_averaged_over_rounds() {
        let mut m = RunMetrics::new(2);
        m.push_round(round(2, 16, 0));
        m.push_round(round(4, 32, 0));
        let avg = m.avg_memory();
        assert_eq!(avg.crdt_elements, 3);
        assert_eq!(avg.crdt_bytes, 24);
        assert_eq!(m.avg_memory_elements_per_node(), 1.5);
    }

    #[test]
    fn cumulative_series() {
        let mut m = RunMetrics::new(1);
        m.push_round(round(1, 0, 0));
        m.push_round(round(2, 0, 0));
        m.push_round(round(3, 0, 0));
        assert_eq!(m.cumulative_elements(), vec![1, 3, 6]);
    }

    #[test]
    fn slicing_halves() {
        let mut m = RunMetrics::new(1);
        for i in 0..10 {
            m.push_round(round(i, 0, 0));
        }
        let first = m.slice(0..5);
        let second = m.slice(5..10);
        assert_eq!(first.total_elements(), 1 + 2 + 3 + 4);
        assert_eq!(second.total_elements(), 5 + 6 + 7 + 8 + 9);
    }
}
