//! Retwis — the Twitter-clone application benchmark (paper, §V-C).
//!
//! Each user owns three CRDT objects:
//!
//! 1. a set of **followers** (GSet);
//! 2. a **wall**: a GMap from tweet identifiers to tweet content;
//! 3. a **timeline**: a GMap from tweet timestamps to tweet identifiers.
//!
//! The workload mix is Table II: *Follow* (1 update, 15%), *Post Tweet*
//! (1 + #followers updates, 35%), *Timeline* read (0 updates, 50%).
//! Object selection follows a Zipf distribution with coefficient 0.5–1.5.
//! Tweet identifiers are 31 B and content 270 B (sizes "representative of
//! real workloads" per the Facebook KV study the paper cites).
//!
//! The full store is itself one composed lattice — three grow-only maps —
//! so every synchronization protocol runs over it unchanged; this is the
//! composition machinery of Appendix B doing application work.
//!
//! **Scale note (documented substitution):** the paper runs 10 K users on
//! a 50-node cluster at GB/s rates. Defaults here are laptop-sized
//! (1 K users), and post fan-out is capped at [`RetwisConfig::max_fanout`]
//! timeline insertions per post; the contention regime that separates
//! classic delta from BP+RR — many updates to the *same hot objects*
//! between synchronization rounds — is governed by the Zipf coefficient,
//! which is reproduced exactly.

use std::collections::{BTreeMap, BTreeSet};

use crdt_lattice::{Bottom, Decompose, Lattice, Max, ReplicaId, SizeModel, Sizeable, StateSize};
use crdt_sim::Workload;
use crdt_types::{Crdt, GMap, GMapOp, GSet, GSetOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// Application-level user identifier.
pub type UserId = u32;

/// A user's wall: tweet id → content.
pub type Wall = GMap<String, Max<String>>;

/// A user's timeline: timestamp → tweet id.
pub type Timeline = GMap<u64, Max<String>>;

/// The replicated Retwis store: all three object families for all users,
/// as one composed lattice (a triple product of grow-only maps).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RetwisStore {
    /// user → follower set.
    pub followers: GMap<UserId, GSet<UserId>>,
    /// user → wall.
    pub walls: GMap<UserId, Wall>,
    /// user → timeline.
    pub timelines: GMap<UserId, Timeline>,
}

/// Retwis update operations (Table II; *Timeline* is a read and never
/// reaches the store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetwisOp {
    /// `follower` starts following `followee` (1 update).
    Follow {
        /// The user doing the following.
        follower: UserId,
        /// The user being followed (their follower set is updated).
        followee: UserId,
    },
    /// `author` posts a tweet (1 wall update + one timeline update per
    /// recipient).
    Post {
        /// The posting user.
        author: UserId,
        /// 31-byte tweet identifier.
        tweet_id: String,
        /// 270-byte tweet body.
        content: String,
        /// Unique timestamp for timeline ordering.
        ts: u64,
        /// Timelines to insert into (the author's followers at post time).
        recipients: Vec<UserId>,
    },
}

/// Store-wide summary returned by [`Crdt::value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetwisSummary {
    /// Total follow edges.
    pub follow_edges: u64,
    /// Total tweets on walls.
    pub wall_tweets: u64,
    /// Total timeline entries.
    pub timeline_entries: u64,
}

impl RetwisStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The 10 most recent timeline entries of `user` (the *Timeline* read
    /// of Table II): `(timestamp, tweet id)`, newest first.
    pub fn timeline(&self, user: UserId) -> Vec<(u64, &str)> {
        match self.timelines.get(&user) {
            None => Vec::new(),
            Some(t) => {
                let mut entries: Vec<(u64, &str)> =
                    t.iter().map(|(ts, id)| (*ts, id.get().as_str())).collect();
                entries.sort_by_key(|e| std::cmp::Reverse(e.0));
                entries.truncate(10);
                entries
            }
        }
    }

    /// A user's current follower set, if any.
    pub fn followers_of(&self, user: UserId) -> Option<&GSet<UserId>> {
        self.followers.get(&user)
    }

    /// A tweet's content, if present on the author's wall.
    pub fn tweet(&self, author: UserId, tweet_id: &str) -> Option<&str> {
        self.walls
            .get(&author)
            .and_then(|w| w.get(&tweet_id.to_string()))
            .map(|c| c.get().as_str())
    }
}

impl Lattice for RetwisStore {
    fn join_assign(&mut self, other: Self) -> bool {
        // `|`, not `||`: every component must merge.
        self.followers.join_assign(other.followers)
            | self.walls.join_assign(other.walls)
            | self.timelines.join_assign(other.timelines)
    }

    fn leq(&self, other: &Self) -> bool {
        self.followers.leq(&other.followers)
            && self.walls.leq(&other.walls)
            && self.timelines.leq(&other.timelines)
    }
}

impl Bottom for RetwisStore {
    fn bottom() -> Self {
        Self::default()
    }

    fn is_bottom(&self) -> bool {
        self.followers.is_bottom() && self.walls.is_bottom() && self.timelines.is_bottom()
    }
}

impl Decompose for RetwisStore {
    fn for_each_irreducible(&self, f: &mut dyn FnMut(Self)) {
        self.followers.for_each_irreducible(&mut |m| {
            f(RetwisStore {
                followers: m,
                ..Default::default()
            })
        });
        self.walls.for_each_irreducible(&mut |m| {
            f(RetwisStore {
                walls: m,
                ..Default::default()
            })
        });
        self.timelines.for_each_irreducible(&mut |m| {
            f(RetwisStore {
                timelines: m,
                ..Default::default()
            })
        });
    }

    fn irreducible_count(&self) -> u64 {
        self.followers.irreducible_count()
            + self.walls.irreducible_count()
            + self.timelines.irreducible_count()
    }

    fn delta(&self, other: &Self) -> Self {
        RetwisStore {
            followers: self.followers.delta(&other.followers),
            walls: self.walls.delta(&other.walls),
            timelines: self.timelines.delta(&other.timelines),
        }
    }

    fn is_irreducible(&self) -> bool {
        self.irreducible_count() == 1
            && (self.followers.is_irreducible()
                || self.walls.is_irreducible()
                || self.timelines.is_irreducible())
    }
}

impl StateSize for RetwisStore {
    fn count_elements(&self) -> u64 {
        self.followers.count_elements()
            + self.walls.count_elements()
            + self.timelines.count_elements()
    }

    fn size_bytes(&self, model: &SizeModel) -> u64 {
        self.followers.size_bytes(model)
            + self.walls.size_bytes(model)
            + self.timelines.size_bytes(model)
    }
}

impl Crdt for RetwisStore {
    type Op = RetwisOp;
    type Value = RetwisSummary;

    fn apply(&mut self, op: &Self::Op) -> Self {
        match op {
            RetwisOp::Follow { follower, followee } => {
                let d = self.followers.mutate_entry(*followee, |s| s.add(*follower));
                RetwisStore {
                    followers: d,
                    ..Default::default()
                }
            }
            RetwisOp::Post {
                author,
                tweet_id,
                content,
                ts,
                recipients,
            } => {
                let wall_delta = self.walls.mutate_entry(*author, |w| {
                    w.apply_to_entry(tweet_id.clone(), Max::new(content.clone()))
                });
                let mut timeline_delta = GMap::new();
                for &r in recipients {
                    let d = self
                        .timelines
                        .mutate_entry(r, |t| t.apply_to_entry(*ts, Max::new(tweet_id.clone())));
                    timeline_delta.join_assign(d);
                }
                RetwisStore {
                    walls: wall_delta,
                    timelines: timeline_delta,
                    ..Default::default()
                }
            }
        }
    }

    fn value(&self) -> RetwisSummary {
        RetwisSummary {
            follow_edges: self.followers.count_elements(),
            wall_tweets: self.walls.count_elements(),
            timeline_entries: self.timelines.count_elements(),
        }
    }

    fn op_size_bytes(op: &Self::Op, model: &SizeModel) -> u64 {
        match op {
            RetwisOp::Follow { .. } => 8,
            RetwisOp::Post {
                tweet_id,
                content,
                recipients,
                ..
            } => {
                4 + tweet_id.payload_bytes(model)
                    + content.payload_bytes(model)
                    + 8
                    + recipients.len() as u64 * 4
            }
        }
    }
}

/// Configuration of the Retwis workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetwisConfig {
    /// Number of users (paper: 10 000; default here is laptop-scale).
    pub n_users: usize,
    /// Zipf coefficient for object selection (paper: 0.5–1.5).
    pub zipf: f64,
    /// Application operations issued per node per round.
    pub ops_per_node_per_round: usize,
    /// Cap on timeline insertions per post (scale substitution; see
    /// module docs).
    pub max_fanout: usize,
    /// RNG seed — the generated op stream is a pure function of the
    /// configuration, so different protocols replay identical workloads.
    pub seed: u64,
}

impl Default for RetwisConfig {
    fn default() -> Self {
        RetwisConfig {
            n_users: 1000,
            zipf: 1.0,
            ops_per_node_per_round: 4,
            max_fanout: 50,
            seed: 42,
        }
    }
}

/// Workload-mix statistics (regenerates Table II).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetwisStats {
    /// *Follow* operations issued.
    pub follows: u64,
    /// *Post Tweet* operations issued.
    pub posts: u64,
    /// *Timeline* reads issued.
    pub timeline_reads: u64,
    /// CRDT updates caused by follows (1 each).
    pub follow_updates: u64,
    /// CRDT updates caused by posts (1 + #recipients each).
    pub post_updates: u64,
}

impl RetwisStats {
    /// Total operations.
    pub fn total_ops(&self) -> u64 {
        self.follows + self.posts + self.timeline_reads
    }

    /// Average updates per post (Table II's `1 + #Followers`).
    pub fn avg_updates_per_post(&self) -> f64 {
        if self.posts == 0 {
            0.0
        } else {
            self.post_updates as f64 / self.posts as f64
        }
    }

    /// Workload share of an op class, in percent.
    pub fn share(&self, count: u64) -> f64 {
        let total = self.total_ops();
        if total == 0 {
            0.0
        } else {
            100.0 * count as f64 / total as f64
        }
    }
}

/// The Retwis workload generator.
///
/// Keeps its own (deterministic) view of the social graph so *Post* ops
/// can resolve "the timeline of all their followers" at generation time,
/// exactly as the application server would by reading its local replica.
#[derive(Debug, Clone)]
pub struct RetwisWorkload {
    cfg: RetwisConfig,
    zipf: Zipf,
    rng: StdRng,
    follower_graph: BTreeMap<UserId, BTreeSet<UserId>>,
    op_counter: u64,
    /// Measured op mix (Table II).
    pub stats: RetwisStats,
}

impl RetwisWorkload {
    /// Build a generator from `cfg`.
    pub fn new(cfg: RetwisConfig) -> Self {
        RetwisWorkload {
            zipf: Zipf::new(cfg.n_users, cfg.zipf),
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            follower_graph: BTreeMap::new(),
            op_counter: 0,
            stats: RetwisStats::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &RetwisConfig {
        &self.cfg
    }

    fn next_user(&mut self) -> UserId {
        self.zipf.sample(&mut self.rng) as UserId
    }

    /// One application op, already classified; `None` = Timeline read.
    fn next_op(&mut self) -> Option<RetwisOp> {
        self.op_counter += 1;
        let roll: f64 = self.rng.gen();
        if roll < 0.15 {
            // Follow: 15%.
            let follower = self.next_user();
            let mut followee = self.next_user();
            if followee == follower {
                followee = (followee + 1) % self.cfg.n_users as UserId;
            }
            self.follower_graph
                .entry(followee)
                .or_default()
                .insert(follower);
            self.stats.follows += 1;
            self.stats.follow_updates += 1;
            Some(RetwisOp::Follow { follower, followee })
        } else if roll < 0.50 {
            // Post Tweet: 35%.
            let author = self.next_user();
            let recipients: Vec<UserId> = self
                .follower_graph
                .get(&author)
                .map(|s| s.iter().copied().take(self.cfg.max_fanout).collect())
                .unwrap_or_default();
            let ts = self.op_counter;
            // 31-byte tweet id, 270-byte content (§V-C).
            let tweet_id = format!("tweet:{:025}", ts);
            let content = format!("{:0270}", ts);
            self.stats.posts += 1;
            self.stats.post_updates += 1 + recipients.len() as u64;
            Some(RetwisOp::Post {
                author,
                tweet_id,
                content,
                ts,
                recipients,
            })
        } else {
            // Timeline read: 50%, zero updates.
            let _reader = self.next_user();
            self.stats.timeline_reads += 1;
            None
        }
    }
}

impl Workload<RetwisStore> for RetwisWorkload {
    fn ops(&mut self, _node: ReplicaId, _round: usize) -> Vec<RetwisOp> {
        (0..self.cfg.ops_per_node_per_round)
            .filter_map(|_| self.next_op())
            .collect()
    }
}

/// Keyed per-object-family operations for one node in one round.
///
/// The paper's deployment synchronizes each of the "30K CRDT objects"
/// independently (its own δ-buffer, its own Algorithm 1 instance); this
/// split drives `crdt_sim::ShardedEngineRunner` — one runner per family —
/// which is equivalent to one deployment hosting all objects, since
/// objects never interact.
#[derive(Debug, Clone, Default)]
pub struct NodeTraceOps {
    /// Follower-set updates: `(owner, add(follower))`.
    pub followers: Vec<(UserId, GSetOp<UserId>)>,
    /// Wall updates: `(author, tweet_id ↦ content)`.
    pub walls: Vec<(UserId, GMapOp<String, Max<String>>)>,
    /// Timeline updates: `(recipient, ts ↦ tweet_id)`.
    pub timelines: Vec<(UserId, GMapOp<u64, Max<String>>)>,
}

impl NodeTraceOps {
    /// Total CRDT updates in this batch.
    pub fn updates(&self) -> usize {
        self.followers.len() + self.walls.len() + self.timelines.len()
    }
}

/// A fully materialized Retwis run: per-round, per-node keyed operations.
#[derive(Debug, Clone)]
pub struct RetwisTrace {
    /// `rounds[r][node]` — node's operations in round `r`.
    pub rounds: Vec<Vec<NodeTraceOps>>,
    /// Measured op mix over the whole trace (Table II).
    pub stats: RetwisStats,
}

impl RetwisTrace {
    /// Generate a deterministic trace for `n_nodes` nodes over `rounds`
    /// rounds.
    pub fn generate(cfg: RetwisConfig, n_nodes: usize, rounds: usize) -> Self {
        let mut w = RetwisWorkload::new(cfg);
        let mut out = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let mut per_node = Vec::with_capacity(n_nodes);
            for node in 0..n_nodes {
                let mut ops = NodeTraceOps::default();
                for op in w.ops(ReplicaId::from(node), round) {
                    match op {
                        RetwisOp::Follow { follower, followee } => {
                            ops.followers.push((followee, GSetOp::Add(follower)));
                        }
                        RetwisOp::Post {
                            author,
                            tweet_id,
                            content,
                            ts,
                            recipients,
                        } => {
                            ops.walls.push((
                                author,
                                GMapOp::Apply {
                                    key: tweet_id.clone(),
                                    value: Max::new(content),
                                },
                            ));
                            for r in recipients {
                                ops.timelines.push((
                                    r,
                                    GMapOp::Apply {
                                        key: ts,
                                        value: Max::new(tweet_id.clone()),
                                    },
                                ));
                            }
                        }
                    }
                }
                per_node.push(ops);
            }
            out.push(per_node);
        }
        RetwisTrace {
            rounds: out,
            stats: w.stats,
        }
    }

    /// Total CRDT updates across the trace.
    pub fn total_updates(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|nodes| nodes.iter())
            .map(NodeTraceOps::updates)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdt_lattice::testing::check_all_laws;
    use crdt_types::testing::check_crdt_op;

    fn post(author: UserId, n: u64, recipients: Vec<UserId>) -> RetwisOp {
        RetwisOp::Post {
            author,
            tweet_id: format!("tweet:{n:025}"),
            content: format!("{n:0270}"),
            ts: n,
            recipients,
        }
    }

    #[test]
    fn follow_then_post_reaches_timelines() {
        let mut store = RetwisStore::new();
        let _ = store.apply(&RetwisOp::Follow {
            follower: 1,
            followee: 0,
        });
        let _ = store.apply(&RetwisOp::Follow {
            follower: 2,
            followee: 0,
        });
        let _ = store.apply(&post(0, 7, vec![1, 2]));
        assert_eq!(store.followers_of(0).unwrap().len(), 2);
        assert_eq!(store.timeline(1).len(), 1);
        assert_eq!(store.timeline(2).len(), 1);
        assert_eq!(
            store
                .tweet(0, "tweet:0000000000000000000000007")
                .unwrap()
                .len(),
            270
        );
        let v = store.value();
        assert_eq!(v.follow_edges, 2);
        assert_eq!(v.wall_tweets, 1);
        assert_eq!(v.timeline_entries, 2);
    }

    #[test]
    fn timeline_returns_newest_first_capped_at_ten() {
        let mut store = RetwisStore::new();
        for n in 0..15u64 {
            let _ = store.apply(&post(0, n, vec![5]));
        }
        let tl = store.timeline(5);
        assert_eq!(tl.len(), 10);
        assert_eq!(tl[0].0, 14, "newest first");
        assert_eq!(tl[9].0, 5);
    }

    #[test]
    fn ops_satisfy_delta_mutator_contract() {
        let mut store = RetwisStore::new();
        let _ = store.apply(&RetwisOp::Follow {
            follower: 3,
            followee: 0,
        });
        check_crdt_op(
            &store,
            &RetwisOp::Follow {
                follower: 4,
                followee: 0,
            },
        );
        check_crdt_op(&store, &post(0, 9, vec![3, 4]));
        // Redundant follow: delta must be ⊥.
        check_crdt_op(
            &store,
            &RetwisOp::Follow {
                follower: 3,
                followee: 0,
            },
        );
    }

    #[test]
    fn store_obeys_lattice_laws() {
        let mut s1 = RetwisStore::new();
        let _ = s1.apply(&RetwisOp::Follow {
            follower: 1,
            followee: 0,
        });
        let mut s2 = RetwisStore::new();
        let _ = s2.apply(&post(1, 3, vec![0]));
        let mut s3 = s1.clone();
        let _ = s3.apply(&post(0, 4, vec![1]));
        let samples = vec![RetwisStore::bottom(), s1, s2, s3];
        check_all_laws(&samples);
    }

    #[test]
    fn tweet_sizes_match_the_paper() {
        let op = post(0, 1, vec![]);
        if let RetwisOp::Post {
            tweet_id, content, ..
        } = &op
        {
            assert_eq!(tweet_id.len(), 31);
            assert_eq!(content.len(), 270);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn workload_mix_approximates_table2() {
        let mut w = RetwisWorkload::new(RetwisConfig {
            n_users: 100,
            zipf: 1.0,
            ops_per_node_per_round: 1000,
            max_fanout: 50,
            seed: 7,
        });
        let _ops = w.ops(ReplicaId(0), 0);
        let s = w.stats;
        assert!(
            (s.share(s.follows) - 15.0).abs() < 3.0,
            "follow share {}",
            s.share(s.follows)
        );
        assert!(
            (s.share(s.posts) - 35.0).abs() < 3.0,
            "post share {}",
            s.share(s.posts)
        );
        assert!(
            (s.share(s.timeline_reads) - 50.0).abs() < 3.0,
            "read share {}",
            s.share(s.timeline_reads)
        );
        // Posts carry 1 + #followers updates.
        assert!(s.avg_updates_per_post() >= 1.0);
    }

    #[test]
    fn zipf_contention_concentrates_updates() {
        let count_hot = |zipf: f64| {
            let mut w = RetwisWorkload::new(RetwisConfig {
                n_users: 100,
                zipf,
                ops_per_node_per_round: 2000,
                max_fanout: 10,
                seed: 3,
            });
            let ops = w.ops(ReplicaId(0), 0);
            ops.iter()
                .filter(|op| match op {
                    RetwisOp::Follow { followee, .. } => *followee == 0,
                    RetwisOp::Post { author, .. } => *author == 0,
                })
                .count()
        };
        assert!(
            count_hot(1.5) > count_hot(0.5) * 3,
            "higher Zipf must concentrate on the hot user"
        );
    }

    #[test]
    fn generator_is_deterministic() {
        let gen = |seed| {
            let mut w = RetwisWorkload::new(RetwisConfig {
                seed,
                ..Default::default()
            });
            (w.ops(ReplicaId(0), 0), w.stats)
        };
        assert_eq!(gen(9), gen(9));
    }

    #[test]
    fn concurrent_stores_converge_via_deltas() {
        let mut a = RetwisStore::new();
        let mut b = RetwisStore::new();
        let da = a.apply(&RetwisOp::Follow {
            follower: 1,
            followee: 2,
        });
        let db = b.apply(&post(2, 5, vec![9]));
        a.join_assign(db);
        b.join_assign(da);
        assert_eq!(a, b);
    }

    #[test]
    fn trace_splits_ops_by_family() {
        let trace = RetwisTrace::generate(
            RetwisConfig {
                n_users: 50,
                ops_per_node_per_round: 20,
                ..Default::default()
            },
            4,
            3,
        );
        assert_eq!(trace.rounds.len(), 3);
        assert_eq!(trace.rounds[0].len(), 4);
        assert!(trace.total_updates() > 0);
        // Update accounting matches the generator stats.
        let expected = trace.stats.follow_updates + trace.stats.post_updates;
        assert_eq!(trace.total_updates() as u64, expected);
    }

    #[test]
    fn trace_is_deterministic() {
        let cfg = RetwisConfig {
            n_users: 50,
            ops_per_node_per_round: 5,
            ..Default::default()
        };
        let a = RetwisTrace::generate(cfg, 3, 2);
        let b = RetwisTrace::generate(cfg, 3, 2);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.total_updates(), b.total_updates());
    }
}
