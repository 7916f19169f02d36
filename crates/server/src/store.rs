//! The server's storage: `gocache` shards addressed by hashed key.
//!
//! Each shard is one [`Cache`] — an independent `ElidableRwMutex` guarding
//! a transactional map pair, exactly the structure Figure 7 benchmarks.
//! Keys arrive as byte strings on the wire and are identified by their
//! 64-bit FNV-1a hash from then on (the store is word-oriented; a hash
//! collision aliases two keys, which at 2⁻⁶⁴ per pair is the standard
//! cache-service trade and is documented in the protocol).

use gocc_txds::{fnv1a, mix64};
use gocc_wal::{ShardImage, Staged, WalKind};
use gocc_wire::{ReplRecord, Request, Response, REPL_KIND_DEL, REPL_KIND_PUT};
use gocc_workloads::gocache::{BatchOp, BatchReply, Cache, CacheOp};
use gocc_workloads::Engine;

/// A data verb, as the store executes and answers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verb {
    Get,
    /// GET_S: a `Get` answered `Behind` while the shard is below a floor.
    GetS,
    Set,
    /// SET_S: a `Set` whose ack carries the `(shard, seq)` it committed at.
    SetS,
    Del,
    Incr,
}

/// One data request from routing to its answer, in one record:
/// [`ShardedStore::route`] writes the owning shard, the hashed key and the
/// operands, and [`ShardedStore::execute_batch`] writes the reply over the
/// operands in place, so the caller encodes the answer
/// ([`Routed::response`]) and builds the post-image only if a log or a
/// feed will take it ([`Routed::staged`]).
#[derive(Clone, Copy, Debug)]
pub struct Routed {
    key: u64,
    /// SET's value or INCR's delta; once executed, what a GET read, the
    /// counter INCR left, or the version a GET_S found below its floor.
    value: u64,
    /// SET's relative ttl; once executed, its absolute expiry.
    ttl: u64,
    /// GET_S's floor; once executed, a mutation's commit sequence number.
    seq: u64,
    /// Owning shard (places the request in its shard-group).
    shard: u32,
    verb: Verb,
    /// Once executed: a GET found its key, or a DEL's key existed.
    found: bool,
    /// Once executed: a GET_S's shard was below its floor.
    behind: bool,
}

impl Routed {
    /// The owning shard.
    #[must_use]
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// Whether the op mutates its shard.
    #[must_use]
    pub fn is_write(&self) -> bool {
        !matches!(self.verb, Verb::Get | Verb::GetS)
    }

    /// The verb's index in STATS `requests`, for the flight recorder.
    pub(crate) fn verb_index(&self) -> usize {
        match self.verb {
            Verb::Get => 0,
            Verb::Set => 1,
            Verb::Del => 2,
            Verb::Incr => 3,
            Verb::SetS => 10,
            Verb::GetS => 11,
        }
    }

    /// The section-body op.
    fn op(&self) -> BatchOp {
        let key = self.key;
        match self.verb {
            Verb::Get | Verb::GetS => BatchOp::Get { key },
            Verb::Set | Verb::SetS => BatchOp::Set {
                key,
                value: self.value,
                ttl: self.ttl,
            },
            Verb::Del => BatchOp::Del { key },
            Verb::Incr => BatchOp::Incr {
                key,
                delta: self.value,
            },
        }
    }

    /// Writes the section's `reply` over the operands. `version` is the
    /// shard's version as this request sees it: read before the group's
    /// section, then moved on by each write of the group.
    fn answer(&mut self, reply: BatchReply, version: &mut u64) {
        match reply {
            BatchReply::Value { found, value } => {
                (self.found, self.value) = (found, value);
                if self.verb == Verb::GetS && *version < self.seq {
                    (self.behind, self.value) = (true, *version);
                }
            }
            BatchReply::Stored { seq, exp } => (self.seq, self.ttl) = (seq, exp),
            BatchReply::Deleted { existed, seq } => (self.found, self.seq) = (existed, seq),
            BatchReply::Counter { value, seq } => (self.value, self.seq) = (value, seq),
        }
        if self.is_write() {
            *version = self.seq;
        }
    }

    /// The answer of an executed request.
    #[must_use]
    pub fn response(&self) -> Response<'static> {
        match self.verb {
            Verb::Get | Verb::GetS if self.behind => Response::Behind {
                version: self.value,
            },
            Verb::Get | Verb::GetS => Response::Value {
                found: self.found,
                value: self.value,
            },
            Verb::Set => Response::Done,
            Verb::SetS => Response::DoneAt {
                shard: self.shard,
                version: self.seq,
            },
            Verb::Del => Response::Deleted {
                existed: self.found,
            },
            Verb::Incr => Response::Counter { value: self.value },
        }
    }

    /// The committed post-image of an executed write, for the log or the
    /// replication feed; `None` for a read.
    #[must_use]
    pub fn staged(&self) -> Option<Staged> {
        let (kind, value, exp) = match self.verb {
            Verb::Get | Verb::GetS => return None,
            Verb::Set | Verb::SetS => (WalKind::Put, self.value, self.ttl),
            Verb::Del => (WalKind::Del, 0, 0),
            // Post-image of the value only; replay preserves whatever
            // expiration the key carries (`PutVal`).
            Verb::Incr => (WalKind::PutVal, self.value, 0),
        };
        Some(Staged {
            shard: self.shard,
            seq: self.seq,
            kind,
            key: self.key,
            value,
            exp,
        })
    }
}

/// A caller's record of one request, which [`ShardedStore::execute_batch`]
/// executes in place when it holds a data request.
pub trait Pending {
    /// The routed data request this record holds, if any.
    fn routed(&mut self) -> Option<&mut Routed>;
}

impl Pending for Routed {
    fn routed(&mut self) -> Option<&mut Routed> {
        Some(self)
    }
}

/// Reusable buffers for [`ShardedStore::execute_batch`]. A caller that
/// keeps one across calls (each connection does) allocates nothing per
/// batch once the buffers have grown to its pipeline depth.
#[derive(Default)]
pub struct BatchScratch {
    /// Per shard, where its run of `order` ends once placed.
    counts: Vec<u32>,
    /// The data requests' positions, by shard, each shard's in arrival
    /// order: the shard-groups.
    order: Vec<usize>,
    /// The current shard-group's ops and replies.
    ops: Vec<BatchOp>,
    replies: Vec<BatchReply>,
}

/// A fixed set of independently locked cache shards.
pub struct ShardedStore {
    shards: Vec<Cache>,
}

impl ShardedStore {
    /// Creates `shards` empty shards of `capacity_per_shard` entries each.
    #[must_use]
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        ShardedStore {
            shards: (0..shards.max(1))
                .map(|_| Cache::with_capacity(capacity_per_shard))
                .collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Index of the shard owning hashed key `h`. `fnv1a` output is
    /// re-mixed so the shard index and the in-shard probe sequence use
    /// independent bits. Stable across restarts for a fixed shard count —
    /// WAL records address shards by this index.
    #[must_use]
    pub fn shard_index_for(&self, h: u64) -> usize {
        (mix64(h) >> 32) as usize % self.shards.len()
    }

    /// The shard at `index` — the replication paths address shards by the
    /// index the wire protocol carries, not by key.
    #[must_use]
    pub fn shard_at(&self, index: usize) -> &Cache {
        &self.shards[index]
    }

    /// Current version (committed sequence number) of every shard, each
    /// read in its own read section.
    #[must_use]
    pub fn versions(&self, engine: &Engine<'_>) -> Vec<u64> {
        self.shards.iter().map(|s| s.version(engine)).collect()
    }

    /// Total live entries across shards (one read section per shard).
    #[must_use]
    pub fn total_entries(&self, engine: &Engine<'_>) -> u64 {
        self.shards.iter().map(|s| s.item_count(engine)).sum()
    }

    /// Dumps up to `limit` `(hashed_key, value)` pairs, walking shards in
    /// order.
    #[must_use]
    pub fn scan(&self, engine: &Engine<'_>, limit: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let remaining = limit - out.len();
            if remaining == 0 {
                break;
            }
            out.extend(shard.scan(engine, remaining));
        }
        out
    }

    /// Routes one decoded request for execution: the owning shard, the
    /// hashed key and the operands. Returns `None` for verbs that are not
    /// single-key data verbs — SCAN (cross-shard, capacity-abort
    /// generator; see [`ShardedStore::scan`]) and the control plane.
    #[must_use]
    pub fn route(&self, req: &Request<'_>) -> Option<Routed> {
        let (verb, key, value, ttl, seq) = match *req {
            Request::Get { key } => (Verb::Get, key, 0, 0, 0),
            Request::GetS { key, min_version } => (Verb::GetS, key, 0, 0, min_version),
            Request::Set { key, value, ttl } => (Verb::Set, key, value, ttl, 0),
            Request::SetS { key, value, ttl } => (Verb::SetS, key, value, ttl, 0),
            Request::Del { key } => (Verb::Del, key, 0, 0, 0),
            Request::Incr { key, delta } => (Verb::Incr, key, delta, 0, 0),
            _ => return None,
        };
        let key = fnv1a(key);
        Some(Routed {
            key,
            value,
            ttl,
            seq,
            shard: self.shard_index_for(key) as u32,
            verb,
            found: false,
            behind: false,
        })
    }

    /// Prefetches what `routed`'s section will read first — its key's home
    /// slot and the stripe word guarding that slot — so the misses of a
    /// window's keys are taken during its decode. A hint: it changes no
    /// result.
    pub fn prefetch(&self, engine: &Engine<'_>, routed: &Routed) {
        self.shards[routed.shard()].prefetch(engine, routed.key);
    }

    /// The store's one data entry point: executes the data requests among
    /// `reqs` in place, with one critical section per shard-group instead
    /// of one per request — the server-side half of the paper's
    /// amortization. A lone request is a batch of one, and sequential
    /// execution is by definition N batches of one. Requests are grouped
    /// by a counting sort of their positions by shard (its counts cost
    /// O(shards) a batch); each group runs through
    /// [`Cache::execute_batch_into`], in shard order, with requests inside
    /// a group executing in arrival order (so per-shard commit sequence
    /// numbers ascend with arrival). Each reply is written into its
    /// request's own record.
    ///
    /// A group holding a GET_S reads the shard version in its own read
    /// section *before* the group's section — version first, value second:
    /// shard versions only advance, so a version at or past the floor
    /// guarantees the read observes at least the session's write. Within
    /// the group the known version then follows the group's own writes
    /// (each reply carries its `seq`), which is exactly what the same
    /// requests executed one batch at a time would have seen.
    ///
    /// Nothing is logged here: the caller stages each write's
    /// [`Routed::staged`] post-image and must not acknowledge it before
    /// the log says it is durable — the ack-after-barrier ordering is the
    /// entire durability contract. `group_scope` wraps each group's
    /// execution — it receives the shard, the records, the positions in
    /// the group, and a thunk it **must invoke exactly once**; the
    /// connection layer uses it to set the trace context and time the
    /// section without this layer knowing about tracing.
    pub fn execute_batch<R: Pending>(
        &self,
        engine: &Engine<'_>,
        reqs: &mut [R],
        scratch: &mut BatchScratch,
        mut group_scope: impl FnMut(u32, &[R], &[usize], &mut dyn FnMut()),
    ) {
        let BatchScratch {
            counts,
            order,
            ops,
            replies,
        } = scratch;
        // A counting sort by shard, stable in arrival order: one pass to
        // count, one to place. (Sorting the 32 requests of a `serve_d32`
        // window by comparison cost ≈ 0.6 µs more on a 2-CPU x86-64 VM,
        // most of it mispredicted branches.)
        counts.clear();
        counts.resize(self.shards.len() + 1, 0);
        for req in reqs.iter_mut() {
            if let Some(r) = req.routed() {
                counts[r.shard as usize + 1] += 1;
            }
        }
        for s in 1..counts.len() {
            counts[s] += counts[s - 1];
        }
        order.clear();
        order.resize(counts[self.shards.len()] as usize, 0);
        for (pos, req) in reqs.iter_mut().enumerate() {
            if let Some(r) = req.routed() {
                let at = &mut counts[r.shard as usize];
                order[*at as usize] = pos;
                *at += 1;
            }
        }
        let mut start = 0;
        for (shard, &end) in counts[..self.shards.len()].iter().enumerate() {
            let positions = &order[start..end as usize];
            start = end as usize;
            if positions.is_empty() {
                continue;
            }
            let cache = &self.shards[shard];
            ops.clear();
            let mut has_floor = false;
            for &pos in positions {
                let r = reqs[pos].routed().expect("placed by its route");
                has_floor |= r.verb == Verb::GetS;
                ops.push(r.op());
            }
            let mut version = 0;
            replies.clear();
            group_scope(shard as u32, reqs, positions, &mut || {
                if has_floor {
                    version = cache.version(engine);
                }
                cache.execute_batch_into(engine, ops, replies);
            });
            assert_eq!(
                replies.len(),
                ops.len(),
                "group_scope must run its thunk exactly once"
            );
            for (&pos, &reply) in positions.iter().zip(replies.iter()) {
                let r = reqs[pos].routed().expect("placed by its route");
                r.answer(reply, &mut version);
            }
        }
    }

    /// Applies one replicated batch to the shard it addresses, with the
    /// version check done inside the shard's critical section. `Ok(new)`
    /// means every record applied and the shard is at `new`;
    /// `Err(actual)` is the version-gap conflict the replica answers with
    /// a NAK.
    pub fn apply_repl_batch(
        &self,
        engine: &Engine<'_>,
        shard: usize,
        prev_version: u64,
        now: u64,
        records: &[ReplRecord],
    ) -> Result<u64, u64> {
        let ops: Vec<CacheOp> = records.iter().map(record_to_op).collect();
        self.shards[shard].apply_versioned(engine, prev_version, now, &ops)
    }

    /// Snapshots every shard for a checkpoint — each shard in one read
    /// section (consistent per shard, which is all replay needs: WAL
    /// records are applied per shard by sequence number).
    #[must_use]
    pub fn snapshot_all(&self, engine: &Engine<'_>) -> Vec<ShardImage> {
        self.shards
            .iter()
            .map(|s| {
                let (entries, seq, now) = s.snapshot(engine);
                ShardImage { entries, seq, now }
            })
            .collect()
    }

    /// Rebuilds every shard from recovered images (boot, before the
    /// listener opens). Panics if the image count mismatches the shard
    /// count — recovery validated that against the checkpoint already.
    pub fn restore_all(&self, rt: &gocc_htm::HtmRuntime, images: &[ShardImage]) {
        assert_eq!(images.len(), self.shards.len(), "shard count changed");
        for (shard, img) in self.shards.iter().zip(images) {
            shard.restore(rt, &img.entries, img.seq, img.now);
        }
    }
}

/// Converts a wire replication record into the cache's apply op. Unknown
/// kinds (a newer primary) degrade to a value-preserving put rather than
/// a panic — the decoder already rejects them, this is defense in depth.
fn record_to_op(r: &ReplRecord) -> CacheOp {
    match r.kind {
        REPL_KIND_PUT => CacheOp::Put {
            key: r.key,
            value: r.value,
            exp: r.exp,
        },
        REPL_KIND_DEL => CacheOp::Del { key: r.key },
        _ => CacheOp::PutVal {
            key: r.key,
            value: r.value,
        },
    }
}
