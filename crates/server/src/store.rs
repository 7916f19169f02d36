//! The server's storage: `gocache` shards addressed by hashed key.
//!
//! Each shard is one [`Cache`] — an independent `ElidableRwMutex` guarding
//! a transactional map pair, exactly the structure Figure 7 benchmarks.
//! Keys arrive as byte strings on the wire and are identified by their
//! 64-bit FNV-1a hash from then on (the store is word-oriented; a hash
//! collision aliases two keys, which at 2⁻⁶⁴ per pair is the standard
//! cache-service trade and is documented in the protocol).

use gocc_txds::{fnv1a, mix64};
use gocc_wal::{ShardImage, Staged, Wal, WalKind, WalTicket};
use gocc_wire::{ReplRecord, Request, Response, REPL_KIND_DEL, REPL_KIND_PUT};
use gocc_workloads::gocache::{BatchOp, BatchReply, Cache, CacheOp};
use gocc_workloads::Engine;

/// How a routed request's reply differs from the plain verb's: the two
/// session verbs are ordinary batch entries with a different answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Session {
    /// GET / SET / DEL / INCR.
    Plain,
    /// SET_S: a `Set` whose ack carries the `(shard, seq)` it committed at.
    Token,
    /// GET_S: a `Get` answered `Behind` while the shard is below this
    /// version.
    Floor(u64),
}

/// One data request routed for [`ShardedStore::execute_batch`]: the owning
/// shard, the pre-hashed op and the reply flavour.
#[derive(Clone, Copy, Debug)]
pub struct Routed {
    /// Owning shard (places the request in its shard-group).
    pub shard: usize,
    /// The section-body op.
    pub op: BatchOp,
    /// Reply flavour.
    pub session: Session,
}

impl Routed {
    /// Whether the op mutates its shard.
    #[must_use]
    pub fn is_write(&self) -> bool {
        !matches!(self.op, BatchOp::Get { .. })
    }
}

/// Per-request result of [`ShardedStore::execute_batch`]: the response
/// plus, for mutations, the committed post-image record and (when a WAL
/// is attached) the staged ticket that must read durable
/// ([`Wal::durable_state`]) **before** the caller acknowledges — the
/// ack-after-barrier ordering is the entire durability contract.
pub struct BatchOutcome {
    /// The wire response for this request.
    pub resp: Response<'static>,
    /// Committed post-image for mutations (replication feed input).
    pub staged: Option<Staged>,
    /// WAL barrier ticket for mutations when a WAL is attached.
    pub ticket: Option<WalTicket>,
}

/// Reusable buffers for [`ShardedStore::execute_batch`]. A caller that
/// keeps one across calls (each connection does) allocates nothing per
/// batch once the buffers have grown to its pipeline depth.
#[derive(Default)]
pub struct BatchScratch {
    /// Input positions ordered by (shard, position).
    order: Vec<usize>,
    /// The current shard-group's ops and replies.
    ops: Vec<BatchOp>,
    replies: Vec<BatchReply>,
    /// Outcomes in input order — what `execute_batch` returns a view of.
    outcomes: Vec<BatchOutcome>,
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
    /// pre-hashed [`BatchOp`] and the reply flavour. Returns `None` for
    /// verbs that are not single-key data verbs — SCAN (cross-shard,
    /// capacity-abort generator; see [`ShardedStore::scan`]) and the
    /// control plane.
    #[must_use]
    pub fn route(&self, req: &Request<'_>) -> Option<Routed> {
        let (key, session) = match *req {
            Request::Get { key }
            | Request::Set { key, .. }
            | Request::Del { key }
            | Request::Incr { key, .. } => (key, Session::Plain),
            Request::SetS { key, .. } => (key, Session::Token),
            Request::GetS { key, min_version } => (key, Session::Floor(min_version)),
            _ => return None,
        };
        let key = fnv1a(key);
        let op = match *req {
            Request::Set { value, ttl, .. } | Request::SetS { value, ttl, .. } => {
                BatchOp::Set { key, value, ttl }
            }
            Request::Del { .. } => BatchOp::Del { key },
            Request::Incr { delta, .. } => BatchOp::Incr { key, delta },
            _ => BatchOp::Get { key },
        };
        Some(Routed {
            shard: self.shard_index_for(key),
            op,
            session,
        })
    }

    /// The store's one data entry point: executes routed requests with
    /// one critical section per shard-group instead of one per request —
    /// the server-side half of the paper's amortization. A lone request is
    /// a batch of one, and sequential execution is by definition N batches
    /// of one. Requests are grouped by [`Routed::shard`]; each group runs
    /// through [`Cache::execute_batch_into`], in shard order, with
    /// requests inside a group executing in arrival order (so per-shard
    /// commit sequence numbers ascend with arrival). Outcomes come back in
    /// input order, borrowed from `scratch`.
    ///
    /// A group holding a GET_S reads the shard version in its own read
    /// section *before* the group's section — version first, value second:
    /// shard versions only advance, so a version at or past the floor
    /// guarantees the read observes at least the session's write. Within
    /// the group the known version then follows the group's own writes
    /// (each reply carries its `seq`), which is exactly what the same
    /// requests executed one batch at a time would have seen.
    ///
    /// Mutations are staged to `wal` immediately after their group
    /// commits, in seq order, preserving the ack-after-barrier contract
    /// per record. `group_scope` wraps each group's execution — it
    /// receives the shard, the input positions in the group, and a thunk
    /// it **must invoke exactly once**; the connection layer uses it to
    /// set the trace context and time the section without this layer
    /// knowing about tracing.
    pub fn execute_batch<'s>(
        &self,
        engine: &Engine<'_>,
        routed: &[Routed],
        wal: Option<&Wal>,
        scratch: &'s mut BatchScratch,
        mut group_scope: impl FnMut(u32, &[usize], &mut dyn FnMut()),
    ) -> &'s [BatchOutcome] {
        let BatchScratch {
            order,
            ops,
            replies,
            outcomes,
        } = scratch;
        order.clear();
        order.extend(0..routed.len());
        order.sort_unstable_by_key(|&p| (routed[p].shard, p));
        outcomes.clear();
        outcomes.resize_with(routed.len(), || BatchOutcome {
            resp: Response::Done,
            staged: None,
            ticket: None,
        });
        for positions in order.chunk_by(|&a, &b| routed[a].shard == routed[b].shard) {
            let shard = routed[positions[0]].shard;
            let cache = &self.shards[shard];
            ops.clear();
            ops.extend(positions.iter().map(|&p| routed[p].op));
            let has_floor = positions
                .iter()
                .any(|&p| matches!(routed[p].session, Session::Floor(_)));
            let mut version = 0;
            replies.clear();
            group_scope(shard as u32, positions, &mut || {
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
            for ((&pos, &reply), &op) in positions.iter().zip(replies.iter()).zip(ops.iter()) {
                let record = |seq, kind, key, value, exp| {
                    Some(Staged {
                        shard: shard as u32,
                        seq,
                        kind,
                        key,
                        value,
                        exp,
                    })
                };
                let (resp, staged) = match (reply, op) {
                    (BatchReply::Value { found, value }, _) => match routed[pos].session {
                        Session::Floor(min) if version < min => {
                            (Response::Behind { version }, None)
                        }
                        _ => (Response::Value { found, value }, None),
                    },
                    (BatchReply::Stored { seq, exp }, BatchOp::Set { key, value, .. }) => (
                        match routed[pos].session {
                            Session::Token => Response::DoneAt {
                                shard: shard as u32,
                                version: seq,
                            },
                            _ => Response::Done,
                        },
                        record(seq, WalKind::Put, key, value, exp),
                    ),
                    (BatchReply::Deleted { existed, seq }, BatchOp::Del { key }) => (
                        Response::Deleted { existed },
                        record(seq, WalKind::Del, key, 0, 0),
                    ),
                    // Post-image of the value only; replay preserves
                    // whatever expiration the key carries (`PutVal`).
                    (BatchReply::Counter { value, seq }, BatchOp::Incr { key, .. }) => (
                        Response::Counter { value },
                        record(seq, WalKind::PutVal, key, value, 0),
                    ),
                    _ => unreachable!("reply kind mismatches its op"),
                };
                if let Some(record) = &staged {
                    version = record.seq;
                }
                let ticket = match (wal, staged) {
                    (Some(w), Some(record)) => Some(w.stage(record)),
                    _ => None,
                };
                outcomes[pos] = BatchOutcome {
                    resp,
                    staged,
                    ticket,
                };
            }
        }
        outcomes
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
