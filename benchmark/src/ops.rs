//! Seed-derived operation streams.
//!
//! Every workload draws its inputs from here, before any clock starts:
//! the same `(seed, stream index)` always yields the same operations, and
//! the program under test only ever sees the generated operations.

use gocc_telemetry::SplitMix64;
use gocc_wire::Request;

/// Operations in one generated stream. The drivers cycle through it, so a
/// stream is a fixed, seed-determined tape rather than an endless source.
pub const STREAM_LEN: usize = 1 << 18;

/// The four single-key verbs the workloads issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Get,
    Set,
    Incr,
    Del,
}

/// One generated operation. `key` indexes the workload's key table;
/// `value` is the SET payload or the INCR delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub verb: Verb,
    pub key: u32,
    pub value: u32,
}

/// The shape of a workload's traffic.
///
/// Keys `0..keys` take GET/SET/DEL; keys `keys..keys + counters` are
/// reserved for INCR only, so their final values are checkable sums even
/// when two threads race (the counter oracle).
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub keys: u32,
    pub counters: u32,
    /// GET share in parts per thousand; the rest is SET/INCR/DEL 6:1:1.
    pub read_permille: u32,
    /// Zipf exponent over key popularity; 0 is uniform.
    pub zipf_theta: f64,
}

impl Mix {
    /// Size of the key table (regular keys plus counters).
    #[must_use]
    pub fn table_len(&self) -> usize {
        (self.keys + self.counters) as usize
    }
}

/// Which slice of the key space one stream may touch: keys and counters
/// whose index is congruent to `index` modulo `of`. `durable_w` gives each
/// connection its own part so a per-connection FIFO model stays exact.
#[derive(Clone, Copy, Debug)]
pub struct Part {
    pub index: u32,
    pub of: u32,
}

impl Part {
    pub const WHOLE: Part = Part { index: 0, of: 1 };
}

/// Cumulative Zipf distribution over `n` ranks, sampled by binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u32, theta: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / f64::from(i + 1).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (self.cdf.partition_point(|&c| c < u) as u32).min(self.cdf.len() as u32 - 1)
    }
}

/// Spreads popularity ranks over the index space so hot keys are not
/// neighbours in the table (rank 0, 1, 2 … would otherwise share shards
/// and cache lines by construction).
fn scatter(rank: u32, n: u32) -> u32 {
    // 2654435761 is odd, hence a bijection modulo any power of two; for
    // other `n` the modulo still spreads ranks, and collisions only merge
    // two ranks' popularity.
    (u64::from(rank) * 2_654_435_761 % u64::from(n)) as u32
}

/// Generates stream number `stream` of a workload.
#[must_use]
pub fn generate(seed: u64, stream: u64, mix: &Mix, part: Part, len: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xB5AD_4ECE);
    let keys_here = mix.keys / part.of;
    let counters_here = (mix.counters / part.of).max(1);
    let zipf = Zipf::new(keys_here.max(1), mix.zipf_theta);
    (0..len)
        .map(|_| {
            let rank = zipf.sample(&mut rng);
            let local = scatter(rank, keys_here.max(1));
            let verb = if rng.below(1000) < u64::from(mix.read_permille) {
                Verb::Get
            } else {
                match rng.below(8) {
                    0..=5 => Verb::Set,
                    6 => Verb::Incr,
                    _ => Verb::Del,
                }
            };
            let raw = rng.next_u64();
            match verb {
                Verb::Incr => Op {
                    verb,
                    key: mix.keys + (rank % counters_here) * part.of + part.index,
                    value: 1 + (raw % 7) as u32,
                },
                _ => Op {
                    verb,
                    key: local * part.of + part.index,
                    value: (raw >> 32) as u32,
                },
            }
        })
        .collect()
}

/// The value word a SET of `op` stores: the key index in the high half,
/// so any value a GET returns can be checked against the key it was read
/// from without knowing which write it came from.
#[must_use]
pub fn set_word(op: &Op) -> u64 {
    (u64::from(op.key) << 32) | u64::from(op.value)
}

/// The value every regular key is preloaded with.
#[must_use]
pub fn preload_word(key: u32) -> u64 {
    u64::from(key) << 32
}

/// Wire key of table index `i`: eight ASCII bytes.
#[must_use]
pub fn key_bytes(i: u32) -> [u8; 8] {
    let mut out = *b"k0000000";
    let mut n = i;
    for slot in out[1..].iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out
}

/// The key table of a workload: wire bytes, and the hashed word the
/// server derives from them (`fnv1a`), which the section workloads use
/// directly so both families address the cache the same way.
pub struct KeyTable {
    pub bytes: Vec<[u8; 8]>,
    pub words: Vec<u64>,
}

impl KeyTable {
    #[must_use]
    pub fn new(mix: &Mix) -> Self {
        let bytes: Vec<[u8; 8]> = (0..mix.table_len() as u32).map(key_bytes).collect();
        let words = bytes.iter().map(|b| gocc_txds::fnv1a(b)).collect();
        KeyTable { bytes, words }
    }
}

/// The wire request for `op`.
#[must_use]
pub fn request<'a>(op: &Op, keys: &'a KeyTable) -> Request<'a> {
    let key = &keys.bytes[op.key as usize][..];
    match op.verb {
        Verb::Get => Request::Get { key },
        Verb::Set => Request::Set {
            key,
            value: set_word(op),
            ttl: 0,
        },
        Verb::Incr => Request::Incr {
            key,
            delta: u64::from(op.value),
        },
        Verb::Del => Request::Del { key },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        keys: 4096,
        counters: 16,
        read_permille: 900,
        zipf_theta: 0.99,
    };

    /// The bytes the server would receive for a stream.
    fn wire_bytes(ops: &[Op], keys: &KeyTable) -> Vec<u8> {
        let mut out = Vec::new();
        for op in ops {
            gocc_wire::encode_request_v2(&request(op, keys), None, &mut out);
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_another_seed_differs() {
        let keys = KeyTable::new(&MIX);
        let a = generate(7, 0, &MIX, Part::WHOLE, 4096);
        let b = generate(7, 0, &MIX, Part::WHOLE, 4096);
        let c = generate(8, 0, &MIX, Part::WHOLE, 4096);
        let d = generate(7, 1, &MIX, Part::WHOLE, 4096);
        assert_eq!(wire_bytes(&a, &keys), wire_bytes(&b, &keys));
        assert_ne!(wire_bytes(&a, &keys), wire_bytes(&c, &keys));
        assert_ne!(wire_bytes(&a, &keys), wire_bytes(&d, &keys));
    }

    #[test]
    fn mix_shares_and_key_ranges_hold() {
        let ops = generate(1, 0, &MIX, Part::WHOLE, 100_000);
        let gets = ops.iter().filter(|o| o.verb == Verb::Get).count();
        assert!((88_000..92_000).contains(&gets), "gets = {gets}");
        for op in &ops {
            match op.verb {
                Verb::Incr => assert!((MIX.keys..MIX.keys + MIX.counters).contains(&op.key)),
                _ => assert!(op.key < MIX.keys),
            }
        }
        // Zipf 0.99: the most popular key takes far more than 1/4096.
        let mut hist = vec![0u32; MIX.keys as usize];
        for op in ops.iter().filter(|o| o.verb != Verb::Incr) {
            hist[op.key as usize] += 1;
        }
        assert!(*hist.iter().max().unwrap() > 5_000);
    }

    #[test]
    fn parts_are_disjoint() {
        let mix = Mix {
            keys: 2048,
            counters: 16,
            read_permille: 0,
            zipf_theta: 0.99,
        };
        for index in 0..2 {
            let ops = generate(3, u64::from(index), &mix, Part { index, of: 2 }, 20_000);
            assert!(ops.iter().all(|o| o.key % 2 == index));
            assert!(ops.iter().all(|o| o.key < mix.keys + mix.counters));
            assert!(ops.iter().all(|o| o.verb != Verb::Get));
        }
    }

    #[test]
    fn key_bytes_are_distinct_and_fixed_width() {
        assert_eq!(&key_bytes(0), b"k0000000");
        assert_eq!(&key_bytes(4111), b"k0004111");
    }
}
