//! Single-layer probes of the traced pass: a timer around repeated calls
//! into one layer's public functions, on one thread, with nothing else
//! running. Each reports the mean cost of one call.

use std::hint::black_box;
use std::time::Instant;

use gocc_gosync::{GoMutex, GoRwMutex};
use gocc_htm::Tx;
use gocc_optilock::{call_site, critical_mutex, ElidableMutex, GoccRuntime};
use gocc_txds::TxMap;
use gocc_wire::{
    decode_request_any, decode_response, encode_request_v2, encode_response, FrameBuf, Response,
};

use crate::ops::{self, KeyTable, Op, Verb};

/// Mean nanoseconds per call of `f` over `n` calls, after `n / 10`
/// untimed ones.
fn ns_per_call(n: u32, mut f: impl FnMut(u32)) -> f64 {
    for i in 0..n / 10 {
        f(i);
    }
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / f64::from(n)
}

/// `optilock`: an elided section with an empty body.
#[must_use]
pub fn empty_section_ns() -> f64 {
    let rt = GoccRuntime::new_default();
    let m = ElidableMutex::new();
    let site = call_site!();
    ns_per_call(400_000, |_| critical_mutex(&rt, site, &m, |_tx| Ok(())))
}

/// `gosync`: an uncontended `Lock`/`Unlock` pair and `RLock`/`RUnlock`
/// pair — what the fallback path pays per section.
#[must_use]
pub fn gosync_pair_ns() -> (f64, f64) {
    let m = GoMutex::new();
    let rw = GoRwMutex::new();
    (
        ns_per_call(1_000_000, |_| drop(black_box(m.lock()))),
        ns_per_call(1_000_000, |_| drop(black_box(rw.read()))),
    )
}

/// `txds`: `TxMap::get` and `TxMap::insert` under `Tx::direct`, over the
/// workload's key words.
#[must_use]
pub fn txmap_ns(keys: &KeyTable) -> (f64, f64) {
    let rt = GoccRuntime::new_default();
    let map = TxMap::with_capacity(keys.words.len() * 4);
    let n = keys.words.len() as u32;
    let mut tx = Tx::direct(rt.htm());
    for (i, &k) in keys.words.iter().enumerate() {
        map.insert(&mut tx, k, i as u64).expect("direct insert");
    }
    let get = ns_per_call(1_000_000, |i| {
        black_box(
            map.get(&mut tx, keys.words[(i % n) as usize])
                .expect("direct get"),
        );
    });
    let insert = ns_per_call(1_000_000, |i| {
        black_box(
            map.insert(&mut tx, keys.words[(i % n) as usize], u64::from(i))
                .expect("direct insert"),
        );
    });
    tx.commit().expect("direct commit");
    (get, insert)
}

/// What the `wire` layer costs per frame on the workload's own requests.
pub struct WireCost {
    pub encode_req_ns: f64,
    pub decode_req_ns: f64,
    pub encode_resp_ns: f64,
    pub decode_resp_ns: f64,
    pub bytes_per_req: f64,
    pub bytes_per_resp: f64,
}

/// The response a verb draws, with plausible contents.
fn response_for(op: &Op) -> Response<'static> {
    match op.verb {
        Verb::Get => Response::Value {
            found: true,
            value: ops::set_word(op),
        },
        Verb::Set => Response::Done,
        Verb::Incr => Response::Counter {
            value: u64::from(op.value),
        },
        Verb::Del => Response::Deleted { existed: true },
    }
}

/// Splits a buffer of back-to-back frames into frame bodies.
fn bodies(wire: &[u8]) -> Vec<Vec<u8>> {
    let mut fb = FrameBuf::new();
    fb.extend(wire);
    let mut out = Vec::new();
    while let Ok(Some(body)) = fb.next_frame() {
        out.push(body.to_vec());
    }
    out
}

/// `wire`: v2 request and response frames of the first 4096 operations of
/// a stream, encoded and decoded one at a time.
#[must_use]
pub fn wire_cost(stream: &[Op], keys: &KeyTable) -> WireCost {
    let sample = &stream[..stream.len().min(4096)];
    let n = sample.len() as u32;
    let rounds = 1_000_000;
    let mut buf = Vec::with_capacity(256);

    let (mut req_wire, mut resp_wire) = (Vec::new(), Vec::new());
    for op in sample {
        encode_request_v2(&ops::request(op, keys), None, &mut req_wire);
        encode_response(&response_for(op), &mut resp_wire);
    }
    let req_bodies = bodies(&req_wire);
    let resp_bodies = bodies(&resp_wire);

    WireCost {
        encode_req_ns: ns_per_call(rounds, |i| {
            buf.clear();
            encode_request_v2(
                &ops::request(&sample[(i % n) as usize], keys),
                None,
                &mut buf,
            );
            black_box(&buf);
        }),
        decode_req_ns: ns_per_call(rounds, |i| {
            black_box(decode_request_any(&req_bodies[(i % n) as usize]).expect("own frame"));
        }),
        encode_resp_ns: ns_per_call(rounds, |i| {
            buf.clear();
            encode_response(&response_for(&sample[(i % n) as usize]), &mut buf);
            black_box(&buf);
        }),
        decode_resp_ns: ns_per_call(rounds, |i| {
            black_box(decode_response(&resp_bodies[(i % n) as usize]).expect("own frame"));
        }),
        bytes_per_req: req_wire.len() as f64 / f64::from(n),
        bytes_per_resp: resp_wire.len() as f64 / f64::from(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Mix, Part};

    #[test]
    fn wire_probe_sees_whole_frames() {
        let mix = Mix {
            keys: 64,
            counters: 4,
            read_permille: 500,
            zipf_theta: 0.0,
        };
        let keys = KeyTable::new(&mix);
        let stream = ops::generate(1, 0, &mix, Part::WHOLE, 256);
        let mut wire = Vec::new();
        for op in &stream {
            encode_request_v2(&ops::request(op, &keys), None, &mut wire);
        }
        let frames = bodies(&wire);
        assert_eq!(frames.len(), 256);
        for (op, body) in stream.iter().zip(&frames) {
            assert_eq!(
                decode_request_any(body).unwrap().req,
                ops::request(op, &keys)
            );
        }
    }
}
