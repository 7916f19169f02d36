//! Fuzz-style decoder suites on seeded SplitMix64 corpora.
//!
//! The contract under test: for *any* byte slice, `decode_request_any` /
//! `decode_response` and `FrameBuf::next_frame` either produce a complete,
//! well-formed message or return `Err` — they never panic, never loop, and
//! never read out of bounds. Three corpora exercise it: pure random bytes,
//! truncations of valid frames, and single-byte mutations of valid frames.
//! A request body without the v2 envelope never decodes.

use gocc_telemetry::SplitMix64;
use gocc_wire::{
    decode_request_any, decode_response, encode_request_v2, encode_response, FrameBuf, ReplRecord,
    ReplRequest, Request, Response, MAGIC_V2, REPL_FLAG_FIN, REPL_FLAG_RESET, REPL_FLAG_SNAP,
};

/// A deterministic pool of valid requests covering every verb.
fn sample_request<'a>(rng: &mut SplitMix64, keybuf: &'a mut Vec<u8>) -> Request<'a> {
    keybuf.clear();
    let keylen = rng.below_usize(24);
    for _ in 0..keylen {
        keybuf.push(rng.next_u64() as u8);
    }
    match rng.below(17) {
        0 => Request::Get { key: keybuf },
        10 => Request::SetS {
            key: keybuf,
            value: rng.next_u64(),
            ttl: rng.below(100),
        },
        11 => Request::GetS {
            key: keybuf,
            min_version: rng.next_u64(),
        },
        1 => Request::Set {
            key: keybuf,
            value: rng.next_u64(),
            ttl: rng.below(100),
        },
        2 => Request::Del { key: keybuf },
        3 => Request::Incr {
            key: keybuf,
            delta: rng.next_u64(),
        },
        4 => Request::Scan {
            limit: rng.below(u64::from(gocc_wire::MAX_SCAN) + 1) as u32,
        },
        5 => Request::Stats,
        6 => Request::Health,
        7 => Request::Trace {
            max: rng.below(512) as u32,
        },
        8 => Request::Flush,
        12 => Request::Repl(ReplRequest::Hello {
            versions: (0..rng.below_usize(9)).map(|_| rng.next_u64()).collect(),
        }),
        13 => Request::Repl(ReplRequest::Ack {
            shard: rng.below(16) as u32,
            version: rng.next_u64(),
            nak: rng.flip(),
        }),
        14 => Request::Repl(ReplRequest::Candidate {
            epoch: rng.next_u64(),
            versions: (0..rng.below_usize(9)).map(|_| rng.next_u64()).collect(),
        }),
        15 => Request::Repl(ReplRequest::EpochAnnounce {
            epoch: rng.next_u64(),
            primary: if rng.flip() { b"" } else { b"127.0.0.1:7171" },
        }),
        16 => Request::Repl(ReplRequest::Promote {
            upstream: if rng.flip() { b"" } else { keybuf },
        }),
        _ => Request::Shutdown,
    }
}

fn sample_repl_batch(rng: &mut SplitMix64) -> Response<'static> {
    let flags = match rng.below(4) {
        0 => 0,
        1 => REPL_FLAG_SNAP | REPL_FLAG_RESET,
        2 => REPL_FLAG_SNAP | REPL_FLAG_FIN,
        _ => REPL_FLAG_SNAP | REPL_FLAG_RESET | REPL_FLAG_FIN,
    };
    let n = rng.below_usize(20);
    Response::ReplBatch {
        shard: rng.below(16) as u32,
        flags,
        prev_version: rng.next_u64(),
        now: rng.below(1 << 20),
        epoch: rng.next_u64(),
        records: (0..n)
            .map(|_| ReplRecord {
                kind: rng.below(3) as u8,
                key: rng.next_u64(),
                value: rng.next_u64(),
                exp: rng.below(1 << 20),
            })
            .collect(),
    }
}

fn sample_response(rng: &mut SplitMix64) -> Response<'static> {
    match rng.below(19) {
        13 => sample_repl_batch(rng),
        14 => Response::ReplWelcome {
            shards: rng.below(64) as u32,
            epoch: rng.next_u64(),
        },
        15 => Response::NotPrimary {
            hint: "127.0.0.1:7171",
        },
        16 => Response::ReplVote {
            granted: rng.flip(),
            epoch: rng.next_u64(),
        },
        17 => Response::DoneAt {
            shard: rng.below(64) as u32,
            version: rng.next_u64(),
        },
        18 => Response::Behind {
            version: rng.next_u64(),
        },
        0 => Response::Value {
            found: rng.flip(),
            value: rng.next_u64(),
        },
        1 => Response::Done,
        2 => Response::Deleted {
            existed: rng.flip(),
        },
        3 => Response::Counter {
            value: rng.next_u64(),
        },
        4 => {
            let n = rng.below_usize(50);
            Response::Entries {
                pairs: (0..n).map(|_| (rng.next_u64(), rng.next_u64())).collect(),
            }
        }
        5 => Response::Stats {
            json: r#"{"mode":"gocc","requests":12}"#,
        },
        6 => Response::Bye,
        7 => Response::Health {
            state: rng.below(3) as u8,
            shed_total: rng.next_u64(),
            deadline_misses: rng.next_u64(),
        },
        8 => Response::Overloaded {
            state: rng.below(3) as u8,
        },
        9 => Response::DeadlineExceeded,
        10 => Response::Trace {
            json: r#"{"spans":[],"pushed":3,"dropped":0}"#,
        },
        11 => Response::Flushed {
            durable_lsn: rng.next_u64(),
        },
        _ => Response::Error {
            message: "seeded failure",
        },
    }
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    let mut buf = Vec::new();
    for _ in 0..20_000 {
        buf.clear();
        let len = rng.below_usize(64);
        for _ in 0..len {
            buf.push(rng.next_u64() as u8);
        }
        // Any result is acceptable, except a request decoded from a body
        // without the envelope; the process not panicking is the test.
        let req = decode_request_any(&buf);
        assert!(req.is_err() || buf[0] == MAGIC_V2, "{buf:?} decoded");
        let _ = decode_response(&buf);
    }
}

#[test]
fn truncated_response_bodies_always_err() {
    let mut rng = SplitMix64::new(1337);
    let mut wire = Vec::new();
    for _ in 0..500 {
        wire.clear();
        let resp = sample_response(&mut rng);
        encode_response(&resp, &mut wire);
        let body = &wire[4..];
        assert_eq!(decode_response(body).unwrap(), resp);
        for cut in 0..body.len() {
            assert!(decode_response(&body[..cut]).is_err());
        }
    }
}

#[test]
fn repl_truncations_and_mutations_never_panic() {
    // Batches, the long-payload path; the replication requests are in
    // `sample_request`'s pool.
    let mut rng = SplitMix64::new(0x8D8D);
    let mut wire = Vec::new();
    for _ in 0..300 {
        wire.clear();
        let resp = sample_repl_batch(&mut rng);
        encode_response(&resp, &mut wire);
        let body = wire[4..].to_vec();
        assert_eq!(decode_response(&body).unwrap(), resp);
        for cut in 0..body.len() {
            assert!(decode_response(&body[..cut]).is_err());
        }
        for _ in 0..8 {
            let mut mutated = body.clone();
            let idx = rng.below_usize(mutated.len());
            mutated[idx] ^= 1 << rng.below(8);
            let _ = decode_response(&mutated);
        }
    }
}

#[test]
fn v2_truncations_and_mutations_never_panic() {
    let mut rng = SplitMix64::new(0xB2B2);
    let mut keybuf = Vec::new();
    let mut wire = Vec::new();
    for _ in 0..300 {
        wire.clear();
        let req = sample_request(&mut rng, &mut keybuf);
        let deadline = if rng.flip() {
            Some(rng.next_u64() as u32)
        } else {
            None
        };
        encode_request_v2(&req, deadline, &mut wire);
        let body = wire[4..].to_vec();
        let frame = decode_request_any(&body).expect("full v2 body decodes");
        assert_eq!(frame.req, req);
        assert_eq!(frame.deadline_us, deadline);
        for cut in 0..body.len() {
            assert!(
                decode_request_any(&body[..cut]).is_err(),
                "v2 truncation at {cut} must not decode"
            );
        }
        for _ in 0..8 {
            let mut mutated = body.clone();
            let idx = rng.below_usize(mutated.len());
            mutated[idx] ^= 1 << rng.below(8);
            let _ = decode_request_any(&mutated);
        }
    }
}

#[test]
fn bodies_without_the_envelope_never_decode() {
    // Every valid request body with its envelope stripped (the protocol-v1
    // form) or its magic byte replaced, and seeded random bodies that do
    // not open with the magic byte: all `Err`, none a panic.
    let mut rng = SplitMix64::new(0x0B1D);
    let mut keybuf = Vec::new();
    let mut wire = Vec::new();
    for _ in 0..500 {
        wire.clear();
        let req = sample_request(&mut rng, &mut keybuf);
        encode_request_v2(&req, None, &mut wire);
        let body = &wire[4..];
        assert!(decode_request_any(&body[2..]).is_err(), "bare {req:?}");
        let mut swapped = body.to_vec();
        swapped[0] = loop {
            let b = rng.next_u64() as u8;
            if b != MAGIC_V2 {
                break b;
            }
        };
        assert!(decode_request_any(&swapped).is_err(), "{swapped:?}");
        let mut random: Vec<u8> = (0..rng.below_usize(48))
            .map(|_| rng.next_u64() as u8)
            .collect();
        if random.first() == Some(&MAGIC_V2) {
            random[0] = !MAGIC_V2;
        }
        assert!(decode_request_any(&random).is_err(), "{random:?}");
    }
}

#[test]
fn frame_stream_with_seeded_oversized_frames_resynchronizes() {
    // Interleave valid frames with oversized frames at seeded
    // positions; FrameBuf must yield every valid frame, surface TooLarge
    // once per oversized frame, and never wedge or panic.
    let mut rng = SplitMix64::new(0x0512);
    let mut keybuf = Vec::new();
    let mut wire = Vec::new();
    let mut valid = 0u32;
    let mut oversized = 0u32;
    for _ in 0..40 {
        if rng.below(4) == 0 {
            let len = (gocc_wire::MAX_FRAME + 1 + rng.below_usize(4096)) as u32;
            wire.extend_from_slice(&len.to_le_bytes());
            wire.resize(wire.len() + len as usize, 0x5A);
            oversized += 1;
        } else {
            let req = sample_request(&mut rng, &mut keybuf);
            let deadline = rng.flip().then(|| rng.next_u64() as u32);
            encode_request_v2(&req, deadline, &mut wire);
            valid += 1;
        }
    }
    let mut fb = FrameBuf::new();
    let mut seen = 0u32;
    let mut too_large = 0u32;
    for chunk in wire.chunks(1237) {
        fb.extend(chunk);
        loop {
            match fb.next_frame() {
                Ok(Some(body)) => {
                    decode_request_any(body).expect("interleaved frames are valid");
                    seen += 1;
                }
                Ok(None) => break,
                Err(gocc_wire::WireError::TooLarge) => too_large += 1,
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(fb.pending() < 8192, "oversized bodies must not buffer");
    }
    assert_eq!(seen, valid);
    assert_eq!(too_large, oversized);
    assert_eq!(fb.pending(), 0);
}

#[test]
fn frame_stream_with_garbage_tail_yields_frames_then_error() {
    let mut rng = SplitMix64::new(99);
    let mut keybuf = Vec::new();
    let mut wire = Vec::new();
    let mut expected = 0;
    for _ in 0..20 {
        let req = sample_request(&mut rng, &mut keybuf);
        encode_request_v2(&req, None, &mut wire);
        expected += 1;
    }
    // A corrupt header after the valid prefix: length 0 is never legal.
    wire.extend_from_slice(&[0, 0, 0, 0]);
    let mut fb = FrameBuf::new();
    fb.extend(&wire);
    let mut seen = 0;
    loop {
        match fb.next_frame() {
            Ok(Some(body)) => {
                decode_request_any(body).expect("prefix frames are valid");
                seen += 1;
            }
            Ok(None) => panic!("must hit the corrupt header, not starvation"),
            Err(_) => break,
        }
    }
    assert_eq!(
        seen, expected,
        "every valid frame surfaced before the error"
    );
}
