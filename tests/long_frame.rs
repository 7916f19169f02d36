//! A frame longer than a connection's input high-water mark (256 KiB) but
//! within the frame limit (1 MiB), sent over a real socket to an
//! in-process `goccd`: the server reads it whole and answers it, or closes
//! the connection, within the client's read timeout — it never holds it
//! unanswered with the connection open.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use gocc_server::{spawn, ServerConfig};
use gocc_wire::{decode_response, Response};

#[test]
fn a_300_000_byte_frame_is_answered_or_closed() {
    let handle = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("spawn goccd");
    let mut stream = TcpStream::connect(("127.0.0.1", handle.port())).expect("connect");
    let timeout = Some(Duration::from_secs(10));
    stream.set_read_timeout(timeout).unwrap();
    stream.set_write_timeout(timeout).unwrap();

    // A length prefix and a body that decodes as no request.
    let body = vec![0xAB; 300_000 - 4];
    let mut frame = u32::try_from(body.len()).unwrap().to_le_bytes().to_vec();
    frame.extend(&body);
    stream.write_all(&frame).expect("send the frame");

    // Everything the server sends until it closes; a timeout here is the
    // wedge this test is about.
    let mut got = Vec::new();
    stream
        .read_to_end(&mut got)
        .expect("an answer and a close within the read timeout");
    let len = u32::from_le_bytes(got[..4].try_into().unwrap()) as usize;
    assert_eq!(got.len(), 4 + len, "one frame, then the close");
    let Ok(Response::Error { message }) = decode_response(&got[4..]) else {
        panic!("not an error answer: {:?}", decode_response(&got[4..]));
    };
    assert!(message.starts_with("malformed frame"), "{message}");

    handle.request_shutdown();
    let summary = handle.join();
    assert_eq!(summary.malformed_frames, 1);
}
