//! The client the end-to-end tests share.

use std::net::TcpStream;
use std::time::Duration;

use gocc_wire::Pipe;

/// A blocking [`Pipe`] to the `goccd` on loopback `port`, for
/// [`Pipe::call`]: a lost answer or a lost wake-up fails the call after
/// the 10 s read timeout instead of hanging the test run.
pub fn connect(port: u16) -> Pipe<TcpStream> {
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    Pipe::new(stream)
}
