//! Pins protocol v1 (`rqld`) and replication protocol 2 on purpose.
//!
//! * One representative of every `Request`, `Response` and replication
//!   `Frame` variant must encode to exactly the checked-in bytes
//!   (opcode + hex payload), and those bytes must decode back to it — so
//!   a wire change is a visible diff of `tests/golden/wire_v1.txt` plus a
//!   version bump, never an accident.
//! * A client refuses a server whose `HELLO` names another protocol.
//!
//! To regenerate after an intentional change (and a version bump):
//! `UPDATE_GOLDEN=1 cargo test --test wire_v1`.

use std::fmt::Write as _;
use std::net::TcpListener;

use rql_repl::{Frame, PROTO_VERSION};
use rql_repro::rqld::protocol::FRAMING;
use rql_repro::rqld::{Client, ClientError, Request, Response, PROTOCOL_VERSION};

mod wire_samples;
use wire_samples::{frames, requests, responses};

const GOLDEN_PATH: &str = "tests/golden/wire_v1.txt";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut out, b| {
        let _ = write!(out, "{b:02x}");
        out
    })
}

#[test]
fn every_variant_matches_the_golden_bytes() {
    let mut got = format!("rqld protocol {PROTOCOL_VERSION}, repl protocol {PROTO_VERSION}\n");
    let mut line = |kind: &str, name: &str, (opcode, payload): (u8, Vec<u8>)| {
        let _ = writeln!(got, "{kind} {name} {opcode:#04x}:{}", hex(&payload));
    };
    for (name, request) in requests() {
        let (opcode, payload) = request.encode();
        assert_eq!(Request::decode(opcode, &payload).expect(name), request);
        line("request", name, (opcode, payload));
    }
    for (name, response) in responses() {
        let (opcode, payload) = response.encode();
        assert_eq!(Response::decode(opcode, &payload).expect(name), response);
        line("response", name, (opcode, payload));
    }
    for (name, frame) in frames() {
        let (opcode, payload) = frame.encode();
        assert_eq!(Frame::decode(opcode, &payload).expect(name), frame);
        line("frame", name, (opcode, payload));
    }

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("golden file");
    assert_eq!(
        got, want,
        "wire bytes drifted from {GOLDEN_PATH}: bump the protocol version, then run with \
         UPDATE_GOLDEN=1 if intentional"
    );
}

#[test]
fn connect_refuses_a_server_that_speaks_another_protocol() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let (opcode, payload) = Response::Hello {
            proto: PROTOCOL_VERSION + 1,
            session: 1,
        }
        .encode();
        FRAMING
            .write_frame(&mut stream, opcode, &payload)
            .expect("hello");
    });
    let Err(err) = Client::connect(addr) else {
        panic!("connected to a server speaking another protocol");
    };
    server.join().expect("server thread");
    assert!(
        matches!(err, ClientError::Version { client, server }
            if client == PROTOCOL_VERSION && server == PROTOCOL_VERSION + 1),
        "{err:?}"
    );
    let message = err.to_string();
    assert!(
        message.contains(&format!("speaks {PROTOCOL_VERSION},"))
            && message.contains(&format!("speaks {}", PROTOCOL_VERSION + 1)),
        "{message}"
    );
}
