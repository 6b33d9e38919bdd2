//! One representative of every `rqld` `Request` and `Response` and of
//! every replication `Frame`, shared by the golden test (`wire_v1.rs`)
//! and the decoder fuzz lane (`wire_fuzz.rs`).

use rql_pagestore::{CommittedSegment, Page, PageId};
use rql_repl::{CommitOrigin, Frame, PROTO_VERSION};
use rql_repro::rqld::protocol::WireProfile;
use rql_repro::rqld::{
    Request, Response, WireDelta, WireDiagnostic, WireFix, WireReport, WireResult, WireTable,
    PROTOCOL_VERSION,
};
use rql_sqlengine::Value;

pub fn requests() -> Vec<(&'static str, Request)> {
    let program = || "SELECT 1;".to_string();
    vec![
        (
            "Prepare",
            Request::Prepare {
                program: program(),
                trace: None,
            },
        ),
        (
            "Run",
            Request::Run {
                program: program(),
                no_memo: true,
                trace: Some([0xAB; 16]),
            },
        ),
        ("Cancel", Request::Cancel { session: 42 }),
        ("Status", Request::Status { flight: false }),
        ("Metrics", Request::Metrics { json: true }),
        ("Shutdown", Request::Shutdown),
        (
            "Profile",
            Request::Profile {
                program: program(),
                no_memo: false,
                trace: None,
            },
        ),
        (
            "Register",
            Request::Register {
                statement: "MAINTAIN QUERY w AS SELECT 1".into(),
            },
        ),
        ("Unregister", Request::Unregister { name: "w".into() }),
        ("Subscribe", Request::Subscribe { name: "w".into() }),
        ("ReplStatus", Request::ReplStatus { json: false }),
    ]
}

pub fn responses() -> Vec<(&'static str, Response)> {
    let result = || WireResult {
        tables: vec![WireTable {
            columns: vec!["a".into(), "b".into()],
            rows: vec![
                vec![Value::Integer(-3), Value::Text("x".into())],
                vec![Value::Null, Value::Real(2.5)],
            ],
        }],
        reports: vec![WireReport {
            table: "r".into(),
            iterations: 4,
            qq_rows: 16,
            pages_skipped_delta: 9,
            pages_pruned_filter: 3,
            pagelog_reads: 2,
            cache_hits: 30,
        }],
        snapshots: vec![1, 2],
        elapsed_micros: 1234,
    };
    vec![
        (
            "Hello",
            Response::Hello {
                proto: PROTOCOL_VERSION,
                session: 7,
            },
        ),
        (
            "Diagnostics",
            Response::Diagnostics {
                diagnostics: vec![
                    WireDiagnostic {
                        code: "RQL001".into(),
                        severity: 2,
                        message: "unknown table t".into(),
                        span: None,
                        fix: None,
                    },
                    WireDiagnostic {
                        code: "RQL310".into(),
                        severity: 1,
                        message: "never read".into(),
                        span: Some((40, 51)),
                        fix: Some(WireFix {
                            start: 28,
                            end: 99,
                            applicability: 0,
                            replacement: "x".into(),
                        }),
                    },
                ],
            },
        ),
        ("Result", Response::Result(result())),
        (
            "Error",
            Response::Error {
                code: "RQL300".into(),
                message: "query cancelled by client".into(),
            },
        ),
        ("Text", Response::Text("queue_depth 0".into())),
        ("Ok", Response::Ok),
        (
            "Profile",
            Response::Profile(WireProfile {
                result: result(),
                human: "profile\n".into(),
                json: "{}".into(),
            }),
        ),
        (
            "Delta",
            Response::Delta(WireDelta {
                name: "w".into(),
                snap_id: 9,
                added: vec![vec![Value::Integer(1)]],
                removed: vec![vec![Value::Null, Value::Real(0.5)]],
            }),
        ),
        (
            "End",
            Response::End {
                name: "w".into(),
                reason: "drained".into(),
            },
        ),
    ]
}

pub fn frames() -> Vec<(&'static str, Frame)> {
    let origin = CommitOrigin {
        span_id: 7,
        wall_micros: 1_723_000_000_000_000,
    };
    vec![
        (
            "Hello",
            Frame::Hello {
                proto: PROTO_VERSION,
                wal_len: 12345,
                page_size: 4096,
                format: 0,
            },
        ),
        (
            "SeedStart",
            Frame::SeedStart {
                wal_len: 1,
                pagelog_len: 2,
                maplog_len: 3,
                snapshot_count: 4,
            },
        ),
        (
            "SeedChunk",
            Frame::SeedChunk {
                log: 1,
                offset: 777,
                bytes: vec![1, 2, 3, 4, 5],
            },
        ),
        ("SeedDone", Frame::SeedDone),
        (
            "Segment",
            Frame::Segment {
                segment: CommittedSegment {
                    txn_id: 7,
                    snapshot: Some(3),
                    pages: vec![
                        (PageId(0), Page::from_bytes(vec![0; 4])),
                        (PageId(5), Page::from_bytes(vec![9; 4])),
                    ],
                    start: 10,
                    end: 99,
                },
                origin,
            },
        ),
        (
            "Spt",
            Frame::Spt {
                snapshot_id: 3,
                page_count: 40,
                origin,
            },
        ),
        (
            "Heartbeat",
            Frame::Heartbeat {
                wal_len: 5,
                snapshot_count: 6,
            },
        ),
        (
            "Ack",
            Frame::Ack {
                wal_len: 5,
                snapshot_count: 6,
            },
        ),
    ]
}
