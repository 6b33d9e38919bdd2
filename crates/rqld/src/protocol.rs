//! The `rqld` wire protocol (v1, AUTH-less).
//!
//! Frames and payload primitives are [`rql_pagestore::wire`]'s: every
//! frame is `[u32 length] [u8 opcode] [payload]`, `length` counting the
//! opcode byte plus the payload, all integers little-endian, strings
//! `u32`-length-prefixed UTF-8. This module adds what is `rqld`'s own:
//! the opcodes, the field list of each verb and reply, and tagged
//! [`Value`]s (0 = Null, 1 = Integer, 2 = Real, 3 = Text).
//!
//! The server greets each connection with a `HELLO` frame carrying
//! [`PROTOCOL_VERSION`] — a client that speaks another version refuses
//! the connection; there is no negotiation — and the session id, the
//! out-of-band handle a *different* connection uses to `CANCEL` a query
//! running on this one (the Postgres `BackendKeyData` shape).
//!
//! A payload is exactly its fields, in order, and a decode that leaves
//! bytes over is an error.

use rql_pagestore::wire::{Framing, Reader, Result, WireError, Writer};
use rql_sqlengine::Value;

/// Protocol number carried in `HELLO`; bumped on any wire change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Frames larger than this are rejected before allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// How `rqld` frames travel: bounded, no checksum (the replication
/// stream, whose bytes land in a durable store, adds one).
pub const FRAMING: Framing = Framing {
    max_len: MAX_FRAME,
    checksum: false,
};

// ---- opcodes ---------------------------------------------------------

/// Client → server verbs.
pub mod op {
    /// Analyze a program, return diagnostics without executing.
    pub const PREPARE: u8 = 0x01;
    /// Execute a program, return result tables + reports.
    pub const RUN: u8 = 0x02;
    /// Cancel the in-flight query of another session (by session id).
    pub const CANCEL: u8 = 0x03;
    /// One-line server status.
    pub const STATUS: u8 = 0x04;
    /// Metrics snapshot (human or JSON).
    pub const METRICS: u8 = 0x05;
    /// Graceful drain: finish queued work, then stop.
    pub const SHUTDOWN: u8 = 0x06;
    /// Execute a program and return its result plus a profile report.
    pub const PROFILE: u8 = 0x07;
    /// Register a standing query (`MAINTAIN QUERY name AS …`).
    pub const REGISTER: u8 = 0x08;
    /// Unregister a standing query by name.
    pub const UNREGISTER: u8 = 0x09;
    /// Subscribe to a standing query's result-delta stream. The reply is
    /// a `RESULT` frame (the current maintained table), then `DELTA`
    /// frames per commit until a terminal `END` frame or disconnect.
    pub const SUBSCRIBE: u8 = 0x0A;
    /// Replication status snapshot (human or JSON): role, phase, lag and
    /// shipping/applying counters from the `repl_` metrics section.
    pub const REPLSTATUS: u8 = 0x0B;
}

/// Server → client frames.
pub mod resp {
    /// Connection greeting: this connection's session id.
    pub const HELLO: u8 = 0x81;
    /// `PREPARE` reply: structured diagnostics.
    pub const DIAGNOSTICS: u8 = 0x82;
    /// `RUN` reply: result tables, mechanism reports, snapshot ids.
    pub const RESULT: u8 = 0x83;
    /// Failure, with an `[RQLxxx]`-style code when one applies.
    pub const ERROR: u8 = 0x84;
    /// Plain text (`STATUS`, `METRICS`).
    pub const TEXT: u8 = 0x85;
    /// Bare acknowledgement (`CANCEL`, `SHUTDOWN`).
    pub const OK: u8 = 0x86;
    /// `PROFILE` reply: a `RESULT` body plus profile renderings.
    pub const PROFILE: u8 = 0x87;
    /// Pushed result-delta frame for one subscribed standing query:
    /// rows added/removed by one snapshot. Row shape matches the
    /// columns of the `RESULT` frame that opened the subscription.
    pub const DELTA: u8 = 0x88;
    /// Terminal subscription frame: no more deltas follow (query
    /// unregistered, or the server is draining).
    pub const END: u8 = 0x89;
}

// ---- payload fields ---------------------------------------------------

fn put_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.u8(0),
        Value::Integer(i) => {
            w.u8(1);
            w.u64(*i as u64);
        }
        Value::Real(x) => {
            w.u8(2);
            w.u64(x.to_bits());
        }
        Value::Text(s) => {
            w.u8(3);
            w.str(s);
        }
    }
}

fn get_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Integer(r.u64()? as i64)),
        2 => Ok(Value::Real(f64::from_bits(r.u64()?))),
        3 => Ok(Value::Text(r.str()?)),
        t => Err(WireError::BadTag(t)),
    }
}

/// A row list: a list of lists of values. A row is at least its count,
/// a value at least its tag.
fn put_rows(w: &mut Writer, rows: &[Vec<Value>]) {
    w.list(rows, |w, row| w.list(row, put_value));
}

fn get_rows(r: &mut Reader<'_>) -> Result<Vec<Vec<Value>>> {
    r.list(4, |r| r.list(1, get_value))
}

// ---- requests --------------------------------------------------------

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Lint a program; no execution.
    Prepare {
        /// The `.rql` program text.
        program: String,
        /// Client-generated 16-byte trace id (`rql --trace-id`),
        /// recorded into the server's trace ring for cross-node
        /// stitching.
        trace: Option<[u8; 16]>,
    },
    /// Execute a program.
    Run {
        /// The `.rql` program text.
        program: String,
        /// Skip the server's shared memo store for this request (the
        /// `--no-memo` ablation switch).
        no_memo: bool,
        /// Trace id, as on [`Request::Prepare`].
        trace: Option<[u8; 16]>,
    },
    /// Cancel the in-flight query of session `session`.
    Cancel {
        /// Target session id (from that connection's `HELLO`).
        session: u64,
    },
    /// One-line server status.
    Status {
        /// Append a flight-recorder dump to the status line.
        flight: bool,
    },
    /// Metrics snapshot.
    Metrics {
        /// `true` → JSON, `false` → human-readable table.
        json: bool,
    },
    /// Graceful drain and stop.
    Shutdown,
    /// Execute a program, returning results plus a profile report.
    Profile {
        /// The `.rql` program text.
        program: String,
        /// Skip the server's shared memo store (as in [`Request::Run`]).
        no_memo: bool,
        /// Trace id, as on [`Request::Prepare`].
        trace: Option<[u8; 16]>,
    },
    /// Register a standing query.
    Register {
        /// The full `MAINTAIN QUERY name AS …` statement.
        statement: String,
    },
    /// Unregister a standing query.
    Unregister {
        /// The registered query name.
        name: String,
    },
    /// Subscribe to a standing query's delta stream.
    Subscribe {
        /// The registered query name.
        name: String,
    },
    /// Replication status snapshot.
    ReplStatus {
        /// `true` → JSON, `false` → human-readable lines.
        json: bool,
    },
}

impl Request {
    /// Encode to `(opcode, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = Writer::new();
        let opcode = match self {
            Request::Prepare { program, trace } => {
                w.str(program);
                w.opt(trace.as_ref(), |w, id| w.raw(id));
                op::PREPARE
            }
            Request::Run {
                program,
                no_memo,
                trace,
            }
            | Request::Profile {
                program,
                no_memo,
                trace,
            } => {
                w.str(program);
                w.flag(*no_memo);
                w.opt(trace.as_ref(), |w, id| w.raw(id));
                match self {
                    Request::Run { .. } => op::RUN,
                    _ => op::PROFILE,
                }
            }
            Request::Cancel { session } => {
                w.u64(*session);
                op::CANCEL
            }
            Request::Status { flight } => {
                w.flag(*flight);
                op::STATUS
            }
            Request::Metrics { json } => {
                w.flag(*json);
                op::METRICS
            }
            Request::Shutdown => op::SHUTDOWN,
            Request::Register { statement } => {
                w.str(statement);
                op::REGISTER
            }
            Request::Unregister { name } => {
                w.str(name);
                op::UNREGISTER
            }
            Request::Subscribe { name } => {
                w.str(name);
                op::SUBSCRIBE
            }
            Request::ReplStatus { json } => {
                w.flag(*json);
                op::REPLSTATUS
            }
        };
        (opcode, w.into_bytes())
    }

    /// Decode from a received frame.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Request> {
        let mut r = Reader::new(payload);
        let request = match opcode {
            op::PREPARE => Request::Prepare {
                program: r.str()?,
                trace: r.opt(Reader::array)?,
            },
            op::RUN => Request::Run {
                program: r.str()?,
                no_memo: r.flag()?,
                trace: r.opt(Reader::array)?,
            },
            op::CANCEL => Request::Cancel { session: r.u64()? },
            op::STATUS => Request::Status { flight: r.flag()? },
            op::METRICS => Request::Metrics { json: r.flag()? },
            op::SHUTDOWN => Request::Shutdown,
            op::PROFILE => Request::Profile {
                program: r.str()?,
                no_memo: r.flag()?,
                trace: r.opt(Reader::array)?,
            },
            op::REGISTER => Request::Register {
                statement: r.str()?,
            },
            op::UNREGISTER => Request::Unregister { name: r.str()? },
            op::SUBSCRIBE => Request::Subscribe { name: r.str()? },
            op::REPLSTATUS => Request::ReplStatus { json: r.flag()? },
            t => return Err(WireError::BadTag(t)),
        };
        r.done()?;
        Ok(request)
    }
}

// ---- responses -------------------------------------------------------

/// A structured fix as it travels over the wire, inline in the
/// diagnostic it repairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFix {
    /// Byte range in the submitted program to replace.
    pub start: u32,
    /// End of the byte range (exclusive).
    pub end: u32,
    /// 0 = machine-applicable, 1 = maybe-incorrect, 2 = has-placeholders.
    pub applicability: u8,
    /// Replacement text.
    pub replacement: String,
}

/// A diagnostic as it travels over the wire (code + span, the shape
/// `rqlcheck` produces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// Stable code, e.g. `RQL001`.
    pub code: String,
    /// 0 = info, 1 = warning, 2 = error.
    pub severity: u8,
    /// Human message (no code prefix).
    pub message: String,
    /// Byte range in the submitted program, when known.
    pub span: Option<(u32, u32)>,
    /// Structured fix, when the analyzer derived one.
    pub fix: Option<WireFix>,
}

/// One result table (a top-level SELECT's output).
#[derive(Debug, Clone, PartialEq)]
pub struct WireTable {
    /// Column names.
    pub columns: Vec<String>,
    /// Row values.
    pub rows: Vec<Vec<Value>>,
}

/// Per-mechanism cost summary (the wire projection of `RqlReport`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReport {
    /// Result table the mechanism populated.
    pub table: String,
    /// Loop iterations (snapshots visited).
    pub iterations: u64,
    /// Total Qq rows across iterations.
    pub qq_rows: u64,
    /// Heap pages skipped by delta-driven iteration (cache splice).
    pub pages_skipped_delta: u64,
    /// Heap pages skipped because a zone-map/bloom sidecar refuted the
    /// Qq WHERE clause.
    pub pages_pruned_filter: u64,
    /// Pagelog fetches during the run.
    pub pagelog_reads: u64,
    /// Buffer-cache hits during the run.
    pub cache_hits: u64,
}

/// `RUN` reply payload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireResult {
    /// SELECT outputs in statement order.
    pub tables: Vec<WireTable>,
    /// Mechanism reports in invocation order.
    pub reports: Vec<WireReport>,
    /// Snapshot ids the program declared.
    pub snapshots: Vec<u64>,
    /// Server-side wall time, microseconds.
    pub elapsed_micros: u64,
}

/// `PROFILE` reply payload: the run's result plus the server-rendered
/// profile report in both human and JSON form (the server renders, so
/// every client — CLI, scripts — shows identical tables).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireProfile {
    /// The same body a `RUN` would return.
    pub result: WireResult,
    /// Human tree rendering of the per-snapshot cost table.
    pub human: String,
    /// JSON rendering of the same profile.
    pub json: String,
}

impl WireResult {
    /// Encode into an existing payload (shared by `RESULT` and
    /// `PROFILE`).
    fn encode_into(&self, w: &mut Writer) {
        w.list(&self.tables, |w, t| {
            w.list(&t.columns, |w, c| w.str(c));
            put_rows(w, &t.rows);
        });
        w.list(&self.reports, |w, r| {
            w.str(&r.table);
            w.u64(r.iterations);
            w.u64(r.qq_rows);
            w.u64(r.pages_skipped_delta);
            w.u64(r.pages_pruned_filter);
            w.u64(r.pagelog_reads);
            w.u64(r.cache_hits);
        });
        w.list(&self.snapshots, |w, s| w.u64(*s));
        w.u64(self.elapsed_micros);
    }

    /// Decode from a payload cursor (shared by `RESULT` and `PROFILE`).
    /// Each list is checked against the smallest encoding of its
    /// element: a table is two counts, a column name its length prefix,
    /// a report a name prefix and six `u64`s.
    fn decode_from(r: &mut Reader<'_>) -> Result<WireResult> {
        Ok(WireResult {
            tables: r.list(8, |r| {
                Ok(WireTable {
                    columns: r.list(4, Reader::str)?,
                    rows: get_rows(r)?,
                })
            })?,
            reports: r.list(52, |r| {
                Ok(WireReport {
                    table: r.str()?,
                    iterations: r.u64()?,
                    qq_rows: r.u64()?,
                    pages_skipped_delta: r.u64()?,
                    pages_pruned_filter: r.u64()?,
                    pagelog_reads: r.u64()?,
                    cache_hits: r.u64()?,
                })
            })?,
            snapshots: r.list(8, Reader::u64)?,
            elapsed_micros: r.u64()?,
        })
    }
}

/// A pushed result-delta frame: what one snapshot did to one standing
/// query's maintained table. Row shape matches the `RESULT` frame that
/// opened the subscription.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireDelta {
    /// The standing query's registered name.
    pub name: String,
    /// The snapshot that caused the change.
    pub snap_id: u64,
    /// Rows added to the result table (multiset semantics).
    pub added: Vec<Vec<Value>>,
    /// Rows removed from the result table (multiset semantics).
    pub removed: Vec<Vec<Value>>,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Greeting: the protocol the server speaks and this connection's
    /// session id.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        proto: u32,
        /// Session id for out-of-band `CANCEL`.
        session: u64,
    },
    /// `PREPARE` reply.
    Diagnostics {
        /// Findings, most severe first as produced by the analyzer.
        diagnostics: Vec<WireDiagnostic>,
    },
    /// `RUN` reply.
    Result(WireResult),
    /// Failure.
    Error {
        /// `[RQLxxx]`-style code when one applies, else empty.
        code: String,
        /// Human-readable message.
        message: String,
    },
    /// Plain text reply.
    Text(String),
    /// Bare acknowledgement.
    Ok,
    /// `PROFILE` reply.
    Profile(WireProfile),
    /// Pushed result-delta frame (subscriptions only).
    Delta(WireDelta),
    /// Terminal subscription frame.
    End {
        /// The standing query's registered name.
        name: String,
        /// Why the stream ended (`unregistered`, `drained`).
        reason: String,
    },
}

impl Response {
    /// Encode to `(opcode, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = Writer::new();
        let opcode = match self {
            Response::Hello { proto, session } => {
                w.u32(*proto);
                w.u64(*session);
                resp::HELLO
            }
            Response::Diagnostics { diagnostics } => {
                w.list(diagnostics, |w, d| {
                    w.str(&d.code);
                    w.u8(d.severity);
                    w.str(&d.message);
                    w.opt(d.span, |w, (start, end)| {
                        w.u32(start);
                        w.u32(end);
                    });
                    w.opt(d.fix.as_ref(), |w, f| {
                        w.u32(f.start);
                        w.u32(f.end);
                        w.u8(f.applicability);
                        w.str(&f.replacement);
                    });
                });
                resp::DIAGNOSTICS
            }
            Response::Result(res) => {
                res.encode_into(&mut w);
                resp::RESULT
            }
            Response::Profile(p) => {
                p.result.encode_into(&mut w);
                w.str(&p.human);
                w.str(&p.json);
                resp::PROFILE
            }
            Response::Error { code, message } => {
                w.str(code);
                w.str(message);
                resp::ERROR
            }
            Response::Text(s) => {
                w.str(s);
                resp::TEXT
            }
            Response::Ok => resp::OK,
            Response::Delta(d) => {
                w.str(&d.name);
                w.u64(d.snap_id);
                put_rows(&mut w, &d.added);
                put_rows(&mut w, &d.removed);
                resp::DELTA
            }
            Response::End { name, reason } => {
                w.str(name);
                w.str(reason);
                resp::END
            }
        };
        (opcode, w.into_bytes())
    }

    /// Decode from a received frame.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Response> {
        let mut r = Reader::new(payload);
        let response = match opcode {
            resp::HELLO => Response::Hello {
                proto: r.u32()?,
                session: r.u64()?,
            },
            // Smallest diagnostic: two empty strings, a severity and two
            // absent options.
            resp::DIAGNOSTICS => Response::Diagnostics {
                diagnostics: r.list(11, |r| {
                    Ok(WireDiagnostic {
                        code: r.str()?,
                        severity: r.u8()?,
                        message: r.str()?,
                        span: r.opt(|r| Ok((r.u32()?, r.u32()?)))?,
                        fix: r.opt(|r| {
                            Ok(WireFix {
                                start: r.u32()?,
                                end: r.u32()?,
                                applicability: r.u8()?,
                                replacement: r.str()?,
                            })
                        })?,
                    })
                })?,
            },
            resp::RESULT => Response::Result(WireResult::decode_from(&mut r)?),
            resp::PROFILE => Response::Profile(WireProfile {
                result: WireResult::decode_from(&mut r)?,
                human: r.str()?,
                json: r.str()?,
            }),
            resp::ERROR => Response::Error {
                code: r.str()?,
                message: r.str()?,
            },
            resp::TEXT => Response::Text(r.str()?),
            resp::OK => Response::Ok,
            resp::DELTA => Response::Delta(WireDelta {
                name: r.str()?,
                snap_id: r.u64()?,
                added: get_rows(&mut r)?,
                removed: get_rows(&mut r)?,
            }),
            resp::END => Response::End {
                name: r.str()?,
                reason: r.str()?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        r.done()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    /// Frame round trip, plus what v1 promises of every payload: one
    /// byte more is refused and so is every proper prefix.
    fn roundtrip<T: PartialEq + std::fmt::Debug>(
        msg: &T,
        (opc, payload): (u8, Vec<u8>),
        decode: fn(u8, &[u8]) -> Result<T>,
    ) {
        let mut wire = Vec::new();
        let wrote = FRAMING.write_frame(&mut wire, opc, &payload).unwrap();
        assert_eq!(wrote, wire.len() as u64);
        let (opc2, payload2, read) = FRAMING.read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!((opc2, read), (opc, wrote));
        assert_eq!(&decode(opc2, &payload2).unwrap(), msg);

        let mut longer = payload.clone();
        longer.push(0);
        assert!(
            matches!(decode(opc, &longer), Err(WireError::Trailing(1))),
            "{msg:?} accepted a trailing byte"
        );
        for cut in 0..payload.len() {
            assert!(
                decode(opc, &payload[..cut]).is_err(),
                "{msg:?} decoded from its first {cut} byte(s)"
            );
        }
    }

    fn roundtrip_request(req: Request) {
        roundtrip(&req, req.encode(), Request::decode);
    }

    fn roundtrip_response(resp: Response) {
        roundtrip(&resp, resp.encode(), Response::decode);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Prepare {
            program: "SELECT 1;".into(),
            trace: None,
        });
        roundtrip_request(Request::Prepare {
            program: "SELECT 1;".into(),
            trace: Some([0xAB; 16]),
        });
        roundtrip_request(Request::Run {
            program: "COMMIT WITH SNAPSHOT;".into(),
            no_memo: false,
            trace: None,
        });
        roundtrip_request(Request::Run {
            program: "SELECT 1;".into(),
            no_memo: true,
            trace: Some([7; 16]),
        });
        roundtrip_request(Request::Cancel { session: 42 });
        roundtrip_request(Request::Status { flight: false });
        roundtrip_request(Request::Status { flight: true });
        roundtrip_request(Request::Metrics { json: true });
        roundtrip_request(Request::Metrics { json: false });
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Profile {
            program: "SELECT 1;".into(),
            no_memo: true,
            trace: None,
        });
        roundtrip_request(Request::Profile {
            program: "SELECT 1;".into(),
            no_memo: false,
            trace: Some([1; 16]),
        });
        roundtrip_request(Request::Register {
            statement: "MAINTAIN QUERY w AS SELECT CollateData(snap_id, 'SELECT 1', 'T') \
                        FROM SnapIds"
                .into(),
        });
        roundtrip_request(Request::Unregister { name: "w".into() });
        roundtrip_request(Request::Subscribe { name: "w".into() });
        roundtrip_request(Request::ReplStatus { json: true });
        roundtrip_request(Request::ReplStatus { json: false });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Hello {
            proto: PROTOCOL_VERSION,
            session: 7,
        });
        roundtrip_response(Response::Ok);
        roundtrip_response(Response::Text("queue_depth 0".into()));
        roundtrip_response(Response::Error {
            code: "RQL300".into(),
            message: "query cancelled by client".into(),
        });
        roundtrip_response(Response::Diagnostics {
            diagnostics: vec![
                WireDiagnostic {
                    code: "RQL001".into(),
                    severity: 2,
                    message: "unknown table t".into(),
                    span: Some((10, 11)),
                    fix: None,
                },
                WireDiagnostic {
                    code: "RQL210".into(),
                    severity: 0,
                    message: "delta eligible".into(),
                    span: None,
                    fix: None,
                },
                WireDiagnostic {
                    code: "RQL310".into(),
                    severity: 1,
                    message: "result table 'dead' is never read".into(),
                    span: Some((40, 51)),
                    fix: Some(WireFix {
                        start: 28,
                        end: 99,
                        applicability: 0,
                        replacement: String::new(),
                    }),
                },
            ],
        });
        roundtrip_response(Response::Result(WireResult {
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
            snapshots: vec![1, 2, 3],
            elapsed_micros: 1234,
        }));
        roundtrip_response(Response::Profile(WireProfile {
            result: WireResult {
                tables: Vec::new(),
                reports: vec![WireReport {
                    table: "r".into(),
                    iterations: 2,
                    qq_rows: 8,
                    pages_skipped_delta: 0,
                    pages_pruned_filter: 0,
                    pagelog_reads: 5,
                    cache_hits: 1,
                }],
                snapshots: vec![1, 2],
                elapsed_micros: 99,
            },
            human: "profile: 1 mechanism call(s)\n".into(),
            json: "{\"mechanisms\":[]}".into(),
        }));
        roundtrip_response(Response::Delta(WireDelta {
            name: "w".into(),
            snap_id: 9,
            added: vec![vec![Value::Integer(1), Value::Text("x".into())]],
            removed: vec![vec![Value::Null, Value::Real(0.5)], vec![Value::Integer(2)]],
        }));
        roundtrip_response(Response::Delta(WireDelta::default()));
        roundtrip_response(Response::End {
            name: "w".into(),
            reason: "drained".into(),
        });
    }

    #[test]
    fn truncated_and_oversized_frames_error() {
        let mut wire = Vec::new();
        FRAMING.write_frame(&mut wire, op::STATUS, &[0]).unwrap();
        wire.truncate(3);
        assert!(matches!(
            FRAMING.read_frame(&mut wire.as_slice()),
            Err(WireError::Io(_))
        ));
        for len in [MAX_FRAME + 1, 0] {
            let mut header = len.to_le_bytes().to_vec();
            header.push(op::STATUS);
            assert!(matches!(
                FRAMING.read_frame(&mut header.as_slice()),
                Err(WireError::BadLength(n)) if n == u64::from(len)
            ));
        }
    }

    #[test]
    fn v0_shaped_payloads_are_decode_errors() {
        // Protocol v0 let a payload stop early and filled in defaults:
        // RUN without the memo flag or the trace field, PREPARE without
        // the trace field, an empty STATUS, DIAGNOSTICS with the fixes
        // in a trailer. In v1 each is a short payload.
        let mut program = Writer::new();
        program.str("SELECT 1;");
        let program = program.into_bytes();
        let with_flag = [program.as_slice(), &[1]].concat();
        for (opc, payload) in [
            (op::RUN, program.as_slice()),
            (op::RUN, with_flag.as_slice()),
            (op::PROFILE, with_flag.as_slice()),
            (op::PREPARE, program.as_slice()),
            (op::STATUS, &[]),
        ] {
            assert!(
                matches!(Request::decode(opc, payload), Err(WireError::Truncated)),
                "op {opc:#04x} decoded from a v0 payload"
            );
        }
        let mut w = Writer::new();
        w.u32(1);
        w.str("RQL001");
        w.u8(2);
        w.str("unknown table t");
        w.u8(0); // no span — and, in v0, the end of the diagnostic
        w.u32(0); // v0's fix-trailer count
        assert!(Response::decode(resp::DIAGNOSTICS, &w.into_bytes()).is_err());
        // A v0 HELLO is the session id alone.
        assert!(Response::decode(resp::HELLO, &7u64.to_le_bytes()).is_err());
    }

    #[test]
    fn counts_the_payload_cannot_hold_are_refused_before_allocating() {
        // Twelve bytes that claim four billion columns, rows, values or
        // diagnostics: sizing a Vec by any of them would ask the
        // allocator for tens of gigabytes and abort the process.
        let payload =
            |fields: &[u32]| -> Vec<u8> { fields.iter().flat_map(|f| f.to_le_bytes()).collect() };
        for (opc, bytes) in [
            (resp::RESULT, payload(&[1, u32::MAX, 0])),    // ncols
            (resp::RESULT, payload(&[1, 0, u32::MAX])),    // nrows
            (resp::RESULT, payload(&[1, 0, 1, u32::MAX])), // nvals
            (resp::RESULT, payload(&[u32::MAX, 0, 0])),    // ntables
            (resp::PROFILE, payload(&[1, u32::MAX, 0])),
            (resp::DIAGNOSTICS, payload(&[u32::MAX, 0, 0])),
            (resp::DELTA, payload(&[0, 0, 0, u32::MAX, 0])), // added rows
        ] {
            assert!(
                matches!(Response::decode(opc, &bytes), Err(WireError::Truncated)),
                "op {opc:#04x}"
            );
        }
    }

    #[test]
    fn negative_integers_survive() {
        let mut w = Writer::new();
        put_value(&mut w, &Value::Integer(i64::MIN));
        let bytes = w.into_bytes();
        assert_eq!(
            get_value(&mut Reader::new(&bytes)).unwrap(),
            Value::Integer(i64::MIN)
        );
    }
}
