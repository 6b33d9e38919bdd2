//! Blocking client for the `rqld` wire protocol.
//!
//! One [`Client`] wraps one TCP connection and one server session. The
//! session id from the `HELLO` greeting is exposed so a *second*
//! connection can cancel this one's in-flight query — the same
//! out-of-band arrangement as Postgres' `BackendKeyData`.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use rql_pagestore::wire::WireError;

use crate::protocol::{
    Request, Response, WireDelta, WireDiagnostic, WireProfile, WireResult, FRAMING,
    PROTOCOL_VERSION,
};

/// One event on a subscribed connection (see [`Client::subscribe`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SubscriptionEvent {
    /// A per-snapshot result-table change was pushed.
    Delta(WireDelta),
    /// The subscription ended; the connection is back in
    /// request-response mode.
    End {
        /// The standing query's name.
        name: String,
        /// Why it ended (`"unregistered"` or `"drained"`).
        reason: String,
    },
}

/// Client-side errors: transport/decode trouble, or a server `ERROR`
/// frame surfaced with its wire code.
#[derive(Debug)]
pub enum ClientError {
    /// Frame transport or decode failure.
    Proto(WireError),
    /// The server answered with an `ERROR` frame.
    Server {
        /// `[RQLxxx]`-style code.
        code: String,
        /// Human-readable message.
        message: String,
    },
    /// The server answered with a frame the verb does not expect.
    Unexpected(&'static str),
    /// The server's `HELLO` names a protocol this client does not speak.
    Version {
        /// This client's protocol number.
        client: u32,
        /// The number in the server's `HELLO`.
        server: u32,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => write!(f, "[{code}] {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response frame: {what}"),
            ClientError::Version { client, server } => write!(
                f,
                "protocol version mismatch: client speaks {client}, server speaks {server}"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(WireError::Io(e))
    }
}

/// Client-side result alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// What every verb does with its reply: the wanted arm(s) yield the
/// value, an `ERROR` frame surfaces with its wire code, and any other
/// frame is a protocol violation.
macro_rules! expect {
    ($reply:expr, $name:literal, $($wanted:pat => $value:expr),+) => {
        match $reply {
            $($wanted => Ok($value),)+
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected(concat!("expected ", $name))),
        }
    };
}

/// A connected `rqld` client.
pub struct Client {
    stream: TcpStream,
    session: u64,
    trace_id: Option<[u8; 16]>,
}

impl Client {
    /// Connect and consume the `HELLO` greeting, refusing a server that
    /// speaks another protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            session: 0,
            trace_id: None,
        };
        let (server, session) = expect!(client.read_response()?, "HELLO",
            Response::Hello { proto, session } => (proto, session))?;
        if server != PROTOCOL_VERSION {
            return Err(ClientError::Version {
                client: PROTOCOL_VERSION,
                server,
            });
        }
        client.session = session;
        Ok(client)
    }

    /// This connection's server-side session id (the `CANCEL` handle).
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Attach a client-generated 16-byte trace id to every subsequent
    /// PREPARE/RUN/PROFILE request (the `rql --trace-id` switch). The
    /// server records it in its trace ring, letting `stitch_trace.py`
    /// correlate this client's work across per-node exports.
    pub fn set_trace_id(&mut self, id: Option<[u8; 16]>) {
        self.trace_id = id;
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response> {
        let (opcode, payload) = request.encode();
        FRAMING.write_frame(&mut self.stream, opcode, &payload)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response> {
        let (opcode, payload, _) = FRAMING.read_frame(&mut self.stream)?;
        Ok(Response::decode(opcode, &payload)?)
    }

    /// A verb answered by a `TEXT` frame.
    fn text(&mut self, request: &Request) -> Result<String> {
        expect!(self.round_trip(request)?, "TEXT", Response::Text(text) => text)
    }

    /// A verb answered by a bare `OK`.
    fn ack(&mut self, request: &Request) -> Result<()> {
        expect!(self.round_trip(request)?, "OK", Response::Ok => ())
    }

    /// A verb answered by a `RESULT` frame.
    fn result(&mut self, request: &Request) -> Result<WireResult> {
        expect!(self.round_trip(request)?, "RESULT", Response::Result(result) => result)
    }

    /// Lint a program server-side; returns diagnostics, executes nothing.
    pub fn prepare(&mut self, program: &str) -> Result<Vec<WireDiagnostic>> {
        let request = Request::Prepare {
            program: program.into(),
            trace: self.trace_id,
        };
        expect!(self.round_trip(&request)?, "DIAGNOSTICS",
            Response::Diagnostics { diagnostics } => diagnostics)
    }

    /// Execute a program; returns result tables, reports and snapshots.
    pub fn run(&mut self, program: &str) -> Result<WireResult> {
        self.run_opts(program, false)
    }

    /// [`Client::run`] with a per-request memo override: `no_memo = true`
    /// asks the server to bypass its shared memo store for this program
    /// (the `--no-memo` ablation switch).
    pub fn run_opts(&mut self, program: &str, no_memo: bool) -> Result<WireResult> {
        self.result(&Request::Run {
            program: program.into(),
            no_memo,
            trace: self.trace_id,
        })
    }

    /// Execute a program and ask for the per-snapshot cost profile along
    /// with the results (the wire form of `rql --profile`).
    pub fn profile(&mut self, program: &str, no_memo: bool) -> Result<WireProfile> {
        let request = Request::Profile {
            program: program.into(),
            no_memo,
            trace: self.trace_id,
        };
        expect!(self.round_trip(&request)?, "PROFILE", Response::Profile(profile) => profile)
    }

    /// Cancel another session's in-flight query by its `HELLO` id.
    pub fn cancel(&mut self, session: u64) -> Result<()> {
        self.ack(&Request::Cancel { session })
    }

    /// One-line server status.
    pub fn status(&mut self) -> Result<String> {
        self.text(&Request::Status { flight: false })
    }

    /// Status plus the server's flight-recorder dump (live ring and the
    /// dump frozen at the last failed job, if any).
    pub fn status_flight(&mut self) -> Result<String> {
        self.text(&Request::Status { flight: true })
    }

    /// Metrics snapshot, human (`json = false`) or JSON.
    pub fn metrics(&mut self, json: bool) -> Result<String> {
        self.text(&Request::Metrics { json })
    }

    /// Replication status snapshot, human (`json = false`) or JSON: the
    /// server's role, phase, lag gauges and shipping/applying counters.
    pub fn replstatus(&mut self, json: bool) -> Result<String> {
        self.text(&Request::ReplStatus { json })
    }

    /// Register a standing query (`MAINTAIN QUERY name AS …`). Returns
    /// the server's confirmation line
    /// (`registered name=… table=… snapshots_seeded=…`).
    pub fn register(&mut self, statement: &str) -> Result<String> {
        self.text(&Request::Register {
            statement: statement.into(),
        })
    }

    /// Unregister a standing query by name. Its subscribers get a
    /// terminal `END` frame; the maintained table is left in place.
    pub fn unregister(&mut self, name: &str) -> Result<()> {
        self.ack(&Request::Unregister { name: name.into() })
    }

    /// Subscribe to a standing query. Returns the opening `RESULT` frame
    /// (the full maintained table as of subscription time); the
    /// connection is then in push mode — call [`Client::next_event`]
    /// until it yields [`SubscriptionEvent::End`].
    pub fn subscribe(&mut self, name: &str) -> Result<WireResult> {
        self.result(&Request::Subscribe { name: name.into() })
    }

    /// Block for the next pushed frame on a subscribed connection.
    pub fn next_event(&mut self) -> Result<SubscriptionEvent> {
        expect!(self.read_response()?, "DELTA or END",
            Response::Delta(delta) => SubscriptionEvent::Delta(delta),
            Response::End { name, reason } => SubscriptionEvent::End { name, reason })
    }

    /// Ask the server to drain and stop.
    pub fn shutdown(&mut self) -> Result<()> {
        self.ack(&Request::Shutdown)
    }
}
