//! Blocking HTTP client for a `ph_server` instance: one keep-alive connection,
//! typed answers, and structured errors mirroring the server's JSON bodies.
//!
//! [`Client::query`] returns the same [`AqpAnswer`] type a local
//! [`ph_core::Session::sql`] call does — and because the wire format is
//! float-lossless, the values are **bit-identical** to what the server
//! computed. Code written against a local session ports to the networked
//! deployment by swapping the call site.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::Duration;

use ph_core::AqpAnswer;

use crate::http::{HttpConn, HttpError};
use crate::json::{obj, Json};
use crate::wire::answer_from_json;

/// Largest response body the client accepts.
const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// Client-side failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The server answered with an error body (4xx/5xx).
    Server {
        /// HTTP status.
        status: u16,
        /// The error `kind` slug (`parse`, `unknown_table`, `overload`, …).
        kind: String,
        /// Human-readable message.
        message: String,
        /// Byte offset into the SQL text, when the server knows it.
        position: Option<usize>,
    },
    /// Socket-level failure (connect, read, write, timeout).
    Transport(String),
    /// The response does not parse as this protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Server { status, kind, message, position } => {
                write!(f, "server error {status} ({kind}): {message}")?;
                if let Some(at) = position {
                    write!(f, " at byte {at}")?;
                }
                Ok(())
            }
            ClientError::Transport(m) => write!(f, "transport error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Lets callers `?` client calls through code that speaks [`PhError`](ph_types::PhError) — e.g.
/// replay/verification tools comparing a served answer against a local
/// session. Server-reported errors keep their status and kind in the message.
impl From<ClientError> for ph_types::PhError {
    fn from(e: ClientError) -> Self {
        match &e {
            ClientError::Server { .. } => ph_types::PhError::InvalidQuery(e.to_string()),
            ClientError::Transport(_) => ph_types::PhError::Io(e.to_string()),
            ClientError::Protocol(_) => ph_types::PhError::Corrupt(e.to_string()),
        }
    }
}

/// How transient failures are retried: up to `attempts` tries in total, with
/// a jittered exponential delay between them. Applies to both the TCP connect
/// and (for idempotent requests) the whole exchange, so a server that is
/// restarting — or a listener that flaps — is ridden out instead of surfaced
/// as an instant error.
///
/// The delay before retry `k` (1-based) is drawn uniformly from
/// `[d/2, d]` where `d = min(base_delay · 2^(k-1), max_delay)`: exponential
/// growth keeps a dead server cheap to wait on, the jitter keeps a thundering
/// herd of clients from reconnecting in lockstep.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total tries (first attempt included). `0` behaves as `1`.
    pub attempts: u32,
    /// Delay scale of the first retry.
    pub base_delay: Duration,
    /// Upper bound any single delay is clamped to.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
        }
    }
}

/// A connection to one server. Reconnects transparently if the kept-alive
/// socket has gone away (server restart, idle timeout), retrying with the
/// client's [`RetryPolicy`].
pub struct Client {
    addr: String,
    timeout: Duration,
    retry: RetryPolicy,
    /// xorshift64* state for retry jitter — seeded from the address so the
    /// client needs no RNG dependency, never zero (xorshift's absorbing state).
    jitter_state: u64,
    conn: Option<HttpConn<TcpStream>>,
}

impl Client {
    /// A client for `addr` (`"127.0.0.1:7871"`). Connection is lazy — the
    /// first request opens it.
    pub fn new(addr: impl Into<String>) -> Self {
        let addr = addr.into();
        let jitter_state = ph_types::fnv1a(addr.as_bytes()) | 1;
        Self {
            addr,
            timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
            jitter_state,
            conn: None,
        }
    }

    /// Sets the per-read socket timeout (default 30 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the retry budget and backoff shape (default: 4 attempts,
    /// 25 ms base, 2 s cap).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    fn next_jitter(&mut self) -> u64 {
        let mut x = self.jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The jittered delay before 1-based retry `k`.
    fn backoff_delay(&mut self, k: u32) -> Duration {
        let exp = self.retry.base_delay.saturating_mul(1u32 << (k - 1).min(16));
        let d = exp.min(self.retry.max_delay).as_nanos().max(2) as u64;
        Duration::from_nanos(d / 2 + self.next_jitter() % (d / 2 + 1))
    }

    /// Opens the kept-alive connection if it is down, retrying refused/failed
    /// connects under the retry policy.
    fn connect(&mut self) -> Result<&mut HttpConn<TcpStream>, ClientError> {
        if self.conn.is_none() {
            let attempts = self.retry.attempts.max(1);
            let mut last = None;
            for k in 0..attempts {
                if k > 0 {
                    let delay = self.backoff_delay(k);
                    std::thread::sleep(delay);
                }
                match TcpStream::connect(&self.addr) {
                    Ok(stream) => {
                        let conn = HttpConn::new(stream);
                        conn.configure(self.timeout, self.timeout)
                            .map_err(|e| ClientError::Transport(e.to_string()))?;
                        self.conn = Some(conn);
                        last = None;
                        break;
                    }
                    Err(e) => {
                        last = Some(ClientError::Transport(format!(
                            "connect {}: {e} (attempt {}/{attempts})",
                            self.addr,
                            k + 1
                        )));
                    }
                }
            }
            if let Some(err) = last {
                return Err(err);
            }
        }
        // The retry loop either stored a connection or returned its last error;
        // answer the impossible leftover case gracefully instead of panicking.
        self.conn.as_mut().ok_or_else(|| {
            ClientError::Transport(format!("connect {}: no connection after retries", self.addr))
        })
    }

    /// One request/response exchange. Idempotent requests (queries, reads) are
    /// retried on a dead kept-alive socket — up to the retry budget, with
    /// backoff after the first immediate retry; non-idempotent ones
    /// (`/ingest` — the server may have applied the batch before the
    /// connection died) surface the transport error instead, so a batch can
    /// never be applied twice behind the caller's back.
    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        content_type: &str,
        body: &[u8],
        idempotent: bool,
    ) -> Result<(u16, Json), ClientError> {
        let (status, text) = self.exchange_text(method, target, content_type, body, idempotent)?;
        let doc = Json::parse(&text)
            .map_err(|e| ClientError::Protocol(format!("response is not JSON: {e} in {text:?}")))?;
        Ok((status, doc))
    }

    /// [`Client::exchange`] without the JSON parse — for endpoints that speak
    /// plain text (`/metrics`).
    fn exchange_text(
        &mut self,
        method: &str,
        target: &str,
        content_type: &str,
        body: &[u8],
        idempotent: bool,
    ) -> Result<(u16, String), ClientError> {
        let mut first_error = None;
        let attempts = if idempotent { self.retry.attempts.max(2) } else { 1 };
        for k in 0..attempts {
            if k > 1 {
                // First re-try is immediate (a stale keep-alive socket is the
                // overwhelmingly common case); later ones back off.
                let delay = self.backoff_delay(k - 1);
                std::thread::sleep(delay);
            }
            let conn = self.connect()?;
            let sent = conn.write_request(method, target, content_type, body);
            let result = sent.and_then(|_| conn.read_response(MAX_RESPONSE_BYTES));
            match result {
                Ok((status, _headers, body)) => {
                    let text = String::from_utf8(body)
                        .map_err(|_| ClientError::Protocol("response body is not UTF-8".into()))?;
                    return Ok((status, text));
                }
                Err(HttpError::Io(m) | HttpError::Malformed(m)) => {
                    // Drop the (possibly half-dead) connection and retry once.
                    self.conn = None;
                    first_error.get_or_insert(ClientError::Transport(m));
                }
                Err(HttpError::Incomplete) => {
                    self.conn = None;
                    first_error.get_or_insert(ClientError::Transport("connection closed".into()));
                }
                Err(HttpError::TooLarge(m)) => {
                    self.conn = None;
                    return Err(ClientError::Protocol(m));
                }
            }
        }
        Err(first_error.unwrap_or_else(|| ClientError::Transport("request failed".into())))
    }

    /// Raises the server's structured error body as [`ClientError::Server`].
    fn ok_or_server_error(status: u16, doc: Json) -> Result<Json, ClientError> {
        if (200..300).contains(&status) {
            return Ok(doc);
        }
        let err = doc.get("error");
        Err(ClientError::Server {
            status,
            kind: err
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            message: err
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("<no message>")
                .to_string(),
            position: err
                .and_then(|e| e.get("position"))
                .and_then(Json::as_f64)
                .map(|x| x as usize),
        })
    }

    /// Executes one SQL query, returning the server's estimate — the same
    /// `AqpAnswer` a local `Session::sql` produces, bit-identical.
    pub fn query(&mut self, sql: &str) -> Result<AqpAnswer, ClientError> {
        let body = obj(vec![("sql", Json::Str(sql.to_string()))]).to_string();
        let (status, doc) =
            self.exchange("POST", "/query", "application/json", body.as_bytes(), true)?;
        let doc = Self::ok_or_server_error(status, doc)?;
        answer_from_json(&doc).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Ingests JSON rows (`[{"col": value, …}, …]`) into `table`. Returns the
    /// server's ingest report as JSON.
    pub fn ingest_rows(&mut self, table: &str, rows: Vec<Json>) -> Result<Json, ClientError> {
        let body = obj(vec![("table", Json::Str(table.to_string())), ("rows", Json::Arr(rows))])
            .to_string();
        let (status, doc) =
            self.exchange("POST", "/ingest", "application/json", body.as_bytes(), false)?;
        Self::ok_or_server_error(status, doc)
    }

    /// Ingests a CSV body (header line + rows) into `table`.
    pub fn ingest_csv(&mut self, table: &str, csv: &str) -> Result<Json, ClientError> {
        let target = format!("/ingest?table={}", percent_encode(table));
        let (status, doc) = self.exchange("POST", &target, "text/csv", csv.as_bytes(), false)?;
        Self::ok_or_server_error(status, doc)
    }

    /// `GET /healthz`.
    pub fn healthz(&mut self) -> Result<Json, ClientError> {
        let (status, doc) = self.exchange("GET", "/healthz", "application/json", b"", true)?;
        Self::ok_or_server_error(status, doc)
    }

    /// `GET /stats` — the full session + server metrics document.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let (status, doc) = self.exchange("GET", "/stats", "application/json", b"", true)?;
        Self::ok_or_server_error(status, doc)
    }

    /// `GET /metrics` — the Prometheus text exposition body (what a scraper
    /// sees: `# HELP`/`# TYPE` headers and one sample line per series).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let (status, text) = self.exchange_text("GET", "/metrics", "text/plain", b"", true)?;
        if status == 200 {
            Ok(text)
        } else {
            Err(ClientError::Protocol(format!("/metrics answered {status}: {text}")))
        }
    }

    /// `GET /debug/slow` — the most recent over-threshold queries with their
    /// stage breakdowns (SQL fingerprints, never raw text).
    pub fn debug_slow(&mut self) -> Result<Json, ClientError> {
        let (status, doc) = self.exchange("GET", "/debug/slow", "application/json", b"", true)?;
        Self::ok_or_server_error(status, doc)
    }

    /// `GET /tables` — registered table names with their serving state.
    pub fn tables(&mut self) -> Result<Vec<String>, ClientError> {
        let (status, doc) = self.exchange("GET", "/tables", "application/json", b"", true)?;
        let doc = Self::ok_or_server_error(status, doc)?;
        doc.get("tables")
            .and_then(Json::as_arr)
            .map(|tables| {
                tables
                    .iter()
                    .filter_map(|t| t.get("name").and_then(Json::as_str).map(str::to_string))
                    .collect()
            })
            .ok_or_else(|| ClientError::Protocol("missing \"tables\" array".into()))
    }

    /// Executes a batch of queries **pipelined** on the keep-alive
    /// connection: every request is written back-to-back before the first
    /// response is read, so the batch costs one round-trip plus server time
    /// instead of one round-trip *per query*. The server answers in request
    /// order; element `i` of the result is query `i`'s answer or its
    /// structured server error.
    ///
    /// A transport failure mid-batch fails the whole call (the connection is
    /// dropped): with responses already possibly in flight there is no safe
    /// per-query retry, so unlike [`Client::query`] this does not retry.
    pub fn query_pipelined(
        &mut self,
        sqls: &[&str],
    ) -> Result<Vec<Result<AqpAnswer, ClientError>>, ClientError> {
        if sqls.is_empty() {
            return Ok(Vec::new());
        }
        let outcome = (|| {
            let conn = self.connect()?;
            for sql in sqls {
                let body = obj(vec![("sql", Json::Str(sql.to_string()))]).to_string();
                conn.write_request("POST", "/query", "application/json", body.as_bytes())
                    .map_err(|e| ClientError::Transport(format!("pipelined write: {e}")))?;
            }
            let mut answers = Vec::with_capacity(sqls.len());
            for _ in sqls {
                let (status, _headers, body) = conn
                    .read_response(MAX_RESPONSE_BYTES)
                    .map_err(|e| ClientError::Transport(format!("pipelined read: {e}")))?;
                let text = String::from_utf8(body)
                    .map_err(|_| ClientError::Protocol("response body is not UTF-8".into()))?;
                let doc = Json::parse(&text).map_err(|e| {
                    ClientError::Protocol(format!("response is not JSON: {e} in {text:?}"))
                })?;
                answers.push(Self::ok_or_server_error(status, doc).and_then(|doc| {
                    answer_from_json(&doc).map_err(|e| ClientError::Protocol(e.to_string()))
                }));
            }
            Ok(answers)
        })();
        if outcome.is_err() {
            // The stream position is unknowable after a mid-batch failure.
            self.conn = None;
        }
        outcome
    }

    /// Grouped convenience: the scalar estimate of one query, erroring on
    /// grouped answers and SQL NULL.
    pub fn query_scalar(&mut self, sql: &str) -> Result<ph_core::Estimate, ClientError> {
        match self.query(sql)? {
            AqpAnswer::Scalar(Some(e)) => Ok(e),
            AqpAnswer::Scalar(None) => Err(ClientError::Protocol("query returned SQL NULL".into())),
            AqpAnswer::Groups(_) => {
                Err(ClientError::Protocol("query returned groups, not a scalar".into()))
            }
        }
    }

    /// Grouped convenience: the per-group estimates of one query.
    pub fn query_groups(
        &mut self,
        sql: &str,
    ) -> Result<BTreeMap<String, ph_core::Estimate>, ClientError> {
        match self.query(sql)? {
            AqpAnswer::Groups(g) => Ok(g),
            AqpAnswer::Scalar(_) => {
                Err(ClientError::Protocol("query returned a scalar, not groups".into()))
            }
        }
    }
}

/// Percent-encodes a query-string value (RFC 3986 unreserved set passes).
fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}
