//! Minimal HTTP/1.1 on raw `std::net` sockets: request/response head parsing,
//! a buffered connection wrapper, and response writing.
//!
//! Scope is exactly what the serving layer needs — `Content-Length` bodies,
//! keep-alive, case-insensitive headers, a query string on the request target —
//! not general HTTP (no chunked transfer, no multipart, no continuations).
//! Everything that parses bytes is **total**: hostile input yields a structured
//! [`HttpError`], never a panic (property-tested in `tests/fuzz.rs`).

use std::io::{Read, Write};
use std::time::Duration;

/// Hard cap on the size of a request or response head (start line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Header list: lowercased names with their values, in order of appearance.
pub type Headers = Vec<(String, String)>;

/// A parsed response: status, headers, body.
pub type Response = (u16, Headers, Vec<u8>);

/// Failure modes of reading or parsing one HTTP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The bytes are not a well-formed HTTP/1.1 message.
    Malformed(String),
    /// Head or body exceeds the configured cap.
    TooLarge(String),
    /// The peer closed the connection mid-message.
    Incomplete,
    /// Socket-level failure (including read timeouts).
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed http message: {m}"),
            HttpError::TooLarge(m) => write!(f, "message too large: {m}"),
            HttpError::Incomplete => write!(f, "connection closed mid-message"),
            HttpError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Lets callers `?` HTTP exchanges through code that speaks [`PhError`](ph_types::PhError):
/// socket failures are I/O, everything else is bytes that don't decode as the
/// protocol claims.
impl From<HttpError> for ph_types::PhError {
    fn from(e: HttpError) -> Self {
        match &e {
            HttpError::Io(_) => ph_types::PhError::Io(e.to_string()),
            _ => ph_types::PhError::Corrupt(e.to_string()),
        }
    }
}

/// One parsed request: start line, lowercased headers, query params and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method, uppercased (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, percent-decoded (`/query`).
    pub path: String,
    /// Query-string parameters, percent-decoded, in order of appearance.
    pub params: Vec<(String, String)>,
    /// Headers with lowercased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The body (empty when there was no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name. Allocates nothing:
    /// the loop asks for `connection` on every request it parses.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// First query-string parameter with this name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open afterwards
    /// (HTTP/1.1 default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Splits `head` (everything before the blank line) into its lines, accepting
/// both `\r\n` and bare `\n` separators.
fn head_lines(head: &str) -> impl Iterator<Item = &str> {
    head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l)).filter(|l| !l.is_empty())
}

/// Percent-decodes `s` (plus `+` → space, as in form encoding). Invalid escapes
/// are kept verbatim — decoding is for convenience, not validation.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0usize;
    while let Some(&byte) = bytes.get(i) {
        match byte {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    let h = std::str::from_utf8(h).ok()?;
                    u8::from_str_radix(h, 16).ok()
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses the head of a request (everything up to, excluding, the blank line)
/// into method/path/params/headers. The body is attached by the caller.
pub fn parse_request_head(head: &[u8]) -> Result<Request, HttpError> {
    let text =
        std::str::from_utf8(head).map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head_lines(text);
    let start = lines.next().ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = start.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "start line is not 'METHOD TARGET VERSION': {start:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    if !raw_path.starts_with('/') {
        return Err(HttpError::Malformed(format!("target must start with '/': {target:?}")));
    }
    let params = raw_query
        .map(|q| {
            q.split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(kv), String::new()),
                })
                .collect()
        })
        .unwrap_or_default();
    let headers = parse_header_lines(lines)?;
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: percent_decode(raw_path),
        params,
        headers,
        body: Vec::new(),
    })
}

/// Parses a response head into `(status, headers)`.
pub fn parse_response_head(head: &[u8]) -> Result<(u16, Headers), HttpError> {
    let text =
        std::str::from_utf8(head).map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head_lines(text);
    let start = lines.next().ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = start.split_ascii_whitespace();
    let (version, status) = match (parts.next(), parts.next()) {
        (Some(v), Some(s)) => (v, s),
        _ => return Err(HttpError::Malformed(format!("bad status line {start:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }
    let status: u16 =
        status.parse().map_err(|_| HttpError::Malformed(format!("bad status code {status:?}")))?;
    let headers = parse_header_lines(lines)?;
    Ok((status, headers))
}

fn parse_header_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Headers, HttpError> {
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header line without ':': {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

/// The `Content-Length` of a message, if present and well-formed.
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    match headers.iter().find(|(n, _)| n == "content-length") {
        None => Ok(0),
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}"))),
    }
}

/// Incremental, resumable request parsing for readiness-driven loops: attempts
/// to parse one complete request (head + `Content-Length` body) from the front
/// of `buf`, consuming its bytes on success.
///
/// - `Ok(Some(req))` — one request was parsed and drained from `buf`; call
///   again, the buffer may hold further pipelined requests.
/// - `Ok(None)` — the bytes so far are a valid prefix; keep them and call back
///   when more arrive. `buf` is untouched.
/// - `Err(..)` — the prefix can never become a valid request (malformed head,
///   head over [`MAX_HEAD_BYTES`], declared body over `max_body`). The
///   connection is unrecoverable: byte boundaries are lost.
///
/// Oversized bodies are rejected from the `Content-Length` header alone —
/// before the body arrives — so a hostile declaration never makes the loop
/// buffer it.
pub fn try_parse_request(buf: &mut Vec<u8>, max_body: usize) -> Result<Option<Request>, HttpError> {
    let Some(sep) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(format!("head exceeds {MAX_HEAD_BYTES} bytes")));
        }
        return Ok(None);
    };
    let head = buf.get(..sep.start).unwrap_or(buf);
    let mut req = parse_request_head(head)?;
    let len = content_length(&req.headers)?;
    if len > max_body {
        return Err(HttpError::TooLarge(format!(
            "body of {len} bytes exceeds the {max_body}-byte cap"
        )));
    }
    let total = sep.end.saturating_add(len);
    if buf.len() < total {
        return Ok(None);
    }
    req.body = buf.get(sep.end..total).unwrap_or(&[]).to_vec();
    buf.drain(..total.min(buf.len()));
    Ok(Some(req))
}

/// Serializes a response with a JSON body to wire bytes, which the event loop
/// stages in a per-connection write backlog.
pub fn response_bytes(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    response_bytes_typed(status, "application/json", body, keep_alive)
}

/// [`response_bytes`] with an explicit `Content-Type` — the Prometheus
/// `/metrics` exposition is text, not JSON.
pub fn response_bytes_typed(
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason_phrase(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// A buffered HTTP connection over any `Read + Write` stream (a `TcpStream` in
/// production, an in-memory pipe in tests). Reads whole messages; writes are
/// passed through.
pub struct HttpConn<S> {
    stream: S,
    buf: Vec<u8>,
}

impl<S: Read + Write> HttpConn<S> {
    /// Wraps a stream.
    pub fn new(stream: S) -> Self {
        Self { stream, buf: Vec::new() }
    }

    /// The underlying stream (to set socket options).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Reads until the head/blank-line boundary, returning the head bytes
    /// (excluding the blank line).
    fn read_head(&mut self) -> Result<Vec<u8>, HttpError> {
        loop {
            if let Some(pos) = find_head_end(&self.buf) {
                // find_head_end returns in-bounds offsets; the fallback arm is
                // unreachable and merely keeps the hot read loop panic-free.
                let head = self.buf.get(..pos.start).unwrap_or(&self.buf).to_vec();
                let drain_end = pos.end.min(self.buf.len());
                self.buf.drain(..drain_end);
                return Ok(head);
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::TooLarge(format!("head exceeds {MAX_HEAD_BYTES} bytes")));
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(HttpError::Incomplete),
                // Read's contract bounds n by the buffer length.
                Ok(n) => self.buf.extend_from_slice(chunk.get(..n).unwrap_or(&chunk)),
                Err(e) => return Err(io_error(e)),
            }
        }
    }

    /// Reads exactly `n` body bytes (some may already be buffered).
    fn read_body(&mut self, n: usize) -> Result<Vec<u8>, HttpError> {
        while self.buf.len() < n {
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(HttpError::Incomplete),
                // Read's contract bounds k by the buffer length.
                Ok(k) => self.buf.extend_from_slice(chunk.get(..k).unwrap_or(&chunk)),
                Err(e) => return Err(io_error(e)),
            }
        }
        // The loop above leaves at least n bytes buffered.
        let body = self.buf.get(..n).unwrap_or(&self.buf).to_vec();
        let drain_end = n.min(self.buf.len());
        self.buf.drain(..drain_end);
        Ok(body)
    }

    /// Reads one full response: `(status, headers, body)`.
    pub fn read_response(&mut self, max_body: usize) -> Result<Response, HttpError> {
        let head = self.read_head()?;
        let (status, headers) = parse_response_head(&head)?;
        let len = content_length(&headers)?;
        if len > max_body {
            return Err(HttpError::TooLarge(format!(
                "body of {len} bytes exceeds the {max_body}-byte cap"
            )));
        }
        let body = self.read_body(len)?;
        Ok((status, headers, body))
    }

    /// Writes a request with an optional body.
    pub fn write_request(
        &mut self,
        method: &str,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> Result<(), HttpError> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: ph-server\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len(),
        );
        self.stream.write_all(head.as_bytes()).map_err(io_error)?;
        self.stream.write_all(body).map_err(io_error)?;
        self.stream.flush().map_err(io_error)
    }
}

impl HttpConn<std::net::TcpStream> {
    /// Applies the serving socket options: no Nagle delay, bounded reads, and
    /// bounded writes — a peer that stops draining its receive window stalls
    /// the response `write_all`, and without a deadline that parks the worker
    /// thread indefinitely.
    pub fn configure(
        &self,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> std::io::Result<()> {
        self.stream.set_nodelay(true)?;
        self.stream.set_read_timeout(Some(read_timeout))?;
        self.stream.set_write_timeout(Some(write_timeout))
    }
}

/// Byte range of the head/body separator: the head ends at `start`, the body
/// begins at `end`. Accepts `\r\n\r\n` and `\n\n`.
fn find_head_end(buf: &[u8]) -> Option<std::ops::Range<usize>> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p..p + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|p| p..p + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(if a.start <= b.start { a } else { b }),
        (a, b) => a.or(b),
    }
}

fn io_error(e: std::io::Error) -> HttpError {
    HttpError::Io(e.to_string())
}

/// Standard reason phrase for the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_with_params_and_headers() {
        let head =
            b"POST /ingest?table=t%20x&mode=fast HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n";
        let req = parse_request_head(head).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/ingest");
        assert_eq!(req.param("table"), Some("t x"));
        assert_eq!(req.param("mode"), Some("fast"));
        assert_eq!(req.header("HOST"), Some("h"));
        assert!(req.keep_alive());
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse_request_head(b"GET / HTTP/1.1\r\nConnection: Close\r\n").unwrap();
        assert!(!req.keep_alive());
    }

    #[test]
    fn malformed_heads_are_errors_not_panics() {
        for bad in [
            &b""[..],
            b"GET",
            b"GET /",
            b"GET / HTTP/2.0\r\n",
            b"GET noslash HTTP/1.1\r\n",
            b"GET / HTTP/1.1 extra\r\n",
            b"GET / HTTP/1.1\r\nno colon here\r\n",
            b"GET / HTTP/1.1\r\n: empty name\r\n",
            b"\xFF\xFE / HTTP/1.1\r\n",
        ] {
            assert!(parse_request_head(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn client_request_parses_on_the_server_side() {
        let mut wire = Vec::new();
        HttpConn::new(std::io::Cursor::new(&mut wire))
            .write_request("POST", "/query", "text/plain", b"SELECT 1")
            .unwrap();
        let req = try_parse_request(&mut wire, 1024).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, b"SELECT 1");
        // Nothing left over: an empty buffer is a clean message boundary.
        assert_eq!(try_parse_request(&mut wire, 1024).unwrap(), None);
    }

    #[test]
    fn server_response_parses_on_the_client_side() {
        let wire = response_bytes(404, "{\"error\":\"x\"}", true);
        let mut conn = HttpConn::new(std::io::Cursor::new(wire));
        let (status, headers, body) = conn.read_response(1024).unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, b"{\"error\":\"x\"}");
        assert!(headers.iter().any(|(n, v)| n == "content-type" && v == "application/json"));
    }

    #[test]
    fn try_parse_is_resumable_byte_by_byte() {
        let wire = b"POST /query HTTP/1.1\r\nContent-Length: 8\r\n\r\nSELECT 1";
        let mut buf = Vec::new();
        let mut parsed = None;
        for (i, &b) in wire.iter().enumerate() {
            buf.push(b);
            match try_parse_request(&mut buf, 1024).unwrap() {
                Some(req) => {
                    assert_eq!(i, wire.len() - 1, "complete only at the last byte");
                    parsed = Some(req);
                }
                None => assert!(i < wire.len() - 1),
            }
        }
        let req = parsed.unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"SELECT 1");
        assert!(buf.is_empty(), "consumed exactly one message");
    }

    #[test]
    fn try_parse_drains_pipelined_requests_in_order() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        buf.extend_from_slice(b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\nok");
        buf.extend_from_slice(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n");
        let a = try_parse_request(&mut buf, 1024).unwrap().unwrap();
        let b = try_parse_request(&mut buf, 1024).unwrap().unwrap();
        let c = try_parse_request(&mut buf, 1024).unwrap().unwrap();
        assert_eq!(
            (a.path.as_str(), b.path.as_str(), c.path.as_str()),
            ("/healthz", "/query", "/stats")
        );
        assert_eq!(b.body, b"ok");
        assert!(!c.keep_alive());
        assert_eq!(try_parse_request(&mut buf, 1024).unwrap(), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn try_parse_rejects_oversized_declarations_before_body_arrives() {
        let mut buf = b"POST /query HTTP/1.1\r\nContent-Length: 999999\r\n\r\n".to_vec();
        assert!(matches!(try_parse_request(&mut buf, 1024), Err(HttpError::TooLarge(_))));
        let mut runaway = vec![b'x'; MAX_HEAD_BYTES + 1];
        runaway.splice(..0, b"GET / HTTP/1.1\r\n".iter().copied());
        assert!(matches!(try_parse_request(&mut runaway, 1024), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn oversized_body_is_rejected() {
        let mut wire = Vec::new();
        HttpConn::new(std::io::Cursor::new(&mut wire))
            .write_request("POST", "/query", "text/plain", &[b'x'; 100])
            .unwrap();
        assert!(matches!(try_parse_request(&mut wire, 10), Err(HttpError::TooLarge(_))));
    }
}
