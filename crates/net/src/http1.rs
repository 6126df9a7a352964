//! Incremental HTTP/1.1 framing: the workspace's one HTTP codec.
//!
//! Sockets deliver whatever bytes the kernel has, so parsing is a
//! resumable state machine: feed bytes, poll for a complete message,
//! repeat. The reactor parses requests with [`RequestParser`]; the
//! multiplexing [`NetClient`](crate::NetClient) and the blocking
//! [`client::request`](crate::client::request) parse responses with
//! [`ResponseParser`]. The dialect is request-line + headers +
//! `Content-Length` body, keep-alive by default on HTTP/1.1, chunked
//! bodies rejected.
//!
//! Rejections carry the status the reactor should answer with before
//! closing: 400 malformed, 413 body over cap, 431 head over cap. The
//! messages are fixed strings (never echoes of client bytes), so they
//! are safe to embed in a JSON error body verbatim.

/// A complete parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (uppercase as sent).
    pub method: String,
    /// Path component (the API has no query strings).
    pub path: String,
    /// Raw body bytes; empty without `Content-Length`.
    pub body: Vec<u8>,
    /// `false` when the client asked for `Connection: close`.
    pub keep_alive: bool,
}

/// A protocol violation and the status to answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// 400, 413 or 431.
    pub status: u16,
    /// Fixed, client-input-free message for the JSON error body.
    pub message: &'static str,
}

/// Result of polling the parser after feeding bytes.
#[derive(Debug, PartialEq, Eq)]
pub enum Poll {
    /// No complete request yet; feed more bytes.
    NeedMore,
    /// One complete request (more may be buffered behind it).
    Ready(Request),
    /// The connection must answer `reject` and close.
    Error(Reject),
}

#[derive(Debug)]
enum State {
    /// Accumulating request line + headers until `\r\n\r\n`.
    Head,
    /// Head parsed; waiting for `remaining` more body bytes.
    Body {
        method: String,
        path: String,
        keep_alive: bool,
        remaining: usize,
        body: Vec<u8>,
    },
    /// A reject was emitted; the connection is done parsing.
    Poisoned,
}

/// Resumable request parser. One per connection; survives across
/// keep-alive requests.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    state: State,
    max_head_bytes: usize,
    max_body_bytes: usize,
}

impl RequestParser {
    /// Creates a parser with the given head and body caps.
    pub fn new(max_head_bytes: usize, max_body_bytes: usize) -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            state: State::Head,
            max_head_bytes,
            max_body_bytes,
        }
    }

    /// Appends freshly-read bytes to the parse buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when the client is partway through a request — a reap at
    /// this point deserves a 408, whereas an idle keep-alive connection
    /// with nothing buffered can be closed silently.
    pub fn mid_request(&self) -> bool {
        match self.state {
            State::Head => !self.buf.is_empty(),
            State::Body { .. } => true,
            State::Poisoned => false,
        }
    }

    /// True when bytes remain buffered past the last complete request —
    /// the reactor must poll again before sleeping on the socket.
    pub fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Tries to produce the next complete request from buffered bytes.
    pub fn poll(&mut self) -> Poll {
        loop {
            match &mut self.state {
                State::Poisoned => return Poll::NeedMore,
                State::Head => {
                    // Tolerate stray CRLF between requests (RFC 9112 §2.2).
                    while self.buf.starts_with(b"\r\n") {
                        self.buf.drain(..2);
                    }
                    let Some(head_end) = find_head_end(&self.buf) else {
                        if self.buf.len() > self.max_head_bytes {
                            return self.poison(431, "request headers too large");
                        }
                        return Poll::NeedMore;
                    };
                    if head_end > self.max_head_bytes {
                        return self.poison(431, "request headers too large");
                    }
                    let head = match std::str::from_utf8(&self.buf[..head_end]) {
                        Ok(s) => s.to_owned(),
                        Err(_) => return self.poison(400, "non-UTF-8 request head"),
                    };
                    self.buf.drain(..head_end + 4); // head + \r\n\r\n
                    let parsed = match parse_head(&head) {
                        Ok(p) => p,
                        Err(reject) => return self.poison(reject.status, reject.message),
                    };
                    if parsed.content_length > self.max_body_bytes {
                        return self.poison(413, "request body too large");
                    }
                    self.state = State::Body {
                        method: parsed.method,
                        path: parsed.path,
                        keep_alive: parsed.keep_alive,
                        remaining: parsed.content_length,
                        body: Vec::with_capacity(parsed.content_length.min(64 * 1024)),
                    };
                }
                State::Body {
                    method,
                    path,
                    keep_alive,
                    remaining,
                    body,
                } => {
                    let take = (*remaining).min(self.buf.len());
                    body.extend_from_slice(&self.buf[..take]);
                    self.buf.drain(..take);
                    *remaining -= take;
                    if *remaining > 0 {
                        return Poll::NeedMore;
                    }
                    let request = Request {
                        method: std::mem::take(method),
                        path: std::mem::take(path),
                        body: std::mem::take(body),
                        keep_alive: *keep_alive,
                    };
                    self.state = State::Head;
                    return Poll::Ready(request);
                }
            }
        }
    }

    fn poison(&mut self, status: u16, message: &'static str) -> Poll {
        self.state = State::Poisoned;
        self.buf.clear();
        Poll::Error(Reject { status, message })
    }
}

/// Byte offset of the head (exclusive of the `\r\n\r\n` terminator), if
/// the terminator has arrived.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

struct ParsedHead {
    method: String,
    path: String,
    keep_alive: bool,
    content_length: usize,
}

fn parse_head(head: &str) -> Result<ParsedHead, Reject> {
    let reject = |message| Reject {
        status: 400,
        message,
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| reject("empty request"))?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => return Err(reject("malformed request line")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(reject("unsupported HTTP version"));
    }
    let mut keep_alive = version == "HTTP/1.1";
    let mut content_length = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(reject("malformed header"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = Some(
                    fold_content_length(content_length, value)
                        .ok_or_else(|| reject("bad Content-Length"))?,
                );
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v == "close" {
                    keep_alive = false;
                } else if v == "keep-alive" {
                    keep_alive = true;
                }
            }
            "transfer-encoding" => return Err(reject("chunked bodies are not supported")),
            _ => {}
        }
    }
    Ok(ParsedHead {
        method: method.to_owned(),
        path: path.to_owned(),
        keep_alive,
        content_length: content_length.unwrap_or(0),
    })
}

/// Folds one `Content-Length` value into what earlier headers declared.
/// The value must be `1*DIGIT` (RFC 9112 §6.3; `usize::from_str` alone
/// would accept a leading `+`), and a repeated header must agree with
/// the first, or the message framing is ambiguous.
fn fold_content_length(seen: Option<usize>, value: &str) -> Option<usize> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let len = value.parse().ok()?;
    match seen {
        Some(prev) if prev != len => None,
        _ => Some(len),
    }
}

/// Reason phrases for every status the stack emits (the serve set plus
/// the reactor's own 408/431).
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders a complete JSON response; `retry_after` adds a
/// `Retry-After` header in whole seconds, rounded up.
pub fn render_response(
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after: Option<std::time::Duration>,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let retry = match retry_after {
        Some(d) => format!(
            "Retry-After: {}\r\n",
            d.as_secs_f64().ceil().max(1.0) as u64
        ),
        None => String::new(),
    };
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n{}\r\n{}",
        status,
        reason_phrase(status),
        body.len(),
        connection,
        retry,
        body
    )
    .into_bytes()
}

/// Renders a JSON error body for a reactor-level reject/timeout. The
/// message is always one of this module's fixed strings, so no escaping
/// is needed.
pub fn render_error_body(message: &str) -> String {
    format!("{{\"error\": \"{message}\"}}")
}

/// Renders a keep-alive client request with a JSON body.
pub fn render_request(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
    let body = body.unwrap_or("");
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A complete parsed response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
}

/// Resumable response parser for the non-blocking client side.
#[derive(Debug)]
pub struct ResponseParser {
    buf: Vec<u8>,
    state: RespState,
    max_head_bytes: usize,
    max_body_bytes: usize,
}

#[derive(Debug)]
enum RespState {
    Head,
    Body {
        status: u16,
        keep_alive: bool,
        remaining: usize,
        body: Vec<u8>,
    },
    Poisoned,
}

/// Result of polling the response parser.
#[derive(Debug, PartialEq, Eq)]
pub enum RespPoll {
    /// No complete response yet.
    NeedMore,
    /// One complete response.
    Ready(Response),
    /// The peer violated the protocol; drop the connection.
    Error(&'static str),
}

impl ResponseParser {
    /// Creates a parser with the given head and body caps.
    pub fn new(max_head_bytes: usize, max_body_bytes: usize) -> ResponseParser {
        ResponseParser {
            buf: Vec::new(),
            state: RespState::Head,
            max_head_bytes,
            max_body_bytes,
        }
    }

    /// Appends freshly-read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when bytes remain buffered past the last complete response.
    pub fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Tries to produce the next complete response.
    pub fn poll(&mut self) -> RespPoll {
        loop {
            match &mut self.state {
                RespState::Poisoned => return RespPoll::NeedMore,
                RespState::Head => {
                    let Some(head_end) = find_head_end(&self.buf) else {
                        if self.buf.len() > self.max_head_bytes {
                            return self.poison("response headers too large");
                        }
                        return RespPoll::NeedMore;
                    };
                    let head = match std::str::from_utf8(&self.buf[..head_end]) {
                        Ok(s) => s.to_owned(),
                        Err(_) => return self.poison("non-UTF-8 response head"),
                    };
                    self.buf.drain(..head_end + 4);
                    let mut lines = head.split("\r\n");
                    let status_line = lines.next().unwrap_or("");
                    let Some(status) = status_line
                        .split(' ')
                        .nth(1)
                        .and_then(|s| s.parse::<u16>().ok())
                    else {
                        return self.poison("unparseable status line");
                    };
                    let mut content_length = None;
                    let mut keep_alive = true;
                    for line in lines {
                        if line.is_empty() {
                            continue;
                        }
                        let Some((name, value)) = line.split_once(':') else {
                            return self.poison("malformed response header");
                        };
                        let name = name.trim().to_ascii_lowercase();
                        let value = value.trim();
                        if name == "content-length" {
                            let Some(len) = fold_content_length(content_length, value) else {
                                return self.poison("bad response Content-Length");
                            };
                            content_length = Some(len);
                        } else if name == "connection" && value.eq_ignore_ascii_case("close") {
                            keep_alive = false;
                        }
                    }
                    let content_length = content_length.unwrap_or(0);
                    if content_length > self.max_body_bytes {
                        return self.poison("response body too large");
                    }
                    self.state = RespState::Body {
                        status,
                        keep_alive,
                        remaining: content_length,
                        body: Vec::with_capacity(content_length.min(64 * 1024)),
                    };
                }
                RespState::Body {
                    status,
                    keep_alive,
                    remaining,
                    body,
                } => {
                    let take = (*remaining).min(self.buf.len());
                    body.extend_from_slice(&self.buf[..take]);
                    self.buf.drain(..take);
                    *remaining -= take;
                    if *remaining > 0 {
                        return RespPoll::NeedMore;
                    }
                    let response = Response {
                        status: *status,
                        body: std::mem::take(body),
                        keep_alive: *keep_alive,
                    };
                    self.state = RespState::Head;
                    return RespPoll::Ready(response);
                }
            }
        }
    }

    fn poison(&mut self, message: &'static str) -> RespPoll {
        self.state = RespState::Poisoned;
        self.buf.clear();
        RespPoll::Error(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_whole(raw: &[u8]) -> Poll {
        let mut p = RequestParser::new(8 * 1024, 1 << 20);
        p.push(raw);
        p.poll()
    }

    #[test]
    fn whole_buffer_post_parses() {
        let raw = b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        match feed_whole(raw) {
            Poll::Ready(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/predict");
                assert_eq!(req.body, b"abcd");
                assert!(req.keep_alive);
            }
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn byte_at_a_time_matches_whole_buffer() {
        let raw =
            b"POST /ingest HTTP/1.1\r\nContent-Length: 11\r\nConnection: close\r\n\r\nhello world";
        let mut p = RequestParser::new(8 * 1024, 1 << 20);
        let mut got = None;
        for &b in raw.iter() {
            p.push(&[b]);
            match p.poll() {
                Poll::Ready(req) => got = Some(req),
                Poll::NeedMore => {}
                Poll::Error(e) => panic!("unexpected reject {e:?}"),
            }
        }
        let req = got.expect("request should complete on final byte");
        assert_eq!(req.body, b"hello world");
        assert!(!req.keep_alive);
        let whole = match feed_whole(raw) {
            Poll::Ready(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(req, whole);
    }

    #[test]
    fn two_pipelined_requests_come_out_in_order() {
        let raw =
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /predict HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let mut p = RequestParser::new(8 * 1024, 1 << 20);
        p.push(raw);
        let first = match p.poll() {
            Poll::Ready(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(first.path, "/healthz");
        assert!(first.body.is_empty());
        assert!(p.has_buffered());
        let second = match p.poll() {
            Poll::Ready(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(second.path, "/predict");
        assert_eq!(second.body, b"ok");
    }

    #[test]
    fn oversized_head_is_431_even_without_terminator() {
        let mut p = RequestParser::new(128, 1 << 20);
        p.push(b"GET /x HTTP/1.1\r\n");
        for _ in 0..40 {
            p.push(b"X-Pad: aaaaaaaaaaaaaaaa\r\n");
        }
        match p.poll() {
            Poll::Error(reject) => assert_eq!(reject.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn oversized_body_is_413() {
        let mut p = RequestParser::new(8 * 1024, 16);
        p.push(b"POST /predict HTTP/1.1\r\nContent-Length: 4096\r\n\r\n");
        match p.poll() {
            Poll::Error(reject) => assert_eq!(reject.status, 413),
            other => panic!("expected 413, got {other:?}"),
        }
    }

    #[test]
    fn chunked_is_400() {
        let mut p = RequestParser::new(8 * 1024, 1 << 20);
        p.push(b"POST /predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        match p.poll() {
            Poll::Error(reject) => {
                assert_eq!(reject.status, 400);
                assert_eq!(reject.message, "chunked bodies are not supported");
            }
            other => panic!("expected 400, got {other:?}"),
        }
    }

    #[test]
    fn malformed_request_line_is_400() {
        match feed_whole(b"NONSENSE\r\n\r\n") {
            Poll::Error(reject) => assert_eq!(reject.status, 400),
            other => panic!("expected 400, got {other:?}"),
        }
    }

    #[test]
    fn mid_request_tracks_partial_state() {
        let mut p = RequestParser::new(8 * 1024, 1 << 20);
        assert!(!p.mid_request());
        p.push(b"GET /heal");
        assert_eq!(p.poll(), Poll::NeedMore);
        assert!(p.mid_request());
        p.push(b"thz HTTP/1.1\r\n\r\n");
        assert!(matches!(p.poll(), Poll::Ready(_)));
        assert!(!p.mid_request());
    }

    #[test]
    fn stray_crlf_between_requests_is_tolerated() {
        let mut p = RequestParser::new(8 * 1024, 1 << 20);
        p.push(b"\r\nGET /healthz HTTP/1.1\r\n\r\n");
        assert!(matches!(p.poll(), Poll::Ready(_)));
    }

    #[test]
    fn response_renders_like_serve_and_round_trips() {
        let wire = render_response(200, "{\"ok\":true}", true, None);
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut rp = ResponseParser::new(8 * 1024, 1 << 20);
        rp.push(&wire);
        match rp.poll() {
            RespPoll::Ready(resp) => {
                assert_eq!(resp.status, 200);
                assert_eq!(resp.body, b"{\"ok\":true}");
                assert!(resp.keep_alive);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn retry_after_rounds_up_to_whole_seconds() {
        let wire = render_response(429, "{}", true, Some(std::time::Duration::from_millis(120)));
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
    }

    #[test]
    fn timeout_and_header_statuses_have_reason_phrases() {
        assert_eq!(reason_phrase(408), "Request Timeout");
        assert_eq!(reason_phrase(431), "Request Header Fields Too Large");
    }

    #[test]
    fn rendered_request_parses_back() {
        let wire = render_request("POST", "/predict", Some("{\"x\":1}"));
        let mut p = RequestParser::new(8 * 1024, 1 << 20);
        p.push(&wire);
        match p.poll() {
            Poll::Ready(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/predict");
                assert_eq!(req.body, b"{\"x\":1}");
                assert!(req.keep_alive);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn content_length_must_be_digits_and_agree_when_repeated() {
        for head in [
            "POST /predict HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd",
            "POST /predict HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcd",
            "POST /predict HTTP/1.1\r\nContent-Length: \r\n\r\n",
        ] {
            match feed_whole(head.as_bytes()) {
                Poll::Error(reject) => {
                    assert_eq!(reject.status, 400, "{head:?}");
                    assert_eq!(reject.message, "bad Content-Length");
                }
                other => panic!("{head:?}: expected 400, got {other:?}"),
            }
        }
        let agreeing =
            b"POST /predict HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        assert!(matches!(feed_whole(agreeing), Poll::Ready(req) if req.body == b"abcd"));
    }

    #[test]
    fn response_content_length_must_be_digits_and_agree_when_repeated() {
        for head in [
            "HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
        ] {
            let mut rp = ResponseParser::new(8 * 1024, 1 << 20);
            rp.push(head.as_bytes());
            assert_eq!(
                rp.poll(),
                RespPoll::Error("bad response Content-Length"),
                "{head:?}"
            );
        }
    }

    #[test]
    fn response_parser_handles_split_reads() {
        let wire = render_response(503, "{\"error\":\"warming\"}", false, None);
        let mut rp = ResponseParser::new(8 * 1024, 1 << 20);
        for chunk in wire.chunks(3) {
            rp.push(chunk);
        }
        match rp.poll() {
            RespPoll::Ready(resp) => {
                assert_eq!(resp.status, 503);
                assert!(!resp.keep_alive);
            }
            other => panic!("{other:?}"),
        }
    }
}
