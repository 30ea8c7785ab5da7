//! Minimal HTTP/1.1 request parsing and response writing.
//!
//! The daemon speaks just enough HTTP for its endpoints: request line +
//! headers are read (bounded), a `Content-Length`-delimited body is read
//! (bounded — the live-update `POST`s need one), and a response keeps
//! the connection only when the client asked for keep-alive. This keeps the server
//! std-only — no protocol crates — while remaining compatible with
//! `curl`, browsers, and Prometheus scrapers.

use std::collections::HashMap;
use std::io::{BufRead, Write};

/// Upper bound on the request head (request line + headers) in bytes.
/// Anything larger is rejected with `431`.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Upper bound on the request body in bytes. Anything larger is rejected
/// with `413` — batch more than this through multiple `POST /edges`.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target, before any `?`.
    pub path: String,
    /// Decoded query parameters, last occurrence wins.
    pub params: HashMap<String, String>,
    /// Request body (empty unless the client sent `Content-Length`).
    pub body: String,
    /// Whether the client *explicitly* asked to keep the connection open
    /// (`Connection: keep-alive`). HTTP/1.1 defaults to persistent
    /// connections, but this daemon historically answered every request
    /// with `Connection: close`; persistence is therefore opt-in via the
    /// explicit header, which ordinary clients (curl, browsers,
    /// Prometheus) do not send — only pooled clients that reuse sockets do.
    pub keep_alive: bool,
    /// The `X-Request-Id` header, if the client sent one. The serving
    /// daemon adopts a well-formed id and mints its own otherwise, so
    /// every response carries a correlation id.
    pub request_id: Option<String>,
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// Client closed or timed out before a full request arrived.
    Io(std::io::Error),
    /// The head exceeded [`MAX_HEAD_BYTES`].
    TooLarge,
    /// The declared body length exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The request line / headers / body were not valid HTTP.
    Malformed(String),
}

/// Reads one request from `reader` (a buffered stream).
///
/// Headers are scanned only for `Content-Length`, `Connection`, and
/// `X-Request-Id`; everything else is
/// discarded, but the head must still terminate with an empty line within
/// [`MAX_HEAD_BYTES`]. When a length is declared the body is read in full
/// (bounded by [`MAX_BODY_BYTES`]) and must be valid UTF-8 — every body
/// the daemon accepts is JSON text.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, ParseError> {
    let mut line = String::new();
    let mut total = 0usize;
    read_line_bounded(reader, &mut line, &mut total)?;
    let mut request = parse_request_line(line.trim_end())?;
    // Drain headers until the blank line, keeping only Content-Length,
    // Connection, and X-Request-Id.
    let mut content_length = 0usize;
    loop {
        line.clear();
        read_line_bounded(reader, &mut line, &mut total)?;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(ParseError::Malformed(format!(
                "header line without ':': {trimmed:?}"
            )));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| {
                ParseError::Malformed(format!("bad Content-Length: {:?}", value.trim()))
            })?;
        } else if name.trim().eq_ignore_ascii_case("connection") {
            request.keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
        } else if name.trim().eq_ignore_ascii_case("x-request-id") {
            request.request_id = Some(value.trim().to_string());
        }
    }
    if content_length > 0 {
        if content_length > MAX_BODY_BYTES {
            return Err(ParseError::BodyTooLarge);
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).map_err(ParseError::Io)?;
        request.body = String::from_utf8(body)
            .map_err(|_| ParseError::Malformed("request body is not valid UTF-8".into()))?;
    }
    Ok(request)
}

fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    total: &mut usize,
) -> Result<(), ParseError> {
    // read_line is safe against non-UTF8 garbage: it errors instead of
    // panicking, which we surface as a malformed request.
    match reader.read_line(line) {
        Ok(0) => Err(ParseError::Malformed("empty request".into())),
        Ok(n) => {
            *total += n;
            if *total > MAX_HEAD_BYTES {
                Err(ParseError::TooLarge)
            } else {
                Ok(())
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            Err(ParseError::Malformed("request is not valid UTF-8".into()))
        }
        Err(e) => Err(ParseError::Io(e)),
    }
}

fn parse_request_line(line: &str) -> Result<Request, ParseError> {
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Err(ParseError::Malformed(format!("bad request line: {line:?}"))),
    };
    if parts.next().is_some() {
        return Err(ParseError::Malformed(format!("bad request line: {line:?}")));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!(
            "unsupported protocol: {version}"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Request {
        method: method.to_string(),
        path: percent_decode(path),
        params: parse_query(query),
        body: String::new(),
        keep_alive: false,
        request_id: None,
    })
}

fn parse_query(query: &str) -> HashMap<String, String> {
    let mut params = HashMap::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        params.insert(percent_decode(k), percent_decode(v));
    }
    params
}

/// Decodes `%XX` escapes and `+` (as space). Invalid escapes pass through
/// verbatim — the numeric parsers downstream reject them anyway.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                if i + 2 < bytes.len() {
                    if let Some(hex) = s.get(i + 1..i + 3) {
                        if let Ok(v) = u8::from_str_radix(hex, 16) {
                            out.push(v);
                            i += 3;
                            continue;
                        }
                    }
                }
                out.push(b'%');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Human-readable reason phrases for the statuses the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes a complete HTTP/1.1 response and flushes. `keep_alive`
/// answers `Connection: keep-alive` and leaves the stream open for the
/// next request on the same connection; otherwise the response says
/// `Connection: close` and the caller drops the stream afterwards.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: two small writes on a Nagle-enabled
    // socket stall the second behind the peer's delayed ACK (~40 ms)
    // once a keep-alive connection leaves TCP quickack mode — fatal for
    // a pooled client's persistent connections.
    head.push_str(body);
    w.write_all(head.as_bytes())?;
    w.flush()
}

/// Convenience for JSON error bodies: `{"error":"..."}` with escaping.
pub fn json_error_body(message: &str) -> String {
    format!("{{\"error\":{}}}", json_string(message))
}

/// Escapes a string into a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_query_request() {
        let r = parse("GET /query?seed=5&top=3 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/query");
        assert_eq!(r.params.get("seed").unwrap(), "5");
        assert_eq!(r.params.get("top").unwrap(), "3");
        assert!(r.body.is_empty());
    }

    #[test]
    fn reads_content_length_body() {
        let r = parse(
            "POST /edges HTTP/1.1\r\nHost: x\r\ncontent-LENGTH: 5\r\n\r\nhello trailing garbage",
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, "hello", "reads exactly Content-Length bytes");
    }

    #[test]
    fn body_limits_and_validation() {
        let oversized = format!(
            "POST /edges HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&oversized), Err(ParseError::BodyTooLarge)));
        assert!(matches!(
            parse("POST /edges HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        // Declared length longer than the stream: client hung up early.
        assert!(matches!(
            parse("POST /edges HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"),
            Err(ParseError::Io(_))
        ));
        let mut raw = b"POST /e HTTP/1.1\r\nContent-Length: 2\r\n\r\n".to_vec();
        raw.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_request(&mut BufReader::new(&raw[..])),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn parses_bare_path_and_empty_query() {
        let r = parse("GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(r.path, "/healthz");
        assert!(r.params.is_empty());
        let r = parse("GET /metrics? HTTP/1.1\r\n\r\n").unwrap();
        assert!(r.params.is_empty());
    }

    #[test]
    fn percent_decoding() {
        let r = parse("GET /query?seed=%35&x=a+b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.params.get("seed").unwrap(), "5");
        assert_eq!(r.params.get("x").unwrap(), "a b");
        // Invalid escape passes through.
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%4"), "%4");
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse("NOT HTTP\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(parse(""), Err(ParseError::Malformed(_))));
        assert!(matches!(
            parse("GET /x SPDY/9\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        let bad_utf8 = [0x47u8, 0x45, 0x54, 0x20, 0xff, 0xfe, 0x0d, 0x0a];
        let r = read_request(&mut BufReader::new(&bad_utf8[..]));
        assert!(matches!(r, Err(ParseError::Malformed(_))));
    }

    #[test]
    fn rejects_oversized_head() {
        let raw = format!(
            "GET /query HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&raw), Err(ParseError::TooLarge)));
    }

    #[test]
    fn response_format() {
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            200,
            "application/json",
            &[("X-A", "1")],
            "{}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-A: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn keep_alive_is_explicit_opt_in() {
        // No Connection header: HTTP/1.1 would default to persistent, but
        // the daemon treats persistence as opt-in.
        let r = parse("GET /query?seed=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse("GET /query?seed=1 HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
        // Case-insensitive header name and value.
        let r = parse("GET /q HTTP/1.1\r\nCONNECTION: Keep-Alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
        let r = parse("GET /q HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
    }

    #[test]
    fn keep_alive_response_header() {
        let mut buf = Vec::new();
        write_response(&mut buf, 200, "application/json", &[], "{}", true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Connection: close\r\n"));
    }

    #[test]
    fn request_id_header_is_captured() {
        let r = parse("GET /query?seed=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.request_id, None);
        let r = parse("GET /query?seed=1 HTTP/1.1\r\nX-REQUEST-ID: abc123 \r\n\r\n").unwrap();
        assert_eq!(r.request_id.as_deref(), Some("abc123"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_error_body("x"), "{\"error\":\"x\"}");
    }
}
