//! A deliberately small HTTP/1.1 implementation — just enough for the
//! lab's JSON API, with zero dependencies.
//!
//! Supported: request line + headers + `Content-Length` bodies, and
//! responses with a fixed header set. Not supported (and not needed):
//! chunked encoding, keep-alive (every response closes the connection),
//! TLS, continuation lines. Oversized requests are rejected early so a
//! misbehaving client cannot balloon server memory.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Max bytes of headers we accept (guards the line reader).
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Max request body we accept.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `PUT`, ...
    pub method: String,
    /// Path component only (no query parsing — the API doesn't use
    /// queries).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Read and parse one request from the stream. `Err` strings are
/// protocol-level problems; the caller answers 400 and closes.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line lacks a target")?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    let mut header_bytes = line.len();
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        header_bytes += header.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err("headers too large".into());
        }
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| "bad Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err("body too large".into());
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(Request { method, path, body })
}

/// Write a response and flush. Extra headers are `(name, value)` pairs
/// (used for `X-Pdc-Cache` / `X-Pdc-Job` observability headers).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(String, String)],
    body: &[u8],
) {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // Head and body in one write: one syscall, one segment burst under
    // `TCP_NODELAY`.
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    // The client may already be gone; nothing useful to do about it.
    let _ = stream.write_all(&out);
}

/// Convenience: a JSON response.
pub fn json(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(String, String)],
    body: &str,
) {
    write_response(
        stream,
        status,
        reason,
        "application/json",
        extra_headers,
        body.as_bytes(),
    );
}

/// A client-side response (see [`request`]).
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Body as UTF-8 (the API only speaks JSON).
    pub body: String,
}

impl Response {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Minimal blocking client — one request, one response, connection
/// closed. Used by the load generator and the end-to-end tests; the
/// server always answers with `Connection: close`, so reading to the
/// advertised `Content-Length` (or EOF) is complete.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: lab\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status: {e}"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line: {status_line:?}"))?;

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    let mut raw = Vec::new();
    match content_length {
        Some(n) => {
            raw.resize(n, 0);
            reader
                .read_exact(&mut raw)
                .map_err(|e| format!("read body: {e}"))?;
        }
        None => {
            reader
                .read_to_end(&mut raw)
                .map_err(|e| format!("read body: {e}"))?;
        }
    }
    let body = String::from_utf8(raw).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Convenience: a JSON error document `{"error": "..."}`.
pub fn error(stream: &mut TcpStream, status: u16, reason: &str, message: &str) {
    error_with(stream, status, reason, &[], message);
}

/// [`error`] with extra response headers (e.g. the `X-Pdc-*` set).
pub fn error_with(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(String, String)],
    message: &str,
) {
    let escaped = message
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    json(
        stream,
        status,
        reason,
        extra_headers,
        &format!("{{\"error\":\"{escaped}\"}}"),
    );
}
