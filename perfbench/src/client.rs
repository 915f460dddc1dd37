//! A one-shot HTTP/1.1 client for the `/v1` routes: every exchange opens
//! its own connection (the server closes after each response), so the
//! measured wall time runs from `connect` to the last byte, or to the SSE
//! `done` event for streamed answers.

use serde_json::Value;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One finished exchange.
pub struct Reply {
    pub status: u16,
    /// The JSON document: the whole body of a blocking response, the
    /// `done` event's data for a stream. `Null` when absent or malformed.
    pub body: Value,
    /// Bytes received, head included.
    pub bytes: usize,
    /// SSE events received (0 for a blocking response).
    pub events: u32,
    /// Connect to last byte (or to the `done` event).
    pub wall: Duration,
    /// Connect to the first answer the client holds: the first `update`
    /// event, else the final response.
    pub first_answer: Duration,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Sends one request and reads the reply.
pub fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;

    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(pos) = find(&buf, b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid("connection closed before the response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("head not UTF-8"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut content_length = None;
    let mut sse = false;
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("content-type") {
                sse = value.starts_with("text/event-stream");
            }
        }
    }
    let body_start = head_end + 4;

    if !sse {
        let want = content_length.map(|n| body_start + n);
        while want.is_none_or(|w| buf.len() < w) {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                break;
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        let wall = started.elapsed();
        let end = want.unwrap_or(buf.len()).min(buf.len());
        let body = serde_json::from_slice(&buf[body_start..end]).unwrap_or(Value::Null);
        return Ok(Reply {
            status,
            body,
            bytes: buf.len(),
            events: 0,
            wall,
            first_answer: wall,
        });
    }

    // Server-sent events: frames end with a blank line.
    let mut cursor = body_start;
    let mut events = 0u32;
    let mut first_update = None;
    loop {
        while let Some(rel) = find(&buf[cursor..], b"\n\n") {
            let frame = std::str::from_utf8(&buf[cursor..cursor + rel])
                .map_err(|_| invalid("event not UTF-8"))?;
            cursor += rel + 2;
            events += 1;
            let name = frame.lines().find_map(|l| l.strip_prefix("event: "));
            match name {
                Some("update") => {
                    first_update.get_or_insert_with(|| started.elapsed());
                }
                Some("done") => {
                    let wall = started.elapsed();
                    let data = frame.lines().find_map(|l| l.strip_prefix("data: "));
                    let body = data
                        .and_then(|d| serde_json::from_str(d).ok())
                        .unwrap_or(Value::Null);
                    return Ok(Reply {
                        status,
                        body,
                        bytes: buf.len(),
                        events,
                        wall,
                        first_answer: first_update.unwrap_or(wall),
                    });
                }
                _ => {}
            }
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid("stream ended without a done event"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// `GET path`, returning the status and the parsed JSON body.
pub fn get_json(addr: SocketAddr, path: &str) -> io::Result<(u16, Value)> {
    let r = exchange(addr, "GET", path, "")?;
    Ok((r.status, r.body))
}

/// A numeric field of a JSON object, 0 when missing.
pub fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}
