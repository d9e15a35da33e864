//! The workspace's one HTTP/1.1 layer, hand-rolled over `std::net` (the
//! build vendors every dependency): request line + headers +
//! `Content-Length` bodies in, fixed-length `Connection: close`
//! responses out.
//!
//! [`Server`] blocks in `accept` on a background thread and handles each
//! connection on its own short-lived thread, so one stalled client cannot
//! starve the others; one read timeout bounds how long a silent
//! connection holds its thread. Shutdown sets a stop flag and wakes the
//! blocked `accept` by connecting to the server's own address. [`call`]
//! is the matching client for tests and benches.

use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on the whole request: start line + headers + body. Campaign
/// submissions are a few hundred bytes; anything larger is abuse.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How long a connection may stay silent before its thread gives up
/// (slow-loris protection).
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Content type of JSON bodies.
pub const JSON: &str = "application/json";
/// Content type of newline-delimited JSON (event streams).
pub const NDJSON: &str = "application/x-ndjson";
/// The Prometheus text exposition format's required content type.
pub const PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A parsed request: method, path, query pairs, body bytes.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path with the query string stripped (e.g. `/campaigns/t--c0001`).
    pub path: String,
    /// Raw `k=v` query pairs in order of appearance: split on `&` and
    /// `=`, not percent-decoded.
    pub query: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length`-delimited).
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_get(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// What a handler answers: status, content type and body.
pub type Response = (u16, &'static str, String);

/// Read one request. Returns `Err` on malformed input, on a read error
/// (a socket's timeout included) or when the whole request exceeds
/// [`MAX_REQUEST_BYTES`].
pub fn read_request(stream: &mut impl Read) -> std::io::Result<Request> {
    let mut buf = [0u8; 4096];
    let mut seen: Vec<u8> = Vec::new();
    let header_end = loop {
        if let Some(pos) = seen.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if seen.len() >= MAX_REQUEST_BYTES {
            return Err(bad("request too large"));
        }
        let room = (MAX_REQUEST_BYTES - seen.len()).min(buf.len());
        let n = stream.read(&mut buf[..room])?;
        if n == 0 {
            return Err(bad("connection closed mid-request"));
        }
        seen.extend_from_slice(&buf[..n]);
    };
    let head = String::from_utf8_lossy(&seen[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let start = lines.next().unwrap_or("");
    let mut parts = start.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    // The head is inside `seen`, which never outgrows the cap.
    let body_start = header_end + 4;
    if content_length > MAX_REQUEST_BYTES - body_start {
        return Err(bad("request too large"));
    }
    let mut body: Vec<u8> = seen[body_start..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        body,
    })
}

/// Write `response` as a fixed-length `Connection: close` reply.
fn write_response(
    stream: &mut impl Write,
    (status, content_type, body): &Response,
) -> std::io::Result<()> {
    // One write: a separate small body write would wait on Nagle.
    let raw = format!(
        "HTTP/1.1 {status} {}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        reason(*status),
        body.len(),
    );
    stream.write_all(raw.as_bytes())?;
    stream.flush()
}

/// Canonical reason phrase for the handful of statuses the servers emit.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

fn bad(why: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, why)
}

/// A background-thread HTTP server answering every request with its
/// handler. Bind to port 0 to let the OS pick (tests); [`Server::addr`]
/// reports the resolved address. Shut down explicitly or on drop.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:9090"`) and serve `handler` from a
    /// background thread. A request that cannot be read gets a 400 with
    /// a JSON error body; the handler never sees it.
    pub fn serve<F>(addr: &str, handler: F) -> std::io::Result<Server>
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handler = Arc::new(handler);
        let handle = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("tunio-http".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // Transient accept errors (a client that reset
                        // before accept) concern that client only.
                        let Ok(stream) = stream else { continue };
                        let handler = handler.clone();
                        let _ = std::thread::Builder::new()
                            .name("tunio-http-conn".to_string())
                            .spawn(move || serve_conn(stream, &*handler));
                    }
                })?
        };
        Ok(Server {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and wait for the accept thread to exit.
    /// Connections already accepted finish on their own threads.
    pub fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocked accept; it sees the flag and exits. Should
        // the wake-up connection fail, the thread is left detached
        // rather than joined forever.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if TcpStream::connect_timeout(&wake, READ_TIMEOUT).is_ok() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_conn(mut stream: TcpStream, handler: &impl Fn(&Request) -> Response) {
    let response = match stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .and_then(|_| read_request(&mut stream))
    {
        Ok(req) => handler(&req),
        Err(e) => {
            let why = serde_json::to_string(&e.to_string()).unwrap_or_default();
            (400, JSON, format!("{{\"error\":{why}}}"))
        }
    };
    let _ = write_response(&mut stream, &response);
}

/// One HTTP/1.1 exchange: send `method path` with `body`, return the
/// whole response (status line, headers and body) as text. For tests
/// and benches that talk to a [`Server`].
pub fn call_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

/// [`call_raw`], split into the status code and the body.
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let response = call_raw(addr, method, path, body)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok());
    match (status, response.split_once("\r\n\r\n")) {
        (Some(status), Some((_, body))) => Ok((status, body.to_string())),
        _ => Err(bad("malformed response")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> std::io::Result<Request> {
        read_request(&mut &raw[..])
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse(
            b"POST /campaigns?tenant=alice&x HTTP/1.1\r\n\
              Host: localhost\r\nContent-Length: 10\r\n\r\n{\"a\":true}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert_eq!(req.query_get("tenant"), Some("alice"));
        assert_eq!(req.query_get("x"), Some(""));
        assert_eq!(req.body, b"{\"a\":true}");
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_REQUEST_BYTES + 1
        );
        assert!(parse(raw.as_bytes()).is_err());
    }

    #[test]
    fn cap_covers_head_and_body_together() {
        // Each half is under the cap; together they are not.
        let pad = "a".repeat(40 * 1024);
        let body = "b".repeat(40 * 1024);
        let raw = format!(
            "POST / HTTP/1.1\r\nX-Pad: {pad}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        assert!(parse(raw.as_bytes()).is_err());
        let head_only = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", pad.repeat(2));
        assert!(parse(head_only.as_bytes()).is_err());
        // A request of exactly the cap still parses.
        let head = "POST / HTTP/1.1\r\nContent-Length: ";
        let digits = MAX_REQUEST_BYTES.to_string().len();
        let len = MAX_REQUEST_BYTES - head.len() - digits - 4;
        let raw = format!("{head}{len}\r\n\r\n{}", "c".repeat(len));
        assert_eq!(raw.len(), MAX_REQUEST_BYTES);
        assert_eq!(parse(raw.as_bytes()).unwrap().body.len(), len);
    }

    #[test]
    fn get_without_body_parses() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn server_routes_requests_and_rejects_malformed_ones() {
        let server =
            Server::serve("127.0.0.1:0", |req| (200, JSON, req.path.clone())).expect("bind");
        let addr = server.addr();
        assert_eq!(call(addr, "GET", "/x", "").unwrap(), (200, "/x".into()));
        let missing_target = (400, "{\"error\":\"missing request target\"}".into());
        assert_eq!(call(addr, "", "", "").unwrap(), missing_target);
    }

    #[test]
    fn start_and_drop_is_prompt() {
        let started = std::time::Instant::now();
        for _ in 0..50 {
            drop(Server::serve("127.0.0.1:0", |_| (200, JSON, String::new())).unwrap());
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(5),
            "50 start/drop cycles took {took:?}"
        );
    }
}
