//! A minimal hand-rolled HTTP/1.1 listener for `GET /metrics` — just
//! enough protocol for Prometheus-compatible scrapers, std-only. One
//! thread accepts; each request is served inline (scrapes are rare and
//! rendering is microseconds, so a per-connection thread would be waste).
//! Because a request holds that one thread, reading it is bounded in both
//! time ([`REQUEST_TIMEOUT`]) and size ([`MAX_REQUEST_BYTES`]): a silent
//! or endless client delays the next scrape by at most the timeout.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The Prometheus text exposition content type.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Longest a client may take to send its request head (and to accept the
/// response) before the connection is dropped.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Most bytes read from one request: request line plus headers. A scrape
/// request is a few hundred bytes.
pub const MAX_REQUEST_BYTES: u64 = 8 << 10;

/// Binds `addr` and serves `GET /metrics` forever on a background thread,
/// rendering the body with `body` per request. Returns the bound address
/// (use port 0 to let the OS pick). The thread runs until process exit —
/// the listener has no independent shutdown, matching the server's
/// process-per-instance lifecycle.
pub fn spawn_metrics_listener(
    addr: &str,
    body: Arc<dyn Fn() -> String + Send + Sync>,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let _ = serve_one(stream, &*body);
        }
    });
    Ok(bound)
}

/// A stream whose reads fail once a fixed deadline has passed.
struct Deadline {
    stream: TcpStream,
    until: Instant,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one request, writes one response, closes the connection.
fn serve_one(stream: TcpStream, body: &(dyn Fn() -> String + Send + Sync)) -> std::io::Result<()> {
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let head = Deadline {
        stream: stream.try_clone()?,
        until: Instant::now() + REQUEST_TIMEOUT,
    };
    let mut reader = BufReader::new(head.take(MAX_REQUEST_BYTES));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers so well-behaved clients see a clean close.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let mut w = stream;
    if method != "GET" {
        return respond(&mut w, "405 Method Not Allowed", "text/plain", "only GET\n");
    }
    // Accept query strings (`/metrics?foo=1`) the way real scrapers send
    // them.
    if path != "/metrics" && !path.starts_with("/metrics?") {
        return respond(&mut w, "404 Not Found", "text/plain", "try /metrics\n");
    }
    respond(&mut w, "200 OK", CONTENT_TYPE, &body())
}

fn respond(
    w: &mut impl Write,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends `request` and reads the whole response, failing instead of
    /// hanging if the listener never answers.
    fn exchange(addr: SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(REQUEST_TIMEOUT * 5)).unwrap();
        stream.write_all(request).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn a_silent_connection_does_not_block_the_next_scrape() {
        let addr = spawn_metrics_listener("127.0.0.1:0", Arc::new(|| "up 1\n".into())).unwrap();
        let silent = TcpStream::connect(addr).unwrap();
        let response = exchange(addr, b"GET /metrics HTTP/1.1\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "got: {response}");
        assert!(response.ends_with("up 1\n"));
        drop(silent);
    }

    #[test]
    fn an_endless_request_line_is_cut_off_at_the_bound() {
        let addr = spawn_metrics_listener("127.0.0.1:0", Arc::new(|| "up 1\n".into())).unwrap();
        // No newline ever comes: the listener stops reading at the bound
        // and answers at once, well before the timeout.
        let mut request = b"GET /".to_vec();
        request.resize(MAX_REQUEST_BYTES as usize, b'x');
        let started = Instant::now();
        let response = exchange(addr, &request);
        assert!(response.starts_with("HTTP/1.1 404"), "got: {response}");
        assert!(started.elapsed() < REQUEST_TIMEOUT);
    }
}
