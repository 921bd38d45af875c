//! The serve protocol under hostile input over real TCP: a flood of blank
//! lines and an over-long request line must neither crash the server nor
//! stop it serving other connections.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use rats_server::protocol::MAX_LINE_BYTES;
use rats_server::{Client, Server, ServerConfig};

#[allow(dead_code)]
mod common;

#[test]
fn blank_line_floods_and_over_long_lines_are_survived() {
    let out = common::temp_dir("serve-hostile");
    let mut cfg = ServerConfig::new(out.join("serve"));
    cfg.fleet = 0;
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();
    let serving = std::thread::spawn(move || server.serve().expect("serve loop"));

    // A million blank lines, then a request: skipped, then answered.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&vec![b'\n'; 1_000_000]).unwrap();
        raw.write_all(b"{\"op\":\"status\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(raw).read_line(&mut line).unwrap();
        assert!(line.contains("server-status"), "got: {line}");
    }

    // One byte past the bound with no newline: an `error` response, then
    // the server closes the connection. Exactly the bytes the server
    // reads are sent, so the close is clean and the response arrives.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
        let mut rest = String::new();
        raw.read_to_string(&mut rest).unwrap();
        assert!(
            rest.contains("\"error\"") && rest.contains("exceeds"),
            "got: {rest}"
        );
        assert_eq!(rest.lines().count(), 1, "one response, then EOF");
    }

    // Neither connection took the server down; `fleet = 0` reads as the
    // one compute thread each submission gets.
    let mut client = Client::connect(&addr).unwrap();
    let status = client.status(None, 1_000).unwrap();
    assert_eq!(status.field::<u64>("fleet").unwrap(), 1);
    client.shutdown().expect("server acknowledges");
    serving.join().expect("serve loop exits cleanly");
    std::fs::remove_dir_all(&out).unwrap();
}
