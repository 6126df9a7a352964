//! End-to-end reactor tests over real sockets: an echo-ish service on a
//! loopback listener, plain blocking `TcpStream` clients on the other
//! side. Covers keep-alive reuse, partial reads, adversarial clients
//! (slow-loris, oversized heads/bodies, half-closes), graceful drain
//! and the client multiplexer's pooling.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use traj_net::http1::{RespPoll, ResponseParser};
use traj_net::{NetClient, ReactorConfig, ReactorHandle};

/// Service that answers `{"path": ..., "len": body_len}` from a helper
/// thread pool of one (spawned per call to keep the harness tiny).
fn echo_service() -> Arc<dyn traj_net::Service> {
    Arc::new(
        |request: traj_net::Request, responder: traj_net::Responder| {
            std::thread::spawn(move || {
                let body = format!(
                    "{{\"path\": \"{}\", \"len\": {}}}",
                    request.path,
                    request.body.len()
                );
                responder.send(200, body, None);
            });
        },
    )
}

fn start(config: ReactorConfig) -> ReactorHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    traj_net::spawn(listener, config, echo_service()).expect("spawn reactor")
}

fn small_timeouts() -> ReactorConfig {
    ReactorConfig {
        name: "test".to_owned(),
        idle_timeout: Duration::from_millis(300),
        write_stall_timeout: Duration::from_secs(2),
        drain_grace: Duration::from_secs(2),
        ..ReactorConfig::default()
    }
}

/// Sends one request on an existing stream through the blocking client.
/// Returns (status, body).
fn roundtrip(stream: &mut TcpStream, path: &str, body: &str) -> (u16, String) {
    traj_net::client::request(&mut BufReader::new(stream), "POST", path, Some(body))
        .expect("roundtrip")
}

/// Reads one response with the crate's own parser.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut parser = ResponseParser::new(8 * 1024, 1 << 20);
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).expect("read response");
        assert!(n > 0, "EOF before a full response");
        parser.push(&buf[..n]);
        match parser.poll() {
            RespPoll::NeedMore => {}
            RespPoll::Ready(r) => return (r.status, String::from_utf8(r.body).expect("utf8 body")),
            RespPoll::Error(e) => panic!("malformed response: {e}"),
        }
    }
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let handle = start(ReactorConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    for i in 0..20 {
        let (status, body) = roundtrip(&mut stream, "/echo", &format!("req-{i}"));
        assert_eq!(status, 200);
        assert!(body.contains("\"path\": \"/echo\""), "{body}");
    }
    let stats = handle.stats();
    assert_eq!(stats.requests.load(Ordering::Relaxed), 20);
    assert_eq!(stats.keepalive_requests.load(Ordering::Relaxed), 19);
    assert_eq!(stats.accepts.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn request_dribbled_byte_by_byte_still_parses() {
    let handle = start(ReactorConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let wire = traj_net::render_request("POST", "/slow", Some("abcdef"));
    for byte in wire {
        stream.write_all(&[byte]).expect("write byte");
        stream.flush().expect("flush");
    }
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(body.contains("\"len\": 6"), "{body}");
    handle.shutdown();
}

#[test]
fn slow_loris_is_reaped_with_408() {
    let handle = start(small_timeouts());
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    // A request line that never finishes.
    stream.write_all(b"GET /pre").expect("write partial");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 408);
    assert!(body.contains("timed out"), "{body}");
    // Connection is closed afterwards.
    let mut probe = [0u8; 1];
    assert_eq!(stream.read(&mut probe).expect("eof"), 0);
    assert_eq!(handle.stats().idle_reaps_408.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn idle_keep_alive_connection_closes_silently() {
    let handle = start(small_timeouts());
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let (status, _) = roundtrip(&mut stream, "/echo", "x");
    assert_eq!(status, 200);
    // Now idle with nothing buffered: the reaper should close without
    // sending anything.
    let mut probe = [0u8; 1];
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    assert_eq!(stream.read(&mut probe).expect("clean eof"), 0);
    let stats = handle.stats();
    assert_eq!(stats.idle_closes.load(Ordering::Relaxed), 1);
    assert_eq!(stats.idle_reaps_408.load(Ordering::Relaxed), 0);
    handle.shutdown();
}

#[test]
fn oversized_headers_get_431() {
    let handle = start(ReactorConfig {
        max_head_bytes: 256,
        ..small_timeouts()
    });
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.write_all(b"GET /x HTTP/1.1\r\n").expect("line");
    for _ in 0..64 {
        // The reactor may 431-and-close while we are still padding; a
        // broken pipe here just means the reject already happened.
        if stream
            .write_all(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaa\r\n")
            .is_err()
        {
            break;
        }
    }
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 431);
    assert_eq!(handle.stats().rejects_431.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn oversized_body_gets_413() {
    let handle = start(ReactorConfig {
        max_body_bytes: 64,
        ..small_timeouts()
    });
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .write_all(b"POST /predict HTTP/1.1\r\nContent-Length: 100000\r\n\r\n")
        .expect("head");
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 413);
    assert_eq!(handle.stats().rejects_413.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn mid_body_disconnect_cleans_up_connection_state() {
    let handle = start(small_timeouts());
    {
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream
            .write_all(b"POST /predict HTTP/1.1\r\nContent-Length: 1000\r\n\r\npartial")
            .expect("partial body");
        // Drop: FIN mid-body.
    }
    let stats = handle.stats();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    // Wait until the abort was counted and the connection is gone.
    // Polling for zero open connections alone would pass too early: the
    // reactor counts the accept before it registers the connection.
    loop {
        let accepts = stats.accepts.load(Ordering::Relaxed);
        let open = stats.open_connections.load(Ordering::Relaxed);
        let aborts = stats.client_aborts.load(Ordering::Relaxed);
        if open == 0 && aborts >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connection leaked: accepts={accepts} open={open} aborts={aborts}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(stats.client_aborts.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn many_idle_connections_do_not_block_an_active_one() {
    let handle = start(ReactorConfig {
        idle_timeout: Duration::from_secs(30),
        ..ReactorConfig::default()
    });
    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(handle.local_addr()).expect("idle connect"))
        .collect();
    let mut active = TcpStream::connect(handle.local_addr()).expect("active connect");
    for i in 0..5 {
        let (status, _) = roundtrip(&mut active, "/busy", &format!("{i}"));
        assert_eq!(status, 200);
    }
    assert_eq!(handle.stats().open_connections.load(Ordering::Relaxed), 65);
    drop(idle);
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_with_503() {
    let handle = start(ReactorConfig {
        max_connections: 2,
        ..small_timeouts()
    });
    let a = TcpStream::connect(handle.local_addr()).expect("a");
    let b = TcpStream::connect(handle.local_addr()).expect("b");
    let mut c = TcpStream::connect(handle.local_addr()).expect("c");
    c.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let (status, body) = read_response(&mut c);
    assert_eq!(status, 503);
    assert!(body.contains("connection limit"), "{body}");
    assert_eq!(handle.stats().accept_rejected.load(Ordering::Relaxed), 1);
    drop((a, b));
    handle.shutdown();
}

#[test]
fn shutdown_drains_in_flight_response() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let service = Arc::new(
        |request: traj_net::Request, responder: traj_net::Responder| {
            std::thread::spawn(move || {
                // Response lands after shutdown has begun.
                std::thread::sleep(Duration::from_millis(200));
                responder.send(200, format!("{{\"done\": \"{}\"}}", request.path), None);
            });
        },
    );
    let handle = traj_net::spawn(listener, small_timeouts(), service).expect("spawn");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let wire = traj_net::render_request("POST", "/final", Some("x"));
    stream.write_all(&wire).expect("write");
    std::thread::sleep(Duration::from_millis(50)); // request is in flight
    let shutter = {
        let addr = handle.local_addr();
        std::thread::spawn(move || {
            let _ = addr; // shutdown happens on this thread below
        })
    };
    shutter.join().unwrap();
    let done = std::thread::spawn(move || {
        handle.shutdown();
    });
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(body.contains("/final"), "{body}");
    done.join().unwrap();
}

#[test]
fn dropped_responder_turns_into_500() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let service = Arc::new(
        |_request: traj_net::Request, responder: traj_net::Responder| {
            drop(responder); // a worker that "panicked"
        },
    );
    let handle = traj_net::spawn(listener, small_timeouts(), service).expect("spawn");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let (status, body) = roundtrip(&mut stream, "/boom", "x");
    assert_eq!(status, 500);
    assert!(body.contains("dropped"), "{body}");
    handle.shutdown();
}

#[test]
fn net_client_pools_and_reuses_connections() {
    let handle = start(ReactorConfig {
        idle_timeout: Duration::from_secs(30),
        ..ReactorConfig::default()
    });
    let addr = handle.local_addr().to_string();
    let client = NetClient::new().expect("client");
    for i in 0..5 {
        let stream = match client.take_pooled(&addr) {
            Some(s) => s,
            None => TcpStream::connect(&addr).expect("connect"),
        };
        let wire = traj_net::render_request("POST", "/pooled", Some(&format!("{i}")));
        let (status, body) = client
            .execute(stream, wire, Duration::from_secs(5), Some(addr.clone()))
            .expect("execute");
        assert_eq!(status, 200);
        assert!(body.contains("/pooled"), "{body}");
    }
    // All five requests rode one server-side connection.
    assert_eq!(handle.stats().accepts.load(Ordering::Relaxed), 1);
    assert_eq!(handle.stats().keepalive_requests.load(Ordering::Relaxed), 4);
    handle.shutdown();
}

#[test]
fn net_client_detects_stale_pooled_connection() {
    let handle = start(ReactorConfig {
        idle_timeout: Duration::from_millis(200),
        ..ReactorConfig::default()
    });
    let addr = handle.local_addr().to_string();
    let client = NetClient::new().expect("client");
    let stream = TcpStream::connect(&addr).expect("connect");
    let wire = traj_net::render_request("GET", "/one", None);
    client
        .execute(stream, wire, Duration::from_secs(5), Some(addr.clone()))
        .expect("first request");
    // Let the server's idle reaper close the pooled connection.
    std::thread::sleep(Duration::from_millis(600));
    assert!(
        client.take_pooled(&addr).is_none(),
        "stale pooled connection should be probed out"
    );
    handle.shutdown();
}

#[test]
fn net_client_times_out_stuck_backend() {
    // A listener that accepts and never answers.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let keeper = std::thread::spawn(move || {
        let conns: Vec<_> = listener.incoming().take(1).collect();
        std::thread::sleep(Duration::from_secs(3));
        drop(conns);
    });
    let client = NetClient::new().expect("client");
    let stream = TcpStream::connect(addr).expect("connect");
    let wire = traj_net::render_request("GET", "/never", None);
    let err = client
        .execute(stream, wire, Duration::from_millis(300), None)
        .expect_err("must time out");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    keeper.join().unwrap();
}
