//! Adversarial-client tests against the full serving stack: the
//! connection reactor must absorb slow, oversized, and vanishing
//! clients without ever spending a worker thread on them, and the
//! damage must be visible in the `/metrics` `"net"` section.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use traj_geolife::{SynthConfig, SynthDataset};
use traj_net::client::request as client_request;
use traj_serve::artifact::{ModelArtifact, TrainSpec};
use traj_serve::registry::ModelRegistry;
use traj_serve::server::{serve, ServerConfig, ServerHandle};

fn test_registry() -> ModelRegistry {
    let segs = SynthDataset::generate(&SynthConfig {
        n_users: 3,
        segments_per_user: (3, 4),
        seed: 61,
        ..SynthConfig::default()
    })
    .segments;
    let spec = TrainSpec {
        kind: traj_ml::ClassifierKind::DecisionTree,
        ..TrainSpec::paper_default("tree")
    };
    let mut reg = ModelRegistry::new();
    reg.insert(ModelArtifact::train(&spec, &segs).unwrap())
        .unwrap();
    reg
}

/// A one-worker server with a short idle deadline: slow clients must be
/// reaped by the reactor, never waited out by the lone worker.
fn serve_one_worker(read_timeout: Duration) -> ServerHandle {
    serve(
        "127.0.0.1:0",
        test_registry(),
        ServerConfig {
            workers: 1,
            read_timeout,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
}

/// Pulls an integer counter out of the `/metrics` JSON (fetched over
/// `dispatch`, so probing adds no socket of its own).
fn net_counter(handle: &ServerHandle, key: &str) -> u64 {
    let (status, body) = handle.dispatch("GET", "/metrics", b"");
    assert_eq!(status, 200, "{body}");
    let needle = format!("\"{key}\": ");
    let at = body.find(&needle).unwrap_or_else(|| {
        panic!("metrics missing {key}: {body}");
    });
    body[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer counter")
}

fn wait_for(mut probe: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn read_all(stream: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

#[test]
fn slow_loris_gets_408_while_the_lone_worker_serves_others() {
    let handle = serve_one_worker(Duration::from_millis(300));
    let addr = handle.addr();

    // The loris: a request that never finishes its headers.
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris
        .write_all(b"POST /predict HTTP/1.1\r\nContent-Le")
        .expect("dribble");

    // A well-behaved client is served immediately — the half-request
    // lives in the reactor, not on the single worker thread.
    let well = TcpStream::connect(addr).expect("connect");
    let mut well = std::io::BufReader::new(well);
    let (status, body) = client_request(&mut well, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200, "{body}");

    // The idle deadline passes; the loris is answered 408 and closed.
    let response = read_all(&mut loris);
    assert!(response.starts_with("HTTP/1.1 408"), "{response}");
    assert_eq!(net_counter(&handle, "idle_reaps_408"), 1);
    // Both connections drain: the loris was reaped with the 408, and
    // the idle `well` connection falls to the same deadline shortly
    // after (a silent close — it was between requests).
    wait_for(
        || net_counter(&handle, "open_connections") == 0,
        "connections to drain",
    );
}

#[test]
fn oversized_headers_431_and_oversized_body_413() {
    let handle = serve_one_worker(Duration::from_secs(5));
    let addr = handle.addr();

    let mut big_head = TcpStream::connect(addr).expect("connect");
    let huge = "x".repeat(64 * 1024);
    let _ = big_head
        .write_all(format!("GET /healthz HTTP/1.1\r\nX-Padding: {huge}\r\n\r\n").as_bytes());
    let response = read_all(&mut big_head);
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");

    let mut big_body = TcpStream::connect(addr).expect("connect");
    big_body
        .write_all(b"POST /predict HTTP/1.1\r\nContent-Length: 16777216\r\n\r\n")
        .expect("head");
    let response = read_all(&mut big_body);
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");

    assert_eq!(net_counter(&handle, "rejects_431"), 1);
    assert_eq!(net_counter(&handle, "rejects_413"), 1);
    // Both rejecting responses were written without a worker's help;
    // request dispatch never happened.
    assert_eq!(net_counter(&handle, "requests"), 0);
}

#[test]
fn mid_body_disconnect_and_half_close_clean_up_without_leaks() {
    let handle = serve_one_worker(Duration::from_secs(5));
    let addr = handle.addr();

    // Mid-body disconnect: promise 100 bytes, send 10, vanish.
    {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(b"POST /predict HTTP/1.1\r\nContent-Length: 100\r\n\r\n0123456789")
            .expect("partial body");
    } // dropped: RST/FIN mid-request
    wait_for(
        || net_counter(&handle, "client_aborts") >= 1,
        "mid-body abort to be counted",
    );
    wait_for(
        || net_counter(&handle, "open_connections") == 0,
        "aborted connection state to be released",
    );

    // Half-close while idle between requests: a silent cleanup, not an
    // abort — the client finished cleanly.
    {
        let conn = TcpStream::connect(addr).expect("connect");
        let mut reader = std::io::BufReader::new(conn);
        let (status, _) = client_request(&mut reader, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        let _ = reader.get_ref().shutdown(std::net::Shutdown::Write);
    }
    wait_for(
        || net_counter(&handle, "open_connections") == 0,
        "half-closed connection to be released",
    );
    assert_eq!(net_counter(&handle, "client_aborts"), 1);
}

#[test]
fn keep_alive_reuse_shows_in_net_metrics() {
    let handle = serve_one_worker(Duration::from_secs(5));
    let conn = TcpStream::connect(handle.addr()).expect("connect");
    let mut client = std::io::BufReader::new(conn);
    for _ in 0..5 {
        let (status, _) = client_request(&mut client, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
    }
    assert_eq!(net_counter(&handle, "requests"), 5);
    assert_eq!(net_counter(&handle, "keepalive_requests"), 4);
    assert_eq!(net_counter(&handle, "accepts"), 1);
}

#[test]
fn idle_connection_herd_never_occupies_the_lone_worker() {
    let handle = serve_one_worker(Duration::from_secs(30));
    let addr = handle.addr();

    // 64 parked keep-alive connections (each proves itself with one
    // request first). Under the old thread-per-connection model these
    // would need 64 parked workers; here they are 64 descriptors.
    let mut herd = Vec::new();
    for _ in 0..64 {
        let conn = TcpStream::connect(addr).expect("connect herd");
        let mut reader = std::io::BufReader::new(conn);
        let (status, _) = client_request(&mut reader, "GET", "/healthz", None).expect("probe");
        assert_eq!(status, 200);
        herd.push(reader);
    }
    assert_eq!(net_counter(&handle, "open_connections"), 64);

    // The single worker still answers new traffic promptly.
    let conn = TcpStream::connect(addr).expect("connect");
    let mut active = std::io::BufReader::new(conn);
    let started = Instant::now();
    let (status, _) = client_request(&mut active, "GET", "/healthz", None).expect("active");
    assert_eq!(status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "active request stalled behind idle herd"
    );

    // Every herd member is still usable afterwards.
    for reader in herd.iter_mut().take(4) {
        let (status, _) = client_request(reader, "GET", "/healthz", None).expect("reuse");
        assert_eq!(status, 200);
    }
    drop(herd);
    wait_for(
        || net_counter(&handle, "open_connections") == 1,
        "herd teardown",
    );
}
