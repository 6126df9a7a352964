//! HTTP clients: the non-blocking multiplexer for router → shard
//! fan-out, and [`request`], the blocking one-request helper that load
//! generators, tests and examples use over their own connections.
//!
//! One background thread owns the socket I/O for every in-flight
//! backend request: callers hand over a connected stream plus rendered
//! request bytes, block on a condvar, and get `(status, body)` back.
//! Concurrent fan-out to the whole shard pool therefore costs one
//! thread total, not one blocked thread per call — the client-side
//! mirror of the server reactor.
//!
//! Connections are pooled per address key after a keep-alive response.
//! A pooled stream can always have been reaped by the server's idle
//! deadline in the meantime; `take_pooled` probes for that cheaply, and
//! the retry policy for requests that *still* hit a stale one stays
//! where it has always lived, in the cluster backend.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::http1::{render_request, RespPoll, Response, ResponseParser};
use crate::sys::{Event, Interest, Poller};

const TOKEN_WAKER: u64 = u64::MAX - 1;
/// Deadline scan cadence for in-flight jobs.
const TICK: Duration = Duration::from_millis(25);
/// Idle pooled connections kept per address key.
const POOL_CAP: usize = 8;
/// Response head cap (mirrors the server's request-head cap).
const MAX_RESP_HEAD: usize = 8 * 1024;
/// Response body cap — generous because `/metrics` fan-in documents
/// grow with shard count.
const MAX_RESP_BODY: usize = 64 << 20;

/// Sends one request on a blocking keep-alive connection and reads the
/// response, returning `(status, body)`. Writes go straight to the
/// inner stream; reads go through the buffer, under the same caps as
/// [`NetClient`]. The caller sends one request at a time, so bytes past
/// the end of the response are a protocol error, as is EOF before it.
pub fn request<S: Read + Write>(
    stream: &mut BufReader<S>,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let inner = stream.get_mut();
    inner.write_all(&render_request(method, path, body))?;
    inner.flush()?;
    let mut parser = ResponseParser::new(MAX_RESP_HEAD, MAX_RESP_BODY);
    loop {
        let chunk = stream.fill_buf()?;
        if chunk.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before full response",
            ));
        }
        parser.push(chunk);
        let n = chunk.len();
        stream.consume(n);
        match parser.poll() {
            RespPoll::NeedMore => {}
            RespPoll::Ready(_) if parser.has_buffered() => {
                return Err(invalid_data("bytes after the response"))
            }
            RespPoll::Ready(resp) => return reply(resp),
            RespPoll::Error(msg) => return Err(invalid_data(msg)),
        }
    }
}

/// The `(status, body)` of a complete response; bodies are UTF-8 JSON.
fn reply(resp: Response) -> io::Result<(u16, String)> {
    String::from_utf8(resp.body)
        .map(|text| (resp.status, text))
        .map_err(|_| invalid_data("non-UTF-8 response body"))
}

fn invalid_data(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Outcome slot the caller blocks on.
#[derive(Debug, Default)]
struct Done {
    slot: Mutex<Option<io::Result<(u16, String)>>>,
    cv: Condvar,
}

#[derive(Debug)]
struct NewJob {
    stream: TcpStream,
    request: Vec<u8>,
    deadline: Instant,
    pool_key: Option<String>,
    done: Arc<Done>,
}

#[derive(Debug)]
struct Injector {
    queue: Mutex<VecDeque<NewJob>>,
    waker: UnixStream,
}

impl Injector {
    fn push(&self, job: NewJob) {
        self.queue
            .lock()
            .expect("client injector poisoned")
            .push_back(job);
        let _ = (&self.waker).write(&[1]);
    }
}

type Pool = Mutex<HashMap<String, Vec<TcpStream>>>;

/// The multiplexing HTTP client. One per process is plenty; use
/// [`NetClient::global`].
#[derive(Debug)]
pub struct NetClient {
    injector: Arc<Injector>,
    pool: Arc<Pool>,
}

impl NetClient {
    /// Builds a client with its own event-loop thread.
    pub fn new() -> io::Result<NetClient> {
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let injector = Arc::new(Injector {
            queue: Mutex::new(VecDeque::new()),
            waker: waker_tx,
        });
        let pool: Arc<Pool> = Arc::new(Mutex::new(HashMap::new()));
        let mut evloop = EventLoop {
            poller: Poller::new()?,
            waker_rx,
            injector: Arc::clone(&injector),
            pool: Arc::clone(&pool),
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        };
        evloop
            .poller
            .add(evloop.waker_rx.as_raw_fd(), Interest::READ, TOKEN_WAKER)?;
        std::thread::Builder::new()
            .name("traj-net-client".to_owned())
            .spawn(move || evloop.run())?;
        Ok(NetClient { injector, pool })
    }

    /// The process-wide client (event loop lives for the process).
    pub fn global() -> &'static NetClient {
        static CLIENT: OnceLock<NetClient> = OnceLock::new();
        CLIENT.get_or_init(|| NetClient::new().expect("spawn net client event loop"))
    }

    /// Takes a pooled keep-alive connection for `key`, probing out ones
    /// the server has since closed.
    pub fn take_pooled(&self, key: &str) -> Option<TcpStream> {
        let mut pool = self.pool.lock().expect("client pool poisoned");
        let bucket = pool.get_mut(key)?;
        while let Some(stream) = bucket.pop() {
            // Streams in the pool are non-blocking: a healthy idle
            // connection reads WouldBlock; EOF or stray bytes mean the
            // server hung up (or broke framing) — discard.
            let mut probe = [0u8; 1];
            match (&stream).read(&mut probe) {
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Some(stream),
                _ => continue,
            }
        }
        None
    }

    /// Runs one request on `stream`, blocking the caller until the
    /// response arrives or `timeout` passes. With `pool_key`, the
    /// connection is returned to the pool after a keep-alive response.
    pub fn execute(
        &self,
        stream: TcpStream,
        request: Vec<u8>,
        timeout: Duration,
        pool_key: Option<String>,
    ) -> io::Result<(u16, String)> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let done = Arc::new(Done::default());
        let deadline = Instant::now() + timeout;
        self.injector.push(NewJob {
            stream,
            request,
            deadline,
            pool_key,
            done: Arc::clone(&done),
        });
        // The loop enforces the deadline; the extra grace here only
        // guards against the loop thread itself dying.
        let hard_deadline = deadline + Duration::from_secs(5);
        let mut slot = done.slot.lock().expect("client done slot poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            let now = Instant::now();
            if now >= hard_deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "net client event loop unresponsive",
                ));
            }
            let (guard, _) = done
                .cv
                .wait_timeout(slot, hard_deadline - now)
                .expect("client done slot poisoned");
            slot = guard;
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum JobPhase {
    Writing,
    Reading,
}

#[derive(Debug)]
struct Job {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    parser: ResponseParser,
    phase: JobPhase,
    deadline: Instant,
    pool_key: Option<String>,
    done: Arc<Done>,
}

struct EventLoop {
    poller: Poller,
    waker_rx: UnixStream,
    injector: Arc<Injector>,
    pool: Arc<Pool>,
    slots: Vec<Option<Job>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

fn pack_token(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

fn unpack_token(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

impl EventLoop {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                // Deliver failures to anyone still waiting, then stop.
                for idx in 0..self.slots.len() {
                    self.finish(
                        idx,
                        Err(io::Error::other("net client event loop failed")),
                        false,
                    );
                }
                return;
            }
            let drained = std::mem::take(&mut events);
            for ev in &drained {
                self.dispatch(ev);
            }
            events = drained;
            self.admit_new_jobs();
            self.reap_deadlines();
        }
    }

    fn admit_new_jobs(&mut self) {
        loop {
            let job = {
                let mut q = self
                    .injector
                    .queue
                    .lock()
                    .expect("client injector poisoned");
                q.pop_front()
            };
            let Some(new) = job else { break };
            let job = Job {
                stream: new.stream,
                out: new.request,
                out_pos: 0,
                parser: ResponseParser::new(MAX_RESP_HEAD, MAX_RESP_BODY),
                phase: JobPhase::Writing,
                deadline: new.deadline,
                pool_key: new.pool_key,
                done: new.done,
            };
            let idx = match self.free.pop() {
                Some(idx) => {
                    self.slots[idx] = Some(job);
                    idx
                }
                None => {
                    self.slots.push(Some(job));
                    self.gens.push(0);
                    self.slots.len() - 1
                }
            };
            let token = pack_token(idx, self.gens[idx]);
            let fd = self.slots[idx]
                .as_ref()
                .expect("just inserted")
                .stream
                .as_raw_fd();
            if let Err(e) = self.poller.add(fd, Interest::WRITE, token) {
                self.finish(idx, Err(e), false);
                continue;
            }
            // Usually the socket buffer takes the whole request at once.
            self.job_writable(idx);
        }
    }

    fn dispatch(&mut self, ev: &Event) {
        if ev.token == TOKEN_WAKER {
            let mut buf = [0u8; 64];
            while matches!((&self.waker_rx).read(&mut buf), Ok(n) if n > 0) {}
            return;
        }
        let (idx, gen) = unpack_token(ev.token);
        if idx >= self.slots.len() || self.gens[idx] != gen || self.slots[idx].is_none() {
            return;
        }
        if ev.failed {
            self.finish(
                idx,
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "backend connection failed",
                )),
                false,
            );
            return;
        }
        if ev.writable {
            self.job_writable(idx);
        }
        if ev.readable && self.slots[idx].is_some() {
            self.job_readable(idx);
        }
    }

    fn job_writable(&mut self, idx: usize) {
        let switch_to_read = {
            let Some(job) = self.slots[idx].as_mut() else {
                return;
            };
            if job.phase != JobPhase::Writing {
                return;
            }
            loop {
                match job.stream.write(&job.out[job.out_pos..]) {
                    Ok(0) => {
                        break Some(Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "backend closed during request write",
                        )))
                    }
                    Ok(n) => {
                        job.out_pos += n;
                        if job.out_pos == job.out.len() {
                            job.phase = JobPhase::Reading;
                            break Some(Ok(()));
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break None,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => break Some(Err(e)),
                }
            }
        };
        match switch_to_read {
            None => {}
            Some(Ok(())) => {
                let token = pack_token(idx, self.gens[idx]);
                let fd = self.slots[idx]
                    .as_ref()
                    .expect("checked above")
                    .stream
                    .as_raw_fd();
                let _ = self.poller.modify(fd, Interest::READ, token);
                // The response may already be sitting in the buffer.
                self.job_readable(idx);
            }
            Some(Err(e)) => self.finish(idx, Err(e), false),
        }
    }

    fn job_readable(&mut self, idx: usize) {
        let outcome = {
            let Some(job) = self.slots[idx].as_mut() else {
                return;
            };
            if job.phase != JobPhase::Reading {
                return;
            }
            let mut buf = [0u8; 16 * 1024];
            loop {
                match job.stream.read(&mut buf) {
                    Ok(0) => {
                        break Some(Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "backend closed before full response",
                        )))
                    }
                    Ok(n) => {
                        job.parser.push(&buf[..n]);
                        match job.parser.poll() {
                            RespPoll::NeedMore => continue,
                            RespPoll::Ready(resp) => {
                                let keep_alive = resp.keep_alive;
                                break Some(
                                    reply(resp).map(|(status, body)| (status, body, keep_alive)),
                                );
                            }
                            RespPoll::Error(msg) => break Some(Err(invalid_data(msg))),
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break None,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => break Some(Err(e)),
                }
            }
        };
        match outcome {
            None => {}
            Some(Ok((status, body, keep_alive))) => {
                self.finish(idx, Ok((status, body)), keep_alive);
            }
            Some(Err(e)) => self.finish(idx, Err(e), false),
        }
    }

    fn reap_deadlines(&mut self) {
        let now = Instant::now();
        for idx in 0..self.slots.len() {
            let expired = self.slots[idx]
                .as_ref()
                .map(|j| now >= j.deadline)
                .unwrap_or(false);
            if expired {
                self.finish(
                    idx,
                    Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "backend request timed out",
                    )),
                    false,
                );
            }
        }
    }

    /// Delivers the result to the waiting caller and retires the slot,
    /// pooling the connection when the response allows reuse.
    fn finish(&mut self, idx: usize, result: io::Result<(u16, String)>, reusable: bool) {
        let Some(job) = self.slots[idx].take() else {
            return;
        };
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        if reusable && result.is_ok() {
            if let Some(key) = &job.pool_key {
                if !job.parser.has_buffered() {
                    let _ = self.poller.remove(job.stream.as_raw_fd());
                    let mut pool = self.pool.lock().expect("client pool poisoned");
                    let bucket = pool.entry(key.clone()).or_default();
                    if bucket.len() < POOL_CAP {
                        bucket.push(job.stream);
                    }
                }
            }
        }
        // Non-pooled streams close on drop, which also deregisters them.
        *job.done.slot.lock().expect("client done slot poisoned") = Some(result);
        job.done.cv.notify_all();
    }
}

impl Default for NetClient {
    fn default() -> Self {
        NetClient::new().expect("spawn net client event loop")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Answers one request on a loopback listener with `chunks`, written
    /// one `write_all` each with a pause between, then closes; returns
    /// what [`request`] made of it.
    fn exchange(chunks: Vec<Vec<u8>>) -> io::Result<(u16, String)> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            conn.set_nodelay(true).expect("nodelay");
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") {
                conn.read_exact(&mut byte).expect("request head");
                head.push(byte[0]);
            }
            for chunk in chunks {
                conn.write_all(&chunk).expect("response chunk");
                conn.flush().expect("flush");
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let result = request(&mut BufReader::new(stream), "GET", "/healthz", None);
        server.join().expect("server thread");
        result
    }

    #[test]
    fn response_written_a_byte_at_a_time_parses() {
        let wire = crate::http1::render_response(200, "{\"ok\": true}", true, None);
        let bytes = wire.iter().map(|&b| vec![b]).collect();
        let (status, body) = exchange(bytes).expect("response");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\": true}");
    }

    #[test]
    fn eof_mid_body_is_unexpected_eof() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc".to_vec();
        let err = exchange(vec![head]).expect_err("truncated body");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn bytes_after_the_response_are_invalid_data() {
        let mut wire = crate::http1::render_response(200, "{}", true, None);
        wire.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
        let err = exchange(vec![wire]).expect_err("trailing bytes");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn body_over_the_cap_is_invalid_data() {
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_RESP_BODY + 1
        );
        let err = exchange(vec![head.into_bytes()]).expect_err("oversized body");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
