//! Load generation: a keep-alive HTTP/1.1 client on the program's own
//! wire codec (`traj_net::http1`), and the open- and closed-loop phases
//! built on it. One thread per connection; at most two connections.

use crate::plan;
use crate::trace::SpanLog;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use traj_net::http1::{render_request, RespPoll, ResponseParser};

/// Status recorded for a request that failed in transport.
pub const TRANSPORT_ERROR: u16 = 0;

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    parser: ResponseParser,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off (loopback latency otherwise jumps to the
    /// delayed-ACK timer).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            parser: ResponseParser::new(64 * 1024, 16 << 20),
            buf: vec![0; 64 * 1024],
        })
    }

    /// Sends pre-rendered request bytes and reads the response.
    pub fn exchange(&mut self, wire: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(wire)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        loop {
            match self.parser.poll() {
                RespPoll::Ready(r) => return Ok((r.status, r.body)),
                RespPoll::Error(m) => return Err(io::Error::new(io::ErrorKind::InvalidData, m)),
                RespPoll::NeedMore => {}
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.parser.push(&self.buf[..n]);
        }
    }
}

/// One request on a fresh connection (health checks, `/metrics`).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut conn = Conn::connect(addr)?;
    let (status, body) = conn.exchange(&render_request(method, path, body))?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// Checks (and accumulates) each response of one connection.
pub trait Sink: Send {
    /// Called once per request, transport errors included
    /// ([`TRANSPORT_ERROR`], empty body).
    fn response(&mut self, item: u32, status: u16, body: &[u8]);
}

/// One request's timeline, ns since the phase origin.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// When it was due (open loop); equal to `sent_ns` in a closed loop.
    pub due_ns: u64,
    /// When its first byte was written.
    pub sent_ns: u64,
    /// When its response was complete.
    pub done_ns: u64,
    /// HTTP status, or [`TRANSPORT_ERROR`].
    pub status: u16,
}

/// How a connection paces its requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Send each request at its due time, regardless of earlier ones.
    Open,
    /// Send back to back until `until` has passed; with `whole_passes`,
    /// stop only at the end of a pass over the list.
    Closed { until: Duration, whole_passes: bool },
}

/// Asks the kernel to end this thread's sleeps on time. Linux lets a
/// sleep overrun by the thread's timer slack (50 µs by default), which
/// an open loop would add, with its jitter, to every latency it times.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
        // only sets the calling thread's slack; no memory is read or
        // written. Failure leaves the default slack, which is harmless.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1u64);
        }
    }
}

/// Drives one connection through `sends` (`(item, due offset ns)`).
pub fn drive<S: Sink>(
    addr: SocketAddr,
    origin: Instant,
    sends: &[(u32, u64)],
    wires: &[Vec<u8>],
    pace: Pace,
    sink: &mut S,
    log: &mut SpanLog,
) -> Vec<Record> {
    if matches!(pace, Pace::Open) {
        tighten_timer_slack();
    }
    let mut records = Vec::with_capacity(sends.len());
    let mut conn: Option<Conn> = None;
    let now_ns = || origin.elapsed().as_nanos() as u64;
    'passes: loop {
        for &(item, due) in sends {
            let due_ns = match pace {
                Pace::Open => {
                    let now = now_ns();
                    if due > now {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    due
                }
                Pace::Closed {
                    until,
                    whole_passes,
                } => {
                    if !whole_passes && origin.elapsed() >= until {
                        break 'passes;
                    }
                    now_ns()
                }
            };
            let req = u64::from(item);
            log.enter("client.request", req);
            let sent_ns = now_ns();
            let outcome = (|| {
                if conn.is_none() {
                    conn = Some(Conn::connect(addr)?);
                }
                let c = conn.as_mut().expect("connected above");
                log.enter("net.client_send", req);
                let sent = c.stream.write_all(&wires[item as usize]);
                log.exit();
                sent?;
                log.time("net.client_wait", req, || c.read_response())
            })();
            let done_ns = now_ns();
            log.exit();
            let status = match outcome {
                Ok((status, body)) => {
                    sink.response(item, status, &body);
                    status
                }
                Err(_) => {
                    conn = None;
                    sink.response(item, TRANSPORT_ERROR, &[]);
                    TRANSPORT_ERROR
                }
            };
            records.push(Record {
                due_ns,
                sent_ns,
                done_ns,
                status,
            });
        }
        match pace {
            Pace::Closed { until, .. } if origin.elapsed() < until => {}
            _ => break,
        }
    }
    records
}

/// The outcome of one phase across its connections.
pub struct PhaseRun<S> {
    /// Per-connection request timelines.
    pub records: Vec<Vec<Record>>,
    /// Per-connection response sinks.
    pub sinks: Vec<S>,
    /// Per-connection span logs.
    pub logs: Vec<SpanLog>,
    /// Wall time from the common origin until the last connection ended.
    pub elapsed: Duration,
}

/// Runs one phase: each connection's `sends` on its own thread, all
/// timed from one origin.
pub fn phase<S: Sink>(
    addr: SocketAddr,
    per_conn: &[Vec<(u32, u64)>],
    wires: &[Vec<u8>],
    pace: Pace,
    sinks: Vec<S>,
    logs: Vec<SpanLog>,
) -> PhaseRun<S> {
    let origin = Instant::now();
    let results: Vec<(Vec<Record>, S, SpanLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .zip(sinks.into_iter().zip(logs))
            .map(|(sends, (mut sink, mut log))| {
                scope.spawn(move || {
                    let records = drive(addr, origin, sends, wires, pace, &mut sink, &mut log);
                    (records, sink, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread panicked"))
            .collect()
    });
    let elapsed = origin.elapsed();
    let mut run = PhaseRun {
        records: Vec::new(),
        sinks: Vec::new(),
        logs: Vec::new(),
        elapsed,
    };
    for (r, s, l) in results {
        run.records.push(r);
        run.sinks.push(s);
        run.logs.push(l);
    }
    run
}

/// Failure and generator accounting of one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Requests sent.
    pub attempted: u64,
    /// 2xx responses.
    pub ok: u64,
    /// 429 (shed) responses.
    pub shed: u64,
    /// Other non-2xx responses.
    pub other: u64,
    /// Transport failures.
    pub transport: u64,
    /// Latency per request, ns (open loop: from its due time); failed
    /// and shed requests count as beyond every percentile.
    pub latency_ns: Vec<u64>,
    /// Open loop: p90 of how late the generator sent, ns.
    pub lateness_p90_ns: u64,
    /// Open loop: requests completed by the last due time.
    pub completed_by_last_due: u64,
    /// Open loop: the backlog grew over the phase (latency invalid).
    pub backlog_grew: bool,
    /// Whether the phase was an open loop.
    pub open: bool,
}

impl PhaseStats {
    /// Requests that did not get a 2xx.
    pub fn failed(&self) -> u64 {
        self.shed + self.other + self.transport
    }

    /// Digests one phase's records.
    pub fn of(records: &[Vec<Record>], open: bool) -> PhaseStats {
        let all: Vec<&Record> = records.iter().flatten().collect();
        let mut s = PhaseStats {
            attempted: all.len() as u64,
            open,
            ..PhaseStats::default()
        };
        for r in &all {
            match r.status {
                200..=299 => s.ok += 1,
                429 => s.shed += 1,
                TRANSPORT_ERROR => s.transport += 1,
                _ => s.other += 1,
            }
            s.latency_ns.push(if (200..300).contains(&r.status) {
                r.done_ns - r.due_ns
            } else {
                u64::MAX
            });
        }
        if open {
            let due: Vec<u64> = all.iter().map(|r| r.due_ns).collect();
            let sent: Vec<u64> = all.iter().map(|r| r.sent_ns).collect();
            let done: Vec<u64> = all.iter().map(|r| r.done_ns).collect();
            let mut late = plan::lateness_ns(&due, &sent);
            s.lateness_p90_ns = traj_sim::percentile_us(&mut late, 90.0);
            let last_due = due.iter().copied().max().unwrap_or(0);
            s.completed_by_last_due = done.iter().filter(|&&d| d <= last_due).count() as u64;
            s.backlog_grew = plan::backlog_grows(&plan::backlog_at_dues(&due, &done), 4.0);
        }
        s
    }

    /// Latency percentile in ms (nearest rank).
    pub fn latency_ms(&self, p: f64) -> f64 {
        let mut v = self.latency_ns.clone();
        traj_sim::percentile_us(&mut v, p) as f64 / 1e6
    }

    /// The accounting line printed for every phase.
    pub fn describe(&self, name: &str) -> String {
        let mut line = format!(
            "{name}: attempted {} 2xx {} shed(429) {} other-non-2xx {} transport {}",
            self.attempted, self.ok, self.shed, self.other, self.transport
        );
        if self.open {
            line.push_str(&format!(
                " | offered {} completed-by-last-due {} lateness-p90 {:.1}us backlog {}",
                self.attempted,
                self.completed_by_last_due,
                self.lateness_p90_ns as f64 / 1e3,
                if self.backlog_grew {
                    "GROWING (invalid)"
                } else {
                    "flat"
                }
            ));
        }
        line
    }
}
