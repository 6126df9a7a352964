//! Seeded workload inputs and open-loop schedules.
//!
//! Everything here is a pure function of the seed: the same seed gives
//! byte-identical request plans, and the program under test only ever
//! sees the generated bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use traj_sim::SimRng;
use trajlib::geo::TrajectoryPoint;
use trajlib::geolife::{SynthConfig, SynthDataset};

/// The serving stack's segmentation rules, mirrored so every planned
/// user stream ends in a segment the final `flush` admits.
const MAX_GAP_MS: i64 = 120_000;
const MIN_SEGMENT_POINTS: usize = 10;

/// Points per `/ingest` request (one user's chunk).
pub const INGEST_CHUNK: usize = 32;

/// Cohort the `/predict` request bodies are cut from: natural segment
/// lengths (30–300 points as generated, 10 at the admission floor). One
/// segment from each of many users: segment length is mostly a per-user
/// trait, so many users keep the mean request cost steady across seeds.
pub fn predict_cohort(seed: u64) -> SynthDataset {
    SynthDataset::generate(&SynthConfig {
        n_users: 480,
        segments_per_user: (1, 1),
        seed,
        modes: None,
        heterogeneity: 1.0,
        max_points_per_segment: 300,
    })
}

/// Cohort the served artifact is trained on; its seed stream is
/// disjoint from the request cohort's. A fixed segment count keeps the
/// forest's size, and so the shard's memory, steady across seeds.
pub fn training_cohort(seed: u64) -> SynthDataset {
    SynthDataset::generate(&SynthConfig {
        n_users: 32,
        segments_per_user: (8, 8),
        seed: seed ^ 0x7a11_5eed_0000_0001,
        modes: None,
        heterogeneity: 1.0,
        max_points_per_segment: 300,
    })
}

/// Cohort of the durable-ingest workload: about a thousand users whose
/// open sessions together outgrow the CPU caches.
pub fn ingest_cohort(seed: u64) -> SynthDataset {
    SynthDataset::generate(&SynthConfig {
        n_users: 1000,
        segments_per_user: (1, 2),
        seed: seed ^ 0x1a6e_57ed_0000_0002,
        modes: None,
        heterogeneity: 1.0,
        max_points_per_segment: 300,
    })
}

fn push_points(out: &mut String, points: &[TrajectoryPoint]) {
    out.push('[');
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"lat\":{},\"lon\":{},\"t\":{}}}",
            p.lat, p.lon, p.t.0
        );
    }
    out.push(']');
}

/// A `/predict` body for one segment.
fn predict_body(points: &[TrajectoryPoint]) -> String {
    let mut out = String::with_capacity(points.len() * 64 + 16);
    out.push_str("{\"points\":");
    push_points(&mut out, points);
    out.push('}');
    out
}

/// Every segment the server accepts (≥ 10 points), as `/predict`
/// bodies with the points they were made from.
pub fn predict_bodies(cohort: &SynthDataset) -> Vec<(Vec<TrajectoryPoint>, String)> {
    cohort
        .segments
        .iter()
        .filter(|s| s.points.len() >= MIN_SEGMENT_POINTS)
        .map(|s| (s.points.clone(), predict_body(&s.points)))
        .collect()
}

/// A seeded permutation of `0..n`, the order request bodies are sent in
/// (cycled when a phase needs more requests than there are bodies).
pub fn send_order(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = SimRng::new(seed ^ 0x0de2_0000_0000_0003);
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// One `/ingest` request of the replay plan.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRequest {
    /// Stream owner; pins the request to connection `user % conns`.
    pub user: u32,
    /// The JSON body.
    pub body: String,
    /// The GPS points the body carries.
    pub points: Vec<TrajectoryPoint>,
    /// Whether this is the user's final request (`"flush": true`).
    pub flush: bool,
}

/// The durable-ingest replay: every user's points in global time order,
/// cut into per-user chunks, each user ending with one `flush`.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestPlan {
    /// Requests in global send order.
    pub requests: Vec<IngestRequest>,
    /// Points across all requests.
    pub points: usize,
    /// Distinct users.
    pub users: usize,
}

/// Drops trailing runs shorter than the admission floor (a run starts
/// after an inter-fix gap above the session gap), so the final flush of
/// every stream closes an admitted segment.
fn trim_short_tail(points: &mut Vec<TrajectoryPoint>) {
    loop {
        let mut run = 1usize.min(points.len());
        for w in points.windows(2).rev() {
            if w[1].t.0 - w[0].t.0 > MAX_GAP_MS {
                break;
            }
            run += 1;
        }
        if run >= MIN_SEGMENT_POINTS || points.is_empty() {
            return;
        }
        points.truncate(points.len() - run);
    }
}

/// Builds the replay plan of `cohort`: merges all users' points into one
/// time-ordered stream and cuts it into chunks of at most `chunk` points
/// per user; each user's last request carries `"flush": true`.
pub fn ingest_plan(cohort: &SynthDataset, chunk: usize) -> IngestPlan {
    let mut streams: BTreeMap<u32, Vec<TrajectoryPoint>> = BTreeMap::new();
    for seg in &cohort.segments {
        streams
            .entry(seg.user)
            .or_default()
            .extend_from_slice(&seg.points);
    }
    let mut events: Vec<(i64, u32, TrajectoryPoint)> = Vec::new();
    for (&user, points) in streams.iter_mut() {
        points.sort_by_key(|p| p.t.0);
        points.dedup_by_key(|p| p.t.0);
        trim_short_tail(points);
        events.extend(points.iter().map(|&p| (p.t.0, user, p)));
    }
    events.sort_by_key(|&(t, user, _)| (t, user));

    let body = |user: u32, points: &[TrajectoryPoint], flush: bool| {
        let mut out = String::with_capacity(points.len() * 64 + 48);
        let _ = write!(out, "{{\"user\":{user},\"points\":");
        push_points(&mut out, points);
        if flush {
            out.push_str(",\"flush\":true");
        }
        out.push('}');
        out
    };
    let mut buffers: BTreeMap<u32, Vec<TrajectoryPoint>> = BTreeMap::new();
    let mut requests = Vec::new();
    let mut total = 0usize;
    for (_, user, p) in events {
        let buf = buffers.entry(user).or_default();
        buf.push(p);
        total += 1;
        if buf.len() >= chunk {
            requests.push(IngestRequest {
                user,
                body: body(user, buf, false),
                points: std::mem::take(buf),
                flush: false,
            });
        }
    }
    let users = buffers.len();
    for (user, buf) in buffers {
        requests.push(IngestRequest {
            user,
            body: body(user, &buf, true),
            points: buf,
            flush: true,
        });
    }
    IngestPlan {
        requests,
        points: total,
        users,
    }
}

/// Due offset of the `i`-th request of an open-loop phase at `rate`
/// requests per second, in nanoseconds from the phase start.
pub fn due_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).round() as u64
}

/// How late the generator sent each request: `sent − due`, saturating
/// at 0 (a request is never sent early).
pub fn lateness_ns(due: &[u64], sent: &[u64]) -> Vec<u64> {
    due.iter()
        .zip(sent)
        .map(|(&d, &s)| s.saturating_sub(d))
        .collect()
}

/// Requests offered but not yet completed, sampled at every due time
/// (`due` and `done` in ns from the phase start, any order).
pub fn backlog_at_dues(due: &[u64], done: &[u64]) -> Vec<usize> {
    let mut due = due.to_vec();
    let mut done = done.to_vec();
    due.sort_unstable();
    done.sort_unstable();
    let mut completed = 0usize;
    due.iter()
        .enumerate()
        .map(|(i, &d)| {
            while completed < done.len() && done[completed] <= d {
                completed += 1;
            }
            (i + 1).saturating_sub(completed)
        })
        .collect()
}

/// An open-loop phase is valid only while the backlog stays flat: the
/// mean backlog of its last quarter may exceed the first quarter's by at
/// most `slack` requests. A growing backlog means the offered rate is
/// beyond capacity and the latencies measure the queue, not the system.
pub fn backlog_grows(backlog: &[usize], slack: f64) -> bool {
    let q = backlog.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(&backlog[backlog.len() - q..]) > mean(&backlog[..q]) + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cohort(seed: u64) -> SynthDataset {
        SynthDataset::generate(&SynthConfig {
            n_users: 6,
            segments_per_user: (1, 2),
            seed,
            modes: None,
            heterogeneity: 1.0,
            max_points_per_segment: 120,
        })
    }

    #[test]
    fn same_seed_gives_byte_identical_plans() {
        let a = ingest_plan(&tiny_cohort(5), 16);
        let b = ingest_plan(&tiny_cohort(5), 16);
        assert_eq!(a, b);
        let c = ingest_plan(&tiny_cohort(6), 16);
        assert_ne!(a.requests, c.requests);

        let bodies = |seed| {
            predict_bodies(&tiny_cohort(seed))
                .into_iter()
                .map(|(_, b)| b)
                .collect::<Vec<_>>()
        };
        assert_eq!(bodies(5), bodies(5));
        assert_ne!(bodies(5), bodies(6));
        assert_eq!(send_order(50, 9), send_order(50, 9));
        assert_ne!(send_order(50, 9), send_order(50, 10));
    }

    #[test]
    fn ingest_plan_flushes_each_user_once_and_keeps_every_point() {
        let plan = ingest_plan(&tiny_cohort(3), 16);
        let flushes: Vec<u32> = plan
            .requests
            .iter()
            .filter(|r| r.flush)
            .map(|r| r.user)
            .collect();
        assert_eq!(flushes.len(), plan.users);
        let mut sorted = flushes.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), flushes.len());
        assert_eq!(
            plan.requests.iter().map(|r| r.points.len()).sum::<usize>(),
            plan.points
        );
        assert!(plan.requests.iter().all(|r| r.points.len() <= 16));
        // Each user's flush is that user's last request.
        for (i, r) in plan.requests.iter().enumerate() {
            if r.flush {
                assert!(plan.requests[i + 1..]
                    .iter()
                    .all(|later| later.user != r.user));
            }
        }
    }

    #[test]
    fn short_tails_are_trimmed_to_an_admitted_segment() {
        let at = |s: i64| TrajectoryPoint::new(0.0, 0.0, trajlib::geo::Timestamp(s * 1000));
        // 12 points, a 200 s gap, then 3 stragglers.
        let mut points: Vec<TrajectoryPoint> = (0..12).map(at).collect();
        points.extend((0..3).map(|i| at(300 + i)));
        trim_short_tail(&mut points);
        assert_eq!(points.len(), 12);
        let mut whole: Vec<TrajectoryPoint> = (0..15).map(at).collect();
        trim_short_tail(&mut whole);
        assert_eq!(whole.len(), 15);
    }

    #[test]
    fn due_times_are_evenly_spaced_and_lateness_saturates() {
        assert_eq!(due_ns(0, 1000.0), 0);
        assert_eq!(due_ns(1, 1000.0), 1_000_000);
        assert_eq!(due_ns(250, 500.0), 500_000_000);
        let due = [0, 1_000, 2_000, 3_000];
        let sent = [10, 900, 2_500, 3_000];
        assert_eq!(lateness_ns(&due, &sent), vec![10, 0, 500, 0]);
    }

    #[test]
    fn backlog_counts_outstanding_requests_at_each_due_time() {
        let due = [0, 10, 20, 30];
        // Each request completes 5 ns after it is due: at most one open.
        let done = [5, 15, 25, 35];
        assert_eq!(backlog_at_dues(&due, &done), vec![1, 1, 1, 1]);
        assert!(!backlog_grows(&[1; 40], 2.0));
        // A server slower than the schedule: completions fall behind.
        let slow_done: Vec<u64> = (0..40).map(|i| 20 * i + 5).collect();
        let dues: Vec<u64> = (0..40).map(|i| 10 * i).collect();
        let backlog = backlog_at_dues(&dues, &slow_done);
        assert!(backlog.last() > backlog.first());
        assert!(backlog_grows(&backlog, 2.0));
    }
}
