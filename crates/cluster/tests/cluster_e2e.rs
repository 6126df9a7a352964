//! End-to-end cluster tests: a real router over real in-process
//! `traj-serve` shards (plus one HTTP-backend leg over actual sockets).
//!
//! Covers routing (round-robin `/predict`, ring-owned `/ingest`),
//! failover and health checks, the full canary rollout lifecycle, the
//! 3→4 reshard handoff-parity pin (moved sessions restore
//! bit-identically and their streams finish with full point counts),
//! and the two-shard replay smoke with a mid-replay promotion — the CI
//! cluster leg.

use std::sync::{Arc, OnceLock};
use std::time::Duration;
use traj_cluster::{ClusterConfig, ClusterRouter, HttpBackend, LocalBackend};
use traj_geolife::{SynthConfig, SynthDataset};
use traj_serve::artifact::{ModelArtifact, TrainSpec, MIN_SEGMENT_POINTS};
use traj_serve::registry::ModelRegistry;
use traj_serve::server::{serve, ServerConfig, ServerHandle};

// ------------------------------------------------------------- fixtures

struct Fixture {
    /// A segment long enough to stream in chunks and still close.
    points: Vec<traj_geo::TrajectoryPoint>,
    /// Three versions of the same model name, distinct seeds.
    v1: ModelArtifact,
    v2: ModelArtifact,
    v3: ModelArtifact,
}

/// Trained once per test binary: model training dominates test time and
/// every test wants the same fixtures.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let segments = SynthDataset::generate(&SynthConfig {
            n_users: 4,
            segments_per_user: (4, 6),
            seed: 211,
            ..SynthConfig::default()
        })
        .segments;
        let train = |version: u32, seed: u64| {
            let spec = TrainSpec {
                kind: traj_ml::ClassifierKind::DecisionTree,
                version,
                seed,
                ..TrainSpec::paper_default("tree")
            };
            ModelArtifact::train(&spec, &segments).expect("train")
        };
        let points = segments
            .iter()
            .find(|s| s.len() >= 2 * MIN_SEGMENT_POINTS)
            .map(|s| s.points.clone())
            .expect("long segment");
        Fixture {
            points,
            v1: train(1, 3),
            v2: train(2, 4),
            v3: train(3, 5),
        }
    })
}

fn start_shard(shard_id: u32) -> Arc<ServerHandle> {
    let mut registry = ModelRegistry::new();
    registry.insert(fixture().v1.clone()).expect("insert");
    let config = ServerConfig {
        workers: 1,
        shard_id: Some(shard_id),
        ..ServerConfig::default()
    };
    Arc::new(serve("127.0.0.1:0", registry, config).expect("bind shard"))
}

/// A router over fresh local shards with the given ids.
fn local_cluster(ids: &[u32], config: ClusterConfig) -> (ClusterRouter, Vec<Arc<ServerHandle>>) {
    let router = ClusterRouter::new(config);
    let mut handles = Vec::new();
    for &id in ids {
        let shard = start_shard(id);
        router
            .add_shard(id, Box::new(LocalBackend::new(Arc::clone(&shard))))
            .expect("add shard");
        handles.push(shard);
    }
    (router, handles)
}

fn points_json(points: &[traj_geo::TrajectoryPoint]) -> String {
    let dtos: Vec<String> = points
        .iter()
        .map(|p| format!("{{\"lat\":{},\"lon\":{},\"t\":{}}}", p.lat, p.lon, p.t.0))
        .collect();
    format!("[{}]", dtos.join(","))
}

fn ingest_body(user: u32, points: &[traj_geo::TrajectoryPoint], flush: bool) -> String {
    let flush = if flush { ",\"flush\":true" } else { "" };
    format!(
        "{{\"user\":{user},\"points\":{}{flush}}}",
        points_json(points)
    )
}

fn label_of(body: &str) -> &str {
    let start = body.find("\"label\":\"").expect("label field") + 9;
    let end = body[start..].find('"').expect("label close") + start;
    &body[start..end]
}

/// Whether an `/admin/sessions` body lists `user` (exact id match, not
/// a substring hit).
fn listed(sessions_body: &str, user: u32) -> bool {
    let start = sessions_body.find('[').expect("users list") + 1;
    let end = sessions_body[start..].find(']').expect("list close") + start;
    sessions_body[start..end]
        .split(',')
        .any(|id| id.trim() == user.to_string())
}

// -------------------------------------------------------------- routing

#[test]
fn predict_round_robins_and_ingest_follows_the_ring() {
    let (router, shards) = local_cluster(&[0, 1], ClusterConfig::default());
    let body = format!("{{\"points\":{}}}", points_json(&fixture().points));

    for _ in 0..4 {
        let (status, response) = router.handle("POST", "/predict", body.as_bytes());
        assert_eq!(status, 200, "{response}");
        assert!(response.contains("\"label\""), "{response}");
    }
    // Round-robin: with two healthy shards, both served /predict.
    for shard in &shards {
        let (status, metrics) = shard.dispatch("GET", "/metrics", b"");
        assert_eq!(status, 200);
        assert!(!metrics.contains("\"predict_requests\": 0,"), "{metrics}");
    }

    // /ingest lands on the ring owner, and only there.
    let half = &fixture().points[..fixture().points.len() / 2];
    for user in 0..12u32 {
        let (status, response) =
            router.handle("POST", "/ingest", ingest_body(user, half, false).as_bytes());
        assert_eq!(status, 200, "user {user}: {response}");
    }
    for (shard, handle) in [(0u32, &shards[0]), (1, &shards[1])] {
        let (_, sessions) = handle.dispatch("GET", "/admin/sessions", b"");
        for user in 0..12u32 {
            let owner = router.owner_of(user).unwrap();
            assert_eq!(
                sessions.contains(&format!("{user}")) && owned_by(&sessions, user),
                owner == shard,
                "user {user} (owner {owner}) vs shard {shard}: {sessions}"
            );
        }
    }

    // Aggregated metrics: router counters plus both shard documents
    // with their shard labels intact.
    let (status, metrics) = router.handle("GET", "/metrics", b"");
    assert_eq!(status, 200);
    assert!(metrics.contains("\"router\""), "{metrics}");
    assert!(metrics.contains("\"forwarded_ingest\": 12"), "{metrics}");
    assert!(metrics.contains("\"shard\": {\"id\": 0"), "{metrics}");
    assert!(metrics.contains("\"shard\": {\"id\": 1"), "{metrics}");
    assert!(metrics.contains("\"tree\": 1"), "{metrics}");

    // Health fan-in: both shards live and ready.
    let (status, health) = router.handle("GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert!(health.contains("\"ready_shards\": 2"), "{health}");
    let (status, _) = router.handle("GET", "/readyz", b"");
    assert_eq!(status, 200);
}

/// Whether `sessions` (a `{"users": [...]}` document) lists `user` as an
/// exact element, not a substring of a longer id.
fn owned_by(sessions: &str, user: u32) -> bool {
    let inner = sessions
        .trim_start_matches("{\"users\": [")
        .trim_end_matches("]}");
    inner
        .split(',')
        .filter(|s| !s.is_empty())
        .any(|s| s.trim() == user.to_string())
}

#[test]
fn stateless_traffic_fails_over_dead_shards() {
    // A dead address: bind an ephemeral port, then drop the listener.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let config = ClusterConfig {
        retries: 2,
        backoff: Duration::from_millis(1),
        ..ClusterConfig::default()
    };
    let router = ClusterRouter::new(config);
    // Live shard joins first: a reshard consults every existing member,
    // so a dead shard can join an empty cluster but nothing can join
    // after it (the dead member can't be asked what it holds).
    let live = start_shard(1);
    router
        .add_shard(1, Box::new(LocalBackend::new(Arc::clone(&live))))
        .expect("live shard");
    router
        .add_shard(
            0,
            Box::new(HttpBackend::new(dead, Duration::from_millis(300))),
        )
        .expect("dead shard joins (live member holds no sessions)");

    // Every /predict succeeds: the dead shard is skipped after its
    // first transport failure marks it unhealthy.
    let body = format!("{{\"points\":{}}}", points_json(&fixture().points));
    for _ in 0..4 {
        let (status, response) = router.handle("POST", "/predict", body.as_bytes());
        assert_eq!(status, 200, "{response}");
    }
    let (_, metrics) = router.handle("GET", "/metrics", b"");
    assert!(!metrics.contains("\"failovers\": 0,"), "{metrics}");

    // The health checker keeps the verdict fresh: dead stays out, the
    // cluster stays ready on the surviving shard.
    let mut checker = router.start_health_checks();
    std::thread::sleep(Duration::from_millis(100));
    let (status, ready) = router.handle("GET", "/readyz", b"");
    assert_eq!(status, 200, "{ready}");
    assert!(ready.contains("\"healthy_shards\": 1"), "{ready}");
    checker.stop();
}

// -------------------------------------------------------------- rollout

#[test]
fn canary_rollout_promotes_and_rolls_back_across_shards() {
    let config = ClusterConfig {
        mirror_every: 1, // every /predict mirrors while a canary is up
        ..ClusterConfig::default()
    };
    let (router, shards) = local_cluster(&[0, 1], config);
    let fx = fixture();
    let body = format!("{{\"points\":{}}}", points_json(&fx.points));

    // Stage v2 everywhere: default traffic stays on v1.
    let artifact_json = fx.v2.to_json().expect("serialize artifact");
    let (status, response) =
        router.handle("POST", "/admin/rollout/stage", artifact_json.as_bytes());
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("tree@v2"), "{response}");
    // One canary at a time.
    let (status, _) = router.handle("POST", "/admin/rollout/stage", artifact_json.as_bytes());
    assert_eq!(status, 409);
    for shard in &shards {
        let (_, metrics) = shard.dispatch("GET", "/metrics", b"");
        assert!(metrics.contains("\"tree\": 1"), "default moved: {metrics}");
    }

    // Mirrored traffic flows to the pinned version and is scored.
    for _ in 0..3 {
        let (status, response) = router.handle("POST", "/predict", body.as_bytes());
        assert_eq!(status, 200, "{response}");
    }
    let (_, rollout) = router.handle("GET", "/admin/rollout/status", b"");
    assert!(rollout.contains("\"canary\": \"tree@v2\""), "{rollout}");
    assert!(!rollout.contains("\"mirrored\": 0,"), "{rollout}");

    // Promote: every shard's default flips to v2, canary cleared.
    let (status, response) = router.handle("POST", "/admin/rollout/promote", b"");
    assert_eq!(status, 200, "{response}");
    for shard in &shards {
        let (_, metrics) = shard.dispatch("GET", "/metrics", b"");
        assert!(metrics.contains("\"tree\": 2"), "promote missed: {metrics}");
    }
    let (_, rollout) = router.handle("GET", "/admin/rollout/status", b"");
    assert!(rollout.contains("\"canary\": null"), "{rollout}");

    // Rollback of a staged v3 drops the pin and leaves v2 serving.
    let v3_json = fx.v3.to_json().expect("serialize artifact");
    let (status, _) = router.handle("POST", "/admin/rollout/stage", v3_json.as_bytes());
    assert_eq!(status, 200);
    let (status, response) = router.handle("POST", "/admin/rollout/rollback", b"");
    assert_eq!(status, 200, "{response}");
    for shard in &shards {
        let pinned = format!(
            "{{\"model\":\"tree@v3\",\"points\":{}}}",
            points_json(&fx.points)
        );
        let (status, _) = shard.dispatch("POST", "/predict", pinned.as_bytes());
        assert_eq!(status, 404, "v3 pin should be gone");
        let (_, metrics) = shard.dispatch("GET", "/metrics", b"");
        assert!(metrics.contains("\"tree\": 2"), "{metrics}");
    }
    // Nothing staged: promote and rollback both refuse.
    let (status, _) = router.handle("POST", "/admin/rollout/promote", b"");
    assert_eq!(status, 409);
    let (status, _) = router.handle("POST", "/admin/rollout/rollback", b"");
    assert_eq!(status, 409);
}

// -------------------------------------------------- reshard and handoff

/// The acceptance pin: growing the cluster 3→4 mid-stream moves exactly
/// the sessions the new ring reassigns, restores them bit-identically
/// (pinned by export/re-export byte equality through the admin API),
/// and every moved stream finishes with its full point count.
#[test]
fn reshard_3_to_4_restores_moved_sessions_bit_identically() {
    let config = ClusterConfig::default();
    let (router, shards) = local_cluster(&[0, 1, 2], config);
    let fx = fixture();
    let half = fx.points.len() / 2;

    // Open a mid-stream session per user through the router.
    let users: Vec<u32> = (0..30).collect();
    for &user in &users {
        let (status, response) = router.handle(
            "POST",
            "/ingest",
            ingest_body(user, &fx.points[..half], false).as_bytes(),
        );
        assert_eq!(status, 200, "user {user}: {response}");
    }

    // Which sessions must move when shard 3 joins, per the same ring
    // the router uses.
    let ring_now = traj_cluster::HashRing::new(&[0, 1, 2], router_vnodes());
    let ring_next = ring_now.with_shard(3);
    let movers: Vec<u32> = users
        .iter()
        .copied()
        .filter(|&u| ring_next.shard_of(u) == Some(3))
        .collect();
    assert!(
        !movers.is_empty(),
        "no sessions would move — fixture too small"
    );

    // Reference bytes: export each mover from its current owner
    // (export is a pure copy — the owner keeps serving the session).
    let shard_of = |id: u32| -> &Arc<ServerHandle> {
        match id {
            0 => &shards[0],
            1 => &shards[1],
            _ => &shards[2],
        }
    };
    let mut reference = Vec::new();
    for &user in &movers {
        let owner = ring_now.shard_of(user).unwrap();
        let (status, exported) = shard_of(owner).dispatch(
            "POST",
            "/admin/handoff/export",
            format!("{{\"users\": [{user}]}}").as_bytes(),
        );
        assert_eq!(status, 200, "{exported}");
        reference.push((user, exported));
    }

    // Grow the cluster: shard 3 joins, the router moves the sessions.
    let joining = start_shard(3);
    let moved = router
        .add_shard(3, Box::new(LocalBackend::new(Arc::clone(&joining))))
        .expect("reshard");
    assert_eq!(moved, movers.len(), "moved a different session set");

    // Byte parity: re-exporting each moved session from its new owner
    // yields exactly the bytes the old owner exported.
    for (user, expected) in &reference {
        let (status, re_exported) = joining.dispatch(
            "POST",
            "/admin/handoff/export",
            format!("{{\"users\": [{user}]}}").as_bytes(),
        );
        assert_eq!(status, 200, "{re_exported}");
        assert_eq!(
            &re_exported, expected,
            "user {user}: session bytes changed across the handoff"
        );
        // And the old owner really evicted its copy — no stale
        // duplicate left behind for a replay to resurrect.
        let owner = ring_now.shard_of(*user).unwrap();
        let (_, remaining) = shard_of(owner).dispatch("GET", "/admin/sessions", b"");
        assert!(
            !listed(&remaining, *user),
            "user {user} still on old owner {owner}: {remaining}"
        );
    }

    // Every stream — moved or not — finishes through the router with
    // its full point count: nothing was dropped or truncated.
    let reference_label = {
        let solo = start_shard(99);
        let (status, response) = solo.dispatch(
            "POST",
            "/ingest",
            ingest_body(7, &fx.points, true).as_bytes(),
        );
        assert_eq!(status, 200, "{response}");
        label_of(&response).to_owned()
    };
    for &user in &users {
        let (status, response) = router.handle(
            "POST",
            "/ingest",
            ingest_body(user, &fx.points[half..], true).as_bytes(),
        );
        assert_eq!(status, 200, "user {user}: {response}");
        assert_eq!(
            response.matches("\"reason\":").count(),
            1,
            "user {user}: expected exactly one close: {response}"
        );
        assert!(response.contains("\"reason\":\"flush\""), "{response}");
        assert!(
            response.contains(&format!("\"n_points\":{}", fx.points.len())),
            "user {user} lost points across the reshard: {response}"
        );
        assert_eq!(label_of(&response), reference_label, "user {user}");
    }

    // And the router accounted for the move (every membership change
    // counts as a reshard: 3 initial joins + the grow).
    let (_, metrics) = router.handle("GET", "/metrics", b"");
    assert!(metrics.contains("\"reshards\": 4"), "{metrics}");
    assert!(
        metrics.contains(&format!("\"handoff_sessions_moved\": {}", movers.len())),
        "{metrics}"
    );
}

fn router_vnodes() -> usize {
    ClusterConfig::default().vnodes
}

/// A shard whose handoff import always fails: the reshard must abort
/// WITHOUT losing a single session — every stream stays on its old
/// owner and finishes with its full point count (the review-pinned
/// failure mode was destructive export dropping state on a failed
/// import).
#[test]
fn failed_import_aborts_reshard_losslessly() {
    struct ImportRefused(LocalBackend);
    impl traj_cluster::ShardBackend for ImportRefused {
        fn request(&self, method: &str, path: &str, body: &[u8]) -> Result<(u16, String), String> {
            if path == "/admin/handoff/import" {
                return Err("injected transport failure".to_owned());
            }
            self.0.request(method, path, body)
        }
    }

    let (router, _shards) = local_cluster(&[0, 1], ClusterConfig::default());
    let fx = fixture();
    let half = fx.points.len() / 2;
    let users: Vec<u32> = (0..20).collect();
    for &user in &users {
        let (status, response) = router.handle(
            "POST",
            "/ingest",
            ingest_body(user, &fx.points[..half], false).as_bytes(),
        );
        assert_eq!(status, 200, "user {user}: {response}");
    }

    let broken = start_shard(3);
    let result = router.add_shard(
        3,
        Box::new(ImportRefused(LocalBackend::new(Arc::clone(&broken)))),
    );
    assert!(result.is_err(), "reshard must fail");
    assert_eq!(
        router.shard_ids(),
        vec![0, 1],
        "ring must not admit the shard"
    );

    // Nothing imported on the refused shard, and every stream finishes
    // on its old owner with the full point count.
    let (status, body) = broken.dispatch("GET", "/admin/sessions", b"");
    assert_eq!(status, 200);
    assert!(body.contains("\"users\": []"), "{body}");
    for &user in &users {
        let (status, response) = router.handle(
            "POST",
            "/ingest",
            ingest_body(user, &fx.points[half..], true).as_bytes(),
        );
        assert_eq!(status, 200, "user {user}: {response}");
        assert!(
            response.contains(&format!("\"n_points\":{}", fx.points.len())),
            "user {user} lost state across the aborted reshard: {response}"
        );
    }
}

// ------------------------------------------------------- HTTP front door

#[test]
fn http_front_door_over_http_backends() {
    use std::io::BufReader;
    use std::net::TcpStream;
    use traj_net::client::request as client_request;

    // Two real shards over sockets, fronted by the router's own HTTP
    // server — the all-HTTP deployment shape.
    let shard_a = start_shard(10);
    let shard_b = start_shard(11);
    let router = ClusterRouter::new(ClusterConfig::default());
    for (id, shard) in [(10u32, &shard_a), (11, &shard_b)] {
        router
            .add_shard(
                id,
                Box::new(HttpBackend::new(shard.addr(), Duration::from_secs(5))),
            )
            .expect("add shard");
    }
    let mut front = router.serve_http("127.0.0.1:0").expect("bind router");

    let mut client = BufReader::new(TcpStream::connect(front.addr()).expect("connect"));
    let body = format!("{{\"points\":{}}}", points_json(&fixture().points));
    let (status, response) = client_request(&mut client, "POST", "/predict", Some(&body)).unwrap();
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"label\""), "{response}");

    let ingest = ingest_body(3, &fixture().points, true);
    let (status, response) = client_request(&mut client, "POST", "/ingest", Some(&ingest)).unwrap();
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"reason\":\"flush\""), "{response}");

    let (status, metrics) = client_request(&mut client, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("\"shard\": {\"id\": 10"), "{metrics}");
    assert!(metrics.contains("\"shard\": {\"id\": 11"), "{metrics}");

    let (status, _) = client_request(&mut client, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);

    front.stop();
}

// ------------------------------------------------------------ CI smoke

/// The CI cluster smoke: a 2-shard cluster replays per-user streams
/// through the router while a canary is staged and promoted mid-replay.
/// Zero non-2xx, zero dropped sessions.
#[test]
fn smoke_replay_with_mid_replay_promotion() {
    let config = ClusterConfig {
        mirror_every: 1,
        ..ClusterConfig::default()
    };
    let (router, shards) = local_cluster(&[0, 1], config);
    let fx = fixture();
    let users: Vec<u32> = (0..8).collect();
    let third = fx.points.len() / 3;

    let mut non_2xx = 0u32;
    let mut closes = 0u32;
    let mut send = |user: u32, points: &[traj_geo::TrajectoryPoint], flush: bool| {
        let (status, response) = router.handle(
            "POST",
            "/ingest",
            ingest_body(user, points, flush).as_bytes(),
        );
        if !(200..300).contains(&status) {
            non_2xx += 1;
        }
        closes += response.matches("\"reason\":\"flush\"").count() as u32;
    };

    // First leg of every stream on v1.
    for &user in &users {
        send(user, &fx.points[..third], false);
    }

    // Mid-replay rollout: stage v2, mirror some /predict traffic, then
    // promote — all while sessions are open.
    let v2_json = fx.v2.to_json().expect("serialize artifact");
    let (status, response) = router.handle("POST", "/admin/rollout/stage", v2_json.as_bytes());
    assert_eq!(status, 200, "{response}");
    for &user in &users {
        send(user, &fx.points[third..2 * third], false);
    }
    let predict = format!("{{\"points\":{}}}", points_json(&fx.points));
    for _ in 0..2 {
        let (status, _) = router.handle("POST", "/predict", predict.as_bytes());
        assert_eq!(status, 200);
    }
    let (status, response) = router.handle("POST", "/admin/rollout/promote", b"");
    assert_eq!(status, 200, "{response}");

    // Final leg + flush on the promoted version.
    for &user in &users {
        send(user, &fx.points[2 * third..], true);
    }

    assert_eq!(non_2xx, 0, "non-2xx responses during replay");
    assert_eq!(
        closes,
        users.len() as u32,
        "dropped sessions: expected one flush close per user"
    );
    for shard in &shards {
        let (_, metrics) = shard.dispatch("GET", "/metrics", b"");
        assert!(metrics.contains("\"tree\": 2"), "{metrics}");
    }
    // No sessions left behind on either shard.
    for shard in &shards {
        let (_, sessions) = shard.dispatch("GET", "/admin/sessions", b"");
        assert_eq!(sessions, "{\"users\": []}", "{sessions}");
    }
}
