//! End-to-end leader/follower replication over localhost TCP.

#![allow(clippy::unwrap_used)]

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rql_pagestore::{FileStorage, LogStorage, PageId};
use rql_repl::{
    FollowerConfig, Frame, LeaderConfig, ReplFollower, ReplLeader, ReplMetrics, PROTO_VERSION,
};
use rql_retro::{RetroConfig, RetroStore};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let pid = std::process::id();
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let path = std::env::temp_dir().join(format!("rql-repl-{tag}-{pid}-{n}"));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config() -> RetroConfig {
    let mut cfg = RetroConfig::new();
    cfg.pager.page_size = 256;
    cfg
}

fn open_leader(dir: &std::path::Path) -> Arc<RetroStore> {
    let mk = |name: &str| -> Arc<FileStorage> {
        let path = dir.join(name);
        Arc::new(if path.exists() {
            FileStorage::open(&path).unwrap()
        } else {
            FileStorage::create(&path).unwrap()
        })
    };
    RetroStore::open(config(), mk("wal.log"), mk("pagelog.log"), mk("maplog.log")).unwrap()
}

fn write_page(store: &Arc<RetroStore>, pid: u64, tag: u32) {
    let mut txn = store.begin().unwrap();
    while txn.page_count() <= pid {
        txn.allocate_page();
    }
    txn.page_mut(PageId(pid)).unwrap().write_u32(0, tag);
    store.commit(txn).unwrap();
}

fn declare(store: &Arc<RetroStore>) -> u64 {
    let txn = store.begin().unwrap();
    store.commit_with_snapshot(txn).unwrap()
}

fn read_tag(store: &Arc<RetroStore>, sid: u64, pid: u64) -> u32 {
    store
        .open_snapshot(sid)
        .unwrap()
        .page(PageId(pid))
        .unwrap()
        .read_u32(0)
}

fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn seed_stream_and_resume_across_reconnect() {
    let leader_dir = TempDir::new("leader");
    let follower_dir = TempDir::new("follower");

    let store = open_leader(&leader_dir.0);
    write_page(&store, 0, 1);
    write_page(&store, 1, 11);
    let s1 = declare(&store);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let leader_metrics = Arc::new(ReplMetrics::new());
    let mut leader = ReplLeader::start(
        Arc::clone(&store),
        listener,
        Arc::clone(&leader_metrics),
        LeaderConfig::default(),
    )
    .unwrap();
    let addr = leader.addr().to_string();

    // Phase 1: bootstrap by seeding (s1 predates the follower).
    let follower_metrics = Arc::new(ReplMetrics::new());
    let fcfg = {
        let mut c = FollowerConfig::new(addr.clone(), follower_dir.0.clone());
        c.retro = config();
        c
    };
    let mut follower = ReplFollower::start(fcfg.clone(), Arc::clone(&follower_metrics));
    let fstore = follower
        .wait_for_store(Duration::from_secs(10))
        .expect("follower store after seed");
    assert_eq!(fstore.snapshot_count(), 1);
    assert_eq!(read_tag(&fstore, s1, 0), 1);
    assert_eq!(read_tag(&fstore, s1, 1), 11);
    assert_eq!(follower_metrics.seed_bytes.get(), {
        let logs = store.repl_logs().unwrap();
        logs.wal.len() + logs.pagelog.len() + logs.maplog.len()
    });

    // Phase 2: live streaming of new commits.
    write_page(&store, 0, 2);
    let s2 = declare(&store);
    assert!(wait_until(Duration::from_secs(10), || fstore
        .snapshot_count()
        == 2));
    assert_eq!(read_tag(&fstore, s2, 0), 2);
    assert_eq!(read_tag(&fstore, s2, 1), 11);
    assert!(wait_until(Duration::from_secs(10), || fstore.wal_len()
        == store.wal_len()));

    // Phase 3: follower restarts and resumes from its durable offset —
    // no reseed (seeds_served stays at 1).
    follower.shutdown();
    drop(follower);
    write_page(&store, 1, 22);
    let s3 = declare(&store);
    let follower = ReplFollower::start(fcfg, Arc::clone(&follower_metrics));
    let fstore = follower
        .wait_for_store(Duration::from_secs(10))
        .expect("follower store after restart");
    assert!(wait_until(Duration::from_secs(10), || fstore
        .snapshot_count()
        == 3));
    assert_eq!(read_tag(&fstore, s3, 1), 22);
    assert_eq!(read_tag(&fstore, s1, 1), 11);
    assert_eq!(leader_metrics.seeds_served.get(), 1);

    // Both sides converge to identical WAL bytes.
    assert!(wait_until(Duration::from_secs(10), || fstore.wal_len()
        == store.wal_len()));
    let read_all = |s: &dyn LogStorage| {
        let mut buf = vec![0u8; s.len() as usize];
        s.read_at(0, &mut buf).unwrap();
        buf
    };
    store.flush().unwrap();
    fstore.flush().unwrap();
    let l = store.repl_logs().unwrap();
    let f = fstore.repl_logs().unwrap();
    assert_eq!(read_all(l.wal.as_ref()), read_all(f.wal.as_ref()));
    assert_eq!(read_all(l.pagelog.as_ref()), read_all(f.pagelog.as_ref()));
    assert_eq!(read_all(l.maplog.as_ref()), read_all(f.maplog.as_ref()));

    // Leader lag gauges settle to zero once the follower is caught up
    // and acking heartbeats.
    assert!(wait_until(Duration::from_secs(10), || {
        leader_metrics.lag_bytes.get() == 0
    }));
    assert_eq!(leader_metrics.followers.get(), 1);
    leader.shutdown();
}

#[test]
fn interrupted_seed_is_wiped_and_retried() {
    let leader_dir = TempDir::new("leader2");
    let follower_dir = TempDir::new("follower2");

    let store = open_leader(&leader_dir.0);
    write_page(&store, 0, 7);
    let s1 = declare(&store);

    // Simulate a crash mid-seed: partial log files, no marker.
    std::fs::write(follower_dir.0.join("wal.log"), b"partial garbage").unwrap();
    std::fs::write(follower_dir.0.join("pagelog.log"), b"more garbage").unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut leader = ReplLeader::start(
        Arc::clone(&store),
        listener,
        Arc::new(ReplMetrics::new()),
        LeaderConfig::default(),
    )
    .unwrap();

    let mut cfg = FollowerConfig::new(leader.addr().to_string(), follower_dir.0.clone());
    cfg.retro = config();
    let follower = ReplFollower::start(cfg, Arc::new(ReplMetrics::new()));
    let fstore = follower
        .wait_for_store(Duration::from_secs(10))
        .expect("reseed over partial files");
    assert_eq!(read_tag(&fstore, s1, 0), 7);
    leader.shutdown();
}

#[test]
fn follower_reconnects_with_backoff_when_leader_restarts() {
    let leader_dir = TempDir::new("leader3");
    let follower_dir = TempDir::new("follower3");

    let store = open_leader(&leader_dir.0);
    write_page(&store, 0, 1);
    let _s1 = declare(&store);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let metrics = Arc::new(ReplMetrics::new());
    let mut leader = ReplLeader::start(
        Arc::clone(&store),
        listener,
        Arc::new(ReplMetrics::new()),
        LeaderConfig::default(),
    )
    .unwrap();

    let mut cfg = FollowerConfig::new(addr.to_string(), follower_dir.0.clone());
    cfg.retro = config();
    cfg.backoff_min = Duration::from_millis(20);
    let follower = ReplFollower::start(cfg, Arc::clone(&metrics));
    let fstore = follower.wait_for_store(Duration::from_secs(10)).unwrap();
    assert_eq!(fstore.snapshot_count(), 1);

    // Kill the leader; the follower must start reconnecting.
    leader.shutdown();
    drop(leader);
    assert!(wait_until(Duration::from_secs(10), || {
        metrics.reconnects.get() > 0
    }));

    // Bring the leader back on the same port and commit more work: the
    // follower catches up without a reseed.
    let listener = loop {
        match TcpListener::bind(addr) {
            Ok(l) => break l,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    write_page(&store, 0, 2);
    let s2 = declare(&store);
    let mut leader = ReplLeader::start(
        Arc::clone(&store),
        listener,
        Arc::new(ReplMetrics::new()),
        LeaderConfig::default(),
    )
    .unwrap();
    assert!(wait_until(Duration::from_secs(10), || fstore
        .snapshot_count()
        == 2));
    assert_eq!(read_tag(&fstore, s2, 0), 2);
    leader.shutdown();
}

#[test]
fn a_hello_in_another_protocol_version_is_refused() {
    let leader_dir = TempDir::new("leader4");
    let store = open_leader(&leader_dir.0);
    write_page(&store, 0, 1);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let metrics = Arc::new(ReplMetrics::new());
    let mut leader = ReplLeader::start(
        Arc::clone(&store),
        listener,
        Arc::clone(&metrics),
        LeaderConfig::default(),
    )
    .unwrap();

    // A well-formed HELLO from a proto-1 follower asking for a seed: the
    // leader must hang up without shipping a byte of one.
    let mut stream = std::net::TcpStream::connect(leader.addr()).unwrap();
    rql_repl::write_frame(
        &mut stream,
        &Frame::Hello {
            proto: PROTO_VERSION - 1,
            wal_len: 0,
            page_size: config().pager.page_size as u32,
            format: 0,
        },
    )
    .unwrap();
    assert!(matches!(
        rql_repl::read_frame(&mut stream),
        Err(rql_repl::ReplError::Io(_))
    ));
    assert_eq!(metrics.seeds_served.get(), 0);
    assert_eq!(metrics.bytes_shipped.get(), 0);
    leader.shutdown();
}
