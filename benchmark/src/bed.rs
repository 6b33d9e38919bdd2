//! The test bed: a file-backed, fsyncing store loaded from seeded inputs
//! and aged into a snapshot history, plus the process-level probes
//! (resident set, CPU time, bytes on disk).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rql::{Database, RqlSession};
use rql_pagestore::{FileStorage, LogStorage, PagerConfig};
use rql_retro::{PagelogFormat, RetroConfig, RetroStore};

use crate::gen::{self, Inputs, Refresh};
use crate::plan::Scale;
use crate::Res;

/// The three log files of a store, in the names `rqld` uses for a data
/// directory, so an embedded bed can be handed to `rqld::serve`.
pub const LOG_FILES: [&str; 3] = ["wal.log", "pagelog.log", "maplog.log"];

/// The fixed store configuration (identical on both sides of any
/// comparison): 4-KiB pages, a cache smaller than the heap, fsync at
/// every commit, raw Pagelog, Skippy on.
pub fn retro_config(scale: &Scale) -> RetroConfig {
    RetroConfig {
        pager: PagerConfig {
            page_size: 4096,
            cache_capacity: scale.cache_pages,
            wal_sync_on_commit: true,
        },
        pagelog_format: PagelogFormat::Raw,
        ..RetroConfig::new()
    }
}

/// Open (or create) the store whose logs live in `dir`.
pub fn open_store(dir: &Path, scale: &Scale) -> Res<Arc<RetroStore>> {
    std::fs::create_dir_all(dir)?;
    let mut logs: Vec<Arc<dyn LogStorage>> = Vec::new();
    for name in LOG_FILES {
        let path = dir.join(name);
        logs.push(Arc::new(if path.exists() {
            FileStorage::open(&path)?
        } else {
            FileStorage::create(&path)?
        }));
    }
    let maplog = logs.pop().expect("three logs");
    let pagelog = logs.pop().expect("three logs");
    let wal = logs.pop().expect("three logs");
    Ok(RetroStore::open(retro_config(scale), wal, pagelog, maplog)?)
}

/// A session over `store` with a fresh in-memory auxiliary database.
pub fn session_over(store: &Arc<RetroStore>) -> Res<Arc<RqlSession>> {
    let snap = Database::over_store(Arc::clone(store));
    let aux = Database::in_memory(RetroConfig::new());
    Ok(RqlSession::over_databases(snap, aux)?)
}

/// WAL + Pagelog + Maplog bytes on disk.
pub fn disk_bytes(dir: &Path) -> u64 {
    LOG_FILES
        .iter()
        .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
        .map(|m| m.len())
        .sum()
}

/// What set-up measured while it built the bed.
#[derive(Default, Clone)]
pub struct SetupLog {
    /// Wall seconds of the whole set-up.
    pub total_s: f64,
    pub load_s: f64,
    pub load_rows: u64,
    /// Refresh pair + snapshot declaration, one sample per snapshot.
    pub commit_ms: Vec<f64>,
    /// The declaration alone.
    pub declare_ms: Vec<f64>,
    /// Rows deleted and inserted by the refresh pairs, and their wall.
    pub dml_rows: u64,
    pub dml_s: f64,
    pub cow_captures: u64,
    pub pagelog_bytes: u64,
    pub wal_bytes: u64,
}

/// A loaded, aged store and the session that drives it.
pub struct Bed {
    pub store: Arc<RetroStore>,
    pub session: Arc<RqlSession>,
    pub inputs: Inputs,
    pub refresh: Refresh,
    /// User bytes loaded and refreshed so far (the `space_amp` base).
    pub user_bytes: u64,
    /// Snapshots declared.
    pub snapshots: u64,
    pub log: SetupLog,
}

/// Build a bed under `dir`: load, then declare `history` snapshots with
/// one refresh pair of `per_snapshot` orders before each. With `age`, one
/// more pair then overwrites every order, so each declared snapshot is
/// past its overwrite cycle and reads all its pages from the Pagelog.
pub fn build(
    dir: &Path,
    scale: &Scale,
    seed: u64,
    history: u64,
    per_snapshot: i64,
    age: bool,
) -> Res<Bed> {
    let started = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let store = open_store(dir, scale)?;
    let session = session_over(&store)?;
    let inputs = Inputs::new(scale.sf, seed);
    let mut log = SetupLog::default();

    let t = Instant::now();
    let (rows, mut user_bytes) = gen::load(session.snap_db(), &inputs)?;
    log.load_s = t.elapsed().as_secs_f64();
    log.load_rows = rows;

    let mut refresh = Refresh::new(&inputs);
    let io0 = store.stats().snapshot();
    let (wal0, plog0) = (file_len(dir, 0), file_len(dir, 1));
    for _ in 0..history {
        let t = Instant::now();
        let foot = refresh.apply(session.snap_db(), &inputs, per_snapshot)?;
        let dml = t.elapsed();
        session.declare_snapshot(None)?;
        let both = t.elapsed();
        log.commit_ms.push(both.as_secs_f64() * 1e3);
        log.declare_ms.push((both - dml).as_secs_f64() * 1e3);
        log.dml_rows += foot.rows;
        log.dml_s += dml.as_secs_f64();
        user_bytes += foot.bytes;
    }
    log.cow_captures = store.stats().snapshot().delta(&io0).cow_captures;
    store.flush()?;
    log.wal_bytes = file_len(dir, 0) - wal0;
    log.pagelog_bytes = file_len(dir, 1) - plog0;
    if age {
        let all = inputs.tpch.orders_count();
        user_bytes += refresh.apply(session.snap_db(), &inputs, all)?.bytes;
    }
    store.flush()?;
    log.total_s = started.elapsed().as_secs_f64();
    Ok(Bed {
        store,
        session,
        inputs,
        refresh,
        user_bytes,
        snapshots: history,
        log,
    })
}

fn file_len(dir: &Path, which: usize) -> u64 {
    std::fs::metadata(dir.join(LOG_FILES[which])).map_or(0, |m| m.len())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process (all threads) has used, in milliseconds, at the
/// kernel's tick resolution (10 ms): enough to tell a noisy neighbour
/// from a real change over ops of several hundred milliseconds.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, the 12th and 13th after it.
    let Some(after) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let mut fields = after.split_whitespace().skip(11);
    let ticks: f64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 10.0
}
