//! `served_mixed`: the same layers through the `rqld` wire, with writes
//! beside reads. One client thread runs cycles of one commit (a
//! UW7.5-sized transaction of SQL text, then the pushed delta frame)
//! followed by one read batch of five programs; the batch is the op.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rqld::{
    Client, ClientError, Response, ServerConfig, ServerHandle, SubscriptionEvent, WireResult,
};

use crate::bed;
use crate::gen::{Inputs, Refresh};
use crate::json::{self, Json};
use crate::oracle::{as_of, Oracle};
use crate::plan::{self, Call, Fold, Scale};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{best_rate, iqr_frac, median, quietest_median, table_checksum};
use crate::{Res, RunArgs};

const STANDING: &str = "watch";
const TEMPLATES: usize = 5;

fn serve(dir: &Path, scale: &Scale) -> Res<ServerHandle> {
    Ok(rqld::serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            memo: true,
            retro: bed::retro_config(scale),
            data_dir: Some(dir.to_owned()),
            ..ServerConfig::default()
        },
    )?)
}

/// Drain and stop a server, waiting for its threads (and its final flush).
fn stop(handle: ServerHandle, client: &mut Client) -> Res<()> {
    client.shutdown()?;
    handle.wait();
    Ok(())
}

/// The five read programs of the cycle whose newest snapshot is `last`,
/// in the order they are sent. The fifth is the first again, verbatim.
fn templates(scale: &Scale, last: u64, collate_qq: &str) -> Vec<(bool, Call)> {
    let io_first = last + 1 - scale.served_io_window.min(last);
    let tail = last + 1 - scale.served_tail;
    let io = Call::new(Fold::AvgVar, plan::QQ_IO, "T1", io_first, last);
    vec![
        (true, io.clone()),
        (
            false,
            Call::new(Fold::Collate, collate_qq, "T2", tail, last),
        ),
        (
            false,
            Call::new(Fold::AvgVar, plan::QQ_CPU, "T3", tail, last),
        ),
        (
            false,
            Call::new(Fold::AggTableMax, plan::QQ_AGG, "T4", tail, last),
        ),
        (true, io),
    ]
}

/// A flat `METRICS --json` object as name → value.
fn server_metrics(client: &mut Client) -> Res<Json> {
    Ok(json::parse(&client.metrics(true)?)?)
}

fn field(m: &Json, name: &str) -> f64 {
    m.get(name).and_then(Json::as_f64).unwrap_or(0.0)
}

fn file_len(dir: &Path, name: &str) -> f64 {
    std::fs::metadata(dir.join(name)).map_or(0.0, |m| m.len() as f64)
}

/// One cycle's measurements.
#[derive(Default)]
struct Cycle {
    commit_ms: f64,
    push_lag_ms: f64,
    maintain_ms: f64,
    rows_pushed: u64,
    batch_ms: f64,
    cpu_ms: f64,
    tpl_ms: [f64; TEMPLATES],
    overhead_ms: [f64; TEMPLATES],
    iterations: u64,
    result_bytes: u64,
    /// Checksums of the five result tables, checked after the timed phase.
    sums: Vec<u64>,
    calls: Vec<Call>,
    failed: bool,
    rejected: u64,
}

struct Rig<'a> {
    scale: &'a Scale,
    inputs: Inputs,
    refresh: Refresh,
    client: Client,
    sub: Client,
    handle: ServerHandle,
    collate_qq: String,
    last: u64,
    user_bytes: u64,
    /// The largest result seen, for the codec probe.
    largest: Option<WireResult>,
}

impl Rig<'_> {
    /// Drop the subscription, then drain and stop the server.
    fn finish(mut self) -> Res<()> {
        drop(self.sub);
        stop(self.handle, &mut self.client)
    }

    /// Push-latency sum the standing engine has recorded so far (µs).
    fn push_micros(&self) -> f64 {
        self.handle
            .standing()
            .statuses()
            .iter()
            .map(|s| (s.push_count * s.push_mean_micros) as f64)
            .sum()
    }

    fn cycle(&mut self, spans: &mut Spans, op: u64) -> Res<Cycle> {
        let mut c = Cycle::default();
        let n = self.scale.uw7_5(&self.inputs);
        let (sql, bytes) = self.refresh.program(&self.inputs, n);
        self.user_bytes += bytes;

        // The commit, then the delta frame the standing query pushes.
        let pushed_before = self.push_micros();
        let cpu_before = bed::process_cpu_ms();
        let t = Instant::now();
        let ack = spans.time("rqld.commit", op, |_| self.client.run(&sql));
        c.commit_ms = t.elapsed().as_secs_f64() * 1e3;
        match ack {
            Ok(r) if r.snapshots.len() == 1 => self.last = r.snapshots[0],
            Ok(_) => c.failed = true,
            Err(e) => {
                c.failed = true;
                c.rejected += u64::from(is_refusal(&e));
            }
        }
        if !c.failed {
            let t = Instant::now();
            match spans.time("standing.drain", op, |_| self.sub.next_event())? {
                SubscriptionEvent::Delta(d) if d.snap_id == self.last => {
                    c.rows_pushed = (d.added.len() + d.removed.len()) as u64;
                }
                _ => c.failed = true,
            }
            c.push_lag_ms = t.elapsed().as_secs_f64() * 1e3;
            c.maintain_ms = (self.push_micros() - pushed_before) / 1e3;
        }

        // The read batch: five programs, one after another.
        let batch = templates(self.scale, self.last, &self.collate_qq);
        let t_batch = Instant::now();
        let replies: Vec<(f64, Result<WireResult, ClientError>)> = spans.time("op", op, |s| {
            batch
                .iter()
                .enumerate()
                .map(|(k, (auto, call))| {
                    let text = plan::program(*auto, std::slice::from_ref(call), true);
                    let t = Instant::now();
                    let r = s.time(TPL_SPANS[k], op, |_| self.client.run(&text));
                    (t.elapsed().as_secs_f64() * 1e3, r)
                })
                .collect()
        });
        c.batch_ms = t_batch.elapsed().as_secs_f64() * 1e3;
        c.cpu_ms = bed::process_cpu_ms() - cpu_before;

        // Untimed: what came back.
        for (k, (ms, reply)) in replies.into_iter().enumerate() {
            c.tpl_ms[k] = ms;
            match reply {
                Ok(r) if r.tables.len() == 1 && r.reports.len() == 1 => {
                    c.overhead_ms[k] = ms - r.elapsed_micros as f64 / 1e3;
                    c.iterations += r.reports[0].iterations;
                    c.sums.push(table_checksum(&r.tables[0].rows));
                    let rows = r.tables[0].rows.len();
                    let bytes = Response::Result(r.clone()).encode().1.len() as u64;
                    c.result_bytes += bytes;
                    if self
                        .largest
                        .as_ref()
                        .is_none_or(|l| l.tables[0].rows.len() < rows)
                    {
                        self.largest = Some(r);
                    }
                }
                Ok(_) => c.failed = true,
                Err(e) => {
                    c.failed = true;
                    c.rejected += u64::from(is_refusal(&e));
                }
            }
        }
        c.calls = batch.into_iter().map(|(_, call)| call).collect();
        Ok(c)
    }
}

const TPL_SPANS: [&str; TEMPLATES] = [
    "rqld.run.tpl_1",
    "rqld.run.tpl_2",
    "rqld.run.tpl_3",
    "rqld.run.tpl_4",
    "rqld.run.tpl_5",
];

fn is_refusal(e: &ClientError) -> bool {
    matches!(e, ClientError::Server { code, .. } if code == rqld::ADMISSION_CODE)
}

pub fn run(args: &RunArgs, spans: &mut Spans) -> Res<Outcome> {
    let scale = &args.scale;
    let mut out = Outcome::new();
    let inputs = Inputs::new(scale.sf, args.seed);
    let dir = args.data_dir.join("data");

    // Set-up: build the data directory embedded, flush, drop; serve it;
    // register the standing query and hold its subscription.
    let history = scale.served_history;
    let collate_qq = plan::qq_collate(&plan::collate_date(
        &inputs,
        history,
        scale.uw30(&inputs),
        0.10,
    ));
    let watch_qq = plan::qq_collate(&plan::collate_date(
        &inputs,
        history,
        scale.uw30(&inputs),
        0.02,
    ));
    let register = format!(
        "MAINTAIN QUERY {STANDING} AS SELECT CollateData(snap_id, '{}', 'Watched') FROM SnapIds",
        watch_qq.replace('\'', "''")
    );
    // A run is several rounds of (set-up, warm-up cycles, timed cycles,
    // reopen), for the reasons given in `embedded::run`; every round serves a
    // fresh copy of the same data and replays the same commits. The
    // oracle runs at the end of each round, after its timed cycles, so
    // that it cannot warm anything they read: every Qq at every snapshot
    // a timed op covered, as a plain `SELECT AS OF` over the wire, folded
    // here.
    let rounds = if args.traced { 1 } else { scale.setups };
    let per_round = args.ops.div_ceil(rounds);
    let mut setup_s = Vec::new();
    let mut embedded_commit_ms = Vec::new();
    let mut log = bed::SetupLog::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut traced_wall = Vec::new();
    let mut plain_wall = Vec::new();
    let mut timed_s = 0.0;
    let mut oracle = Oracle::default();
    // METRICS counters and log-file growth, summed over the timed phases.
    let mut counters: BTreeMap<String, f64> = BTreeMap::new();
    let (mut wal_growth, mut pagelog_growth, mut memo_bytes) = (0.0, 0.0, 0.0);
    let mut batch_ms: Vec<Vec<f64>> = Vec::new();
    let mut commit_ms: Vec<Vec<f64>> = Vec::new();
    let mut reopen_s: Vec<Vec<f64>> = Vec::new();
    let mut round_rates = Vec::new();
    let (mut space_amp, mut peak_rss_mb) = (0.0, 0.0);
    let mut reopen_ok = true;
    for _ in 0..rounds {
        let t = Instant::now();
        let built = bed::build(&dir, scale, args.seed, history, scale.uw30(&inputs), false)?;
        let (refresh, user_bytes) = (built.refresh, built.user_bytes);
        log = built.log;
        drop((built.session, built.store));
        let handle = serve(&dir, scale)?;
        let mut client = Client::connect(handle.local_addr())?;
        let mut sub = Client::connect(handle.local_addr())?;
        client.register(&register)?;
        sub.subscribe(STANDING)?;
        setup_s.push(t.elapsed().as_secs_f64());
        embedded_commit_ms.extend_from_slice(&log.commit_ms);
        let mut rig = Rig {
            scale,
            inputs,
            refresh,
            client,
            sub,
            handle,
            collate_qq: collate_qq.clone(),
            last: history,
            user_bytes,
            largest: None,
        };

        // In the traced run every other timed cycle records spans.
        let first_of_round = cycles.len();
        let mut before = None;
        for i in 0..scale.warmup + per_round {
            let timed = i >= scale.warmup && cycles.len() < args.ops;
            if timed && before.is_none() {
                before = Some((
                    server_metrics(&mut rig.client)?,
                    file_len(&dir, "wal.log"),
                    file_len(&dir, "pagelog.log"),
                ));
            }
            let trace_this = args.traced && timed && cycles.len() % 2 == 1;
            spans.set_on(trace_this);
            let c = rig.cycle(spans, cycles.len() as u64);
            spans.set_on(false);
            let c = c?;
            if !timed {
                continue;
            }
            timed_s += (c.commit_ms + c.batch_ms) / 1e3;
            if trace_this {
                traced_wall.push(c.batch_ms);
            } else {
                plain_wall.push(c.batch_ms);
            }
            cycles.push(c);
        }
        if let Some((m0, wal0, pagelog0)) = before {
            let m1 = server_metrics(&mut rig.client)?;
            if let Json::Obj(fields) = &m1 {
                for (name, v) in fields {
                    *counters.entry(name.clone()).or_default() +=
                        v.as_f64().unwrap_or(0.0) - field(&m0, name);
                }
            }
            wal_growth += file_len(&dir, "wal.log") - wal0;
            pagelog_growth += file_len(&dir, "pagelog.log") - pagelog0;
            memo_bytes = field(&m1, "memo_bytes");
        }

        let client = &mut rig.client;
        let mut plain = |sql: &str| -> Res<Vec<rql_sqlengine::Row>> {
            let mut r = client.run(sql)?;
            Ok(r.tables.pop().map(|t| t.rows).unwrap_or_default())
        };
        for c in cycles[first_of_round..].iter_mut().filter(|c| !c.failed) {
            for (call, got) in c.calls.iter().zip(&c.sums) {
                if oracle.expect(call, &mut plain)? != *got {
                    c.failed = true;
                }
            }
        }
        let block = &cycles[first_of_round..];
        let block_s = block.iter().map(|c| c.commit_ms + c.batch_ms).sum::<f64>() / 1e3;
        let block_iterations: u64 = block.iter().map(|c| c.iterations).sum();
        batch_ms.push(block.iter().map(|c| c.batch_ms).collect());
        commit_ms.push(block.iter().map(|c| c.commit_ms).collect());
        round_rates.push((block_iterations as f64, block_s, block.len()));
        peak_rss_mb = bed::peak_rss_mb();

        if args.traced {
            spans.set_on(true);
            probes(&mut rig, spans, &mut out)?;
            spans.set_on(false);
        }

        // Shut down, then time `serve` on the used directory to the first
        // answered query, which must match what the oracle saw.
        let (user_bytes, last) = (rig.user_bytes, rig.last);
        rig.finish()?;
        space_amp = bed::disk_bytes(&dir) as f64 / user_bytes as f64;
        let first_sql = as_of(plan::QQ_IO, last);
        let first_want = oracle.answer_checksum(plan::QQ_IO, last);
        let mut round_reopen = Vec::new();
        for _ in 0..scale.reopens {
            let t = Instant::now();
            let handle = spans.time("rqld.serve", 0, |_| serve(&dir, scale))?;
            let mut client = Client::connect(handle.local_addr())?;
            let rows = client.run(&first_sql)?.tables.pop().map(|t| t.rows);
            round_reopen.push(t.elapsed().as_secs_f64());
            reopen_ok &= rows.map(|r| table_checksum(&r)) == first_want;
            stop(handle, &mut client)?;
        }
        reopen_s.push(round_reopen);
        if args.traced {
            let t = Instant::now();
            drop(spans.time("retro.open", 0, |_| bed::open_store(&dir, scale))?);
            out.per_layer
                .set("retro.open_ms", t.elapsed().as_secs_f64() * 1e3, 1);
        }
        if timed_s > args.deadline_s {
            out.notes.push(format!(
                "stopped after {} of {} cycles: the timed phase passed {:.0} s",
                cycles.len(),
                args.ops,
                args.deadline_s
            ));
            break;
        }
    }
    let delta = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let wrong = cycles.iter().filter(|c| c.failed).count();
    if wrong > 0 {
        out.notes
            .push(format!("{wrong} cycles failed or returned a wrong answer"));
    }

    // End-to-end.
    let n = cycles.len();
    let batch: Vec<f64> = cycles.iter().map(|c| c.batch_ms).collect();
    let iterations: u64 = cycles.iter().map(|c| c.iterations).sum();
    // Each cycle is two ops, a commit and a read batch; the reopen is one.
    out.op_ms = batch.clone();
    out.attempted = 2 * n as u64 + 1;
    out.failed = cycles.iter().filter(|c| c.failed).count() as u64 + u64::from(!reopen_ok);
    let e = &mut out.end_to_end;
    e.set_median("setup_s", &setup_s);
    e.set("op_p50_ms", quietest_median(&batch_ms), n);
    e.set("snaps_per_s", best_rate(&round_rates), n);
    e.set("commit_p50_ms", quietest_median(&commit_ms), n);
    e.set(
        "reopen_s",
        quietest_median(&reopen_s),
        reopen_s.iter().map(Vec::len).sum(),
    );
    e.set("peak_rss_mb", peak_rss_mb, 1);
    e.set("space_amp", space_amp, 1);

    // Per layer, from METRICS deltas around the timed phase, the frames
    // and replies themselves, and the files on disk. What only an
    // in-process report carries (eval, fold, index time) is not visible
    // through the wire and stays unobserved here.
    let ops_f = n.max(1) as f64;
    let snaps = iterations.max(1) as f64;
    let (plog, db, hits) = (
        delta("io_pagelog_reads"),
        delta("io_db_reads"),
        delta("io_cache_hits"),
    );
    let avoided = delta("pages_skipped_delta") + delta("pages_pruned_filter");
    let l = &mut out.per_layer;
    l.set("pagestore.pagelog_reads_per_snap", plog / snaps, n);
    l.set("pagestore.db_reads_per_snap", db / snaps, n);
    l.set("pagestore.pagelog_share", plog / (plog + db).max(1.0), n);
    l.set(
        "pagestore.cache_hit_ratio",
        hits / (hits + plog + db).max(1.0),
        n,
    );
    l.set(
        "pagestore.evictions_per_op",
        delta("io_cache_evictions") / ops_f,
        n,
    );
    l.set("pagestore.wal_bytes_per_commit", wal_growth / ops_f, n);
    l.set(
        "retro.maplog_scanned_per_snap",
        delta("io_maplog_entries_scanned") / snaps,
        n,
    );
    l.set(
        "retro.cow_captures_per_commit",
        delta("io_cow_captures") / ops_f,
        n,
    );
    l.set("retro.pagelog_bytes_per_commit", pagelog_growth / ops_f, n);
    l.set_median("retro.declare_ms_p50", &log.declare_ms);
    l.set(
        "sqlengine.pages_per_row_out",
        (plog + db + hits) / delta("qq_rows").max(1.0),
        n,
    );
    l.set(
        "sqlengine.fetch_avoided_ratio",
        avoided / (avoided + plog + db + hits).max(1.0),
        n,
    );
    l.set(
        "sqlengine.dml_rows_per_s",
        log.dml_rows as f64 / log.dml_s.max(1e-9),
        log.commit_ms.len(),
    );
    let (memo_hits, memo_misses) = (delta("memo_hits"), delta("memo_misses"));
    l.set(
        "memo.hit_ratio",
        memo_hits / (memo_hits + memo_misses).max(1.0),
        n,
    );
    l.set("memo.resident_mb", memo_bytes / (1024.0 * 1024.0), 1);
    l.set("memo.evictions", delta("memo_evictions"), n);
    let col = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<f64>>();
    l.set_median("standing.maintain_ms_p50", &col(&|c| c.maintain_ms));
    l.set(
        "standing.rows_pushed_per_commit",
        cycles.iter().map(|c| c.rows_pushed as f64).sum::<f64>() / ops_f,
        n,
    );
    l.set_median("standing.push_lag_ms_p50", &col(&|c| c.push_lag_ms));
    let overhead: Vec<f64> = cycles.iter().flat_map(|c| c.overhead_ms).collect();
    l.set_median("rqld.wire_overhead_ms_p50", &overhead);
    l.set(
        "rqld.result_bytes_per_op",
        cycles.iter().map(|c| c.result_bytes as f64).sum::<f64>() / ops_f,
        n,
    );
    for (k, name) in [
        "rqld.tpl_1_p50_ms",
        "rqld.tpl_2_p50_ms",
        "rqld.tpl_3_p50_ms",
        "rqld.tpl_4_p50_ms",
        "rqld.tpl_5_p50_ms",
    ]
    .into_iter()
    .enumerate()
    {
        l.set_median(name, &col(&|c| c.tpl_ms[k]));
    }
    l.set(
        "rqld.rejected",
        cycles.iter().map(|c| c.rejected as f64).sum::<f64>() + delta("admission_rejected"),
        n,
    );
    if args.traced {
        let overhead = median(&traced_wall) / median(&plain_wall).max(1e-9) - 1.0;
        l.set("trace.overhead_frac", overhead, traced_wall.len());
        if overhead > 0.05 {
            out.notes.push(format!(
                "tracing costs {:.1} % of op_p50_ms (over the 5 % gate)",
                overhead * 100.0
            ));
        }
        out.attribution = spans.children_ms("op");
        out.attributed_wall_ms = spans.total_ms("op");
        let covered: f64 = out.attribution.iter().map(|(_, ms)| ms).sum();
        l.set(
            "bench.span_coverage",
            covered / spans.total_ms("op").max(1e-9),
            traced_wall.len(),
        );
    }
    l.set(
        "bench.op_max_ms",
        batch.iter().copied().fold(0.0, f64::max),
        n,
    );
    l.set("bench.op_iqr_frac", iqr_frac(&batch), n);
    l.set_median("bench.op_cpu_p50_ms", &col(&|c| c.cpu_ms));
    l.set(
        "bench.load_rows_per_s",
        log.load_rows as f64 / log.load_s.max(1e-9),
        1,
    );
    // The embedded commits of set-up are the same work by another route;
    // they are printed for comparison, not gated.
    out.notes.push(format!(
        "set-up commits through the embedded API: p50 {:.1} ms over {} (UW30)",
        median(&embedded_commit_ms),
        embedded_commit_ms.len()
    ));
    std::fs::remove_dir_all(&dir)?;
    Ok(out)
}

/// Direct, benchmark-timed calls into the wire layer and its codec.
fn probes(rig: &mut Rig<'_>, spans: &mut Spans, out: &mut Outcome) -> Res<()> {
    let mut rtt = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        spans.time("rqld.status", 0, |_| rig.client.status())?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.per_layer.set_median("rqld.rtt_us", &rtt);

    if let Some(largest) = rig.largest.take() {
        let mut rates = Vec::new();
        let response = Response::Result(largest);
        for _ in 0..10 {
            let t = Instant::now();
            let bytes = spans.time("rqld.codec", 0, |_| -> Res<usize> {
                let (opcode, payload) = response.encode();
                std::hint::black_box(Response::decode(opcode, &payload)?);
                Ok(payload.len())
            })?;
            rates.push(bytes as f64 / (1024.0 * 1024.0) / t.elapsed().as_secs_f64());
        }
        out.per_layer.set_median("rqld.codec_mb_per_s", &rates);
    }

    let mut parse_ms = Vec::new();
    let mut preflight_ms = Vec::new();
    for (auto, call) in templates(rig.scale, rig.last, &rig.collate_qq) {
        let text = plan::program(auto, &[call], true);
        let t = Instant::now();
        spans
            .time("core.parse_program", 0, |_| rql::parse_program(&text))
            .map_err(|d| d.message)?;
        parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        spans.time("rqld.prepare", 0, |_| rig.client.prepare(&text))?;
        preflight_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.per_layer.set(
        "sqlengine.parse_ms_per_op",
        parse_ms.iter().sum(),
        parse_ms.len(),
    );
    out.per_layer.set(
        "core.preflight_ms_per_op",
        preflight_ms.iter().sum(),
        preflight_ms.len(),
    );
    Ok(())
}
