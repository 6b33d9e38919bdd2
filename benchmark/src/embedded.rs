//! The three embedded workloads: `scan_old`, `join_recent`, `fold_wide`.
//! Each drives `rql::parse_program` + `rql::run_program_with_reports` on
//! an `RqlSession` over a file-backed store, one op after another from
//! one thread.

use std::time::Instant;

use rql::{ProgramRun, RqlReport};
use rql_pagestore::{IoStatsSnapshot, PageId};

use crate::bed::{self, Bed};
use crate::gen::Draw;
use crate::oracle::{as_of, Oracle};
use crate::plan::{self, Call, Fold, Scale};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{best_rate, iqr_frac, median, quietest_median, table_checksum};
use crate::{Res, RunArgs};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    ScanOld,
    JoinRecent,
    FoldWide,
}

impl Kind {
    fn history(self, scale: &Scale) -> u64 {
        match self {
            Kind::ScanOld => scale.scan_history,
            _ => scale.recent_history,
        }
    }

    /// `scan_old` ages its history past the overwrite cycle and starts
    /// every op with an empty snapshot-page cache (paper §5); the other
    /// two read recent snapshots from a warm cache.
    fn aged_and_cold(self) -> bool {
        self == Kind::ScanOld
    }

    /// `fold_wide` runs under `--@policy auto` (batch and delta folds);
    /// the other two run the paper's sequential loop.
    fn policy_auto(self) -> bool {
        self == Kind::FoldWide
    }

    /// The mechanism calls of op `index`.
    fn calls(self, scale: &Scale, bed: &Bed, draw: &mut Draw) -> Vec<Call> {
        let last = bed.snapshots;
        match self {
            Kind::ScanOld => {
                let start = draw.range(1, (last - scale.scan_window + 1) as i64) as u64;
                vec![Call::new(
                    Fold::AvgVar,
                    plan::QQ_IO,
                    "T",
                    start,
                    start + scale.scan_window - 1,
                )]
            }
            Kind::JoinRecent => vec![Call::new(
                Fold::AvgVar,
                plan::QQ_CPU,
                "T",
                last + 1 - scale.join_window,
                last,
            )],
            Kind::FoldWide => {
                let first = last + 1 - scale.fold_window;
                let date = plan::collate_date(&bed.inputs, first, scale.uw30(&bed.inputs), 0.10);
                vec![
                    Call::new(Fold::Collate, &plan::qq_collate(&date), "Tc", first, last),
                    Call::new(Fold::AggTableMax, plan::QQ_AGG, "Ta", first, last),
                    Call::new(Fold::Intervals, plan::QQ_INT, "Ti", first, last),
                ]
            }
        }
    }
}

/// What one op cost, from the reports the run call returned and the
/// store's counters around it.
#[derive(Default, Clone)]
pub struct OpSample {
    pub wall_ms: f64,
    pub cpu_ms: f64,
    pub ok: bool,
    pub iterations: u64,
    pub spt_ms: f64,
    pub index_ms: f64,
    pub eval_ms: f64,
    pub udf_ms: f64,
    pub qq_rows: u64,
    pub inserts: u64,
    pub updates: u64,
    pub pages_skipped_delta: u64,
    pub pages_pruned_filter: u64,
    pub delta_iterations: u64,
    /// Wall of the Collate, AggTable and Intervals calls of the op.
    pub call_ms: [f64; 3],
    pub io: IoStatsSnapshot,
}

impl OpSample {
    fn absorb(&mut self, call: &Call, report: &RqlReport) {
        let acc = report.accumulated_stats();
        self.iterations += report.iteration_count() as u64;
        self.spt_ms += acc.spt_build.as_secs_f64() * 1e3;
        self.index_ms += acc.index_creation.as_secs_f64() * 1e3;
        self.eval_ms += acc.eval.as_secs_f64() * 1e3;
        self.udf_ms += report.total_udf_time().as_secs_f64() * 1e3;
        self.qq_rows += report.total_qq_rows();
        self.inserts += report.total_result_inserts();
        self.updates += report.total_result_updates();
        self.pages_skipped_delta += acc.pages_skipped_delta;
        self.pages_pruned_filter += acc.pages_pruned_filter;
        self.delta_iterations += acc.delta_eligible;
        let wall = report.qs_time
            + report.finalize_time
            + report
                .iterations
                .iter()
                .map(|i| i.wall)
                .sum::<std::time::Duration>();
        let slot = match call.fold {
            Fold::Collate => 0,
            Fold::AggTableMax => 1,
            Fold::Intervals => 2,
            Fold::AvgVar => return,
        };
        self.call_ms[slot] += wall.as_secs_f64() * 1e3;
    }
}

/// Run one op: untimed preparation, the timed parse + run, then the
/// untimed check of every result table against the oracle.
fn run_op(
    bed: &Bed,
    kind: Kind,
    calls: &[Call],
    expect: &[u64],
    spans: &mut Spans,
    op: u64,
) -> OpSample {
    spans.time("prep", op, |s| {
        for c in calls {
            s.time("core.drop_result_table", op, |_| {
                bed.session.drop_result_table(c.table)
            })
            .expect("dropping a result table");
        }
        if kind.aged_and_cold() {
            s.time("pagestore.cache_clear", op, |_| bed.store.cache().clear());
        }
    });
    let text = plan::program(kind.policy_auto(), calls, false);
    let io_before = bed.store.stats().snapshot();
    let cpu_before = bed::process_cpu_ms();
    let started = Instant::now();
    let run: Option<ProgramRun> = spans.time("op", op, |s| {
        let program = s
            .time("core.parse_program", op, |_| rql::parse_program(&text))
            .ok()?;
        s.time("core.run_program_with_reports", op, |_| {
            rql::run_program_with_reports(&bed.session, &program)
        })
        .ok()
    });
    let mut sample = OpSample {
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        cpu_ms: bed::process_cpu_ms() - cpu_before,
        io: bed.store.stats().snapshot().delta(&io_before),
        ..OpSample::default()
    };
    let Some(run) = run else {
        return sample;
    };
    sample.ok = run.reports.len() == calls.len()
        && spans.time("check", op, |_| {
            calls.iter().zip(expect).all(|(c, want)| {
                bed.session
                    .query_aux(&c.read_back())
                    .is_ok_and(|r| table_checksum(&r.rows) == *want)
            })
        });
    for (call, (_, report)) in calls.iter().zip(&run.reports) {
        sample.absorb(call, report);
    }
    sample
}

pub fn run(kind: Kind, args: &RunArgs, spans: &mut Spans) -> Res<Outcome> {
    let scale = &args.scale;
    let mut out = Outcome::new();

    // A run is several rounds of (set-up, warm-up, timed block, reopen).
    // Set-up has to be repeated for a steady `setup_s` anyway; doing a
    // block of the timed work after each spreads it over the whole run.
    // On this box identical work holds one speed for 5-10 s and then
    // another, ±15 % apart, and interference only ever adds time, so each
    // timing is reported from the quietest round (`quietest_median`) and
    // not from the pool. The traced run reports no end-to-end timing and
    // has one round.
    let rounds = if args.traced { 1 } else { scale.setups };
    let per_round = args.ops.div_ceil(rounds);
    let mut setup_s = Vec::new();
    let mut commit_ms: Vec<Vec<f64>> = Vec::new();
    let mut reopen_s: Vec<Vec<f64>> = Vec::new();
    let mut op_ms: Vec<Vec<f64>> = Vec::new();
    let mut round_rates = Vec::new();
    let mut open_ms = Vec::new();
    let mut samples: Vec<OpSample> = Vec::new();
    let mut traced_wall = Vec::new();
    let mut plain_wall = Vec::new();
    let mut timed_s = 0.0;
    let mut draw = Draw::new(args.seed, 0x6f70, 0);
    let mut oracle = Oracle::default();
    let mut log = bed::SetupLog::default();
    let (mut space_amp, mut peak_rss_mb, mut page_fetch_us) = (0.0, 0.0, 0.0);
    let mut reopen_ok = true;
    for round in 0..rounds {
        let dir = args.data_dir.join(format!("bed{round}"));
        let per = scale.uw30(&crate::gen::Inputs::new(scale.sf, args.seed));
        let bed = bed::build(
            &dir,
            scale,
            args.seed,
            kind.history(scale),
            per,
            kind.aged_and_cold(),
        )?;
        setup_s.push(bed.log.total_s);
        commit_ms.push(bed.log.commit_ms.clone());

        // The round's ops, fixed before any of them runs, and what each
        // must answer (the oracle keeps its per-snapshot answers: every
        // round loads the same data).
        let ops: Vec<Vec<Call>> = (0..scale.warmup + per_round)
            .map(|_| kind.calls(scale, &bed, &mut draw))
            .collect();
        let mut plain = |sql: &str| Ok(bed.session.query(sql)?.rows);
        let mut expect: Vec<Vec<u64>> = Vec::new();
        for calls in &ops {
            let mut sums = Vec::new();
            for c in calls {
                sums.push(oracle.expect(c, &mut plain)?);
            }
            expect.push(sums);
        }

        // In the traced run every other timed op records spans, so the
        // two halves see the same drift.
        let first_of_round = samples.len();
        for (i, (calls, want)) in ops.iter().zip(&expect).enumerate() {
            let timed = i >= scale.warmup && samples.len() < args.ops;
            let trace_this = args.traced && timed && samples.len() % 2 == 1;
            spans.set_on(trace_this);
            let s = run_op(&bed, kind, calls, want, spans, samples.len() as u64);
            spans.set_on(false);
            if !timed {
                continue;
            }
            if trace_this {
                traced_wall.push(s.wall_ms);
            } else {
                plain_wall.push(s.wall_ms);
            }
            samples.push(s);
        }
        let block = &samples[first_of_round..];
        let block_s = block.iter().map(|s| s.wall_ms).sum::<f64>() / 1e3;
        let block_iterations: u64 = block.iter().map(|s| s.iterations).sum();
        op_ms.push(block.iter().map(|s| s.wall_ms).collect());
        round_rates.push((block_iterations as f64, block_s, block.len()));
        timed_s += block_s;
        peak_rss_mb = bed::peak_rss_mb();

        // Layer probes: benchmark-timed direct calls into a layer's
        // public functions (traced run only: they take time the untraced
        // run does not need to spend).
        if args.traced {
            spans.set_on(true);
            page_fetch_us = probes(&bed, kind, &ops[0], spans, &mut out)?;
            spans.set_on(false);
        }

        // Reopen: close everything, then time `open` + a session + the
        // first answered query, which must match what the oracle saw.
        let first_call = &ops[0][0];
        let first_sql = as_of(&first_call.qq, first_call.last);
        let first_want = oracle.answer_checksum(&first_call.qq, first_call.last);
        bed.store.flush()?;
        space_amp = bed::disk_bytes(&dir) as f64 / bed.user_bytes as f64;
        log = bed.log.clone();
        drop(bed);
        let mut round_reopen = Vec::new();
        for _ in 0..scale.reopens {
            let t = Instant::now();
            let store = spans.time("retro.open", 0, |_| bed::open_store(&dir, scale))?;
            open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let session = bed::session_over(&store)?;
            let rows = session.query(&first_sql)?.rows;
            round_reopen.push(t.elapsed().as_secs_f64());
            reopen_ok &= Some(table_checksum(&rows)) == first_want;
        }
        reopen_s.push(round_reopen);
        std::fs::remove_dir_all(&dir)?;
        if timed_s > args.deadline_s {
            out.notes.push(format!(
                "stopped after {} of {} ops: the timed phase passed {:.0} s",
                samples.len(),
                args.ops,
                args.deadline_s
            ));
            break;
        }
    }

    // End-to-end.
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_ms).collect();
    let iterations: u64 = samples.iter().map(|s| s.iterations).sum();
    out.op_ms = walls.clone();
    out.attempted = samples.len() as u64 + 1;
    out.failed = samples.iter().filter(|s| !s.ok).count() as u64 + u64::from(!reopen_ok);
    let e = &mut out.end_to_end;
    e.set_median("setup_s", &setup_s);
    e.set("op_p50_ms", quietest_median(&op_ms), samples.len());
    e.set("snaps_per_s", best_rate(&round_rates), samples.len());
    e.set(
        "commit_p50_ms",
        quietest_median(&commit_ms),
        commit_ms.iter().map(Vec::len).sum(),
    );
    e.set(
        "reopen_s",
        quietest_median(&reopen_s),
        reopen_s.iter().map(Vec::len).sum(),
    );
    e.set("peak_rss_mb", peak_rss_mb, 1);
    e.set("space_amp", space_amp, 1);

    // Per layer.
    let n = samples.len();
    let ops_f = n.max(1) as f64;
    let snaps = iterations.max(1) as f64;
    let sum = |f: &dyn Fn(&OpSample) -> f64| samples.iter().map(f).sum::<f64>();
    let wall_ms = sum(&|s| s.wall_ms);
    let plog = sum(&|s| s.io.pagelog_reads as f64);
    let db = sum(&|s| s.io.db_reads as f64);
    let hits = sum(&|s| s.io.cache_hits as f64);
    let fetched = plog + db + hits;
    let avoided = sum(&|s| (s.pages_skipped_delta + s.pages_pruned_filter) as f64);
    let (spt, index, eval, udf) = (
        sum(&|s| s.spt_ms),
        sum(&|s| s.index_ms),
        sum(&|s| s.eval_ms),
        sum(&|s| s.udf_ms),
    );
    let rows = sum(&|s| s.qq_rows as f64);
    let commits = log.commit_ms.len().max(1) as f64;
    let l = &mut out.per_layer;
    l.set("pagestore.pagelog_reads_per_snap", plog / snaps, n);
    l.set("pagestore.db_reads_per_snap", db / snaps, n);
    l.set("pagestore.pagelog_share", plog / (plog + db).max(1.0), n);
    l.set("pagestore.cache_hit_ratio", hits / fetched.max(1.0), n);
    l.set(
        "pagestore.evictions_per_op",
        sum(&|s| s.io.cache_evictions as f64) / ops_f,
        n,
    );
    l.set(
        "pagestore.wal_bytes_per_commit",
        log.wal_bytes as f64 / commits,
        log.commit_ms.len(),
    );
    l.set("retro.spt_build_ms_per_snap", spt / snaps, n);
    l.set(
        "retro.maplog_scanned_per_snap",
        sum(&|s| s.io.maplog_entries_scanned as f64) / snaps,
        n,
    );
    l.set(
        "retro.cow_captures_per_commit",
        log.cow_captures as f64 / commits,
        log.commit_ms.len(),
    );
    l.set(
        "retro.pagelog_bytes_per_commit",
        log.pagelog_bytes as f64 / commits,
        log.commit_ms.len(),
    );
    l.set_median("retro.declare_ms_p50", &log.declare_ms);
    l.set_median("retro.open_ms", &open_ms);
    l.set("sqlengine.eval_ms_per_snap", eval / snaps, n);
    if args.traced {
        // An estimate: the report's `eval` includes page fetches, and the
        // only fetch time visible from outside is the cold probe's.
        let net = eval - (plog + db) * page_fetch_us / 1e3;
        l.set("sqlengine.eval_net_ms_per_snap", net.max(0.0) / snaps, n);
    }
    l.set("sqlengine.index_build_ms_per_snap", index / snaps, n);
    l.set("sqlengine.pages_per_row_out", fetched / rows.max(1.0), n);
    l.set(
        "sqlengine.fetch_avoided_ratio",
        avoided / (avoided + fetched).max(1.0),
        n,
    );
    l.set(
        "sqlengine.dml_rows_per_s",
        log.dml_rows as f64 / log.dml_s.max(1e-9),
        log.commit_ms.len(),
    );
    l.set("core.fold_ms_per_snap", udf / snaps, n);
    l.set("core.fold_share", udf / wall_ms.max(1e-9), n);
    l.set("core.fold_us_per_row", udf * 1e3 / rows.max(1.0), n);
    for (slot, name) in [
        "core.collate_ms_per_op",
        "core.aggtable_ms_per_op",
        "core.intervals_ms_per_op",
    ]
    .into_iter()
    .enumerate()
    {
        l.set(name, sum(&|s| s.call_ms[slot]) / ops_f, n);
    }
    l.set(
        "core.result_inserts_per_op",
        sum(&|s| s.inserts as f64) / ops_f,
        n,
    );
    l.set(
        "core.result_updates_per_op",
        sum(&|s| s.updates as f64) / ops_f,
        n,
    );
    l.set(
        "core.delta_iter_ratio",
        sum(&|s| s.delta_iterations as f64) / snaps,
        n,
    );
    let unattributed = 1.0 - (spt + index + eval + udf) / wall_ms.max(1e-9);
    l.set("core.unattributed_frac", unattributed, n);
    if args.traced {
        let overhead = median(&traced_wall) / median(&plain_wall).max(1e-9) - 1.0;
        l.set("trace.overhead_frac", overhead, traced_wall.len());
        if overhead > 0.05 {
            out.notes.push(format!(
                "tracing costs {:.1} % of op_p50_ms (over the 5 % gate)",
                overhead * 100.0
            ));
        }
        let covered: f64 = spans.children_ms("op").iter().map(|(_, ms)| ms).sum();
        l.set(
            "bench.span_coverage",
            covered / spans.total_ms("op").max(1e-9),
            traced_wall.len(),
        );
    }
    l.set(
        "bench.op_max_ms",
        walls.iter().copied().fold(0.0, f64::max),
        n,
    );
    l.set("bench.op_iqr_frac", iqr_frac(&walls), n);
    let cpu: Vec<f64> = samples.iter().map(|s| s.cpu_ms).collect();
    l.set_median("bench.op_cpu_p50_ms", &cpu);
    l.set(
        "bench.load_rows_per_s",
        log.load_rows as f64 / log.load_s.max(1e-9),
        1,
    );

    out.attribution = vec![
        ("retro.spt_build", spt),
        ("sqlengine.index_build", index),
        ("sqlengine.eval (page fetches included)", eval),
        ("core.fold (udf_time)", udf),
    ];
    out.attributed_wall_ms = wall_ms;
    if unattributed > 0.10 {
        out.notes.push(format!(
            "attribution gap: spt + index + eval + udf cover {:.0} % of op wall",
            (1.0 - unattributed) * 100.0
        ));
    }
    Ok(out)
}

/// Direct, benchmark-timed calls into single layers. Returns the cold
/// page-fetch time in microseconds.
fn probes(bed: &Bed, kind: Kind, calls: &[Call], spans: &mut Spans, out: &mut Outcome) -> Res<f64> {
    // pagestore: fetch every page of one snapshot through a cold cache.
    let first_call = &calls[0];
    let sid = first_call.first;
    bed.store.cache().clear();
    let reader = bed.store.open_snapshot(sid)?;
    let pages = reader.page_count();
    let t = Instant::now();
    spans.time("pagestore.page_fetch", 0, |_| -> Res<()> {
        for p in 0..pages {
            std::hint::black_box(reader.page(PageId(p))?);
        }
        Ok(())
    })?;
    let page_fetch_us = t.elapsed().as_secs_f64() * 1e6 / pages.max(1) as f64;
    drop(reader);
    out.per_layer
        .set("pagestore.page_fetch_us", page_fetch_us, pages as usize);

    // retro: SPT build alone, once per snapshot of the op's window.
    let mut spt_ms = Vec::new();
    for s in first_call.snapshots() {
        let t = Instant::now();
        std::hint::black_box(spans.time("retro.build_spt", 0, |_| bed.store.build_spt(s))?);
        spt_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.per_layer
        .set_median("retro.spt_build_probe_ms", &spt_ms);

    // sqlengine + core front end: parse and pre-flight of the op's text.
    let text = plan::program(kind.policy_auto(), calls, false);
    for c in calls {
        bed.session.drop_result_table(c.table)?;
    }
    let mut parse_ms = Vec::new();
    let mut preflight_ms = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let program = spans
            .time("core.parse_program", 0, |_| rql::parse_program(&text))
            .map_err(|d| d.message)?;
        parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(spans.time("core.check_program", 0, |_| {
            bed.session.check_program(&program)
        })?);
        preflight_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.per_layer
        .set_median("sqlengine.parse_ms_per_op", &parse_ms);
    out.per_layer
        .set_median("core.preflight_ms_per_op", &preflight_ms);
    Ok(page_fetch_us)
}
