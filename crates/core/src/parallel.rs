//! Parallel snapshot iteration — the paper's future work, implemented.
//!
//! "Our future work includes performance optimizations for RQL programs
//! exploring how computations can be shared across multiple snapshots and
//! whether parallelization can be applied" (paper §7).
//!
//! Parallelization is natural in this architecture: snapshot readers are
//! read-only MVCC transactions over immutable SPTs and `Arc`-published
//! pages, so any number of iterations can execute Qq concurrently. Only
//! the fold into the result table is serialized (the auxiliary store is
//! single-writer). [`collate_data_parallel`] and
//! [`aggregate_data_in_variable_parallel`] pre-evaluate Qq on a thread
//! pool and hand the outputs, in Qs order, to the same loop and folds
//! as every other form ([`mechanism::drive`]), so their result tables
//! are byte-identical to the sequential mechanisms'.
//!
//! The shared buffer cache makes this *cooperative*: threads working on
//! nearby snapshots warm each other's shared pre-states, so the total
//! Pagelog I/O stays close to the sequential run's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rql_sqlengine::{Database, Result, SqlError};

use crate::aggregate::AggOp;
use crate::delta::{QqOutput, QqSource};
use crate::mechanism::{self, Fold, MechSpec};
use crate::report::RqlReport;

/// Run Qq over every snapshot in `ids` on `threads` worker threads, each
/// with a sequential [`QqSource`] of its own; outputs come back in `ids`
/// order.
fn parallel_qq(snap: &Database, qq: &str, ids: &[u64], threads: usize) -> Result<Vec<QqOutput>> {
    let threads = threads.max(1).min(ids.len().max(1));
    let sources = (0..threads)
        .map(|_| QqSource::new(qq, None, None))
        .collect::<Result<Vec<_>>>()?;
    let next = &AtomicUsize::new(0);
    let slots: &Vec<Mutex<Option<Result<QqOutput>>>> =
        &ids.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for mut source in sources {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&sid) = ids.get(i) else { break };
                // A panic inside Qq execution must not poison the scope
                // (which would abort the whole process via the scoped
                // thread's unwind): surface it as a per-snapshot error.
                // (`advance` is also the cancellation checkpoint: once
                // the token trips, remaining snapshots fail fast.)
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    source.advance(snap, None, sid)?;
                    Ok(source.take_current())
                }))
                .unwrap_or_else(|payload| {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned());
                    Err(SqlError::Invalid(format!(
                        "Qq panicked on snapshot {sid}: {msg}"
                    )))
                });
                *slots[i].lock().expect("no panic while a slot is locked") = Some(outcome);
            });
        }
    });
    slots
        .iter()
        .map(|slot| {
            let outcome = slot.lock().expect("no panic while a slot is locked").take();
            outcome.expect("worker filled every slot")
        })
        .collect()
}

/// The shared batch shape with the Qq phase moved onto the pool.
fn run_parallel(
    snap: &Database,
    aux: &Database,
    qs: &str,
    qq: &str,
    table: &str,
    spec: MechSpec,
    threads: usize,
) -> Result<RqlReport> {
    if mechanism::table_exists(aux, table) {
        return Err(SqlError::Constraint(format!(
            "result table {table} already exists"
        )));
    }
    let mut source = QqSource::new(qq, None, None)?;
    let (ids, qs_time) = mechanism::snapshot_set(aux, qs)?;
    source.preload(parallel_qq(snap, qq, &ids, threads)?);
    let mut fold = Fold::new(spec, table);
    let mut report = mechanism::drive(snap, aux, &mut source, &mut fold, &ids, None)?;
    report.qs_time = qs_time;
    Ok(report)
}

/// Parallel `CollateData`: Qq executes concurrently; results are folded
/// into `T` in Qs order, so the output matches the sequential mechanism.
pub fn collate_data_parallel(
    snap: &Database,
    aux: &Database,
    qs: &str,
    qq: &str,
    table: &str,
    threads: usize,
) -> Result<RqlReport> {
    run_parallel(snap, aux, qs, qq, table, MechSpec::Collate, threads)
}

/// Parallel `AggregateDataInVariable`: Qq executes concurrently; the
/// monoid fold order is irrelevant by definition (§2.3's abelian-monoid
/// requirement is exactly what makes this safe).
pub fn aggregate_data_in_variable_parallel(
    snap: &Database,
    aux: &Database,
    qs: &str,
    qq: &str,
    table: &str,
    func: AggOp,
    threads: usize,
) -> Result<RqlReport> {
    run_parallel(snap, aux, qs, qq, table, MechSpec::AggVar(func), threads)
}
