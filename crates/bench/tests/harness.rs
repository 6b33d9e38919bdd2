//! The all-cold baseline is timed like the RQL runs it is compared to.

use rql_bench::harness::{all_cold_run, bench_config, resolve_qs};
use rql_bench::queries::QQ_IO;
use rql_tpch::{build_history, UW30};

#[test]
fn all_cold_baseline_iterations_carry_their_wall_time() {
    let h = build_history(bench_config(), 0.0003, UW30, 3, false).unwrap();
    let sids = resolve_qs(&h.session, &h.qs(1, 3, 1)).unwrap();
    let baseline = all_cold_run(&h.session, &sids, QQ_IO).unwrap();
    assert_eq!(baseline.iterations.len(), 3);
    for it in &baseline.iterations {
        assert!(!it.wall.is_zero(), "snapshot {} has zero wall", it.snap_id);
    }
}
