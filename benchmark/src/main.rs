//! The repository benchmark. See `README.md` beside this crate for what
//! each workload isolates and how a later change states a claim.
//!
//! ```text
//! rql-benchmark --workload <scan_old|join_recent|fold_wide|served_mixed>
//!               --seed <n> --seconds <n> --trace <0|1>
//! rql-benchmark --workload <name> --seed <n> --aa <runs> [--vary-seed]
//! rql-benchmark --quick
//! ```

mod bed;
mod embedded;
mod gen;
mod json;
mod oracle;
mod plan;
mod report;
mod selfcheck;
mod served;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use plan::Scale;
use report::Outcome;
use spans::Spans;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

pub const WORKLOADS: [&str; 4] = ["scan_old", "join_recent", "fold_wide", "served_mixed"];

/// One run's parameters.
pub struct RunArgs {
    pub scale: Scale,
    pub seed: u64,
    /// Timed ops (a fixed count, derived from `--seconds`).
    pub ops: usize,
    pub traced: bool,
    /// Scratch directory of this run, removed when it ends.
    pub data_dir: PathBuf,
    /// The timed phase stops early past this many seconds, so a machine
    /// several times slower still ends inside the driver's limit.
    pub deadline_s: f64,
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
    aa: Option<usize>,
    vary_seed: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 10,
        traced: false,
        quick: false,
        aa: None,
        vary_seed: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => cli.traced = value("0 or 1")? == "1",
            "--traced" => cli.traced = true,
            "--quick" => cli.quick = true,
            "--aa" => {
                cli.aa = Some(
                    value("a run count")?
                        .parse()
                        .map_err(|e| format!("--aa: {e}"))?,
                )
            }
            "--vary-seed" => cli.vary_seed = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(cli)
}

/// Scratch space beside the executable: inside the build directory, which
/// is inside the checkout and ignored by git.
pub fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_owned()))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Run one workload in this process.
pub fn run_workload(workload: &str, args: &RunArgs, spans: &mut Spans) -> Res<Outcome> {
    // Tracing is off unless a span recorder turns it on: the program's
    // flight recorder is on by default, and end-to-end numbers are
    // measured without it.
    rql_trace::set_enabled(false);
    std::fs::create_dir_all(&args.data_dir)?;
    let out = match workload {
        "scan_old" => embedded::run(embedded::Kind::ScanOld, args, spans),
        "join_recent" => embedded::run(embedded::Kind::JoinRecent, args, spans),
        "fold_wide" => embedded::run(embedded::Kind::FoldWide, args, spans),
        _ => served::run(args, spans),
    };
    let _ = std::fs::remove_dir_all(&args.data_dir);
    out
}

fn run_and_print(cli: &Cli, workload: &str) -> Res<bool> {
    let scale = Scale::full();
    let args = RunArgs {
        ops: scale.ops_for(workload, cli.seconds),
        scale,
        seed: cli.seed,
        traced: cli.traced,
        data_dir: scratch_root()
            .join("bench-data")
            .join(format!("{workload}-{}", std::process::id())),
        deadline_s: cli.seconds as f64 * 4.0,
    };
    let mut spans = Spans::new();
    let out = run_workload(workload, &args, &mut spans)?;

    println!(
        "# {workload} seed={} ops={} scale={} (SF {}, cache {} pages) traced={}",
        cli.seed, args.ops, args.scale.name, args.scale.sf, args.scale.cache_pages, cli.traced
    );
    println!(
        "# file-backed store, fsync at every commit; reads come from the OS page cache, \
         so these are the sandbox's latencies, not a device's"
    );
    if cli.traced {
        println!("# end-to-end values below come from a traced run: do not compare them");
        let dir = scratch_root().join("bench-out");
        std::fs::create_dir_all(&dir)?;
        let stem = format!("{workload}-seed{}", cli.seed);
        std::fs::write(dir.join(format!("{stem}.spans.json")), spans.chrome_json())?;
        rql_trace::export_global(&dir.join(format!("{stem}.ring.json")))?;
        println!("# traces: {}/{stem}.{{spans,ring}}.json", dir.display());
    }
    if !out.attribution.is_empty() {
        println!(
            "# layer sum against op wall ({:.0} ms)",
            out.attributed_wall_ms
        );
        let mut rest = out.attributed_wall_ms;
        for (name, ms) in &out.attribution {
            rest -= ms;
            let share = 100.0 * ms / out.attributed_wall_ms.max(1e-9);
            println!("#   {name} {ms:.1} ms = {share:.1} %");
        }
        let share = 100.0 * rest / out.attributed_wall_ms.max(1e-9);
        println!("#   unattributed {rest:.1} ms = {share:.1} %");
    }
    report::print_human("end to end", &out.end_to_end.all());
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "fail_frac {} ratio failed={} attempted={}",
        report::fmt_value(fail_frac),
        out.failed,
        out.attempted
    );
    report::print_human("per layer", &out.per_layer.all());
    let series: Vec<String> = out.op_ms.iter().map(|ms| format!("{ms:.0}")).collect();
    println!("# op_ms in order: {}", series.join(" "));
    for note in &out.notes {
        println!("# finding: {note}");
    }
    println!(
        "{{\"summary\": \"{workload}\", \"seed\": {}, \"ops\": {}, \"sf\": {}, \
         \"cache_pages\": {}, \"nproc\": {}, \"claim\": null}}",
        cli.seed,
        args.ops,
        args.scale.sf,
        args.scale.cache_pages,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let metrics = if cli.traced {
        out.per_layer.all()
    } else {
        out.end_to_end.all()
    };
    let correct = out.failed == 0;
    println!(
        "{}",
        report::result_line(correct, out.attempted, out.failed, &metrics)
    );
    Ok(correct)
}

/// glibc gives every thread that contends for the allocator an arena of
/// its own, and which threads contend is a matter of timing: the served
/// workload's peak resident set then moves by ±15 % (350–570 MB) between
/// runs of one seed. With one arena it repeats to 0.1 MB, so the benchmark
/// runs itself under `MALLOC_ARENA_MAX=1` — an allocator setting, the same
/// on both sides of any comparison. Returns the child's exit code, or
/// `None` when the variable is already set (this is the child, or the
/// caller chose a value).
fn rerun_with_one_arena() -> Option<ExitCode> {
    const KNOB: &str = "MALLOC_ARENA_MAX";
    if std::env::var_os(KNOB).is_some() {
        return None;
    }
    let status = std::process::Command::new(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env(KNOB, "1")
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().unwrap_or(1) as u8))
}

fn main() -> ExitCode {
    if let Some(code) = rerun_with_one_arena() {
        return code;
    }
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rql-benchmark: {e}");
            return ExitCode::from(64);
        }
    };
    let result = if cli.quick {
        selfcheck::quick(cli.workload.as_deref(), cli.seed)
    } else if let Some(runs) = cli.aa {
        let Some(w) = cli.workload.as_deref() else {
            eprintln!("rql-benchmark: --aa needs --workload");
            return ExitCode::from(64);
        };
        selfcheck::aa(w, cli.seed, cli.seconds, runs, cli.vary_seed)
    } else {
        let Some(w) = cli.workload.as_deref() else {
            eprintln!("rql-benchmark: --workload is required (one of {WORKLOADS:?})");
            return ExitCode::from(64);
        };
        run_and_print(&cli, w)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // A wrong answer, a failed op, or a self-check out of bounds.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("rql-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
