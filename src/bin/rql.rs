//! `rql`: command-line client for a running `rqld` server.
//!
//! Usage:
//!
//! ```text
//! rql [--addr ADDR] [--no-memo] [--profile] run <file.rql>...   execute programs, print tables
//! rql [--addr ADDR] [--no-memo] [--profile] exec '<program>'    execute an inline program
//! rql [--addr ADDR] check [--json] <file.rql>...   analyzer pre-flight (PREPARE)
//! rql [--addr ADDR] status [--flight]     one-line server status (+flight recorder)
//! rql [--addr ADDR] metrics [--json]      metrics snapshot
//! rql [--addr ADDR] replstatus [--json]   replication role, phase and lag
//! rql [--addr ADDR] cancel <session-id>   cancel another session's query
//! rql [--addr ADDR] register '<MAINTAIN QUERY …>'   register a standing query
//! rql [--addr ADDR] unregister <name>     unregister a standing query
//! rql [--addr ADDR] watch [--frames N] <name>   subscribe and print pushed deltas
//! rql [--addr ADDR] shutdown              drain and stop the server
//! ```
//!
//! `watch` prints the full maintained table, then one line per pushed
//! delta row (`+`/`-` prefixed) until the stream ends with a terminal
//! END frame — or, with `--frames N`, exits success after N delta
//! frames (used by scripted smoke tests).
//!
//! `--profile` switches `run`/`exec` onto the `PROFILE` wire verb: the
//! server executes the program as usual and additionally returns the
//! per-snapshot cost table (pages read, pages shared-skipped, memo
//! outcome, wall/CPU time), printed after the results.
//!
//! `--trace-id HEX` (32 hex digits = 16 bytes) attaches a
//! client-generated trace id to every `run`/`exec`/`check` request on
//! this invocation. The server records it as a `trace_ctx` instant in
//! its trace ring, so `scripts/stitch_trace.py` can correlate this
//! client's requests across the per-node `RQL_TRACE` exports.
//!
//! Exit status: 0 on success, 1 when the server reports an error or
//! `check` finds error diagnostics, 2 on usage/connection problems.

use std::process::ExitCode;

use rql_repro::rqld::{Client, ClientError, SubscriptionEvent, WireResult};
use rql_trace::json_str;

const USAGE: &str = "usage: rql [--addr ADDR] [--no-memo] [--profile] [--trace-id HEX32] \
                     <run FILE...|exec PROGRAM|check [--json] FILE...|status [--flight]|metrics [--json]\
                     |replstatus [--json]|cancel ID|register STATEMENT|unregister NAME\
                     |watch [--frames N] NAME|shutdown>";

/// Parse `--trace-id`'s value: exactly 32 hex digits → 16 bytes.
fn parse_trace_id(hex: &str) -> Option<[u8; 16]> {
    let bytes = hex.as_bytes();
    if bytes.len() != 32 {
        return None;
    }
    let mut id = [0u8; 16];
    for (i, chunk) in bytes.chunks_exact(2).enumerate() {
        let s = std::str::from_utf8(chunk).ok()?;
        id[i] = u8::from_str_radix(s, 16).ok()?;
    }
    Some(id)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7464".to_owned();
    let mut no_memo = false;
    let mut profile = false;
    let mut trace_id: Option<[u8; 16]> = None;
    loop {
        if args.first().is_some_and(|a| a == "--addr") {
            if args.len() < 2 {
                eprintln!("--addr needs a value");
                return ExitCode::from(2);
            }
            addr = args[1].clone();
            args.drain(..2);
        } else if args.first().is_some_and(|a| a == "--no-memo") {
            no_memo = true;
            args.remove(0);
        } else if args.first().is_some_and(|a| a == "--profile") {
            profile = true;
            args.remove(0);
        } else if args.first().is_some_and(|a| a == "--trace-id") {
            if args.len() < 2 {
                eprintln!("--trace-id needs a value");
                return ExitCode::from(2);
            }
            let Some(id) = parse_trace_id(&args[1]) else {
                eprintln!(
                    "--trace-id: expected exactly 32 hex digits, got {:?}",
                    args[1]
                );
                return ExitCode::from(2);
            };
            trace_id = Some(id);
            args.drain(..2);
        } else {
            break;
        }
    }
    let Some(command) = args.first().cloned() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];

    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rql: connect {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    client.set_trace_id(trace_id);

    let outcome = match command.as_str() {
        "run" => cmd_run(&mut client, rest, no_memo, profile),
        "exec" => match rest {
            [program] => run_one(&mut client, program, "<inline>", no_memo, profile),
            _ => usage(),
        },
        "check" => cmd_check(&mut client, rest),
        "status" => {
            let flight = rest.iter().any(|a| a == "--flight");
            let text = if flight {
                client.status_flight()
            } else {
                client.status()
            };
            text.map(|s| println!("{s}")).map_err(fail)
        }
        "metrics" => {
            let json = rest.iter().any(|a| a == "--json");
            client
                .metrics(json)
                .map(|s| print!("{s}{}", if s.ends_with('\n') { "" } else { "\n" }))
                .map_err(fail)
        }
        "replstatus" => {
            let json = rest.iter().any(|a| a == "--json");
            client
                .replstatus(json)
                .map(|s| print!("{s}{}", if s.ends_with('\n') { "" } else { "\n" }))
                .map_err(fail)
        }
        "cancel" => match rest {
            [id] => match id.parse::<u64>() {
                Ok(id) => client
                    .cancel(id)
                    .map(|()| println!("cancelled session {id}"))
                    .map_err(fail),
                Err(_) => usage(),
            },
            _ => usage(),
        },
        "register" => match rest {
            [statement] => client
                .register(statement)
                .map(|ack| println!("{ack}"))
                .map_err(fail),
            _ => usage(),
        },
        "unregister" => match rest {
            [name] => client
                .unregister(name)
                .map(|()| println!("unregistered {name}"))
                .map_err(fail),
            _ => usage(),
        },
        "watch" => cmd_watch(&mut client, rest),
        "shutdown" => client
            .shutdown()
            .map(|()| println!("server draining"))
            .map_err(fail),
        "--help" | "-h" => usage(),
        _ => usage(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn usage() -> Result<(), ExitCode> {
    eprintln!("{USAGE}");
    Err(ExitCode::from(2))
}

fn fail(e: ClientError) -> ExitCode {
    eprintln!("rql: {e}");
    ExitCode::FAILURE
}

fn cmd_run(
    client: &mut Client,
    files: &[String],
    no_memo: bool,
    profile: bool,
) -> Result<(), ExitCode> {
    if files.is_empty() {
        return usage();
    }
    for file in files {
        let src = std::fs::read_to_string(file).map_err(|e| {
            eprintln!("rql: {file}: {e}");
            ExitCode::from(2)
        })?;
        run_one(client, &src, file, no_memo, profile)?;
    }
    Ok(())
}

fn run_one(
    client: &mut Client,
    program: &str,
    name: &str,
    no_memo: bool,
    profile: bool,
) -> Result<(), ExitCode> {
    if profile {
        let profiled = client.profile(program, no_memo).map_err(fail)?;
        print_result(name, &profiled.result);
        print!("{}", profiled.human);
        if !profiled.human.ends_with('\n') {
            println!();
        }
    } else {
        let result = client.run_opts(program, no_memo).map_err(fail)?;
        print_result(name, &result);
    }
    Ok(())
}

/// `watch NAME`: subscribe, print the opening table, then stream pushed
/// deltas until the terminal END frame (or after `--frames N` deltas).
fn cmd_watch(client: &mut Client, rest: &[String]) -> Result<(), ExitCode> {
    let mut frames_limit: Option<u64> = None;
    let mut name: Option<&String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--frames" {
            let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                return usage();
            };
            frames_limit = Some(n);
        } else if name.is_none() {
            name = Some(arg);
        } else {
            return usage();
        }
    }
    let Some(name) = name else {
        return usage();
    };
    let initial = client.subscribe(name).map_err(fail)?;
    print_result(&format!("watch {name}"), &initial);
    let mut seen = 0u64;
    loop {
        if frames_limit.is_some_and(|n| seen >= n) {
            println!("-- {seen} delta frame(s), detaching");
            return Ok(());
        }
        match client.next_event().map_err(fail)? {
            SubscriptionEvent::Delta(d) => {
                seen += 1;
                println!("== snapshot {}", d.snap_id);
                for row in &d.removed {
                    let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
                    println!("- {}", cells.join(" | "));
                }
                for row in &d.added {
                    let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
                    println!("+ {}", cells.join(" | "));
                }
            }
            SubscriptionEvent::End { reason, .. } => {
                println!("-- subscription ended: {reason}");
                return Ok(());
            }
        }
    }
}

fn cmd_check(client: &mut Client, files: &[String]) -> Result<(), ExitCode> {
    let json = files.iter().any(|a| a == "--json");
    let files: Vec<&String> = files.iter().filter(|a| *a != "--json").collect();
    if files.is_empty() {
        return usage();
    }
    let mut errors = 0usize;
    let mut json_items: Vec<String> = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(file).map_err(|e| {
            eprintln!("rql: {file}: {e}");
            ExitCode::from(2)
        })?;
        let diagnostics = client.prepare(&src).map_err(fail)?;
        for d in &diagnostics {
            let severity = match d.severity {
                2 => "error",
                1 => "warning",
                _ => "info",
            };
            if d.severity == 2 {
                errors += 1;
            }
            if json {
                json_items.push(diag_json(file, d, severity));
                continue;
            }
            let at = d
                .span
                .map(|(s, e)| format!(" (bytes {s}..{e})"))
                .unwrap_or_default();
            println!("{file}: {severity}[{}]: {}{at}", d.code, d.message);
            if let Some(fix) = &d.fix {
                println!(
                    "{file}:   fix ({}): replace bytes {}..{} with {:?}",
                    applicability_name(fix.applicability),
                    fix.start,
                    fix.end,
                    fix.replacement
                );
            }
        }
        if !json && diagnostics.is_empty() {
            println!("{file}: clean");
        }
    }
    if json {
        println!("[{}]", json_items.join(","));
    }
    if errors > 0 {
        Err(ExitCode::FAILURE)
    } else {
        Ok(())
    }
}

fn applicability_name(a: u8) -> &'static str {
    match a {
        0 => "machine-applicable",
        1 => "maybe-incorrect",
        _ => "has-placeholders",
    }
}

/// One diagnostic as a JSON object (used by `check --json`, which CI
/// scripts parse to assert PREPARE round-trips fixes over the wire).
fn diag_json(file: &str, d: &rql_repro::rqld::WireDiagnostic, severity: &str) -> String {
    let mut obj = format!(
        "{{\"file\":{},\"code\":{},\"severity\":{},\"message\":{}",
        json_str(file),
        json_str(&d.code),
        json_str(severity),
        json_str(&d.message),
    );
    if let Some((s, e)) = d.span {
        obj.push_str(&format!(",\"span\":[{s},{e}]"));
    }
    if let Some(fix) = &d.fix {
        obj.push_str(&format!(
            ",\"fix\":{{\"span\":[{},{}],\"replacement\":{},\"applicability\":{}}}",
            fix.start,
            fix.end,
            json_str(&fix.replacement),
            json_str(applicability_name(fix.applicability)),
        ));
    }
    obj.push('}');
    obj
}

fn print_result(name: &str, result: &WireResult) {
    for table in &result.tables {
        println!("{}", table.columns.join(" | "));
        for row in &table.rows {
            let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
            println!("{}", cells.join(" | "));
        }
        println!();
    }
    for report in &result.reports {
        println!(
            "-- {}: {} iterations, {} Qq rows, {} pages delta-skipped, {} pages pruned, \
             {} pagelog reads, {} cache hits",
            report.table,
            report.iterations,
            report.qq_rows,
            report.pages_skipped_delta,
            report.pages_pruned_filter,
            report.pagelog_reads,
            report.cache_hits
        );
    }
    if !result.snapshots.is_empty() {
        let ids: Vec<String> = result.snapshots.iter().map(ToString::to_string).collect();
        println!("-- snapshots declared: {}", ids.join(", "));
    }
    println!("-- {name}: ok in {}µs", result.elapsed_micros);
}
