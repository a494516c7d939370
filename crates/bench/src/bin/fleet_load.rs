//! Fleet-scale PRACH load sweep: soft vs hard handover under contention.
//! Usage: `fleet_load [--smoke] [--workers N] [--json PATH]
//!                    [--snapshot-s S] [--timeline PATH] [--explain-top N]
//!                    [--causes PATH] [--record PATH]
//!                    [--ues N]... [--interest-radius M] [POPULATIONS...]`
//!
//! `--smoke` prints the deterministic aggregate summary of a small fixed
//! fleet (CI compares two invocations byte-for-byte); otherwise the
//! positional arguments are population sizes (default 100 300 1000).
//! RACH contention is always exact (one shared responder stage per
//! contention group), so the summary is byte-identical across shard
//! counts as well as worker counts. `--workers N` runs on at most N
//! threads.
//!
//! `--record PATH` arms per-UE protocol trace recording and saves the
//! recorded [`st_net::FleetTrace`] to PATH; recording does not change
//! the summary. `replay_eval --trace PATH` refolds it.
//!
//! `--json PATH` writes the perf artifact (per-run wall-clock,
//! UE-seconds simulated per wall-second, barrier overhead and the
//! run-profiler counters/wall spans; the repository keeps one as
//! `BENCH_fleet.json`) to PATH; the artifact goes to a file so the smoke
//! stdout stays byte-comparable. Every artifact is written only to the
//! path its flag names: a run without `--json` writes no perf artifact.
//!
//! `--snapshot-s S` arms the streaming telemetry timeline: each fleet
//! pushes a constant-memory snapshot slice every S simulated seconds,
//! and `--timeline PATH` writes the merged per-interval series to PATH
//! (the repository keeps one as `BENCH_fleet_timeline.json`). The
//! timeline file contains no wall-clock values, so CI `cmp`s it
//! byte-for-byte across worker counts. Arming snapshots does not change
//! the smoke summary bytes.
//!
//! `--explain-top N` prints the N worst interruptions of each arm with
//! their full causal phase breakdowns (the same formatter the `autopsy`
//! tool uses) right after the summary/table. `--causes PATH` writes the
//! per-cause attribution artifact (cause-keyed quantile ledgers plus the
//! worst-k exemplars; no wall-clock values, so CI `cmp`s it across
//! worker counts).
//!
//! `--ues N` (repeatable) runs the gapped-cluster *scale* deployment at
//! population N with a 150 m interest radius (`--interest-radius M`
//! overrides; `0` keeps the full link set — the A/B for the
//! interest-management profiler deltas). Scale arms print their
//! deterministic aggregate summaries to stdout (no wall-clock), so CI
//! byte-compares two worker counts the same way it compares `--smoke`
//! runs.
fn main() {
    let mut smoke = false;
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut json_path: Option<String> = None;
    let mut timeline_path: Option<String> = None;
    let mut snapshot_s: Option<f64> = None;
    let mut record_path: Option<String> = None;
    let mut explain_top: usize = 0;
    let mut causes_path: Option<String> = None;
    let mut populations: Vec<u64> = Vec::new();
    let mut scale_ues: Vec<u64> = Vec::new();
    let mut interest_radius: Option<f64> = Some(150.0);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--ues" => {
                scale_ues.push(args.next().and_then(|v| v.parse().ok()).expect("--ues N"));
            }
            "--interest-radius" => {
                let m: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--interest-radius M (metres, 0 disables)");
                interest_radius = (m > 0.0).then_some(m);
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers N");
            }
            "--json" => {
                json_path = Some(args.next().expect("--json PATH"));
            }
            "--timeline" => {
                timeline_path = Some(args.next().expect("--timeline PATH"));
            }
            "--snapshot-s" => {
                snapshot_s = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&s: &f64| s > 0.0)
                        .expect("--snapshot-s S (seconds, > 0)"),
                );
            }
            "--record" => {
                record_path = Some(args.next().expect("--record PATH"));
            }
            "--explain-top" => {
                explain_top = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--explain-top N");
            }
            "--causes" => {
                causes_path = Some(args.next().expect("--causes PATH"));
            }
            other => populations.push(other.parse().expect("population size")),
        }
    }

    let record = record_path.is_some();
    let save_trace = |load: &st_bench::fleet_load::FleetLoad| {
        if let Some(path) = &record_path {
            let trace = st_net::FleetTrace {
                runs: load.arms.iter().filter_map(|a| a.trace.clone()).collect(),
            };
            match trace.save(std::path::Path::new(path)) {
                Ok(()) => eprintln!("trace artifact: {path}"),
                Err(e) => eprintln!("warning: could not write trace {path}: {e}"),
            }
        }
    };
    let save_causes = |load: &st_bench::fleet_load::FleetLoad| {
        if let Some(path) = &causes_path {
            match st_bench::fleet_load::write_causes_json(path, load) {
                Ok(()) => eprintln!("causes artifact: {path}"),
                Err(e) => eprintln!("warning: could not write {path}: {e}"),
            }
        }
    };
    let save_timeline = |load: &st_bench::fleet_load::FleetLoad| {
        let (Some(_), Some(path)) = (snapshot_s, &timeline_path) else {
            return;
        };
        match st_bench::fleet_load::write_timeline_json(path, load) {
            Ok(true) => eprintln!("timeline artifact: {path}"),
            Ok(false) => eprintln!("warning: snapshots armed but no timeline survived the merge"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    };
    let save_json = |load: &st_bench::fleet_load::FleetLoad, mode: &str| {
        let Some(path) = &json_path else {
            return;
        };
        match st_bench::fleet_load::write_bench_json(path, load, mode) {
            Ok(()) if mode == "sweep" => println!("perf artifact: {path}"),
            Ok(()) => eprintln!("perf artifact: {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    };
    if smoke {
        let (summary, load) = st_bench::fleet_load::smoke_timed(workers, record, snapshot_s);
        print!("{summary}");
        if explain_top > 0 {
            print!("{}", st_bench::fleet_load::explain_top(&load, explain_top));
        }
        save_trace(&load);
        save_timeline(&load);
        save_causes(&load);
        save_json(&load, "smoke");
        return;
    }
    if populations.is_empty() && scale_ues.is_empty() {
        populations = vec![100, 300, 1000];
    }
    // With only `--ues` points the sweep is empty.
    let mut r = st_bench::fleet_load::run(&populations, 42, workers, record, snapshot_s);
    for &ues in &scale_ues {
        r.arms.push(st_bench::fleet_load::run_scale_point(
            ues,
            interest_radius,
            workers,
            42,
        ));
    }
    save_trace(&r);
    save_timeline(&r);
    save_causes(&r);
    if populations.is_empty() {
        // Scale-only invocation: deterministic aggregate summaries only
        // (no wall-clock on stdout), so CI can `cmp` worker counts.
        for a in &r.arms {
            print!("{}", a.outcome.summary());
        }
    } else {
        println!("{}", st_bench::fleet_load::render(&r));
    }
    if explain_top > 0 {
        print!("{}", st_bench::fleet_load::explain_top(&r, explain_top));
    }
    let mode = if populations.is_empty() {
        "scale"
    } else {
        "sweep"
    };
    save_json(&r, mode);
}
