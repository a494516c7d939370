//! End-to-end and per-layer benchmark of the silent-tracker-repro
//! workspace. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_trials --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` is a separate
//! run that prints every per-layer metric and writes the benchmark's
//! spans to `.bench_out/`. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` here.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux /proc files and 64-bit Linux CPU clocks");

mod context;
mod layers;
mod ops;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use context::{peak_rss_mb, Context, CpuClock, CpuTimes};
use layers::Layers;
use ops::{OpResult, Prepared, Workload, WARMUP_SEED};
use spans::Spans;
use stats::{percentile, tail};

/// A run never measures longer than this many times `--seconds` while
/// waiting for enough ops to support its tail percentile.
const MAX_STRETCH: f64 = 3.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One timed op.
struct Rec {
    i: u64,
    /// Wall milliseconds.
    ms: f64,
    /// On-CPU milliseconds of the op (see [`closed_loop`]).
    cpu_ms: f64,
    result: OpResult,
}

/// Ops run by a closed loop, and the loop's wall and process CPU time.
struct Timed {
    recs: Vec<Rec>,
    wall_s: f64,
    cpu_s: f64,
}

impl Timed {
    fn sorted(&self, f: impl Fn(&Rec) -> f64) -> Vec<f64> {
        let mut v: Vec<f64> = self.recs.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn sorted_ms(&self) -> Vec<f64> {
        self.sorted(|r| r.ms)
    }

    fn sorted_cpu_ms(&self) -> Vec<f64> {
        self.sorted(|r| r.cpu_ms)
    }

    fn failed(&self) -> usize {
        self.recs
            .iter()
            .filter(|r| r.result.failure.is_some())
            .count()
    }

    fn ue_s(&self) -> f64 {
        self.recs.iter().map(|r| r.result.ue_s).sum()
    }
}

/// Closed loop: each of `threads` clients starts its next op when its
/// last one ends, taking op indices in order from a shared counter.
/// Clients stop starting ops once `seconds` have passed and at least
/// `min_ops` were started (or the stretch limit is reached). Fleet
/// outcomes are dropped unless `keep` is set.
///
/// An op's CPU time is read on the process clock when one client runs
/// (fleet and replay ops use threads of their own inside the program),
/// and on the client's thread clock when several clients share the
/// process (each trial runs on its client's thread).
fn closed_loop(
    p: &Prepared,
    seed: u64,
    threads: usize,
    seconds: f64,
    min_ops: u64,
    spans: &Spans,
    keep: bool,
) -> Timed {
    let next = AtomicU64::new(0);
    let clock = if threads == 1 {
        CpuClock::Process
    } else {
        CpuClock::Thread
    };
    let cpu0 = CpuClock::Process.now();
    let start = Instant::now();
    let until = Duration::from_secs_f64(seconds);
    let limit = Duration::from_secs_f64(seconds * MAX_STRETCH);
    let per_thread: Vec<Vec<Rec>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut recs = Vec::new();
                    loop {
                        let elapsed = start.elapsed();
                        let issued = next.load(Ordering::Relaxed);
                        if elapsed >= limit || (elapsed >= until && issued >= min_ops) {
                            break recs;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let c0 = clock.now();
                        let t0 = Instant::now();
                        let mut result = p.op(seed, i, spans);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let cpu_ms = (clock.now() - c0) * 1e3;
                        if !keep {
                            result.fleet = None;
                        }
                        recs.push(Rec {
                            i,
                            ms,
                            cpu_ms,
                            result,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked outside an op"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = CpuClock::Process.now() - cpu0;
    let mut recs: Vec<Rec> = per_thread.into_iter().flatten().collect();
    recs.sort_by_key(|r| r.i);
    Timed {
        recs,
        wall_s,
        cpu_s,
    }
}

/// One set-up: the prepared inputs, its wall and process CPU seconds,
/// and the first warm-up failure, if any.
struct SetUp {
    p: Prepared,
    wall_s: f64,
    cpu_s: f64,
    warm_failure: Option<String>,
}

/// Set up workload `w` and run one untimed warm-up op of each kind.
fn set_up(w: Workload, seed: u64, nproc: usize, spans: &Spans) -> Result<SetUp, String> {
    let c0 = CpuClock::Process.now();
    let t0 = Instant::now();
    let root = spans.open("setup", None, None);
    let p = Prepared::new(w, seed, nproc, spans, root)?;
    let mut warm_failure = None;
    for k in 0..p.kinds() {
        let r = p.op(WARMUP_SEED, k, spans);
        warm_failure = warm_failure.or(r.failure.map(|f| format!("warm-up op {k}: {f}")));
    }
    spans.close(root);
    Ok(SetUp {
        p,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: CpuClock::Process.now() - c0,
        warm_failure,
    })
}

/// Digest over ops `0..digest_ops`, running untimed any the timed window
/// did not reach. Returns the digest and the failures among those extra
/// ops.
fn digest(w: Workload, p: &Prepared, seed: u64, timed: &Timed, spans: &Spans) -> (u64, usize) {
    let mut extra_failed = 0;
    let per_op: Vec<u64> = (0..w.digest_ops())
        .map(|i| match timed.recs.get(i as usize) {
            Some(r) if r.i == i => r.result.digest,
            _ => {
                let r = p.op(seed, i, spans);
                extra_failed += usize::from(r.failure.is_some());
                r.digest
            }
        })
        .collect();
    (ops::run_digest(&per_op), extra_failed)
}

/// Metric name, value and unit, in output order.
type Metric = (&'static str, f64, &'static str);

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (k, (name, v, unit)) in metrics.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    s.push('}');
    s
}

fn print_failures(timed: &Timed) {
    for r in timed
        .recs
        .iter()
        .filter(|r| r.result.failure.is_some())
        .take(5)
    {
        eprintln!(
            "op {} failed: {}",
            r.i,
            r.result.failure.as_deref().unwrap_or("")
        );
    }
}

fn context_line(ctx: &Context, steal: f64) -> String {
    format!(
        "\"git_sha\": \"{}\", \"source_fnv\": \"{:016x}\", \"nproc\": {}, \"cpu_model\": \"{}\", \"steal_frac\": {}",
        ctx.git_sha,
        ctx.source_fnv,
        ctx.nproc,
        ctx.cpu_model.replace('"', "'"),
        json_number(steal)
    )
}

/// The timed run: every end-to-end metric.
///
/// The end-to-end metrics are read on CPU clocks, which leave out time
/// the host stole from this machine; the same figures on the wall clock
/// are printed beside them (and in the row) but are not the metrics,
/// because steal moves them by more than any useful bound.
fn timed_run(a: &Args, ctx: &Context) -> Result<String, String> {
    let w = a.workload;
    let spans = Spans::new(false);
    let mut setup_wall = Vec::new();
    let mut setup_cpu = Vec::new();
    let mut warm_failure = None;
    let mut last = None;
    for _ in 0..w.setup_reps() {
        // Drop the previous set-up first so peak RSS reflects one.
        drop(last.take());
        let s = set_up(w, a.seed, ctx.nproc, &spans)?;
        setup_wall.push(s.wall_s);
        setup_cpu.push(s.cpu_s);
        warm_failure = warm_failure.or(s.warm_failure);
        last = Some(s.p);
    }
    let p = last.expect("at least one set-up");
    let min_ops = (stats::MIN_BEYOND as f64 / (1.0 - w.tail_q())).round() as u64;
    let steal0 = CpuTimes::now();
    let timed = closed_loop(
        &p,
        a.seed,
        p.client_threads(ctx.nproc),
        a.seconds,
        min_ops,
        &spans,
        false,
    );
    let steal = CpuTimes::now().steal_frac_since(steal0);
    let (digest, extra_failed) = digest(w, &p, a.seed, &timed, &spans);
    let cpu = timed.sorted_cpu_ms();
    let wall = timed.sorted_ms();
    let n = cpu.len();
    let failed = timed.failed() + extra_failed;
    print_failures(&timed);
    if let Some(f) = &warm_failure {
        eprintln!("{f}");
    }
    let q = w.tail_q();
    let (Some(cpu_tail), Some(wall_tail)) = (tail(&cpu, q), tail(&wall, q)) else {
        return Err(format!(
            "only {n} ops in {:.1} s: too few for a p{} with {} ops beyond it",
            timed.wall_s,
            q * 100.0,
            stats::MIN_BEYOND
        ));
    };
    let metrics: Vec<Metric> = vec![
        (
            "setup_s",
            stats::median(&setup_cpu).expect("set-up ran"),
            "s",
        ),
        ("ue_s_per_cpu_s", timed.ue_s() / timed.cpu_s, "ue-s/cpu-s"),
        (
            "op_cpu_p50_ms",
            percentile(&cpu, 0.5).expect("ops ran"),
            "ms",
        ),
        ("op_cpu_tail_ms", cpu_tail, "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let wall_metrics: Vec<Metric> = vec![
        (
            "setup_wall_s",
            stats::median(&setup_wall).expect("set-up ran"),
            "s",
        ),
        ("ue_s_per_wall_s", timed.ue_s() / timed.wall_s, "ue-s/s"),
        ("op_p50_ms", percentile(&wall, 0.5).expect("ops ran"), "ms"),
        ("op_tail_ms", wall_tail, "ms"),
    ];
    let pq = (q * 100.0).round();
    let beyond = |v: &[f64], x: f64| n - v.partition_point(|&y| y <= x);
    println!("context {{{}}}", context_line(ctx, steal));
    println!(
        "ops attempted={n} failed={failed} digest={digest:016x} (over ops 0..{}), {} client thread(s), {:.3} s wall, {:.3} s cpu",
        w.digest_ops(),
        p.client_threads(ctx.nproc),
        timed.wall_s,
        timed.cpu_s
    );
    println!(
        "setup_s = {:.4} s cpu, {:.4} s wall (medians of {} set-ups)",
        metrics[0].1,
        wall_metrics[0].1,
        w.setup_reps()
    );
    println!(
        "ue_s_per_cpu_s = {:.2} ue-s/cpu-s; wall: {:.2} ue-s/s",
        metrics[1].1, wall_metrics[1].1
    );
    println!(
        "op_cpu_p50_ms = {:.3} ms; wall op_p50_ms = {:.3} ms (n={n})",
        metrics[2].1, wall_metrics[2].1
    );
    println!(
        "op_cpu_p{pq}_ms = {cpu_tail:.3} ms ({} beyond); wall op_p{pq}_ms = {wall_tail:.3} ms ({} beyond) (n={n}); reported as op_cpu_tail_ms",
        beyond(&cpu, cpu_tail),
        beyond(&wall, wall_tail)
    );
    println!("peak_rss_mb = {:.1} MB", metrics[4].1);
    println!(
        "row {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, {}, \"digest\": \"{digest:016x}\", \"ops\": {n}, \"failed\": {failed}, \"metrics\": {}, \"wall\": {}}}",
        w.name(),
        a.seed,
        a.seconds,
        context_line(ctx, steal),
        metrics_json(&metrics),
        metrics_json(&wall_metrics)
    );
    let correct = failed == 0 && warm_failure.is_none();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {n}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    ))
}

/// The traced run: every per-layer metric, and the span file.
fn traced_run(a: &Args, ctx: &Context) -> Result<String, String> {
    let w = a.workload;
    let nproc = ctx.nproc;
    let untraced = Spans::new(false);
    let spans = Spans::new(true);
    let SetUp {
        p,
        wall_s: setup_s,
        warm_failure,
        ..
    } = set_up(w, a.seed, nproc, &spans)?;
    let threads = p.client_threads(nproc);
    // Same ops with collection off, then on: the ratio of their median
    // CPU times is the collection overhead.
    let cpu0 = CpuTimes::now();
    let plain = closed_loop(&p, a.seed, threads, a.seconds / 2.0, 1, &untraced, false);
    let traced = closed_loop(&p, a.seed, threads, a.seconds / 2.0, 1, &spans, true);
    let steal = CpuTimes::now().steal_frac_since(cpu0);
    let cpu_p50 = |t: &Timed| percentile(&t.sorted_cpu_ms(), 0.5).expect("ops ran");
    let mut l = Layers::default();
    l.set("trace_overhead", cpu_p50(&traced) / cpu_p50(&plain));
    let mut extra_failed = 0;
    match &p {
        Prepared::Trials { cfgs } => {
            let trials: Vec<_> = traced.recs.iter().filter_map(|r| r.result.trial).collect();
            let n = trials.len().max(1) as f64;
            l.set(
                "st_net.trial_samples",
                trials.iter().map(|t| t.samples as f64).sum::<f64>() / n,
            );
            l.set(
                "st_net.trial_dwells",
                trials.iter().map(|t| t.dwells as f64).sum::<f64>() / n,
            );
            let handovers = trials.iter().filter(|t| t.handover).count().max(1);
            let rach: u64 = trials.iter().map(|t| t.rach_attempts).sum();
            l.set("st_mac.rach_per_handover", rach as f64 / handovers as f64);
            let c = &cfgs[0];
            let sites =
                st_net::Sites::new(c.cells.clone(), c.environment.clone(), c.radio, c.channel);
            // The paper's mobiles stay within the two cells' overlap.
            layers::phy_costs(&mut l, &sites, (-15.0, 15.0), (-1.0, 1.0), a.seed);
            // A single trial's queue holds a handful of periodic events.
            layers::des_cost(&mut l, 16, a.seed);
        }
        Prepared::Street { workers, spec } => {
            let ops: Vec<(f64, st_fleet::FleetOutcome)> = traced
                .recs
                .iter()
                .filter_map(|r| r.result.fleet.clone().map(|f| (r.ms * 1e-3, f)))
                .collect();
            layers::fleet_layers(&mut l, &ops);
            // Parallel speed-up on the same inputs at 1 and nproc workers,
            // alternating so drift hits both sides.
            let (mut one, mut many) = (0.0, 0.0);
            for i in 0..3 {
                let cfg = ops::street(*spec, ops::op_seed(a.seed, i), false);
                for (workers, acc) in [(1, &mut one), (nproc, &mut many)] {
                    let t0 = Instant::now();
                    let out = spans.call("run_fleet_with_workers", Some(i), None, || {
                        st_fleet::run_fleet_with_workers(&cfg, workers)
                    });
                    *acc += t0.elapsed().as_secs_f64();
                    extra_failed += usize::from(ops::fleet_failure(&out).is_some());
                }
            }
            l.set("st_fleet.parallel_speedup", one / many);
            // Op 0 plain and recorded, alternating: the CPU-time ratio is
            // the recording overhead. The recorded trace then gives the
            // trace codec and the fold's share of live busy time.
            let cfg0 = ops::street(*spec, ops::op_seed(a.seed, 0), false);
            let (mut plain_cpu, mut rec_cpu, mut recorded) = (Vec::new(), Vec::new(), None);
            for _ in 0..3 {
                let c0 = CpuClock::Process.now();
                spans.call("run_fleet_with_workers", Some(0), None, || {
                    st_fleet::run_fleet_with_workers(&cfg0, *workers)
                });
                plain_cpu.push(CpuClock::Process.now() - c0);
                let c0 = CpuClock::Process.now();
                let run =
                    ops::record_trace(*spec, ops::op_seed(a.seed, 0), *workers, &spans, None)?;
                rec_cpu.push(CpuClock::Process.now() - c0);
                recorded = Some(run);
            }
            let run = recorded.expect("recorded op 0");
            l.set(
                "st_net.record_overhead",
                stats::median(&rec_cpu).unwrap_or(0.0)
                    / stats::median(&plain_cpu).unwrap_or(f64::INFINITY),
            );
            layers::fold_costs(&mut l, &run, ops::variant_grid(run.tracker)[0]);
            layers::codec_costs(&mut l, &run);
            let sites = st_net::Sites::new(
                cfg0.base.cells.clone(),
                cfg0.base.environment.clone(),
                cfg0.base.radio,
                cfg0.base.channel,
            );
            layers::phy_costs(&mut l, &sites, cfg0.spawn_x, cfg0.spawn_y, a.seed);
            let depth = l.get("st_des.queue_peak") as usize;
            layers::des_cost(&mut l, depth, a.seed);
            layers::explain_busy(&mut l);
        }
        Prepared::Replay {
            run,
            variants,
            workers,
        } => {
            layers::fold_costs(&mut l, run, variants[0]);
            layers::codec_costs(&mut l, run);
            let median_cpu = |parity: u64| {
                let v: Vec<f64> = traced
                    .recs
                    .iter()
                    .filter(|r| r.i % 2 == parity)
                    .map(|r| r.cpu_ms)
                    .collect();
                stats::median(&v).unwrap_or(f64::NAN)
            };
            l.set("st_net.verify_overhead", median_cpu(0) / median_cpu(1));
            let fold_s = l.get("silent_tracker.events") * l.get("silent_tracker.event_ns") * 1e-9;
            l.set("silent_tracker.share", fold_s / (cpu_p50(&traced) * 1e-3));
            // The recorded fleet once more with and without recording.
            let cfg = ops::street(ops::REPLAY_FLEET, a.seed, false);
            let c0 = CpuClock::Process.now();
            let out = spans.call("run_fleet_with_workers", None, None, || {
                st_fleet::run_fleet_with_workers(&cfg, *workers)
            });
            let plain_cpu = CpuClock::Process.now() - c0;
            extra_failed += usize::from(ops::fleet_failure(&out).is_some());
            let c0 = CpuClock::Process.now();
            ops::record_trace(ops::REPLAY_FLEET, a.seed, *workers, &spans, None)?;
            l.set(
                "st_net.record_overhead",
                (CpuClock::Process.now() - c0) / plain_cpu,
            );
        }
    }
    let attempted = plain.recs.len() + traced.recs.len();
    let failed = plain.failed() + traced.failed() + extra_failed;
    print_failures(&plain);
    print_failures(&traced);
    if let Some(f) = &warm_failure {
        eprintln!("{f}");
    }
    println!("context {{{}}}", context_line(ctx, steal));
    println!(
        "traced run: set-up {setup_s:.3} s; {} untraced + {} traced ops, failed={failed}",
        plain.recs.len(),
        traced.recs.len()
    );
    println!("spans (name: count, total s, self s):");
    for (name, (count, total, own)) in spans.summary() {
        println!("  {name}: {count}, {total:.4}, {own:.4}");
    }
    let path = PathBuf::from(".bench_out").join(format!("{}-seed{}.spans.jsonl", w.name(), a.seed));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    let metrics: Vec<Metric> = layers::METRICS
        .iter()
        .map(|&(name, unit)| (name, l.get(name), unit))
        .collect();
    for (name, v, unit) in &metrics {
        println!("{name} = {v:.6} {unit}");
    }
    let correct = failed == 0 && warm_failure.is_none();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let ctx = Context::collect();
    let result = if args.trace {
        traced_run(&args, &ctx)
    } else {
        timed_run(&args, &ctx)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
