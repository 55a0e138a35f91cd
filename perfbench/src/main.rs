//! perfbench — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stored_epochs|serve_mix|serve_tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, then runs rounds of
//! the closed loop until `--seconds` of loop time have been measured.
//! Every delivery is checked. The last line of standard output is one
//! JSON object: `correct`, `attempted` and `failed` pulls, and the
//! metrics — the end-to-end ones with `--trace 0`, the per-layer ones
//! with `--trace 1`. See README.md for the workloads and metrics.

mod check;
mod serve;
mod stats;
mod stored;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use msd_core::metrics::Stage;

use crate::check::Pulls;
use crate::stats::{median, peak_rss_mb, quantile, thread_count};
use crate::trace::Tracer;
use crate::workload::{Counters, Round, Workload};

const USAGE: &str = "usage: perfbench --workload <stored_epochs|serve_mix|serve_tcp> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Steps a round must carry so its p95 has ten samples beyond it.
const MIN_STEPS: usize = 200;
/// `peak_rss_mb` covers the run's first this many rounds. Later rounds
/// spawn fresh threads whose allocator arenas still raise the peak, so a
/// figure over all rounds would grow with how many rounds the host's
/// speed let into `--seconds`.
const RSS_ROUNDS: usize = 3;
/// Where traces and delivery digests are written, relative to the
/// working directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "stored_epochs" => Box::new(stored::StoredEpochs::generate(args.seed)),
        "serve_mix" => Box::new(serve::Serve::mix(args.seed)),
        "serve_tcp" => Box::new(serve::Serve::tcp(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Rounds until enough loop time and steps are measured. A traced
    // run alternates untraced and traced rounds, so the tracing overhead
    // is measured on the same inputs.
    let mut tracer = Tracer::new();
    let mut pulls = Pulls::default();
    let mut rounds: Vec<Round> = Vec::new();
    let min_rounds = if args.trace { 4 } else { 3 };
    let mut peak_rss = 0.0;
    loop {
        let i = rounds.len();
        tracer.set_enabled(args.trace && i % 2 == 1, i as u32);
        let mut round = workload.round(&mut tracer, &mut pulls);
        if round.traced {
            round.counters.threads_max = round.counters.threads_max.max(thread_count());
        }
        rounds.push(round);
        if rounds.len() <= RSS_ROUNDS {
            peak_rss = peak_rss_mb();
        }
        if pulls.failed > 0 {
            break;
        }
        let loop_s: f64 = rounds.iter().map(|r| r.loop_s).sum();
        if loop_s >= args.seconds && rounds.len() >= min_rounds {
            break;
        }
    }
    if let Some(r) = rounds.iter().find(|r| r.step_ms.len() < MIN_STEPS) {
        if pulls.failed == 0 {
            pulls.fail(format!(
                "a round carried {} steps, fewer than the {MIN_STEPS} its p95 needs",
                r.step_ms.len()
            ));
        }
    }
    check_digests(&args, &rounds, &mut pulls);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed={} trace={} rounds={} nproc={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        rounds.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let metrics = if args.trace {
        per_layer(&args, &rounds, &tracer, &mut out)
    } else {
        end_to_end(&rounds, workload.inline_steps(), peak_rss, &mut out)
    };
    for m in &metrics {
        if m.measured {
            let _ = writeln!(out, "  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
        } else {
            let _ = writeln!(out, "  {:<32} {:>16} (layer bypassed)", m.name, "-");
        }
    }
    let _ = writeln!(
        out,
        "  failed_ratio {:.6} ({} failed of {} pulls)",
        pulls.failed as f64 / pulls.attempted.max(1) as f64,
        pulls.failed,
        pulls.attempted
    );
    for msg in &pulls.messages {
        let _ = writeln!(out, "  FAILED: {msg}");
    }
    print!("{out}");

    let correct = pulls.failed == 0 && pulls.attempted > 0;
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.measured && m.value.is_finite() {
                m.value
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pulls.attempted.max(1),
        pulls.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Rounds of one seed must deliver identical streams, traced or not,
/// within this run and against earlier runs of the same seed by the
/// same build in this directory.
fn check_digests(args: &Args, rounds: &[Round], pulls: &mut Pulls) {
    let Some(first) = rounds.first().map(|r| r.ledger.digest()) else {
        return;
    };
    if let Some(r) = rounds.iter().position(|r| r.ledger.digest() != first) {
        pulls.fail(format!(
            "round {r} delivered a different stream than round 0 of the same seed"
        ));
        return;
    }
    if pulls.failed > 0 {
        return;
    }
    let path = format!("{OUT_DIR}/digest-{}-{}", args.workload, args.seed);
    let record = format!("{} {first:016x}", build_id());
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.split(' ').next() == record.split(' ').next() => {
            if prev.trim() != record {
                pulls.fail(format!(
                    "delivery digest ({record}) differs from ({}) recorded by an earlier run of this seed",
                    prev.trim()
                ));
            }
        }
        // No record yet, or one left by another build: the program may
        // legitimately deliver another stream, so start over.
        _ => {
            let _ = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, &record));
        }
    }
}

/// Identifies this executable build (size and modification time), so
/// digests recorded by another build are not compared.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{mtime}", m.len())
        })
        .unwrap_or_default()
}

/// One reported metric. A per-layer metric of a layer the workload
/// bypasses is still reported (every traced run carries every per-layer
/// metric), as 0, and marked bypassed in the printed table.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    measured: bool,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            measured: true,
        }
    }
}

/// Delivered rate of the given rounds: (tokens/s, samples/s).
fn rates(rounds: &[&Round]) -> (f64, f64) {
    let loop_s: f64 = rounds.iter().map(|r| r.loop_s).sum();
    let tokens: u64 = rounds.iter().map(|r| r.ledger.tokens).sum();
    let samples: u64 = rounds.iter().map(|r| r.ledger.samples).sum();
    (tokens as f64 / loop_s, samples as f64 / loop_s)
}

/// The end-to-end metrics of an untraced run.
///
/// Rounds repeat identical work, so the time figures discount host
/// interference. On a shared host, co-tenant load slows whole stretches
/// of steps (up to 1.6× slower on a 2-vCPU VM); a change to the program
/// moves every round, so it moves these figures by its full amount.
///
/// - With `inline` steps (the whole step runs on the generator thread,
///   and no pipeline works ahead of it), step *s* does the same work in
///   every round. Its fastest time over the rounds is its cost, and the
///   figures come from these per-step minima: the rates per second of
///   their sum, the quantiles over them.
/// - Otherwise a step's latency depends on how far the pipeline got
///   ahead during the steps before it, so steps of different rounds do
///   not combine. The figures come from the fast quartile of rounds: the
///   quarter of the run's rounds (at least one) with the shortest loop
///   time, their steps pooled.
fn end_to_end(rounds: &[Round], inline: bool, peak_rss: f64, out: &mut String) -> Vec<Metric> {
    let (tokens_per_s, samples_per_s, step_ms) = if inline {
        let steps = rounds.iter().map(|r| r.step_ms.len()).min().unwrap_or(0);
        let step_ms: Vec<f64> = (0..steps)
            .map(|s| {
                rounds
                    .iter()
                    .map(|r| r.step_ms[s])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let _ = writeln!(
            out,
            "  rates and step latency over the per-step minima of {} rounds ({} steps each)",
            rounds.len(),
            step_ms.len()
        );
        // Every round delivers the same stream (the digest check), so
        // one round's deliveries go with the summed minima.
        let step_s = step_ms.iter().sum::<f64>() / 1e3;
        let ledger = &rounds[0].ledger;
        (
            ledger.tokens as f64 / step_s,
            ledger.samples as f64 / step_s,
            step_ms,
        )
    } else {
        let mut by_time: Vec<&Round> = rounds.iter().collect();
        by_time.sort_by(|a, b| a.loop_s.total_cmp(&b.loop_s));
        let fast = &by_time[..rounds.len().div_ceil(4)];
        let (tokens_per_s, samples_per_s) = rates(fast);
        let step_ms: Vec<f64> = fast
            .iter()
            .flat_map(|r| r.step_ms.iter().copied())
            .collect();
        let _ = writeln!(
            out,
            "  rates and step latency over the fastest {} of {} rounds ({} steps)",
            fast.len(),
            rounds.len(),
            step_ms.len()
        );
        (tokens_per_s, samples_per_s, step_ms)
    };
    let imbalance: f64 = rounds.iter().map(|r| r.ledger.imbalance_sum).sum::<f64>()
        / rounds
            .iter()
            .map(|r| r.ledger.imbalance_steps)
            .sum::<u64>()
            .max(1) as f64;
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let _ = writeln!(out, "  setup_s is the median of {} set-ups", setups.len());
    vec![
        Metric::new("tokens_per_s", "tokens/s", tokens_per_s),
        Metric::new("samples_per_s", "samples/s", samples_per_s),
        Metric::new("step_ms_p50", "ms", quantile(&step_ms, 0.50)),
        Metric::new("step_ms_p95", "ms", quantile(&step_ms, 0.95)),
        Metric::new("imbalance_attn", "ratio", imbalance),
        Metric::new("peak_rss_mb", "MiB", peak_rss),
        Metric::new("setup_s", "s", median(&setups)),
    ]
}

/// The per-layer metrics of a traced run, plus the span dump and the
/// self-time table.
fn per_layer(args: &Args, rounds: &[Round], tracer: &Tracer, out: &mut String) -> Vec<Metric> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let mut c = Counters::default();
    for r in &traced {
        c.merge(&r.counters);
    }
    let steps = traced.iter().map(|r| r.step_ms.len()).sum::<usize>().max(1) as f64;
    let delivered = traced.iter().map(|r| r.ledger.samples).sum::<u64>();
    let encoded = traced.iter().map(|r| r.ledger.encoded_bytes).sum::<u64>();
    let overhead_pct = (rates(&untraced).0 / rates(&traced).0 - 1.0) * 100.0;

    let self_times = tracer.self_times();
    let self_ms = |name: &str| self_times.get(name).map_or(0.0, |t| t.1 as f64 / 1e6);
    let per_step = |name: &str| self_ms(name) / steps;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let p50_us = |stage: Stage| c.stage(stage).quantile(0.5) as f64 / 1e3;
    let next_ms = tracer.durations_ms("client.next");

    // The self-time table and span dump.
    let total_ms: f64 = self_times.values().map(|t| t.1 as f64 / 1e6).sum();
    let _ = writeln!(
        out,
        "  self time per layer over {} traced steps (tracing overhead {overhead_pct:+.2}% tokens/s vs untraced rounds):",
        steps as u64
    );
    let _ = writeln!(
        out,
        "    {:<22} {:>9} {:>12} {:>12} {:>7}",
        "span", "count", "self ms", "ms/step", "share"
    );
    for (name, (count, ns)) in &self_times {
        let ms = *ns as f64 / 1e6;
        let _ = writeln!(
            out,
            "    {name:<22} {count:>9} {ms:>12.3} {:>12.4} {:>6.1}%",
            ms / steps,
            ratio(ms, total_ms) * 100.0
        );
    }
    let dump = format!("{OUT_DIR}/trace-{}-{}.jsonl", args.workload, args.seed);
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&dump, tracer.dump())) {
        Ok(()) => {
            let _ = writeln!(out, "  span dump: {dump} ({} spans)", tracer.spans().len());
        }
        Err(e) => {
            let _ = writeln!(out, "  span dump not written: {e}");
        }
    }

    // Which layers this workload drives; a layer it bypasses has no
    // spans or events, and its metrics are marked bypassed.
    let inline = self_times.contains_key("loader.refill");
    let served = !next_ms.is_empty();
    let remote = c.batches_tx > 0;
    let constructed = c.stage(Stage::Construct).count > 0;
    let m = |name, unit, value, measured| Metric {
        name,
        unit,
        value,
        measured,
    };
    vec![
        m("loader.refill_ms", "ms", per_step("loader.refill"), inline),
        m(
            "storage.io_us_per_sample",
            "us",
            ratio(c.io_ns as f64 / 1e3, c.samples_produced as f64),
            inline,
        ),
        m(
            "planner.synthesize_ms",
            "ms",
            per_step("planner.synthesize"),
            inline,
        ),
        m(
            "planner.balance_us",
            "us",
            ratio(c.balance_ns as f64 / 1e3, c.plans as f64),
            inline,
        ),
        m(
            "planner.cost_us",
            "us",
            ratio(c.cost_ns as f64 / 1e3, c.plans as f64),
            inline,
        ),
        m("loader.pop_ms", "ms", per_step("loader.pop"), inline),
        m(
            "constructor.assemble_ms",
            "ms",
            per_step("constructor.assemble"),
            inline,
        ),
        m("codec.encode_ms", "ms", per_step("codec.encode"), inline),
        m("codec.decode_ms", "ms", per_step("codec.decode"), inline),
        m(
            "codec.bytes_per_sample",
            "B",
            ratio(encoded as f64, delivered as f64),
            true,
        ),
        m("client.next_ms_p50", "ms", quantile(&next_ms, 0.50), served),
        m("client.next_ms_p95", "ms", quantile(&next_ms, 0.95), served),
        m("loader.decode_us_p50", "us", p50_us(Stage::Decode), true),
        m(
            "loader.decode_count",
            "count",
            c.stage(Stage::Decode).count as f64,
            true,
        ),
        m(
            "loader.useful_ratio",
            "ratio",
            ratio(delivered as f64, c.samples_produced as f64),
            true,
        ),
        m(
            "constructor.construct_us_p50",
            "us",
            p50_us(Stage::Construct),
            constructed,
        ),
        m(
            "constructor.construct_count",
            "count",
            c.stage(Stage::Construct).count as f64,
            constructed,
        ),
        m("codec.encode_us_p50", "us", p50_us(Stage::Encode), remote),
        m("tcp.send_us_p50", "us", p50_us(Stage::Send), remote),
        m(
            "tcp.sends_per_batch",
            "ratio",
            ratio(c.stage(Stage::Send).count as f64, c.client_batches as f64),
            remote,
        ),
        m(
            "server.batches_tx_per_batch",
            "ratio",
            ratio(c.batches_tx as f64, c.client_batches as f64),
            remote,
        ),
        m(
            "server.retained_bytes_max",
            "B",
            c.retained_bytes_max as f64,
            remote,
        ),
        m("client.reconnects", "count", c.reconnects as f64, remote),
        m(
            "runtime.ready_depth_mean",
            "steps",
            mean(&c.ready_depth),
            served,
        ),
        m(
            "runtime.planner_mailbox_mean",
            "count",
            mean(&c.planner_mailbox),
            served,
        ),
        m(
            "runtime.loader_buffered_mean",
            "samples",
            mean(&c.loader_buffered),
            served,
        ),
        m("runtime.threads", "count", c.threads_max as f64, true),
        m("pool.hit_rate", "ratio", c.pool.hit_rate(), true),
        m(
            "pool.allocs_per_sample",
            "ratio",
            ratio(c.pool.misses as f64, delivered as f64),
            true,
        ),
        m("trace.overhead_pct", "%", overhead_pct, true),
    ]
}
