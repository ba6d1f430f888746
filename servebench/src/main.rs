//! Serving benchmark for the semantic query optimizer's request path.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload hot_reads --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with no tracing:
//! a closed loop of `nproc` clients through `QueryService::run` / `write`,
//! then an open loop at three fixed rates through `Frontend::submit`. With
//! `--trace 1` it replays the same stream with every call into a layer's
//! public functions wrapped in a span, and reports per-layer metrics plus
//! the tracing overhead; the spans are written to `servebench/out/`.
//!
//! Every answer a timed phase captured is checked, untimed, against an
//! uncached reference service before any metric is printed. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` for the workloads and what each metric predicts.

mod closed;
mod gate;
mod hist;
mod open;
mod report;
mod spec;
mod trace;
mod window;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqo_service::QueryService;

use closed::Ctx;
use gate::Gate;
use hist::Hist;
use report::{Machine, Report};
use spec::{Spec, Writer};
use window::WINDOWS;

/// Set-ups per round: at least `MIN_SETUPS`, and more, up to `MAX_SETUPS`,
/// until they add up to `SETUP_BUDGET_S`. A run has two rounds, one before
/// its timed phases and one after them, so that `setup_s`, the median over
/// both, samples the machine at both ends of the run. A shared VM's speed
/// drifts in spells of tens of seconds: on a 2-vCPU Xeon VM a compute-only
/// loop slowed by about 12 % in them, and a set-up by up to 80 %.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET_S: f64 = 0.5;
/// The untraced run's timed phases are cut into `CYCLES` cycles, each a
/// closed-loop stretch followed by a stretch at each open-loop rate, so that
/// every figure samples the whole run rather than one part of it.
const CYCLES: usize = 4;
/// Share of `--seconds` the untraced run spends in the closed loop; the
/// open-loop rates split the rest by `RUNG_SHARES`. The middle rate, whose
/// latency is reported, gets half.
const CLOSED_SHARE: f64 = 0.5;
const RUNG_SHARES: [f64; 3] = [0.25, 0.5, 0.25];
/// Stream ops the single-client write check replays after a phase.
const PREFIX_OPS: usize = 512;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: servebench --workload <hot_reads|churn_reads|mixed_writes> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(spec::spec(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::detect();
    println!("# {}", machine.stamp());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run(&args, &machine) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::from(1)
        }
    }
}

/// Generates the inputs, sets up, runs the timed phases on the last
/// service of the first set-up round, then sets up again once that service
/// is gone, so the second round adds nothing to `peak_rss_mib`.
fn run(args: &Args, machine: &Machine) -> Result<Report, String> {
    let inputs = spec::inputs(&args.workload, args.seed)?;
    let (service, mut setups) = set_up_round(&args.workload, &inputs)?;
    let mut report = if args.trace {
        traced(args, machine, &inputs, service)?
    } else {
        untraced(args, machine, &inputs, service)?
    };
    setups.extend(set_up_round(&args.workload, &inputs)?.1);
    if args.trace {
        let (store, warm) = setup_hists(&setups);
        report.timing("setup.store_build_ms", &store, 1e6, "ms");
        report.timing("setup.warmup_ms", &warm, 1e6, "ms");
    } else {
        let setup = window::median(setups.iter().map(|(s, w)| (*s + *w).as_secs_f64()).collect());
        report.add("setup_s", setup, "s");
    }
    Ok(report)
}

/// One set-up's `(store build, warm-up)` times.
type SetupTimes = (Duration, Duration);

/// One round of timed set-ups: the last one's ready service, and every
/// set-up's times.
fn set_up_round(
    spec: &Spec,
    inputs: &spec::Inputs,
) -> Result<(Arc<QueryService>, Vec<SetupTimes>), String> {
    let mut setups = Vec::new();
    let mut spent = Duration::ZERO;
    loop {
        let ready = spec::set_up(spec, inputs)?;
        setups.push((ready.store_build, ready.warmup));
        spent += ready.store_build + ready.warmup;
        let enough = setups.len() >= MIN_SETUPS && spent.as_secs_f64() >= SETUP_BUDGET_S;
        if enough || setups.len() == MAX_SETUPS {
            break Ok((ready.service, setups));
        }
    }
}

/// Histograms of the set-ups' store build and warm-up times.
fn setup_hists(setups: &[SetupTimes]) -> (Hist, Hist) {
    let (mut store, mut warm) = (Hist::default(), Hist::default());
    for &(s, w) in setups {
        store.record(s.as_nanos() as u64);
        warm.record(w.as_nanos() as u64);
    }
    (store, warm)
}

fn check_phase(failed: u64, errors: &[String], phase: &str) {
    if failed > 0 {
        eprintln!("# {phase}: {failed} failed requests, first: {:?}", errors.first());
    }
}

fn untraced(
    args: &Args,
    machine: &Machine,
    inputs: &spec::Inputs,
    service: Arc<QueryService>,
) -> Result<Report, String> {
    let spec = &args.workload;
    let service = &service;
    let writer = spec.writes().then(|| Writer::new(service));
    let ctx = Ctx { service, inputs, writer: writer.as_ref() };
    let mut gate = Gate::new(service, inputs.distinct.len());
    let mut report = Report::new();
    let live_start = spec::live_rows(service);

    let mut cursors = closed::cursors(&ctx, machine.clients);
    let stretch_windows = WINDOWS / CYCLES;
    let ladder = spec.ladder.len();
    let mut closed = closed::Outcome::default();
    let mut rungs: Vec<open::Outcome> = (0..ladder).map(|_| open::Outcome::default()).collect();
    for cycle in 0..CYCLES {
        let secs = args.seconds * CLOSED_SHARE / CYCLES as f64;
        let c = closed::run(&ctx, &mut cursors, secs, stretch_windows, None)?;
        check_phase(c.failed, &c.errors, "closed loop");
        gate.check_captured(&ctx, &c.captured)?;
        if writer.is_some() && cycle == 0 {
            gate.check_prefix(&ctx, 0, PREFIX_OPS)?;
        }
        closed.absorb(c);
        for (r, (&rate, share)) in spec.ladder.iter().zip(RUNG_SHARES).enumerate() {
            let stretch = cycle * ladder + r;
            let secs = args.seconds * (1.0 - CLOSED_SHARE) * share / CYCLES as f64;
            let arrivals = spec::arrivals(rung_seed(args.seed, stretch), rate, secs);
            let offset = (stretch + 1) * inputs.ops.len() / (CYCLES * ladder + 1);
            let o = open::run(&ctx, machine.fe_workers, &arrivals, offset, stretch_windows, None);
            check_phase(o.failed, &o.errors, "open loop");
            gate.check_captured(&ctx, std::slice::from_ref(&o.captured))?;
            rungs[r].absorb(o);
        }
    }
    report.count(closed.ops, closed.failed);
    let windows = closed.windows.ok_or("no closed-loop client ran")?;
    let reads = windows.latency();
    println!(
        "# closed loop: {} clients, {} ops, {} failed (failed_frac {:.6}); reads n={} p50={:.3}us p99={:.3}us; writes n={} p50={:.3}us p99={:.3}us",
        machine.clients,
        closed.ops,
        closed.failed,
        closed.failed as f64 / closed.ops.max(1) as f64,
        reads.count(),
        reads.quantile(0.5) / 1e3,
        reads.quantile(0.99) / 1e3,
        closed.writes.count(),
        closed.writes.quantile(0.5) / 1e3,
        closed.writes.quantile(0.99) / 1e3,
    );
    for (r, (o, rate)) in rungs.iter().zip(spec.ladder).enumerate() {
        report.count(o.attempted, o.failed);
        println!(
            "# open loop rung {r}: offered {rate}/s achieved {:.1}/s, reads n={} p50={:.3}us p90={:.3}us p99={:.3}us, observed p50={:.3}us p90={:.3}us (window medians), wait p90 {:.3}us, backlog {}, lag p99 {:.3}us, failed {}, observed p90 within {}us: {}",
            o.achieved(),
            o.completed,
            o.p(0.5) / 1e3,
            o.p(0.9) / 1e3,
            o.p(0.99) / 1e3,
            o.observed_p(0.5) / 1e3,
            o.observed_p(0.9) / 1e3,
            o.wait.quantile(0.9) / 1e3,
            o.backlog,
            o.lag.quantile(0.99) / 1e3,
            o.failed,
            spec.p90_limit_us,
            o.meets(spec.p90_limit_us),
        );
    }
    if writer.is_some() {
        gate.check_prefix(&ctx, PREFIX_OPS, PREFIX_OPS)?;
    }
    println!("# correctness gate: {} answers matched the uncached reference", gate.checked);
    let live_end = spec::live_rows(service);
    println!("# live rows: {live_start} at start, {live_end} at end");
    println!("# failed_frac over all phases: {:.6}", report.failed_frac());

    let middle = &rungs[rungs.len() / 2];
    let slo = rungs.iter().rev().find(|o| o.meets(spec.p90_limit_us)).map_or(0.0, |o| o.achieved());
    report.add("qps", windows.median_rate(), "1/s");
    // Percentiles over all of the closed loop's reads, so a tail counts
    // wherever it falls. A stalled client sends nothing until it is
    // answered, so a machine stall costs one slow read per client, not a
    // burst of them, and the p99 stays steady.
    report.add("read_p50_us", reads.quantile(0.5) / 1e3, "us");
    report.add("read_p99_us", reads.quantile(0.99) / 1e3, "us");
    report.add("fe_p50_us", middle.p(0.5) / 1e3, "us");
    report.add("fe_p90_us", middle.p(0.9) / 1e3, "us");
    report.add("fe_slo_qps", slo, "1/s");
    report.add("peak_rss_mib", report::peak_rss_mib(), "MiB");
    Ok(report)
}

fn rung_seed(seed: u64, rung: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(rung as u64 + 1)
}

fn traced(
    args: &Args,
    machine: &Machine,
    inputs: &spec::Inputs,
    service: Arc<QueryService>,
) -> Result<Report, String> {
    let spec = &args.workload;
    let service = &service;
    let writer = spec.writes().then(|| Writer::new(service));
    let ctx = Ctx { service, inputs, writer: writer.as_ref() };
    let mut gate = Gate::new(service, inputs.distinct.len());
    let shared = trace::Shared::new(Instant::now(), inputs.distinct.len());
    let mut report = Report::new();
    let live_start = spec::live_rows(service);
    let secs = args.seconds;

    let untraced =
        closed::run(&ctx, &mut closed::cursors(&ctx, machine.clients), secs * 0.25, WINDOWS, None)?;
    gate.check_captured(&ctx, &untraced.captured)?;
    report.count(untraced.ops, untraced.failed);
    shared.prime(&untraced.captured);

    let before = service.stats();
    let cn = closed::run(
        &ctx,
        &mut closed::cursors(&ctx, machine.clients),
        secs * 0.25,
        WINDOWS,
        Some((&shared, "cN")),
    )?;
    let after = service.stats();
    gate.check_captured(&ctx, &cn.captured)?;
    report.count(cn.ops, cn.failed);

    let c1 = closed::run(
        &ctx,
        &mut closed::cursors(&ctx, 1),
        secs * 0.2,
        WINDOWS,
        Some((&shared, "c1")),
    )?;
    gate.check_captured(&ctx, &c1.captured)?;
    report.count(c1.ops, c1.failed);

    let rate = spec.ladder[spec.ladder.len() / 2];
    let arrivals = spec::arrivals(rung_seed(args.seed, 1), rate, secs * 0.3);
    let fe = open::run(
        &ctx,
        machine.fe_workers,
        &arrivals,
        inputs.ops.len() / 2,
        WINDOWS,
        Some((&shared, "fe")),
    );
    gate.check_captured(&ctx, std::slice::from_ref(&fe.captured))?;
    report.count(fe.attempted, fe.failed);
    if writer.is_some() {
        gate.check_prefix(&ctx, 0, PREFIX_OPS)?;
    }
    for (phase, failed, errors) in [
        ("untraced closed loop", untraced.failed, &untraced.errors),
        ("traced closed loop", cn.failed, &cn.errors),
        ("traced 1-client loop", c1.failed, &c1.errors),
        ("traced open loop", fe.failed, &fe.errors),
    ] {
        check_phase(failed, errors, phase);
    }
    let mismatches: u64 = cn.traces.iter().chain(&c1.traces).map(|t| t.replay_mismatches).sum();
    if mismatches > 0 {
        return Err(format!("{mismatches} replayed answers differ from the service's"));
    }
    println!("# correctness gate: {} answers matched the uncached reference", gate.checked);
    let live_end = spec::live_rows(service);

    report::layers(&mut report, &cn.traces, &c1.traces, &before, &after);
    report::frontend(&mut report, &fe);
    report.add("trace.qps_untraced", untraced.qps, "1/s");
    report.add("trace.qps_traced", cn.qps, "1/s");
    report.add("trace.overhead_qps", untraced.qps - cn.qps, "1/s");
    report.add("trace.qps_traced.c1", c1.qps, "1/s");
    report.add("storage.live_rows_start", live_start as f64, "count");
    report.add("storage.live_rows_end", live_end as f64, "count");
    report.add("machine.nproc", machine.nproc as f64, "count");
    report.add("machine.clients", machine.clients as f64, "count");
    report.add("machine.fe_workers", machine.fe_workers as f64, "count");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.tsv", spec.name));
    let header = format!(
        "{} | workload {} seed {} | passes: cN = {} clients, c1 = 1 client, fe = open loop at {rate}/s",
        machine.stamp(),
        spec.name,
        args.seed,
        machine.clients
    );
    let all: Vec<_> = cn.traces.into_iter().chain(c1.traces).chain(fe.trace).collect();
    trace::dump(&path, &header, &all).map_err(|e| format!("span dump {}: {e}", path.display()))?;
    let spans: usize = all.iter().map(|t| t.spans.len()).sum();
    println!("# span dump: {spans} spans in {}", path.display());
    Ok(report)
}
