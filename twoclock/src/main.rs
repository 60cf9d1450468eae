//! Two-clock benchmark of the SCI-MPICH reproduction.
//!
//! ```text
//! cargo run --release --manifest-path twoclock/Cargo.toml -- \
//!     --workload <ddt_pingpong|osc_halo|coll_scale> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation generates the workload's inputs from the seed, then
//! repeats the same cluster run ("round") until `--seconds` of host time
//! are spent (at least twice). Every round of a seed must reproduce the
//! first round's virtual times exactly; host times are reported as
//! medians over the rounds. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ledger (spans, obs counts, scheduler
//! statistics and layer replays). The last line of standard output is
//! one JSON object; see `README.md` for every metric.

mod gen;
mod host;
mod replay;
mod trace;
mod workloads;

use host::{host_ns, peak_rss_mib, HostStamp};
use trace::{median, quantile, self_times, Span};
use workloads::{rank_main, Inputs, RankOut, Tally, Workload};

const MIB: f64 = (1u64 << 20) as f64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// How a round is observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Nothing recorded: the end-to-end configuration.
    Plain,
    /// The benchmark's own spans around every call.
    Spans,
    /// `ObsConfig::enabled()`: the program's counters and events.
    Obs,
}

/// Everything of a round that must repeat exactly for a seed.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Virtual {
    iter_virt_ps: Vec<Vec<u64>>,
    loop_ps: Vec<(u64, u64)>,
    tallies: Vec<Tally>,
    /// Event-backend statistics: events, ready high water, tasks high
    /// water, stalls (`sched::Stats` has no `PartialEq`).
    sched: Option<(u64, usize, usize, u64)>,
}

/// Host durations of one round phase, on both host clocks.
#[derive(Clone, Copy, Debug)]
struct HostSpan {
    wall_s: f64,
    cpu_s: f64,
}

impl HostSpan {
    fn between(from: HostStamp, to: HostStamp) -> Self {
        HostSpan {
            wall_s: to.wall_ns.saturating_sub(from.wall_ns) as f64 * 1e-9,
            cpu_s: to.cpu_ns.saturating_sub(from.cpu_ns) as f64 * 1e-9,
        }
    }
}

struct Round {
    mode: Mode,
    /// `scimpi::run` call until every rank finished set-up.
    setup: HostSpan,
    /// `scimpi::run` call until every rank body started.
    spawn: HostSpan,
    /// Every rank finished set-up until every rank finished its loop.
    timed: HostSpan,
    /// The whole `scimpi::run` call.
    total: HostSpan,
    iter_cpu_ns: Vec<u64>,
    virt: Virtual,
    counters: Vec<(&'static str, u64)>,
    spans: Vec<Vec<Span>>,
}

impl Round {
    fn tally(&self) -> Tally {
        self.virt
            .tallies
            .iter()
            .fold(Tally::default(), |a, t| Tally {
                calls: a.calls + t.calls,
                errors: a.errors + t.errors,
                mismatches: a.mismatches + t.mismatches,
                bytes: a.bytes + t.bytes,
            })
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Scheduler statistics of the round just run, for workloads on the
/// event backend. The only reader of `scimpi::last_event_stats()`.
fn event_stats(w: Workload) -> Option<sched::Stats> {
    match w {
        Workload::DdtPingpong => None,
        Workload::OscHalo | Workload::CollScale => scimpi::last_event_stats(),
    }
}

fn run_round(w: Workload, seed: u64, inputs: &Inputs, mode: Mode) -> Round {
    // Every round starts like a fresh process: no cached layouts.
    mpi_datatype::layout_cache::clear();
    let spec = w.spec(seed, mode == Mode::Obs);
    let t0 = HostStamp::now();
    let outs: Vec<RankOut> =
        scimpi::run(spec, |r| rank_main(w, seed, inputs, r, mode == Mode::Spans));
    let t1 = HostStamp::now();
    let sched =
        event_stats(w).map(|s| (s.events, s.ready_high_water, s.tasks_high_water, s.stalls));
    let counters = if mode == Mode::Obs {
        obs::counters_snapshot()
    } else {
        Vec::new()
    };
    // The last rank to reach a point: the latest wall stamp, and the
    // latest CPU stamp (both clocks only grow, so each maximum is the
    // process's reading when the last rank got there).
    let last = |f: fn(&RankOut) -> HostStamp| HostStamp {
        wall_ns: outs
            .iter()
            .map(|o| f(o).wall_ns)
            .max()
            .unwrap_or(t0.wall_ns),
        cpu_ns: outs.iter().map(|o| f(o).cpu_ns).max().unwrap_or(t0.cpu_ns),
    };
    let setup_done = last(|o| o.setup);
    Round {
        mode,
        setup: HostSpan::between(t0, setup_done),
        spawn: HostSpan::between(t0, last(|o| o.spawn)),
        timed: HostSpan::between(setup_done, last(|o| o.end)),
        total: HostSpan::between(t0, t1),
        iter_cpu_ns: outs
            .iter()
            .flat_map(|o| o.iter_cpu_ns.iter().copied())
            .collect(),
        virt: Virtual {
            iter_virt_ps: outs.iter().map(|o| o.iter_virt_ps.clone()).collect(),
            loop_ps: outs
                .iter()
                .map(|o| (o.virt_start_ps, o.virt_end_ps))
                .collect(),
            tallies: outs.iter().map(|o| o.tally).collect(),
            sched,
        },
        counters,
        spans: outs.into_iter().map(|o| o.spans).collect(),
    }
}

/// A named metric with its unit.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    out.push(Metric {
        name: name.into(),
        unit,
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
    });
}

fn median_of(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&mut rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn end_to_end(rounds: &[Round], peak_rss_mib: f64, out: &mut Vec<Metric>) {
    let all: Vec<&Round> = rounds.iter().collect();
    let first = &rounds[0];
    let t = first.tally();
    metric(out, "setup_s", "s", median_of(&all, |r| r.setup.cpu_s));
    metric(
        out,
        "ops_per_s",
        "1/s",
        median_of(&all, |r| r.tally().calls as f64 / r.timed.cpu_s),
    );
    metric(
        out,
        "sim_mib_per_s",
        "MiB/s",
        median_of(&all, |r| r.tally().bytes as f64 / MIB / r.timed.cpu_s),
    );
    metric(
        out,
        "iter_host_ms_p50",
        "ms",
        median_of(&all, |r| {
            median(
                &mut r
                    .iter_cpu_ns
                    .iter()
                    .map(|&n| n as f64 * 1e-6)
                    .collect::<Vec<_>>(),
            )
        }),
    );
    let mut virt: Vec<f64> = first
        .virt
        .iter_virt_ps
        .iter()
        .flatten()
        .map(|&p| p as f64 * 1e-6)
        .collect();
    metric(out, "virt_us_p50", "us", quantile(&mut virt, 0.5));
    metric(out, "virt_us_p99", "us", quantile(&mut virt, 0.99));
    let start = first.virt.loop_ps.iter().map(|l| l.0).min().unwrap_or(0);
    let end = first.virt.loop_ps.iter().map(|l| l.1).max().unwrap_or(0);
    metric(
        out,
        "virt_mib_s",
        "MiB/s",
        t.bytes as f64 / MIB / ((end - start) as f64 * 1e-12),
    );
    metric(out, "peak_rss_mib", "MiB", peak_rss_mib);
}

/// Span families of the per-layer ledger, by layer.
const P2P_OPS: [&str; 2] = ["send_typed", "recv_typed"];
const OSC_OPS: [&str; 6] = ["put", "get", "accumulate", "fence", "pscw", "lock"];
const COLL_OPS: [&str; 5] = ["barrier", "allreduce", "allgather", "bcast", "alltoall"];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(w: Workload, inputs: &Inputs, rounds: &[Round], out: &mut Vec<Metric>) {
    let of = |m: Mode| rounds.iter().filter(|r| r.mode == m).collect::<Vec<_>>();
    let (plain, spans, obs_rounds) = (of(Mode::Plain), of(Mode::Spans), of(Mode::Obs));
    let plain_timed_ns = median_of(&plain, |r| r.timed.cpu_s) * 1e9;

    // Self time of every span family inside the timed iterations, pooled
    // over the traced rounds (set-up calls are left out).
    let mut fam: std::collections::BTreeMap<&str, Vec<trace::SelfTime>> = Default::default();
    for r in &spans {
        for rank in &r.spans {
            for (s, st) in rank.iter().zip(self_times(rank)) {
                if trace::root(rank, s).name == "bench.iter" {
                    fam.entry(s.name).or_default().push(st);
                }
            }
        }
    }
    let family = |name: &str| fam.get(name).map_or(&[][..], |v| &v[..]);
    let ops = |layer: &str, list: &[&str], out: &mut Vec<Metric>| {
        for op in list {
            let st = family(&format!("{layer}.{op}"));
            let pick = |f: fn(&trace::SelfTime) -> f64| st.iter().map(f).collect::<Vec<_>>();
            let host = |q| quantile(&mut pick(|s| s.host_ns as f64 * 1e-3), q);
            metric(out, format!("{layer}.{op}.host_us_p50"), "us", host(0.5));
            metric(out, format!("{layer}.{op}.host_us_p99"), "us", host(0.99));
            metric(
                out,
                format!("{layer}.{op}.virt_us_p50"),
                "us",
                median(&mut pick(|s| s.virt_ps as f64 * 1e-6)),
            );
            metric(
                out,
                format!("{layer}.{op}.virt_wait_us_p50"),
                "us",
                median(&mut pick(|s| s.virt_wait_ps as f64 * 1e-6)),
            );
        }
    };
    ops("p2p", &P2P_OPS, out);
    ops("osc", &OSC_OPS, out);
    ops("coll", &COLL_OPS, out);

    // Host self time of each layer's calls as a share of the iterations.
    let host_sum = |pred: &dyn Fn(&str) -> bool| -> f64 {
        fam.iter()
            .filter(|(n, _)| pred(n))
            .flat_map(|(_, v)| v.iter())
            .map(|s| s.host_ns as f64)
            .sum()
    };
    let iter_total: f64 = spans
        .iter()
        .flat_map(|r| r.spans.iter().flatten())
        .filter(|s| s.name == "bench.iter")
        .map(|s| (s.host_end_ns - s.host_start_ns) as f64)
        .sum();
    for layer in ["p2p", "osc", "coll"] {
        let prefix = format!("{layer}.");
        let share = host_sum(&|n: &str| n.starts_with(&prefix)) / iter_total * 100.0;
        metric(out, format!("{layer}.host_self_pct"), "%", share);
    }
    metric(
        out,
        "bench.iter_self_pct",
        "%",
        host_sum(&|n: &str| n == "bench.iter") / iter_total * 100.0,
    );

    // Program counters of the first obs-enabled round.
    let c = |name: &str| obs_rounds.first().map_or(0, |r| r.counter(name));
    metric(
        out,
        "p2p.eager_ratio",
        "ratio",
        ratio(c("eager_sends"), c("eager_sends") + c("rendezvous_sends")),
    );
    let paths = c("path_selected_direct_ff") + c("path_selected_staged") + c("path_selected_dma");
    metric(
        out,
        "p2p.direct_ff_ratio",
        "ratio",
        ratio(c("path_selected_direct_ff"), paths),
    );
    metric(
        out,
        "osc.get_remote_put_ratio",
        "ratio",
        ratio(
            c("osc_get_remote_put"),
            c("osc_get_remote_put") + c("osc_get_direct"),
        ),
    );
    let emulated = c("osc_put_emulated") + c("osc_acc_emulated");
    let direct = c("osc_put_shared") + c("osc_acc_shared");
    metric(
        out,
        "osc.emulated_ratio",
        "ratio",
        ratio(emulated, emulated + direct),
    );
    metric(
        out,
        "smi.lock_acquires",
        "count",
        c("smi_lock_acquires") as f64,
    );
    metric(
        out,
        "smi.barrier_crossings",
        "count",
        c("barrier_crossings") as f64,
    );
    metric(
        out,
        "datatype.layout_cache_hit_ratio",
        "ratio",
        ratio(
            c("layout_cache_hits"),
            c("layout_cache_hits") + c("layout_cache_misses"),
        ),
    );
    metric(
        out,
        "fabric.link_txn_retries",
        "count",
        c("link_txn_retries") as f64,
    );

    // Scheduler statistics of the untraced rounds.
    let sched = plain.first().and_then(|r| r.virt.sched);
    let events = sched.map_or(0, |s| s.0);
    let run_cpu_s = median_of(&plain, |r| r.total.cpu_s);
    metric(out, "sched.events", "count", events as f64);
    metric(
        out,
        "sched.events_per_s",
        "1/s",
        if events == 0 {
            0.0
        } else {
            events as f64 / run_cpu_s
        },
    );
    metric(
        out,
        "sched.host_us_per_event",
        "us",
        if events == 0 {
            0.0
        } else {
            run_cpu_s * 1e6 / events as f64
        },
    );
    metric(
        out,
        "sched.ready_high_water",
        "count",
        sched.map_or(0, |s| s.1) as f64,
    );
    metric(
        out,
        "sched.stalls",
        "count",
        sched.map_or(0, |s| s.3) as f64,
    );
    metric(
        out,
        "runtime.spawn_ms",
        "ms",
        median_of(&plain, |r| r.spawn.cpu_s) * 1e3,
    );
    // The wall clock beside the CPU clock the end-to-end metrics use.
    metric(
        out,
        "runtime.wall_ops_per_s",
        "1/s",
        median_of(&plain, |r| r.tally().calls as f64 / r.timed.wall_s),
    );
    metric(
        out,
        "runtime.cpu_per_wall",
        "ratio",
        median_of(&plain, |r| r.timed.cpu_s / r.timed.wall_s),
    );

    // Observation overheads against the untraced rounds.
    let overhead = |rs: &[&Round]| (median_of(rs, |r| r.total.cpu_s) / run_cpu_s - 1.0) * 100.0;
    metric(out, "obs.record_overhead_pct", "%", overhead(&obs_rounds));
    metric(out, "bench.trace_overhead_pct", "%", overhead(&spans));

    // Layer replays over the seed's own layouts and block patterns.
    let dt = match inputs {
        Inputs::Ddt(pairs) => replay::datatype(pairs, w.iters()),
        _ => Default::default(),
    };
    let fabric = || match inputs {
        Inputs::Ddt(pairs) => Some(replay::fabric_ddt(pairs, w.iters())),
        Inputs::Halo(steps) => Some(replay::fabric_halo(steps)),
        Inputs::Coll { .. } => None,
    };
    // The timed pass runs with recording off; a second, recorded pass
    // supplies only the write-combining count.
    let fab = fabric().map_or_else(Default::default, |timed| replay::FabricReplay {
        coalesced: replay::coalesced_stores(fabric),
        ..timed
    });
    metric(out, "datatype.commit_cold_us", "us", dt.commit_cold_us);
    metric(out, "datatype.commit_warm_us", "us", dt.commit_warm_us);
    metric(out, "datatype.pack_ff_gib_s", "GiB/s", dt.pack_ff_gib_s);
    metric(out, "datatype.unpack_ff_gib_s", "GiB/s", dt.unpack_ff_gib_s);
    metric(out, "datatype.tree_pack_gib_s", "GiB/s", dt.tree_pack_gib_s);
    metric(out, "datatype.blocks_per_op", "count", dt.blocks_per_op);
    metric(
        out,
        "datatype.host_share_pct",
        "%",
        dt.host_ns as f64 / plain_timed_ns * 100.0,
    );
    metric(
        out,
        "fabric.pio_write_gib_s",
        "GiB/s",
        fab.pio_write_gib_s(),
    );
    metric(out, "fabric.pio_read_gib_s", "GiB/s", fab.pio_read_gib_s());
    metric(
        out,
        "fabric.pio_write_virt_mib_s",
        "MiB/s",
        fab.pio_write_virt_mib_s(),
    );
    metric(
        out,
        "fabric.pio_read_virt_mib_s",
        "MiB/s",
        fab.pio_read_virt_mib_s(),
    );
    metric(
        out,
        "fabric.wc_coalesced_ratio",
        "ratio",
        ratio(fab.coalesced, fab.stores),
    );
    metric(
        out,
        "fabric.host_share_pct",
        "%",
        fab.host_ns() as f64 / plain_timed_ns * 100.0,
    );
}

/// Differences between rounds that must not differ, as messages.
fn determinism_faults(rounds: &[Round]) -> Vec<String> {
    let mut faults = Vec::new();
    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.virt != first.virt {
            faults.push(format!(
                "round {i} ({:?}) changed virtual times, tallies or scheduler statistics of round 0 ({:?})",
                r.mode, first.mode
            ));
        }
    }
    let mut obs_rounds = rounds.iter().filter(|r| r.mode == Mode::Obs);
    if let Some(a) = obs_rounds.next() {
        for b in obs_rounds {
            for ((name, x), (_, y)) in a.counters.iter().zip(&b.counters) {
                if x != y {
                    faults.push(format!("obs counter {name} read {x} and {y} in two rounds"));
                }
            }
        }
    }
    faults
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("twoclock: {e}");
            eprintln!("usage: twoclock --workload <ddt_pingpong|osc_halo|coll_scale> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed);

    // Rounds until the time is spent. The traced run cycles through its
    // three observation modes and needs two obs rounds to compare.
    let cycle: &[Mode] = if args.trace {
        &[Mode::Obs, Mode::Plain, Mode::Spans]
    } else {
        &[Mode::Plain]
    };
    let min_rounds = if args.trace { 4 } else { 2 };
    let budget = args.seconds as f64;
    let start = host_ns();
    let mut rounds: Vec<Round> = Vec::new();
    // Later rounds add their samples to `rounds` and fragment the heap,
    // so a whole-run peak would grow with the number of rounds the host
    // manages; the peak is taken when one cluster run has completed.
    let mut first_round_rss = 0.0;
    loop {
        let elapsed = (host_ns() - start) as f64 * 1e-9;
        let per_round = if rounds.is_empty() {
            0.0
        } else {
            elapsed / rounds.len() as f64
        };
        if rounds.len() >= min_rounds && elapsed + per_round > budget {
            break;
        }
        let mode = cycle[rounds.len() % cycle.len()];
        rounds.push(run_round(w, args.seed, &inputs, mode));
        if rounds.len() == 1 {
            first_round_rss = peak_rss_mib();
        }
    }

    let faults = determinism_faults(&rounds);
    for f in &faults {
        eprintln!("twoclock: determinism check failed: {f}");
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in &rounds {
        let t = r.tally();
        attempted += t.calls;
        failed += t.errors + t.mismatches;
    }

    let mut metrics = Vec::new();
    if args.trace {
        per_layer(w, &inputs, &rounds, &mut metrics);
        if let Some(r) = rounds.iter().find(|r| r.mode == Mode::Spans) {
            let path = std::path::PathBuf::from(format!("twoclock/out/spans-{}.jsonl", w.name()));
            match trace::write_spans(&path, w.name(), &r.spans) {
                Ok(()) => eprintln!("twoclock: spans written to {}", path.display()),
                Err(e) => eprintln!("twoclock: could not write {}: {e}", path.display()),
            }
        }
    } else {
        end_to_end(&rounds, first_round_rss, &mut metrics);
    }

    let correct = faults.is_empty() && failed == 0;
    println!(
        "# {} seed={} rounds={} samples/round={} attempted={attempted} failed={failed}",
        w.name(),
        args.seed,
        rounds.len(),
        rounds[0]
            .virt
            .iter_virt_ps
            .iter()
            .map(Vec::len)
            .sum::<usize>()
    );
    for m in &metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
