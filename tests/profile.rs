//! The wait-state profiler's contract: attribution must never perturb
//! virtual time, same-seed runs must serialize byte-identical
//! `PROFILE_*.json` documents, and the per-rank decomposition must be
//! conservative — `compute + pack + transfer + wait + other ==
//! makespan`, exactly, for every rank.
//!
//! Every observed run records into a recorder of its own, bound to the
//! thread that called `run`, so runs on different threads never mix
//! their counters or profiles.

use scimpi::{run, Backend, ClusterSpec, ObsConfig, Rank, ReduceOp, Source, TagSel, WinMemory};
use simclock::{SimDuration, SimTime};

const RANKS: usize = 4;

/// A deterministic blocking workload that exercises every stall site
/// class: skewed compute (late senders + barrier waits), rendezvous and
/// eager p2p, collectives, and one-sided puts through a shared window.
fn workload(r: &mut Rank) -> SimTime {
    let me = r.rank();
    let n = r.size();
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;

    // Rank-dependent grain: the skew is what produces classified waits.
    r.compute(SimDuration::from_ns(50_000 * (me as u64 + 1)));

    // Rendezvous-sized ring exchange (link-disjoint, deterministic).
    let big = vec![me as u8; 96 * 1024];
    let mut from_left = vec![0u8; 96 * 1024];
    r.sendrecv(
        right,
        7,
        scimpi::SendData::Bytes(&big),
        Source::Rank(left),
        TagSel::Value(7),
        scimpi::RecvBuf::Bytes(&mut from_left),
    )
    .unwrap();
    assert!(from_left.iter().all(|&b| b == left as u8));

    // Eager-sized exchange the other way.
    let small = [me as u8; 64];
    let mut from_right = [0u8; 64];
    r.sendrecv(
        left,
        8,
        scimpi::SendData::Bytes(&small),
        Source::Rank(right),
        TagSel::Value(8),
        scimpi::RecvBuf::Bytes(&mut from_right),
    )
    .unwrap();

    // Collectives.
    let mut root_word = if me == 0 { [42u8; 32] } else { [0u8; 32] };
    r.bcast(0, &mut root_word).unwrap();
    assert_eq!(root_word, [42u8; 32]);
    let mut sums = [me as f64];
    r.allreduce(&mut sums, ReduceOp::Sum).unwrap();
    assert_eq!(sums[0], (0..n).map(|x| x as f64).sum::<f64>());

    // One-sided traffic through a shared window.
    let mem = r.alloc_mem(256).unwrap();
    let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
    win.fence(r).unwrap();
    if me == 0 {
        win.put(r, 1, 0, &[9u8; 128]).unwrap();
    }
    win.fence(r).unwrap();

    r.barrier();
    r.now()
}

fn spec(obs: ObsConfig) -> ClusterSpec {
    let mut spec = ClusterSpec::ringlet(RANKS).obs(obs);
    spec.seed = 20020415;
    spec
}

#[test]
fn profiler_is_deterministic_and_conservative() {
    // --- 1. Attribution must not move any clock: the same seed gives
    // bit-identical per-rank finish times with the recorder enabled,
    // with it disabled, and across repeated enabled runs. ---
    let with_obs = run(spec(ObsConfig::enabled()), workload);
    let conservation = obs::report::last_profile().expect("profile built at teardown");
    let without_obs = run(spec(ObsConfig::disabled()), workload);
    assert_eq!(
        with_obs, without_obs,
        "recording attribution perturbed virtual time"
    );

    // --- 2. Conservation: every rank's decomposition sums to its
    // makespan exactly, with real time in every class this workload
    // exercises. ---
    assert_eq!(conservation.ranks.len(), RANKS);
    for p in &conservation.ranks {
        assert_eq!(
            p.total_busy_ps() + p.total_wait_ps() + p.other_ps,
            p.makespan_ps,
            "rank {} decomposition does not sum to its makespan",
            p.rank
        );
        assert_eq!(
            p.makespan_ps,
            with_obs[p.rank as usize].as_ps(),
            "rank {} profiled makespan disagrees with its clock",
            p.rank
        );
        assert!(
            p.total_busy_ps() > 0,
            "rank {} recorded no busy time",
            p.rank
        );
    }
    // The skewed grains force someone to wait.
    assert!(conservation.total_wait_ps() > 0, "no wait time classified");
    assert!(
        !conservation.families.is_empty(),
        "no span families recorded"
    );
    assert!(
        !conservation.critical_path.hops.is_empty(),
        "no critical path extracted"
    );

    // --- 3. Same seed, same bytes: two profiled runs serialize
    // identical PROFILE documents. ---
    let dir = std::env::temp_dir();
    let a = dir.join(format!("scimpi_profile_{}_a.json", std::process::id()));
    let b = dir.join(format!("scimpi_profile_{}_b.json", std::process::id()));
    run(spec(ObsConfig::enabled().and_profile(&a)), workload);
    run(spec(ObsConfig::enabled().and_profile(&b)), workload);
    let doc_a = std::fs::read_to_string(&a).unwrap();
    let doc_b = std::fs::read_to_string(&b).unwrap();
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
    assert!(
        doc_a.contains("\"schema\":\"scimpi-profile-v1\""),
        "profile document missing schema marker"
    );
    assert_eq!(doc_a, doc_b, "same-seed PROFILE documents differ");
}

/// What an observed run leaves on the thread that called `run`: the
/// counter table, the PROFILE JSON and the event scheduler's statistics.
type RunView = (
    Vec<(&'static str, u64)>,
    String,
    Option<(u64, usize, usize, u64)>,
);

fn observed_run(spec: ClusterSpec) -> RunView {
    run(spec, workload);
    let profile = obs::report::last_profile().expect("profile built at teardown");
    (
        obs::counters_snapshot(),
        obs::report::profile_json(&profile),
        scimpi::last_event_stats()
            .map(|s| (s.events, s.ready_high_water, s.tasks_high_water, s.stalls)),
    )
}

#[test]
fn concurrent_observed_runs_keep_separate_reports() {
    let scenarios = [
        spec(ObsConfig::enabled()),
        ClusterSpec::ringlet(3)
            .backend(Backend::Event)
            .obs(ObsConfig::enabled()),
    ];
    let alone: Vec<RunView> = scenarios.iter().cloned().map(observed_run).collect();
    let start = std::sync::Barrier::new(scenarios.len());
    let together: Vec<RunView> = std::thread::scope(|scope| {
        let joins: Vec<_> = scenarios
            .iter()
            .map(|spec| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    observed_run(spec.clone())
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    for (i, (a, t)) in alone.iter().zip(&together).enumerate() {
        for ((n, va), (_, vt)) in a.0.iter().zip(&t.0) {
            assert_eq!(
                va, vt,
                "scenario {i}: counter `{n}` changed under a concurrent run"
            );
        }
        assert_eq!(
            a.1, t.1,
            "scenario {i}: PROFILE changed under a concurrent run"
        );
        assert_eq!(
            a.2, t.2,
            "scenario {i}: scheduler stats changed under a concurrent run"
        );
    }
}
