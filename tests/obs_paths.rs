//! The observability counters must attribute each protocol decision to
//! the right path: eager vs rendezvous sends, shared vs emulated window
//! accesses — and stay silent when the recorder is disabled.
//!
//! All scenarios run in sequence on one thread: each observed `run`
//! gives that thread a fresh recorder, so every scenario reads only its
//! own counters.

use obs::Counter;
use scimpi::{run, ClusterSpec, ObsConfig, Rank, Source, TagSel, WinMemory};

fn enabled_spec() -> ClusterSpec {
    // Each observed run records into a fresh recorder of its own.
    ClusterSpec::ringlet(2).obs(ObsConfig::enabled())
}

fn shared_window(r: &mut Rank, len: usize) -> scimpi::Window {
    let mem = r.alloc_mem(len).unwrap();
    r.win_create(WinMemory::Alloc(mem)).unwrap()
}

#[test]
fn counters_attribute_protocol_paths() {
    // --- 1. Small message: eager, no rendezvous traffic. ---
    run(enabled_spec(), |r| {
        if r.rank() == 0 {
            r.send(1, 0, &[7u8; 128]).unwrap();
        } else {
            let mut buf = [0u8; 128];
            r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
        }
    });
    assert_eq!(obs::counter_value(Counter::EagerSends), 1);
    assert_eq!(obs::counter_value(Counter::RendezvousSends), 0);
    assert_eq!(obs::counter_value(Counter::RendezvousChunks), 0);

    // --- 2. Large message: rendezvous, chunked through the pair ring. ---
    let spec = enabled_spec();
    let total = 160 * 1024;
    assert!(total > spec.tuning.eager_threshold);
    let expected_chunks = total.div_ceil(spec.tuning.rendezvous_chunk) as u64;
    run(spec, move |r| {
        if r.rank() == 0 {
            r.send(1, 0, &vec![1u8; total]).unwrap();
        } else {
            let mut buf = vec![0u8; total];
            r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
        }
    });
    assert_eq!(obs::counter_value(Counter::EagerSends), 0);
    assert_eq!(obs::counter_value(Counter::RendezvousSends), 1);
    assert_eq!(
        obs::counter_value(Counter::RendezvousChunks),
        expected_chunks
    );

    // --- 3. Put into a shared (MPI_Alloc_mem) window: direct path. ---
    run(enabled_spec(), |r| {
        let mut win = shared_window(r, 1024);
        if r.rank() == 0 {
            win.put(r, 1, 0, &[3u8; 64]).unwrap();
        }
        win.fence(r).unwrap();
    });
    assert_eq!(obs::counter_value(Counter::OscPutShared), 1);
    assert_eq!(obs::counter_value(Counter::OscPutEmulated), 0);

    // --- 4. Put into a private window: emulation path. ---
    run(enabled_spec(), |r| {
        let mut win = r.win_create(WinMemory::Private(1024)).unwrap();
        if r.rank() == 0 {
            win.put(r, 1, 0, &[4u8; 64]).unwrap();
        }
        win.fence(r).unwrap();
    });
    assert_eq!(obs::counter_value(Counter::OscPutShared), 0);
    assert_eq!(obs::counter_value(Counter::OscPutEmulated), 1);

    // --- 5. Gets split by the remote-put conversion threshold. ---
    let spec = enabled_spec();
    let threshold = spec.tuning.get_remote_put_threshold;
    run(spec, move |r| {
        let mut win = shared_window(r, 2 * threshold);
        win.fence(r).unwrap();
        if r.rank() == 0 {
            let mut small = vec![0u8; 16];
            win.get(r, 1, 0, &mut small).unwrap();
            let mut large = vec![0u8; threshold];
            win.get(r, 1, 0, &mut large).unwrap();
        }
        win.fence(r).unwrap();
    });
    assert_eq!(obs::counter_value(Counter::OscGetDirect), 1);
    assert_eq!(obs::counter_value(Counter::OscGetRemotePut), 1);

    // --- 6. Disabled recorder: the same traffic moves no counter. ---
    obs::reset();
    run(ClusterSpec::ringlet(2).obs(ObsConfig::disabled()), |r| {
        let mut win = shared_window(r, 1024);
        if r.rank() == 0 {
            r.send(1, 0, &[7u8; 128]).unwrap();
            win.put(r, 1, 0, &[3u8; 64]).unwrap();
        } else {
            let mut buf = [0u8; 128];
            r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
        }
        win.fence(r).unwrap();
    });
    for (name, value) in obs::counters_snapshot() {
        assert_eq!(value, 0, "counter {name} moved while disabled");
    }
    assert!(
        obs::take_events().is_empty(),
        "events recorded while disabled"
    );
}
