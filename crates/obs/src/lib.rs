//! # scimpi-obs — observability for the SCI-MPICH reproduction
//!
//! The paper's entire argument is made through measurements that compare
//! *protocol paths*: eager vs. rendezvous, `direct_pack_ff` vs. the
//! buffered generic engine, shared-window direct access vs. message-based
//! emulation, get-as-remote-put. This crate makes those paths observable:
//!
//! * an **event tracer** recording spans and instants stamped with virtual
//!   [`simclock::SimTime`] (protocol phase, message size, path taken,
//!   route hops), one lane per rank;
//! * a **counter registry** for the decision points that define the paper
//!   (see [`Counter`]);
//! * per-link **traffic snapshots** taken from the fabric's link registry;
//! * **exporters**: Chrome `trace_event` JSON (open in `chrome://tracing`
//!   or [Perfetto](https://ui.perfetto.dev)) and a JSONL counter dump.
//!
//! Each observed run gets its own [`Recorder`], reached through a
//! thread-local binding so instrumentation hooks deep in the
//! pack/protocol code never thread a handle through their signatures.
//! `scimpi::run` creates the recorder from [`ObsConfig`] in
//! `ClusterSpec`, installs it on the calling thread and on every thread
//! of the run (see [`Handle`]), and writes the export files at teardown;
//! concurrent runs never share one. Recording is switched per thread.
//! When disabled (the default) every hook bails after **one thread-local
//! load** — no locks, no allocation, no formatting.
//!
//! ```
//! use simclock::SimTime;
//!
//! obs::reset();
//! obs::enable();
//! obs::inc(obs::Counter::EagerSends);
//! obs::span("send", SimTime::ZERO, SimTime::from_ps(2_000_000), vec![
//!     ("bytes", obs::Arg::U64(128)),
//!     ("path", obs::Arg::Str("eager".into())),
//! ]);
//! assert_eq!(obs::counter_value(obs::Counter::EagerSends), 1);
//! obs::disable();
//! ```

pub mod attrib;
pub mod config;
pub mod critpath;
pub mod export;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod report;

pub use attrib::{Bucket, WaitKind};
pub use config::ObsConfig;
pub use export::{chrome_trace_json, counters_jsonl, write_chrome_trace, write_counters_jsonl};
pub use histogram::Histogram;
pub use recorder::{
    add, begin_run, counter_value, counters_snapshot, disable, enable, events_snapshot, handle,
    inc, instant, is_enabled, link_snapshots, max, peak_backlogs, record_link_snapshot,
    record_peak_backlog, reset, span, take_events, Arg, Binding, Counter, EventKind, Handle,
    LinkSnapshot, PeakBacklog, Recorder, TraceEvent,
};
pub use report::Profile;
