//! The per-run recorder: counters, trace events, link snapshots,
//! attribution and the profile, reached through a per-thread binding.
//!
//! Every hook funnels into the calling thread's [`Recorder`]. Hooks check
//! the thread's switch with a single thread-local load before doing any
//! work, so a disabled recorder costs one predictable branch per hook:
//! no lock, no atomic and no reference count.

use crate::attrib::AttribState;
use crate::report::Profile;
use simclock::SimTime;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The protocol decision points counted by the registry.
///
/// Each variant is one named counter; [`Counter::NAMES`] gives the stable
/// string used in exports and assertions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Two-sided sends that took the eager path (`len <= eager_threshold`).
    EagerSends,
    /// Two-sided sends that took the rendezvous (RTS/CTS) path.
    RendezvousSends,
    /// Ring-buffer chunks streamed by rendezvous transfers.
    RendezvousChunks,
    /// Calls into the `direct_pack_ff` pack/unpack engine.
    FfPackCalls,
    /// Leaf blocks merged away while committing a datatype (adjacent
    /// blocks fused into longer copies — the "flattening" in
    /// flattening-on-the-fly).
    FfLeafMerges,
    /// `pack_ff`/`unpack_ff` invocations that resumed mid-stream
    /// (`skip > 0`), i.e. partial-pack continuations across chunks.
    FfPartialResumes,
    /// Pack/unpack operations routed to the generic recursive engine.
    GenericPackCalls,
    /// One-sided puts that wrote directly into a shared (SCI-exported)
    /// window via PIO.
    OscPutShared,
    /// One-sided puts emulated with two-sided messages (private window).
    OscPutEmulated,
    /// One-sided gets served by a direct stalling remote read.
    OscGetDirect,
    /// One-sided gets converted to a remote put by the target
    /// (`len >= get_remote_put_threshold`).
    OscGetRemotePut,
    /// One-sided accumulates applied directly on a shared window.
    OscAccShared,
    /// One-sided accumulates emulated with two-sided messages.
    OscAccEmulated,
    /// SMI shared-lock acquisitions.
    SmiLockAcquires,
    /// Time-barrier crossings (one per rank per barrier).
    BarrierCrossings,
    /// SCI transaction retries absorbed by the link layer (transient
    /// transmission errors that were resent successfully).
    LinkTxnRetries,
    /// Transactions that errored out hard after exhausting `max_retries`.
    LinkHardFailures,
    /// Route failovers: a stream switched to an alternate (degraded) route
    /// after its primary route failed.
    RouteFailovers,
    /// Route heals: a degraded stream switched back to its primary route.
    RouteHeals,
    /// Protocol-level virtual-time timeouts (rendezvous handshake, ring
    /// slots, one-sided control) that expired while probing a peer.
    ProtocolTimeouts,
    /// Peers declared dead after the timeout/backoff schedule ran out.
    PeersDeclaredDead,
    /// One-sided targets demoted from the direct shared-segment path to
    /// the emulated control-message path.
    OscFallbacks,
    /// One-sided targets re-promoted to the direct path after a
    /// successful connection probe.
    OscRepromotions,
    /// Silent faults (bit flips / dropped stores) injected by the fabric.
    CorruptionsInjected,
    /// Corruptions caught by a sequence check or a CRC mismatch.
    CorruptionsDetected,
    /// Retransmissions performed after a detected corruption.
    Retransmits,
    /// Silent faults that sailed through a path with integrity checking
    /// off (bookkeeping: the modelled program never sees these).
    UndetectedAtOff,
    /// Commits served from the layout cache (flattening skipped).
    LayoutCacheHits,
    /// Commits that flattened the type tree (cache cold or disabled).
    LayoutCacheMisses,
    /// Leaf stores absorbed into a pending write-combining batch instead
    /// of issuing their own SCI transaction.
    WcCoalescedStores,
    /// Typed transfers routed to the direct flattening-on-the-fly path by
    /// the adaptive selector.
    PathSelectedDirectFf,
    /// Typed transfers routed through a staged pack buffer.
    PathSelectedStaged,
    /// Typed transfers routed to DMA scatter/gather.
    PathSelectedDma,
    /// Nonblocking requests posted (`isend`/`irecv`/`iput`/`iget`/
    /// `ialltoall` and persistent-request starts).
    RequestsPosted,
    /// Nonblocking requests completed through `wait`/`test`/`waitall`/
    /// `waitany`.
    RequestsCompleted,
    /// Requests completed implicitly because they were dropped before
    /// being waited on (their completion time is merged at the next
    /// synchronisation point).
    RequestsCompletedByDrop,
    /// Virtual nanoseconds of communication hidden behind compute by the
    /// nonblocking engine (blocking-equivalent cost minus time actually
    /// stalled in `wait`).
    OverlapSavedNs,
    /// Communicator revocations initiated (one per `revoke()` call that
    /// actually installed a revocation front).
    Revocations,
    /// Blocking paths that errored out with `ScimpiError::Revoked` after
    /// observing a revocation front.
    RevokesObserved,
    /// Fault-tolerant agreement exchange rounds executed (one per
    /// pairwise exchange per sweep per rank).
    AgreementRounds,
    /// Buddy checkpoints taken (`Checkpointer::checkpoint` calls).
    CheckpointsTaken,
    /// Payload bytes replicated to buddy ranks by checkpoints.
    CheckpointBytes,
    /// Checkpoint restores performed (`Checkpointer::restore` calls).
    RecoveryRestores,
    /// Eager sends that stalled on exhausted pair credits under
    /// `OverloadPolicy::Stall` (one tick per message that had to wait).
    EagerCreditStalls,
    /// Peak outstanding eager credit bytes observed on any single
    /// sender/receiver pair (a high-water gauge kept with `max`).
    CreditBytesPeak,
    /// Messages dropped at post time under `OverloadPolicy::Shed`.
    MessagesShed,
    /// Operations refused (or forcibly rerouted) because a resource
    /// budget was exhausted: `OverloadPolicy::Error` sends, window and
    /// staging budget misses, in-flight request cap hits.
    BudgetDenials,
    /// Transfers that left their preferred path because of governance:
    /// credit-exhausted eager sends downgraded to rendezvous, pack paths
    /// degraded Dma→Staged→DirectFf on staging-budget misses.
    DegradedPaths,
    /// Collective operations executed with the naive linear/legacy
    /// schedule (one tick per collective call per rank).
    CollAlgoNaive,
    /// Collective operations executed with a ring schedule.
    CollAlgoRing,
    /// Collective operations executed with a recursive-doubling schedule.
    CollAlgoRecursiveDoubling,
    /// Collective operations executed with a binomial-tree schedule.
    CollAlgoBinomial,
    /// Collective operations executed with a Bruck schedule.
    CollAlgoBruck,
    /// Payload bytes moved by collectives over one-sided window puts
    /// instead of two-sided p2p.
    CollOnesidedBytes,
    /// Payload bytes that datatype-aware collectives had to stage through
    /// an explicit pack buffer (zero when the direct flattened-layout
    /// path wins everywhere, which is the Träff acceptance bar).
    CollPackedBytes,
}

impl Counter {
    /// Stable export names, indexable by `Counter as usize`.
    pub const NAMES: [&'static str; COUNTER_COUNT] = [
        "eager_sends",
        "rendezvous_sends",
        "rendezvous_chunks",
        "ff_pack_calls",
        "ff_leaf_merges",
        "ff_partial_resumes",
        "generic_pack_calls",
        "osc_put_shared",
        "osc_put_emulated",
        "osc_get_direct",
        "osc_get_remote_put",
        "osc_acc_shared",
        "osc_acc_emulated",
        "smi_lock_acquires",
        "barrier_crossings",
        "link_txn_retries",
        "link_hard_failures",
        "route_failovers",
        "route_heals",
        "protocol_timeouts",
        "peers_declared_dead",
        "osc_fallbacks",
        "osc_repromotions",
        "corruptions_injected",
        "corruptions_detected",
        "retransmits",
        "undetected_at_off",
        "layout_cache_hits",
        "layout_cache_misses",
        "wc_coalesced_stores",
        "path_selected_direct_ff",
        "path_selected_staged",
        "path_selected_dma",
        "requests_posted",
        "requests_completed",
        "requests_completed_by_drop",
        "overlap_saved_ns",
        "revocations",
        "revokes_observed",
        "agreement_rounds",
        "checkpoints_taken",
        "checkpoint_bytes",
        "recovery_restores",
        "eager_credit_stalls",
        "credit_bytes_peak",
        "messages_shed",
        "budget_denials",
        "degraded_paths",
        "coll_algo_naive",
        "coll_algo_ring",
        "coll_algo_recursive_doubling",
        "coll_algo_binomial",
        "coll_algo_bruck",
        "coll_onesided_bytes",
        "coll_packed_bytes",
    ];

    /// The export name of this counter.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// Number of counters in the registry.
pub const COUNTER_COUNT: usize = 55;

/// A trace-event argument value.
#[derive(Clone, Debug)]
pub enum Arg {
    /// Unsigned integer (sizes, counts, hops).
    U64(u64),
    /// Float (rates, ratios).
    F64(f64),
    /// Free-form label (path names).
    Str(String),
}

/// Span or instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A phase with a duration (Chrome `ph:"X"`).
    Span {
        /// Duration in picoseconds of virtual time.
        dur_ps: u64,
    },
    /// A point event (Chrome `ph:"i"`).
    Instant,
}

/// One recorded event, stamped with virtual time.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Rank whose lane this event belongs to.
    pub rank: u32,
    /// Event name (one of a small set of static protocol phases).
    pub name: &'static str,
    /// Span-with-duration or instant.
    pub kind: EventKind,
    /// Virtual timestamp in picoseconds.
    pub ts_ps: u64,
    /// Key/value annotations (message size, path, hops, ...).
    pub args: Vec<(&'static str, Arg)>,
}

/// A per-link traffic snapshot (from `sci_fabric::link::TrafficStats`).
#[derive(Clone, Debug)]
pub struct LinkSnapshot {
    /// Where in the run the snapshot was taken (e.g. `"end-of-run"`).
    pub label: String,
    /// `(link index, data bytes, flow-control bytes)` per link.
    pub per_link: Vec<(usize, u64, u64)>,
}

/// One rank's mailbox high-water marks over the virtual timeline (see
/// `Mailbox::drain_backlog_events` in `scimpi`): peak queued envelopes
/// and peak queued eager payload bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeakBacklog {
    /// The receiving rank.
    pub rank: u32,
    /// Peak simultaneously queued envelopes (any head kind).
    pub msgs: u64,
    /// Peak simultaneously queued eager payload bytes.
    pub eager_bytes: u64,
}

/// One run's observability context: counters, trace events, link
/// snapshots, peak backlogs, attribution sums and the built profile.
///
/// `scimpi::run` creates a fresh one for every observed run and installs
/// it on the calling thread and on every thread of the run through a
/// [`Handle`], so concurrent runs never see each other's data. Every
/// reader in this crate reads the calling thread's recorder; a thread
/// that was never handed one gets an empty recorder of its own.
pub struct Recorder {
    counters: [AtomicU64; COUNTER_COUNT],
    pub(crate) events: Mutex<Vec<TraceEvent>>,
    links: Mutex<Vec<LinkSnapshot>>,
    backlogs: Mutex<Vec<PeakBacklog>>,
    pub(crate) attrib: Mutex<AttribState>,
    pub(crate) profile: Mutex<Option<Profile>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            events: Mutex::default(),
            links: Mutex::default(),
            backlogs: Mutex::default(),
            attrib: Mutex::default(),
            profile: Mutex::default(),
        }
    }
}

/// The calling thread's switches: recording on or off, rank lane and
/// attribution mark. They have no destructor, so checking one is a
/// single thread-local load.
pub(crate) struct Local {
    pub(crate) on: Cell<bool>,
    rank: Cell<u32>,
    pub(crate) attrib: Cell<bool>,
}

thread_local! {
    pub(crate) static LOCAL: Local = const {
        Local {
            on: Cell::new(false),
            rank: Cell::new(0),
            attrib: Cell::new(false),
        }
    };
    /// The recorder the calling thread records into and reads from.
    static RECORDER: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

/// Run `f` on the calling thread's recorder, creating an empty one if
/// the thread has none yet.
pub(crate) fn with_recorder<R>(f: impl FnOnce(&Recorder) -> R) -> R {
    RECORDER.with(|r| f(r.borrow_mut().get_or_insert_with(Default::default)))
}

/// A thread's obs binding, carried to the threads it spawns: the
/// recorder of its run while recording is on, `None` while it is off.
#[derive(Clone)]
pub struct Handle(Option<Arc<Recorder>>);

impl Handle {
    /// Bind the calling thread to this handle's recorder on rank lane
    /// `rank`, recording on iff the handle's run is observed. `attrib`
    /// marks the thread for time attribution: rank threads set it;
    /// engine and helper threads with forked clocks do not, so no
    /// picosecond is charged twice.
    pub fn install(&self, rank: u32, attrib: bool) {
        LOCAL.with(|l| {
            l.on.set(self.0.is_some());
            l.rank.set(rank);
            l.attrib.set(attrib);
        });
        RECORDER.set(self.0.clone());
    }
}

/// A thread's whole obs binding — switches and recorder — held for a
/// scheduler task while the task is switched out of the thread it
/// shares. `Default` is what a new thread starts with.
#[derive(Default)]
pub struct Binding {
    on: bool,
    rank: u32,
    attrib: bool,
    recorder: Option<Arc<Recorder>>,
}

impl Binding {
    /// Exchange this binding with the calling thread's.
    pub fn swap(&mut self) {
        LOCAL.with(|l| {
            self.on = l.on.replace(self.on);
            self.rank = l.rank.replace(self.rank);
            self.attrib = l.attrib.replace(self.attrib);
        });
        RECORDER.with(|r| std::mem::swap(&mut *r.borrow_mut(), &mut self.recorder));
    }
}

/// The calling thread's binding, for a thread it is about to spawn.
pub fn handle() -> Handle {
    Handle(is_enabled().then(|| {
        RECORDER.with(|r| Arc::clone(r.borrow_mut().get_or_insert_with(Default::default)))
    }))
}

/// Start a run on the calling thread. An observed run gets a fresh
/// recorder, installed here with recording on, so the caller reads this
/// run's data afterwards; the returned handle is for the run's rank
/// threads. An unobserved run switches the caller's recording off and
/// leaves its recorder as it was.
pub fn begin_run(observed: bool) -> Handle {
    let h = Handle(observed.then(Default::default));
    LOCAL.with(|l| l.on.set(observed));
    if observed {
        RECORDER.set(h.0.clone());
    }
    h
}

/// The rank lane the calling thread is bound to (0 if never bound).
pub(crate) fn thread_rank() -> u32 {
    LOCAL.with(|l| l.rank.get())
}

/// Turn recording on for the calling thread, into its recorder.
/// Threads start with recording off.
pub fn enable() {
    LOCAL.with(|l| l.on.set(true));
}

/// Turn recording off for the calling thread. Hooks become a single
/// thread-local load and a branch.
pub fn disable() {
    LOCAL.with(|l| l.on.set(false));
}

/// Is recording on for the calling thread?
#[inline]
pub fn is_enabled() -> bool {
    LOCAL.with(|l| l.on.get())
}

/// Give the calling thread a fresh, empty recorder: zero counters, no
/// events, snapshots, attribution or profile. Does not change the
/// enabled flag, and leaves any other thread's recorder alone.
pub fn reset() {
    RECORDER.set(None);
}

/// Increment a counter by one. No-op when disabled.
#[inline]
pub fn inc(counter: Counter) {
    add(counter, 1);
}

/// Increment a counter by `n`. No-op when disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if !is_enabled() {
        return;
    }
    with_recorder(|r| r.counters[counter as usize].fetch_add(n, Ordering::Relaxed));
}

/// Raise a counter to at least `v` (a high-water gauge). No-op when
/// disabled.
#[inline]
pub fn max(counter: Counter, v: u64) {
    if !is_enabled() {
        return;
    }
    with_recorder(|r| r.counters[counter as usize].fetch_max(v, Ordering::Relaxed));
}

/// Current value of a counter.
pub fn counter_value(counter: Counter) -> u64 {
    with_recorder(|r| r.counters[counter as usize].load(Ordering::Relaxed))
}

/// Snapshot of all counters as `(name, value)` pairs, in declaration
/// order.
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    with_recorder(|r| {
        Counter::NAMES
            .iter()
            .zip(&r.counters)
            .map(|(&n, c)| (n, c.load(Ordering::Relaxed)))
            .collect()
    })
}

/// Record a span covering `[start, end)` of virtual time on the calling
/// thread's rank lane. No-op when disabled.
pub fn span(name: &'static str, start: SimTime, end: SimTime, args: Vec<(&'static str, Arg)>) {
    if !is_enabled() {
        return;
    }
    let dur_ps = end.as_ps().saturating_sub(start.as_ps());
    push_event(TraceEvent {
        rank: thread_rank(),
        name,
        kind: EventKind::Span { dur_ps },
        ts_ps: start.as_ps(),
        args,
    });
}

/// Record an instant at virtual time `at` on the calling thread's rank
/// lane. No-op when disabled.
pub fn instant(name: &'static str, at: SimTime, args: Vec<(&'static str, Arg)>) {
    if !is_enabled() {
        return;
    }
    push_event(TraceEvent {
        rank: thread_rank(),
        name,
        kind: EventKind::Instant,
        ts_ps: at.as_ps(),
        args,
    });
}

fn push_event(ev: TraceEvent) {
    with_recorder(|r| r.events.lock().unwrap().push(ev));
}

/// Record a per-link traffic snapshot. No-op when disabled.
pub fn record_link_snapshot(label: String, per_link: Vec<(usize, u64, u64)>) {
    if !is_enabled() {
        return;
    }
    with_recorder(|r| {
        r.links
            .lock()
            .unwrap()
            .push(LinkSnapshot { label, per_link })
    });
}

/// Drain and return all buffered trace events (oldest first).
pub fn take_events() -> Vec<TraceEvent> {
    with_recorder(|r| std::mem::take(&mut *r.events.lock().unwrap()))
}

/// Clone the buffered trace events without draining them.
pub fn events_snapshot() -> Vec<TraceEvent> {
    with_recorder(|r| r.events.lock().unwrap().clone())
}

/// Clone the recorded link snapshots.
pub fn link_snapshots() -> Vec<LinkSnapshot> {
    with_recorder(|r| r.links.lock().unwrap().clone())
}

/// Record one rank's mailbox peak backlog (taken at teardown by
/// `scimpi::run`). No-op when disabled.
pub fn record_peak_backlog(rank: u32, msgs: u64, eager_bytes: u64) {
    if !is_enabled() {
        return;
    }
    with_recorder(|r| {
        r.backlogs.lock().unwrap().push(PeakBacklog {
            rank,
            msgs,
            eager_bytes,
        })
    });
}

/// Per-rank mailbox peak backlogs recorded by the calling thread's
/// most recent observed run, sorted by rank.
pub fn peak_backlogs() -> Vec<PeakBacklog> {
    let mut v = with_recorder(|r| r.backlogs.lock().unwrap().clone());
    v.sort_by_key(|b| b.rank);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_everything() {
        reset();
        disable();
        let before = counter_value(Counter::EagerSends);
        inc(Counter::EagerSends);
        span("x", SimTime::ZERO, SimTime::from_ps(10), vec![]);
        instant("y", SimTime::ZERO, vec![]);
        record_link_snapshot("s".into(), vec![(0, 1, 2)]);
        assert_eq!(counter_value(Counter::EagerSends), before);
        assert!(take_events().is_empty());
        assert!(link_snapshots().is_empty());
    }

    #[test]
    fn enabled_recorder_counts_and_buffers() {
        reset();
        enable();
        handle().install(3, false);
        inc(Counter::RendezvousSends);
        add(Counter::RendezvousChunks, 4);
        span(
            "send",
            SimTime::from_ps(100),
            SimTime::from_ps(400),
            vec![("bytes", Arg::U64(64))],
        );
        assert_eq!(counter_value(Counter::RendezvousSends), 1);
        assert_eq!(counter_value(Counter::RendezvousChunks), 4);
        let evs = take_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].rank, 3);
        assert_eq!(evs[0].kind, EventKind::Span { dur_ps: 300 });
        disable();
        reset();
    }

    #[test]
    fn max_and_peak_backlogs_record_when_enabled() {
        reset();
        enable();
        max(Counter::CreditBytesPeak, 10);
        max(Counter::CreditBytesPeak, 5);
        assert_eq!(counter_value(Counter::CreditBytesPeak), 10);
        record_peak_backlog(1, 3, 4096);
        record_peak_backlog(0, 2, 64);
        let p = peak_backlogs();
        assert_eq!((p[0].rank, p[0].msgs, p[0].eager_bytes), (0, 2, 64));
        assert_eq!((p[1].rank, p[1].msgs, p[1].eager_bytes), (1, 3, 4096));
        disable();
        reset();
        assert!(peak_backlogs().is_empty());
    }

    #[test]
    fn handles_carry_the_run_recorder_to_spawned_threads() {
        let run = begin_run(true);
        std::thread::spawn(move || {
            run.install(2, false);
            inc(Counter::EagerSends);
            span("child", SimTime::ZERO, SimTime::from_ps(5), vec![]);
        })
        .join()
        .unwrap();
        assert_eq!(counter_value(Counter::EagerSends), 1);
        assert_eq!(events_snapshot()[0].rank, 2);
        // A thread never handed a recorder records into its own.
        std::thread::spawn(|| {
            enable();
            inc(Counter::EagerSends);
            assert_eq!(counter_value(Counter::EagerSends), 1);
        })
        .join()
        .unwrap();
        assert_eq!(counter_value(Counter::EagerSends), 1);
        // An unobserved run switches the caller off but keeps its data.
        let off = begin_run(false);
        assert!(!is_enabled());
        assert_eq!(counter_value(Counter::EagerSends), 1);
        std::thread::spawn(move || {
            off.install(0, true);
            assert!(!is_enabled());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn counter_names_cover_all_variants() {
        assert_eq!(Counter::NAMES.len(), COUNTER_COUNT);
        assert_eq!(Counter::CollPackedBytes as usize, COUNTER_COUNT - 1);
        assert_eq!(Counter::DegradedPaths.name(), "degraded_paths");
        assert_eq!(Counter::CollAlgoNaive.name(), "coll_algo_naive");
        assert_eq!(Counter::CollAlgoRing.name(), "coll_algo_ring");
        assert_eq!(
            Counter::CollAlgoRecursiveDoubling.name(),
            "coll_algo_recursive_doubling"
        );
        assert_eq!(Counter::CollAlgoBinomial.name(), "coll_algo_binomial");
        assert_eq!(Counter::CollAlgoBruck.name(), "coll_algo_bruck");
        assert_eq!(Counter::CollOnesidedBytes.name(), "coll_onesided_bytes");
        assert_eq!(Counter::CollPackedBytes.name(), "coll_packed_bytes");
        assert_eq!(Counter::EagerCreditStalls.name(), "eager_credit_stalls");
        assert_eq!(Counter::CreditBytesPeak.name(), "credit_bytes_peak");
        assert_eq!(Counter::MessagesShed.name(), "messages_shed");
        assert_eq!(Counter::BudgetDenials.name(), "budget_denials");
        assert_eq!(Counter::Revocations.name(), "revocations");
        assert_eq!(Counter::CheckpointsTaken.name(), "checkpoints_taken");
        assert_eq!(Counter::CorruptionsInjected.name(), "corruptions_injected");
        assert_eq!(Counter::Retransmits.name(), "retransmits");
        assert_eq!(Counter::FfLeafMerges.name(), "ff_leaf_merges");
        assert_eq!(Counter::RouteFailovers.name(), "route_failovers");
        assert_eq!(Counter::LayoutCacheHits.name(), "layout_cache_hits");
        assert_eq!(Counter::WcCoalescedStores.name(), "wc_coalesced_stores");
        assert_eq!(Counter::PathSelectedStaged.name(), "path_selected_staged");
    }
}
