//! The three closed-loop workloads: one cluster run each, every rank
//! starting iteration `i + 1` only after its iteration `i` completed.
//!
//! Every rank checks what it was delivered against the seed's reference
//! and counts each `Err` and each mismatch. All runs use
//! `ErrorMode::ErrorsReturn`, so a protocol error reaches the count
//! instead of aborting the run.

use crate::gen::{self, Bcast, DdtPair, HaloStep};
use crate::host::{cpu_ns, HostStamp};
use crate::trace::{Span, Tracer};
use mpi_datatype::{ff, Committed};
use scimpi::{
    AccumulateOp, Backend, ClusterSpec, ErrorMode, ObsConfig, Rank, ReduceOp, ScimpiError, Source,
    TagSel, WinMemory, Window,
};
use std::ops::ControlFlow;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DdtPingpong,
    OscHalo,
    CollScale,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DdtPingpong,
        Workload::OscHalo,
        Workload::CollScale,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DdtPingpong => "ddt_pingpong",
            Workload::OscHalo => "osc_halo",
            Workload::CollScale => "coll_scale",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Iterations per cluster run: enough that the pooled per-rank
    /// iteration samples put at least ten beyond their 99th percentile.
    pub fn iters(self) -> usize {
        match self {
            Workload::DdtPingpong => 3 * gen::DDT_PAIRS,
            Workload::OscHalo => 1152,
            Workload::CollScale => 18,
        }
    }

    pub fn spec(self, seed: u64, obs: bool) -> ClusterSpec {
        let spec = match self {
            // Two ranks fit two cores: the default (thread) backend.
            Workload::DdtPingpong => ClusterSpec::ringlet(2),
            // More ranks than cores: the event backend keeps at most one
            // rank thread runnable.
            Workload::OscHalo => ClusterSpec::ringlet(gen::HALO_RANKS).backend(Backend::Event),
            Workload::CollScale => {
                ClusterSpec::multi_ring(gen::COLL_RINGS, gen::COLL_PER_RING).backend(Backend::Event)
            }
        };
        let obs = if obs {
            ObsConfig::enabled()
        } else {
            ObsConfig::disabled()
        };
        spec.errors(ErrorMode::ErrorsReturn)
            .seed(seed)
            .obs(obs)
            .build()
    }
}

/// The generated inputs of one workload, shared by every rank.
pub enum Inputs {
    Ddt(Vec<DdtPair>),
    Halo(Vec<Vec<HaloStep>>),
    Coll {
        bcasts: Vec<Bcast>,
        /// Reference allreduce result per iteration.
        sums: Vec<[f64; gen::ALLREDUCE_LEN]>,
    },
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        match w {
            Workload::DdtPingpong => Inputs::Ddt(gen::ddt_pairs(seed)),
            Workload::OscHalo => Inputs::Halo(gen::halo_steps(seed, w.iters())),
            Workload::CollScale => {
                let iters = w.iters();
                let sums = (0..iters)
                    .map(|i| {
                        std::array::from_fn(|j| {
                            (0..gen::COLL_RANKS)
                                .map(|r| gen::allreduce_value(seed, i, r, j))
                                .sum()
                        })
                    })
                    .collect();
                Inputs::Coll {
                    bcasts: gen::coll_bcasts(seed, iters),
                    sums,
                }
            }
        }
    }
}

/// Communication calls, failures and delivered payload of one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub errors: u64,
    pub mismatches: u64,
    /// Payload bytes delivered into this rank's buffers.
    pub bytes: u64,
}

impl Tally {
    /// Count one call; `None` when it failed.
    fn call<T>(&mut self, res: Result<T, ScimpiError>) -> Option<T> {
        self.calls += 1;
        match res {
            Ok(v) => Some(v),
            Err(_) => {
                self.errors += 1;
                None
            }
        }
    }

    fn expect(&mut self, ok: bool) {
        if !ok {
            self.mismatches += 1;
        }
    }
}

/// What one rank reports from one cluster run.
#[derive(Clone, Debug, Default)]
pub struct RankOut {
    /// When the rank body started.
    pub spawn: HostStamp,
    /// When the rank finished set-up (windows, commits, first barrier).
    pub setup: HostStamp,
    /// When the rank finished its last iteration.
    pub end: HostStamp,
    /// Virtual time of the loop's start and end.
    pub virt_start_ps: u64,
    pub virt_end_ps: u64,
    /// Per-iteration virtual time, and process CPU time spent while the
    /// rank was in the iteration.
    pub iter_virt_ps: Vec<u64>,
    pub iter_cpu_ns: Vec<u64>,
    pub tally: Tally,
    pub spans: Vec<Span>,
}

/// The rank body of workload `w`.
pub fn rank_main(w: Workload, seed: u64, inputs: &Inputs, r: &mut Rank, trace: bool) -> RankOut {
    let mut out = RankOut {
        spawn: HostStamp::now(),
        ..RankOut::default()
    };
    let mut tr = Tracer::new(trace, r.rank());
    let mut tally = Tally::default();
    let t = &mut tally;
    let setup = tr.open(r, "bench.setup");
    let mut state = match inputs {
        Inputs::Ddt(pairs) => State::Ddt(DdtRank::setup(r, pairs, &mut tr), pairs),
        Inputs::Halo(steps) => State::Halo(HaloRank::setup(r, seed, &mut tr, t), steps),
        Inputs::Coll { bcasts, sums } => State::Coll(CollRank::new(), bcasts, sums),
    };
    tr.call(r, "coll.barrier", |r| t.call(r.barrier_checked()));
    tr.close(r, setup);
    out.setup = HostStamp::now();
    out.virt_start_ps = r.now().as_ps();
    for i in 0..w.iters() {
        let (c0, v0) = (cpu_ns(), r.now().as_ps());
        let it = tr.open(r, "bench.iter");
        match &mut state {
            State::Ddt(d, pairs) => d.iteration(r, seed, i, pairs, &mut tr, t),
            State::Halo(h, steps) => h.iteration(r, seed, i, steps, &mut tr, t),
            State::Coll(c, bcasts, sums) => {
                c.iteration(r, seed, i, bcasts[i], &sums[i], &mut tr, t)
            }
        }
        tr.close(r, it);
        out.iter_cpu_ns.push(cpu_ns() - c0);
        out.iter_virt_ps.push(r.now().as_ps() - v0);
    }
    out.end = HostStamp::now();
    out.virt_end_ps = r.now().as_ps();
    out.tally = tally;
    out.spans = tr.into_spans();
    out
}

/// A rank's state for one workload, beside the inputs it reads.
enum State<'a> {
    Ddt(DdtRank, &'a [DdtPair]),
    Halo(HaloRank, &'a [Vec<HaloStep>]),
    Coll(CollRank, &'a [Bcast], &'a [[f64; gen::ALLREDUCE_LEN]]),
}

// ---------------------------------------------------------------------
// ddt_pingpong

/// Bytes a layout reaches from displacement 0.
pub fn buffer_len(dt: &mpi_datatype::Datatype) -> usize {
    dt.ub().max(0) as usize
}

/// Write the reference stream `salt` into the blocks of `c` in `buf`.
fn fill_typed(c: &Committed, buf: &mut [u8], salt: u64) {
    let mut k = 0;
    ff::for_each_block(c, 1, 0, usize::MAX, |disp, len| {
        let at = disp as usize;
        gen::fill(&mut buf[at..at + len], salt, k);
        k += len / gen::ELEM;
        ControlFlow::Continue(())
    });
}

/// Whether the blocks of `c` in `buf` hold the reference stream `salt`.
fn holds_typed(c: &Committed, buf: &[u8], salt: u64) -> bool {
    let (mut k, mut ok) = (0, true);
    ff::for_each_block(c, 1, 0, usize::MAX, |disp, len| {
        let at = disp as usize;
        ok = gen::holds(&buf[at..at + len], salt, k);
        k += len / gen::ELEM;
        if ok {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    });
    ok
}

/// Rank 0 sends each pair's send layout and receives the echo into the
/// same layout; rank 1 receives into the pair's other layout and sends
/// from it. Both ranks pack and unpack.
struct DdtRank {
    types: Vec<Committed>,
    out: Vec<u8>,
    back: Vec<u8>,
}

const DDT_TAG: scimpi::Tag = 11;

impl DdtRank {
    fn setup(r: &mut Rank, pairs: &[DdtPair], tr: &mut Tracer) -> Self {
        let sender = r.rank() == 0;
        let layouts: Vec<_> = pairs
            .iter()
            .map(|p| {
                if sender {
                    p.send.clone()
                } else {
                    p.recv.clone()
                }
            })
            .collect();
        let types = layouts
            .iter()
            .map(|dt| tr.call(r, "datatype.commit", |_| Committed::commit(dt)))
            .collect();
        let len = layouts.iter().map(buffer_len).max().unwrap_or(0);
        DdtRank {
            types,
            out: vec![0; len],
            back: vec![0; len],
        }
    }

    fn iteration(
        &mut self,
        r: &mut Rank,
        seed: u64,
        i: usize,
        pairs: &[DdtPair],
        tr: &mut Tracer,
        t: &mut Tally,
    ) {
        let p = i % pairs.len();
        let c = &self.types[p];
        let salt = gen::salt(&[seed, 10, i as u64]);
        let payload = pairs[p].payload() as u64;
        if r.rank() == 0 {
            fill_typed(c, &mut self.out, salt);
            let out = &self.out;
            tr.call(r, "p2p.send_typed", |r| {
                t.call(r.send_typed(1, DDT_TAG, c, 1, out, 0))
            });
            let back = &mut self.back;
            let got = tr.call(r, "p2p.recv_typed", |r| {
                t.call(r.recv_typed(Source::Rank(1), TagSel::Value(DDT_TAG), c, 1, back, 0))
            });
            t.expect(
                got.is_some_and(|s| s.len as u64 == payload) && holds_typed(c, &self.back, salt),
            );
        } else {
            let back = &mut self.back;
            let got = tr.call(r, "p2p.recv_typed", |r| {
                t.call(r.recv_typed(Source::Rank(0), TagSel::Value(DDT_TAG), c, 1, back, 0))
            });
            t.expect(
                got.is_some_and(|s| s.len as u64 == payload) && holds_typed(c, &self.back, salt),
            );
            let back = &self.back;
            tr.call(r, "p2p.send_typed", |r| {
                t.call(r.send_typed(0, DDT_TAG, c, 1, back, 0))
            });
        }
        t.bytes += payload;
    }
}

// ---------------------------------------------------------------------
// osc_halo

/// Each rank owns a part of four windows (the last one private). Per
/// iteration it puts a slab to each ring neighbour, accumulates into the
/// right one and gets from the left one. The window rotates every
/// iteration and the epoch kind rotates through fence, PSCW and
/// lock/unlock, so all twelve (window, epoch) combinations recur.
struct HaloRank {
    wins: Vec<Window>,
    /// Expected accumulate cells of this rank's part of each window.
    acc: Vec<[i64; gen::ACC_CELLS]>,
    get_buf: Vec<u8>,
    slab: Vec<u8>,
}

fn slab_salt(seed: u64, i: usize, src: usize, dir: u64) -> u64 {
    gen::salt(&[seed, 21, i as u64, src as u64, dir])
}

fn get_src_salt(seed: u64, w: usize, owner: usize) -> u64 {
    gen::salt(&[seed, 20, w as u64, owner as u64])
}

impl HaloRank {
    fn setup(r: &mut Rank, seed: u64, tr: &mut Tracer, t: &mut Tally) -> Self {
        let mut wins = Vec::with_capacity(gen::HALO_WINDOWS);
        for w in 0..gen::HALO_WINDOWS {
            let mem = if w + 1 == gen::HALO_WINDOWS {
                Some(WinMemory::Private(gen::HALO_WIN_LEN))
            } else {
                t.call(r.alloc_mem(gen::HALO_WIN_LEN)).map(WinMemory::Alloc)
            };
            let Some(mem) = mem else { continue };
            let Some(win) = tr.call(r, "osc.win_create", |r| t.call(r.win_create(mem))) else {
                continue;
            };
            let mut src = vec![0u8; gen::SLAB_MAX];
            gen::fill(&mut src, get_src_salt(seed, w, r.rank()), 0);
            win.write_local(r, gen::GET_SRC, &src);
            win.write_local(r, gen::ACC_AT, &[0u8; gen::ACC_CELLS * gen::ELEM]);
            wins.push(win);
        }
        HaloRank {
            wins,
            acc: vec![[0; gen::ACC_CELLS]; gen::HALO_WINDOWS],
            get_buf: vec![0; gen::SLAB_MAX],
            slab: vec![0; gen::SLAB_MAX],
        }
    }

    fn iteration(
        &mut self,
        r: &mut Rank,
        seed: u64,
        i: usize,
        steps: &[Vec<HaloStep>],
        tr: &mut Tracer,
        t: &mut Tally,
    ) {
        let (me, n) = (r.rank(), r.size());
        let (left, right) = ((me + n - 1) % n, (me + 1) % n);
        let s = steps[i][me];
        let w = i % gen::HALO_WINDOWS;
        if w >= self.wins.len() {
            t.mismatches += 1;
            return;
        }
        let win = &mut self.wins[w];
        let mut to_right = vec![0u8; s.to_right];
        gen::fill(&mut to_right, slab_salt(seed, i, me, 0), 0);
        let mut to_left = vec![0u8; s.to_left];
        gen::fill(&mut to_left, slab_salt(seed, i, me, 1), 0);
        let acc: Vec<u8> = (0..s.acc_cells)
            .flat_map(|j| gen::acc_value(seed, i, me, j).to_le_bytes())
            .collect();
        let get_buf = &mut self.get_buf[..s.get_len];
        let put = |win: &mut Window,
                   r: &mut Rank,
                   tr: &mut Tracer,
                   t: &mut Tally,
                   to: usize,
                   at: usize,
                   d: &[u8]| {
            tr.call(r, "osc.put", |r| t.call(win.put(r, to, at, d)));
        };
        let accumulate = |win: &mut Window, r: &mut Rank, tr: &mut Tracer, t: &mut Tally| {
            tr.call(r, "osc.accumulate", |r| {
                t.call(win.accumulate(r, right, gen::ACC_AT, AccumulateOp::SumI64, &acc))
            });
        };
        let get =
            |win: &mut Window, r: &mut Rank, tr: &mut Tracer, t: &mut Tally, dst: &mut [u8]| {
                tr.call(r, "osc.get", |r| {
                    t.call(win.get(r, left, gen::GET_SRC + s.get_off, dst))
                });
            };
        let peers = [left, right];
        match i % gen::HALO_EPOCHS {
            0 => {
                tr.call(r, "osc.fence", |r| t.call(win.fence(r)));
                put(win, r, tr, t, right, gen::FROM_LEFT, &to_right);
                put(win, r, tr, t, left, gen::FROM_RIGHT, &to_left);
                accumulate(win, r, tr, t);
                get(win, r, tr, t, get_buf);
                tr.call(r, "osc.fence", |r| t.call(win.fence(r)));
            }
            1 => {
                tr.call(r, "osc.pscw", |r| {
                    t.calls += 1;
                    win.post(r, &peers);
                    t.call(win.start(r, &peers))
                });
                put(win, r, tr, t, right, gen::FROM_LEFT, &to_right);
                put(win, r, tr, t, left, gen::FROM_RIGHT, &to_left);
                accumulate(win, r, tr, t);
                get(win, r, tr, t, get_buf);
                tr.call(r, "osc.pscw", |r| {
                    t.call(win.complete(r, &peers));
                    t.call(win.wait(r, &peers))
                });
            }
            _ => {
                let lock = tr.open(r, "osc.lock");
                let res = win.locked(r, right, |win, r| {
                    put(win, r, tr, t, right, gen::FROM_LEFT, &to_right);
                    accumulate(win, r, tr, t);
                });
                tr.close(r, lock);
                t.call(res);
                let lock = tr.open(r, "osc.lock");
                let res = win.locked(r, left, |win, r| {
                    put(win, r, tr, t, left, gen::FROM_RIGHT, &to_left);
                    get(win, r, tr, t, get_buf);
                });
                tr.close(r, lock);
                t.call(res);
                tr.call(r, "coll.barrier", |r| t.call(r.barrier_checked()));
            }
        }
        // The epoch is closed: check what the neighbours delivered here.
        let (from_left, from_right) = (steps[i][left], steps[i][right]);
        let mut read = |r: &mut Rank, at: usize, buf: &mut [u8]| {
            tr.call(r, "osc.read_local", |r| win.read_local(r, at, buf));
        };
        let slab = &mut self.slab[..from_left.to_right];
        read(r, gen::FROM_LEFT, slab);
        t.expect(gen::holds(slab, slab_salt(seed, i, left, 0), 0));
        let slab = &mut self.slab[..from_right.to_left];
        read(r, gen::FROM_RIGHT, slab);
        t.expect(gen::holds(slab, slab_salt(seed, i, right, 1), 0));
        let cells = &mut self.slab[..gen::ACC_CELLS * gen::ELEM];
        read(r, gen::ACC_AT, cells);
        let expect = &mut self.acc[w];
        for (j, cell) in expect.iter_mut().enumerate().take(from_left.acc_cells) {
            *cell += gen::acc_value(seed, i, left, j);
        }
        t.expect(
            cells
                .chunks_exact(gen::ELEM)
                .zip(expect.iter())
                .all(|(c, e)| i64::from_le_bytes(c.try_into().expect("8-byte cell")) == *e),
        );
        t.expect(gen::holds(
            &self.get_buf[..s.get_len],
            get_src_salt(seed, w, left),
            s.get_off / gen::ELEM,
        ));
        t.bytes +=
            (from_left.to_right + from_right.to_left + from_left.acc_cells * gen::ELEM + s.get_len)
                as u64;
    }
}

// ---------------------------------------------------------------------
// coll_scale

/// Buffers reused across iterations, so the benchmark's own
/// allocations stay out of the heap the program fragments.
struct CollRank {
    bcast: Vec<u8>,
    reference: Vec<u8>,
    blocks: Vec<Vec<u8>>,
}

impl CollRank {
    fn new() -> Self {
        let max = gen::BCAST_MAX.div_ceil(gen::ELEM) * gen::ELEM;
        CollRank {
            bcast: vec![0; max],
            reference: vec![0; max],
            blocks: vec![vec![0; gen::ALLTOALL_BYTES]; gen::COLL_RANKS],
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn iteration(
        &mut self,
        r: &mut Rank,
        seed: u64,
        i: usize,
        b: Bcast,
        sum: &[f64; gen::ALLREDUCE_LEN],
        tr: &mut Tracer,
        t: &mut Tally,
    ) {
        let (me, n) = (r.rank(), r.size());
        tr.call(r, "coll.barrier", |r| t.call(r.barrier_checked()));

        let mut vals: [f64; gen::ALLREDUCE_LEN] =
            std::array::from_fn(|j| gen::allreduce_value(seed, i, me, j));
        let ok = tr.call(r, "coll.allreduce", |r| {
            t.call(r.allreduce(&mut vals[..], ReduceOp::Sum))
        });
        t.expect(ok.is_some() && vals == *sum);
        t.bytes += (gen::ALLREDUCE_LEN * 8) as u64;

        let gather_salt = |src: usize| gen::salt(&[seed, 30, i as u64, src as u64]);
        let mut mine = [0u8; gen::ALLGATHER_BYTES];
        gen::fill(&mut mine, gather_salt(me), 0);
        let all = tr.call(r, "coll.allgather", |r| t.call(r.allgather(&mine)));
        t.expect(all.is_some_and(|all| {
            all.len() == n
                && all
                    .iter()
                    .enumerate()
                    .all(|(src, blk)| gen::holds(blk, gather_salt(src), 0))
        }));
        t.bytes += (n * gen::ALLGATHER_BYTES) as u64;

        // Broadcast lengths are any byte count: the reference is the
        // stream padded to whole elements and cut to length.
        let padded = b.len.div_ceil(gen::ELEM) * gen::ELEM;
        gen::fill(
            &mut self.reference[..padded],
            gen::salt(&[seed, 31, i as u64]),
            0,
        );
        let reference = &self.reference[..b.len];
        let buf = &mut self.bcast[..b.len];
        if me == b.root {
            buf.copy_from_slice(reference);
        } else {
            buf.fill(0);
        }
        let ok = tr.call(r, "coll.bcast", |r| t.call(r.bcast(b.root, buf)));
        t.expect(ok.is_some() && buf == reference);
        if me != b.root {
            t.bytes += b.len as u64;
        }

        let a2a_salt =
            |src: usize, dst: usize| gen::salt(&[seed, 32, i as u64, src as u64, dst as u64]);
        for (d, blk) in self.blocks.iter_mut().enumerate() {
            gen::fill(blk, a2a_salt(me, d), 0);
        }
        let blocks = &self.blocks;
        let got = tr.call(r, "coll.alltoall", |r| t.call(r.alltoall(blocks)));
        t.expect(got.is_some_and(|got| {
            got.len() == n
                && got
                    .iter()
                    .enumerate()
                    .all(|(s, blk)| gen::holds(blk, a2a_salt(s, me), 0))
        }));
        t.bytes += (n * gen::ALLTOALL_BYTES) as u64;
    }
}
