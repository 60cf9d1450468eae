//! Layer replays: the `datatype` and `fabric` calls a workload's cluster
//! run makes, re-issued alone over exactly the layouts and block
//! patterns its seed generated, so each layer's host rate and its share
//! of the workload's host time can be read without instrumenting the
//! program.

use crate::gen::{self, DdtPair, HaloStep};
use crate::host::host_ns;
use crate::workloads::buffer_len;
use mpi_datatype::{ff, layout_cache, tree, Committed, SliceSource, VecSink};
use sci_fabric::{Fabric, FabricSpec, NodeId, PioStream, Segment, Topology};
use simclock::Clock;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::sync::Arc;

const GIB: f64 = (1u64 << 30) as f64;
const MIB: f64 = (1u64 << 20) as f64;

fn gib_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        bytes as f64 / GIB / (ns as f64 * 1e-9)
    }
}

fn mib_s(bytes: u64, ps: u64) -> f64 {
    if ps == 0 {
        0.0
    } else {
        bytes as f64 / MIB / (ps as f64 * 1e-12)
    }
}

/// Host rates of the datatype layer over one cluster run's transfers.
#[derive(Clone, Copy, Debug, Default)]
pub struct DatatypeReplay {
    pub commit_cold_us: f64,
    pub commit_warm_us: f64,
    pub pack_ff_gib_s: f64,
    pub unpack_ff_gib_s: f64,
    pub tree_pack_gib_s: f64,
    pub blocks_per_op: f64,
    /// Host time of the `pack_ff` and `unpack_ff` calls the run makes.
    pub host_ns: u64,
}

/// Replay `ddt_pingpong`'s layouts: each iteration packs the send
/// layout, unpacks into the receive layout, packs that back and unpacks
/// into the send layout, as the two ranks do.
pub fn datatype(pairs: &[DdtPair], iters: usize) -> DatatypeReplay {
    // Cold commits start from an empty layout cache; the cold pass
    // leaves the cache holding the same layouts a cluster run leaves.
    layout_cache::clear();
    let layouts: Vec<_> = pairs.iter().flat_map(|p| [&p.send, &p.recv]).collect();
    let t0 = host_ns();
    let committed: Vec<Committed> = layouts.iter().map(|dt| Committed::commit(dt)).collect();
    let t1 = host_ns();
    for dt in &layouts {
        black_box(Committed::commit(dt));
    }
    let t2 = host_ns();
    let per_commit = |ns: u64| ns as f64 / 1e3 / layouts.len() as f64;

    let len = layouts.iter().map(|dt| buffer_len(dt)).max().unwrap_or(0);
    let mut src = vec![0u8; len];
    gen::fill(&mut src[..len / gen::ELEM * gen::ELEM], 0x5eed, 0);
    let mut dst = vec![0u8; len];
    let mut sink = VecSink::default();
    let mut tree_out = Vec::new();
    let (mut pack_ns, mut unpack_ns, mut tree_ns) = (0, 0, 0);
    let (mut bytes, mut blocks, mut ops) = (0u64, 0u64, 0u64);
    for i in 0..iters {
        let p = i % pairs.len();
        let (send, recv) = (&committed[2 * p], &committed[2 * p + 1]);
        for (from, to) in [(send, recv), (recv, send)] {
            sink.data.clear();
            let t = host_ns();
            let stats =
                ff::pack_ff(from, 1, &src, 0, 0, usize::MAX, &mut sink).expect("infallible sink");
            pack_ns += host_ns() - t;
            let mut source = SliceSource::new(&sink.data);
            let t = host_ns();
            ff::unpack_ff(to, 1, &mut dst, 0, 0, usize::MAX, &mut source)
                .expect("infallible source");
            unpack_ns += host_ns() - t;
            black_box(&dst);
            tree_out.clear();
            let t = host_ns();
            tree::pack(from.datatype(), 1, &src, 0, &mut tree_out);
            tree_ns += host_ns() - t;
            black_box(&tree_out);
            bytes += stats.bytes as u64;
            blocks += stats.blocks as u64;
            ops += 1;
        }
    }
    DatatypeReplay {
        commit_cold_us: per_commit(t1 - t0),
        commit_warm_us: per_commit(t2 - t1),
        pack_ff_gib_s: gib_s(bytes, pack_ns),
        unpack_ff_gib_s: gib_s(bytes, unpack_ns),
        tree_pack_gib_s: gib_s(bytes, tree_ns),
        blocks_per_op: blocks as f64 / ops.max(1) as f64,
        host_ns: pack_ns + unpack_ns,
    }
}

/// Host and virtual rates of the fabric's PIO layer over one cluster
/// run's stores and loads.
#[derive(Clone, Copy, Debug, Default)]
pub struct FabricReplay {
    pub write_bytes: u64,
    pub write_ns: u64,
    pub write_virt_ps: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub read_virt_ps: u64,
    /// Store calls issued, and those the write-combining batch absorbed
    /// (from a pass with obs recording on, see [`coalesced_stores`]).
    pub stores: u64,
    pub coalesced: u64,
}

impl FabricReplay {
    pub fn pio_write_gib_s(&self) -> f64 {
        gib_s(self.write_bytes, self.write_ns)
    }
    pub fn pio_read_gib_s(&self) -> f64 {
        gib_s(self.read_bytes, self.read_ns)
    }
    pub fn pio_write_virt_mib_s(&self) -> f64 {
        mib_s(self.write_bytes, self.write_virt_ps)
    }
    pub fn pio_read_virt_mib_s(&self) -> f64 {
        mib_s(self.read_bytes, self.read_virt_ps)
    }
    pub fn host_ns(&self) -> u64 {
        self.write_ns + self.read_ns
    }
}

/// A fabric of `nodes` on one ringlet, each exporting a segment of
/// `seg_len` bytes.
fn fabric(nodes: usize, seg_len: usize) -> (Arc<Fabric>, Vec<Arc<Segment>>) {
    let fabric = Fabric::new(FabricSpec {
        topology: Topology::ringlet(nodes),
        ..FabricSpec::default()
    });
    let segs = (0..nodes)
        .map(|n| fabric.export(NodeId(n), seg_len))
        .collect();
    (fabric, segs)
}

/// Write `blocks` (lengths, in stream order) through `stream` the way
/// the direct-pack sink does: batched stores at ascending offsets of a
/// `chunk`-byte ring slot, with a store barrier closing each chunk.
fn store_stream(
    stream: &mut PioStream,
    clock: &mut Clock,
    src: &[u8],
    blocks: &[usize],
    chunk: usize,
    out: &mut FabricReplay,
) {
    let mut off = 0;
    for &len in blocks {
        let mut done = 0;
        while done < len {
            let at = off % chunk;
            let take = (len - done).min(chunk - at);
            stream
                .write_batched(clock, at, &src[done..done + take])
                .expect("fault-free fabric");
            out.stores += 1;
            done += take;
            off += take;
            if off % chunk == 0 {
                stream.flush_wc(clock).expect("fault-free fabric");
                stream.barrier(clock);
            }
        }
    }
    stream.flush_wc(clock).expect("fault-free fabric");
    stream.barrier(clock);
    out.write_bytes += off as u64;
}

/// Replay `ddt_pingpong`'s stores: every block of every transfer, from
/// the sending node into the receiving node's ring slot.
pub fn fabric_ddt(pairs: &[DdtPair], iters: usize) -> FabricReplay {
    let chunk = scimpi::Tuning::default().rendezvous_chunk;
    let (fabric, segs) = fabric(2, chunk);
    let block_lists: Vec<[Vec<usize>; 2]> = pairs
        .iter()
        .map(|p| {
            [&p.send, &p.recv].map(|dt| {
                let c = Committed::commit(dt);
                let mut v = Vec::new();
                ff::for_each_block(&c, 1, 0, usize::MAX, |_, len| {
                    v.push(len);
                    ControlFlow::Continue(())
                });
                v
            })
        })
        .collect();
    let longest = block_lists
        .iter()
        .flatten()
        .flatten()
        .max()
        .copied()
        .unwrap_or(0);
    let src = vec![0xA5u8; longest];
    let mut out = FabricReplay::default();
    let mut clock = Clock::new();
    for i in 0..iters {
        let lists = &block_lists[i % pairs.len()];
        for (from, to) in [(0, 1), (1, 0)] {
            let mut stream = fabric.pio_stream(NodeId(from), &segs[to], chunk);
            let (t, v) = (host_ns(), clock.now());
            store_stream(&mut stream, &mut clock, &src, &lists[from], chunk, &mut out);
            out.write_ns += host_ns() - t;
            out.write_virt_ps += clock.now().duration_since(v).as_ps();
        }
    }
    out
}

/// Replay `osc_halo`'s accesses to its shared windows: puts as stores
/// into the neighbour's window, accumulates as a load plus a store, gets
/// below the remote-put threshold as loads and the others as stores by
/// the target.
pub fn fabric_halo(steps: &[Vec<HaloStep>]) -> FabricReplay {
    let n = gen::HALO_RANKS;
    let threshold = scimpi::Tuning::default().get_remote_put_threshold;
    let (fabric, segs) = fabric(n, gen::HALO_WIN_LEN);
    let src = vec![0x5Au8; gen::SLAB_MAX];
    let mut dst = vec![0u8; gen::SLAB_MAX];
    let mut out = FabricReplay::default();
    let mut clock = Clock::new();
    for (i, step) in steps.iter().enumerate() {
        if i % gen::HALO_WINDOWS == gen::HALO_WINDOWS - 1 {
            continue; // the private window takes the emulated path
        }
        for (me, s) in step.iter().enumerate() {
            let (left, right) = ((me + n - 1) % n, (me + 1) % n);
            let mut store = |clock: &mut Clock, from: usize, to: usize, at: usize, len: usize| {
                let mut stream = fabric.pio_stream(NodeId(from), &segs[to], len);
                let (t, v) = (host_ns(), clock.now());
                stream
                    .write_batched(clock, at, &src[..len])
                    .expect("fault-free fabric");
                stream.flush_wc(clock).expect("fault-free fabric");
                stream.barrier(clock);
                out.write_ns += host_ns() - t;
                out.write_virt_ps += clock.now().duration_since(v).as_ps();
                out.write_bytes += len as u64;
                out.stores += 1;
            };
            store(&mut clock, me, right, gen::FROM_LEFT, s.to_right);
            store(&mut clock, me, left, gen::FROM_RIGHT, s.to_left);
            let acc = s.acc_cells * gen::ELEM;
            store(&mut clock, me, right, gen::ACC_AT, acc);
            if s.get_len >= threshold {
                store(&mut clock, left, me, gen::GET_SRC, s.get_len);
            }
            // Loads: the accumulate's read of the target cells, and the
            // gets small enough to stay direct reads.
            let mut load = |clock: &mut Clock, from: usize, to: usize, at: usize, len: usize| {
                let reader = fabric.pio_reader(NodeId(from), &segs[to]);
                let (t, v) = (host_ns(), clock.now());
                reader
                    .read(clock, at, &mut dst[..len])
                    .expect("fault-free fabric");
                out.read_ns += host_ns() - t;
                out.read_virt_ps += clock.now().duration_since(v).as_ps();
                out.read_bytes += len as u64;
            };
            load(&mut clock, me, right, gen::ACC_AT, acc);
            if s.get_len < threshold {
                load(&mut clock, me, left, gen::GET_SRC + s.get_off, s.get_len);
            }
        }
    }
    out
}

/// Run `replay` with obs recording on and return the stores the
/// write-combining batch absorbed, leaving recording off again.
pub fn coalesced_stores<T>(replay: impl FnOnce() -> T) -> u64 {
    obs::reset();
    obs::enable();
    black_box(replay());
    let n = obs::counter_value(obs::Counter::WcCoalescedStores);
    obs::disable();
    n
}
