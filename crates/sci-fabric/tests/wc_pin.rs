//! Exact virtual-time pin of the write-combining store batcher.
//!
//! The unit tests in `pio.rs` check where batched stores land and that
//! batching is cheaper than plain stores; this file pins the *absolute*
//! cost. A seeded sequence of stores — adjacent, overlapping, gapped,
//! large (at least one combine chunk) and misaligned, with explicit
//! `flush_wc` calls and store barriers in between — goes through one
//! `PioStream::write_batched` stream. The final clock (in ps), the bytes
//! issued, the `wc_coalesced_stores` counter and the CRC of the target
//! segment must all come out exactly as recorded. Any change to how the
//! combine window merges, drains or flushes shows up here even when the
//! placement and the relative cost stay plausible.
//!
//! One test per file: the obs counters are process-global.

use sci_fabric::{crc32, Fabric, FabricSpec, NodeId, Topology};
use simclock::{Clock, SplitMix64};

const SEG: usize = 64 * 1024;
const STORES: usize = 1500;

#[test]
fn write_batched_virtual_time_is_pinned() {
    let f = Fabric::new(FabricSpec {
        topology: Topology::ringlet(8),
        ..FabricSpec::default()
    });
    let seg = f.export(NodeId(3), SEG);
    let mut s = f.pio_stream(NodeId(0), &seg, 16 * 1024);
    let mut clock = Clock::new();
    let mut rng = SplitMix64::new(0x5C1_0013);

    obs::reset();
    obs::enable();
    let mut end = 0usize;
    let mut prev_len = 1usize;
    let mut kinds = [0usize; 5];
    for i in 0..STORES {
        let kind = rng.next_below(5) as usize;
        kinds[kind] += 1;
        let (offset, len) = match kind {
            // Adjacent: continues the previous store.
            0 => (end, rng.next_range(1, 48) as usize),
            // Overlapping: rewrites the tail of the previous store.
            1 => {
                let back = rng.next_range(1, prev_len as u64) as usize;
                (end - back.min(end), rng.next_range(1, 40) as usize)
            }
            // Gapped: leaves a hole behind the previous store.
            2 => (
                end + rng.next_range(1, 200) as usize,
                rng.next_range(1, 56) as usize,
            ),
            // Large: at least one whole combine chunk.
            3 => (end, rng.next_range(64, 320) as usize),
            // Misaligned: an odd offset off any 32 B boundary.
            _ => {
                let at = rng.next_below(SEG as u64 / 2) as usize | 1;
                (at, rng.next_range(1, 24) as usize)
            }
        };
        // Wrap to the segment start instead of running off its end.
        let offset = if offset + len > SEG { 0 } else { offset };
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        s.write_batched(&mut clock, offset, &data).unwrap();
        end = offset + len;
        prev_len = len;
        if i % 97 == 96 {
            s.flush_wc(&mut clock).unwrap();
        }
        if i % 251 == 250 {
            s.flush_wc(&mut clock).unwrap();
            s.barrier(&mut clock);
        }
    }
    s.flush_wc(&mut clock).unwrap();
    s.barrier(&mut clock);
    let coalesced = obs::counter_value(obs::Counter::WcCoalescedStores);
    obs::disable();

    assert!(kinds.iter().all(|&k| k > 200), "store mix {kinds:?}");
    assert_eq!(s.wc_pending_bytes(), 0);
    let got = (
        clock.now().as_ps(),
        s.bytes_written(),
        coalesced,
        crc32(&seg.mem().snapshot()),
    );
    assert_eq!(
        got,
        (3_111_621_552, 78_399, 781, 2_324_634_774),
        "(ps, bytes, coalesced, crc)"
    );
}
