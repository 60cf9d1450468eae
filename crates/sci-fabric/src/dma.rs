//! DMA transfers through the PCI-SCI adapter's DMA engine.
//!
//! DMA trades a high setup cost (descriptor build, kernel transition,
//! doorbell) for CPU-free streaming. The paper uses DMA as the second raw
//! transfer mode in Figure 1 and names DMA-based non-contiguous transfer as
//! future work (§6) — we implement both directions plus a scatter/gather
//! descriptor list so that future-work path can be exercised.

use crate::fault::{write_with_faults, SciError, SilentFault};
use crate::segment::Mapping;
use crate::Fabric;
use simclock::{Clock, SimDuration, SimTime};
use std::sync::Arc;

/// A completed DMA transfer's timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmaCompletion {
    /// When the CPU was free again (after descriptor post).
    pub cpu_free: SimTime,
    /// When the last byte arrived at the destination.
    pub done: SimTime,
    /// Silent faults injected into this transfer (simulation bookkeeping
    /// for the integrity layer; the modelled program cannot see this
    /// without a checksum).
    pub silent_faults: u64,
}

/// One entry of a scatter/gather descriptor list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SgEntry {
    /// Source offset in the caller's buffer.
    pub src_offset: usize,
    /// Destination offset in the mapped segment.
    pub dst_offset: usize,
    /// Bytes to move.
    pub len: usize,
}

/// Handle for DMA operations through one mapping.
#[derive(Debug)]
pub struct DmaEngine {
    fabric: Arc<Fabric>,
    mapping: Mapping,
}

impl DmaEngine {
    pub(crate) fn new(fabric: Arc<Fabric>, mapping: Mapping) -> Self {
        DmaEngine { fabric, mapping }
    }

    /// True if the mapping is intra-node.
    pub fn is_local(&self) -> bool {
        self.mapping.is_local()
    }

    fn stream_cost(&self, bytes: u64) -> SimDuration {
        let params = self.fabric.params();
        let bw = if self.mapping.is_local() {
            params.cache.mem_copy
        } else {
            self.fabric.links().effective_bandwidth(
                params,
                &self.mapping.route,
                params.dma_bandwidth,
            )
        };
        bw.cost(bytes)
    }

    /// Write `data` to `offset` by DMA. The clock advances only by the
    /// setup cost; the returned completion tells when the data has fully
    /// arrived (callers wanting synchronous semantics merge it).
    pub fn write(
        &self,
        clock: &mut Clock,
        offset: usize,
        data: &[u8],
    ) -> Result<DmaCompletion, SciError> {
        self.transfer(
            clock,
            &[SgEntry {
                src_offset: 0,
                dst_offset: offset,
                len: data.len(),
            }],
            data,
            true,
        )
    }

    /// Read `dst.len()` bytes from `offset` by DMA (the engine can fetch
    /// remote data without stalling the CPU, unlike PIO reads).
    pub fn read(
        &self,
        clock: &mut Clock,
        offset: usize,
        dst: &mut [u8],
    ) -> Result<DmaCompletion, SciError> {
        let entries = [SgEntry {
            src_offset: offset,
            dst_offset: 0,
            len: dst.len(),
        }];
        let params = self.fabric.params();
        if dst.is_empty() {
            return Ok(DmaCompletion {
                cpu_free: clock.now(),
                done: clock.now(),
                silent_faults: 0,
            });
        }
        self.mapping
            .segment
            .mem()
            .read(entries[0].src_offset, dst)?;
        let txns = dst.len().div_ceil(params.stream_buffer_bytes) as u64;
        let outcome =
            match self
                .fabric
                .faults()
                .transact_bulk(self.mapping.pair(), &self.mapping.route, txns)
            {
                Ok(o) => o,
                Err(f) => {
                    clock.advance(f.wasted);
                    return Err(f.error);
                }
            };
        // Silent read faults: data flows owner → importer; only bit flips
        // (a lost read transaction retries inside the engine).
        let pair = (self.mapping.segment.owner().0, self.mapping.importer.0);
        let faults =
            self.fabric
                .faults()
                .silent_faults(pair, params.stream_buffer_bytes, dst.len(), false);
        for f in &faults {
            if let SilentFault::BitFlip { pos, mask } = *f {
                dst[pos] ^= mask;
            }
        }
        clock.advance(params.dma_setup);
        let cpu_free = clock.now();
        let done = cpu_free
            + self.stream_cost(dst.len() as u64)
            + params.wire_latency(self.mapping.route.hops())
            + outcome.extra_latency;
        self.fabric
            .links()
            .account(params, &self.mapping.route, dst.len() as u64);
        Ok(DmaCompletion {
            cpu_free,
            done,
            silent_faults: faults.len() as u64,
        })
    }

    /// Scatter/gather write: one descriptor list, one setup cost, one
    /// stream. This is the "non-contiguous transfers with DMA-based
    /// interconnects" extension from the paper's outlook (§6).
    pub fn write_sg(
        &self,
        clock: &mut Clock,
        entries: &[SgEntry],
        src: &[u8],
    ) -> Result<DmaCompletion, SciError> {
        self.transfer(clock, entries, src, true)
    }

    fn transfer(
        &self,
        clock: &mut Clock,
        entries: &[SgEntry],
        src: &[u8],
        is_write: bool,
    ) -> Result<DmaCompletion, SciError> {
        debug_assert!(is_write);
        let params = self.fabric.params();
        let total: usize = entries.iter().map(|e| e.len).sum();
        if total == 0 {
            return Ok(DmaCompletion {
                cpu_free: clock.now(),
                done: clock.now(),
                silent_faults: 0,
            });
        }
        // Validate every entry first so errors surface before any time is
        // charged or fault dice roll.
        for e in entries {
            let end = e.src_offset + e.len;
            assert!(end <= src.len(), "scatter/gather source out of range");
            self.mapping
                .segment
                .mem()
                .check_range(e.dst_offset, e.len)?;
        }
        let txns = (total.div_ceil(params.stream_buffer_bytes)) as u64;
        let outcome =
            match self
                .fabric
                .faults()
                .transact_bulk(self.mapping.pair(), &self.mapping.route, txns)
            {
                Ok(o) => o,
                Err(f) => {
                    clock.advance(f.wasted);
                    return Err(f.error);
                }
            };
        // Land the bytes, applying silent faults rolled over the gathered
        // byte stream (fault positions are stream positions, so a dropped
        // transaction can straddle scatter/gather entry boundaries).
        let pair = (self.mapping.importer.0, self.mapping.segment.owner().0);
        let faults =
            self.fabric
                .faults()
                .silent_faults(pair, params.stream_buffer_bytes, total, true);
        let mut stream_pos = 0usize;
        for e in entries {
            let end = e.src_offset + e.len;
            write_with_faults(
                self.mapping.segment.mem(),
                e.dst_offset,
                &src[e.src_offset..end],
                stream_pos,
                &faults,
            )?;
            stream_pos += e.len;
        }
        // Descriptor build cost grows mildly with list length.
        let setup = params.dma_setup
            + SimDuration::from_ns(200).saturating_mul(entries.len().saturating_sub(1) as u64);
        clock.advance(setup);
        let cpu_free = clock.now();
        let done = cpu_free
            + self.stream_cost(total as u64)
            + params.wire_latency(self.mapping.route.hops())
            + outcome.extra_latency;
        self.fabric
            .links()
            .account(params, &self.mapping.route, total as u64);
        Ok(DmaCompletion {
            cpu_free,
            done,
            silent_faults: faults.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NodeId, Topology};
    use crate::FabricSpec;
    use simclock::Bandwidth;

    fn fabric() -> Arc<Fabric> {
        Fabric::new(FabricSpec {
            topology: Topology::ringlet(4),
            ..FabricSpec::default()
        })
    }

    #[test]
    fn dma_write_moves_bytes() {
        let f = fabric();
        let seg = f.export(NodeId(1), 4096);
        let dma = f.dma_engine(NodeId(0), &seg);
        let mut c = Clock::new();
        let done = dma.write(&mut c, 128, &[9u8; 512]).unwrap();
        assert!(done.done > done.cpu_free);
        assert_eq!(
            seg.mem().checksum(128, 512).unwrap(),
            crate::mem::fnv1a(&[9u8; 512])
        );
    }

    #[test]
    fn cpu_freed_after_setup_only() {
        let f = fabric();
        let seg = f.export(NodeId(1), 1 << 21);
        let dma = f.dma_engine(NodeId(0), &seg);
        let mut c = Clock::new();
        let data = vec![1u8; 1 << 20];
        let comp = dma.write(&mut c, 0, &data).unwrap();
        // CPU time is just the setup, far below the streaming time.
        let cpu = comp.cpu_free - SimTime::ZERO;
        let wire = comp.done - comp.cpu_free;
        assert!(wire.as_ps() > 10 * cpu.as_ps());
    }

    #[test]
    fn dma_beats_pio_for_large_transfers_only() {
        let f = fabric();
        let seg = f.export(NodeId(1), 4 << 20);
        let run_pio = |len: usize| {
            let mut s = f.pio_stream(NodeId(0), &seg, len);
            let mut c = Clock::new();
            s.write(&mut c, 0, &vec![0u8; len]).unwrap();
            s.barrier(&mut c);
            c.now() - SimTime::ZERO
        };
        let run_dma = |len: usize| {
            let dma = f.dma_engine(NodeId(0), &seg);
            let mut c = Clock::new();
            let comp = dma.write(&mut c, 0, &vec![0u8; len]).unwrap();
            comp.done - SimTime::ZERO
        };
        // Small transfer: DMA setup dominates, PIO wins.
        assert!(run_pio(256) < run_dma(256));
        // Large transfer: DMA streams while PIO is memory-limited.
        let large = 2 << 20;
        assert!(run_dma(large) < run_pio(large), "DMA should win at 2 MiB");
    }

    #[test]
    fn scatter_gather_single_setup() {
        let f = fabric();
        let seg = f.export(NodeId(1), 1 << 16);
        let dma = f.dma_engine(NodeId(0), &seg);
        let src: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        let entries: Vec<SgEntry> = (0..16)
            .map(|i| SgEntry {
                src_offset: i * 256,
                dst_offset: i * 1024,
                len: 256,
            })
            .collect();
        let mut c = Clock::new();
        let comp = dma.write_sg(&mut c, &entries, &src).unwrap();
        assert!(comp.done > comp.cpu_free);
        // Verify block 5 landed at stride 1024.
        let mut out = [0u8; 256];
        seg.mem().read(5 * 1024, &mut out).unwrap();
        assert_eq!(&out[..], &src[5 * 256..6 * 256]);
    }

    #[test]
    fn dma_read_does_not_stall_like_pio() {
        let f = fabric();
        let seg = f.export(NodeId(1), 1 << 20);
        seg.mem().fill(0, 1 << 20, 0x5A).unwrap();
        let len = 512 * 1024;
        let dma = f.dma_engine(NodeId(0), &seg);
        let mut cd = Clock::new();
        let mut buf = vec![0u8; len];
        let comp = dma.read(&mut cd, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x5A));

        let rd = f.pio_reader(NodeId(0), &seg);
        let mut cp = Clock::new();
        let mut buf2 = vec![0u8; len];
        rd.read(&mut cp, 0, &mut buf2).unwrap();
        // DMA read completes far earlier than a stalled PIO read loop.
        let dma_total = comp.done - SimTime::ZERO;
        let pio_total = cp.now() - SimTime::ZERO;
        assert!(dma_total.as_ps() * 3 < pio_total.as_ps());
    }

    #[test]
    fn empty_transfers_cost_nothing() {
        let f = fabric();
        let seg = f.export(NodeId(1), 64);
        let dma = f.dma_engine(NodeId(0), &seg);
        let mut c = Clock::new();
        let comp = dma.write(&mut c, 0, &[]).unwrap();
        assert_eq!(comp.done, SimTime::ZERO);
        let comp = dma.read(&mut c, 0, &mut []).unwrap();
        assert_eq!(comp.done, SimTime::ZERO);
    }

    #[test]
    fn dma_applies_silent_faults_across_sg_entries() {
        let f = Fabric::new(FabricSpec {
            topology: Topology::ringlet(4),
            faults: crate::fault::FaultConfig::silent(1.0, 0.0),
            ..FabricSpec::default()
        });
        let seg = f.export(NodeId(1), 1 << 16);
        let dma = f.dma_engine(NodeId(0), &seg);
        let src = vec![0u8; 4096];
        let entries: Vec<SgEntry> = (0..16)
            .map(|i| SgEntry {
                src_offset: i * 256,
                dst_offset: i * 1024,
                len: 256,
            })
            .collect();
        let mut c = Clock::new();
        let comp = dma.write_sg(&mut c, &entries, &src).unwrap();
        // 4096 bytes / 64 B transactions at rate 1.0 ⇒ 64 flips.
        assert_eq!(comp.silent_faults, 64);
        let snap = seg.mem().snapshot();
        let flipped: usize = (0..16)
            .map(|i| {
                snap[i * 1024..i * 1024 + 256]
                    .iter()
                    .filter(|&&b| b != 0)
                    .count()
            })
            .sum();
        assert_eq!(flipped, 64, "flips land inside the scattered blocks");
    }

    #[test]
    fn dma_bandwidth_close_to_configured() {
        let f = fabric();
        let seg = f.export(NodeId(1), 8 << 20);
        let dma = f.dma_engine(NodeId(0), &seg);
        let len = 8 << 20;
        let mut c = Clock::new();
        let comp = dma.write(&mut c, 0, &vec![0u8; len]).unwrap();
        let bw = Bandwidth::observed(len as u64, comp.done - SimTime::ZERO);
        let target = f.params().dma_bandwidth.mib_per_sec();
        assert!(
            (bw.mib_per_sec() - target).abs() / target < 0.1,
            "got {bw}, want ~{target}"
        );
    }
}
