//! Exported memory segments and their registry.
//!
//! An SCI node makes a chunk of physical memory remotely accessible by
//! *exporting* a segment; peers *import* it, mapping it into their address
//! space. Imports carry the route to the owner, which determines latency
//! and which ring segments the traffic loads.

use crate::mem::SharedMem;
use crate::topology::{NodeId, Route};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::RwLock;

/// Globally unique identifier of an exported segment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SegmentId(pub u64);

/// An address inside the global SCI address space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SciAddr {
    /// The segment containing the byte.
    pub segment: SegmentId,
    /// Byte offset within the segment.
    pub offset: usize,
}

/// One exported memory segment.
#[derive(Debug)]
pub struct Segment {
    id: SegmentId,
    owner: NodeId,
    mem: SharedMem,
}

impl Segment {
    pub(crate) fn new(id: SegmentId, owner: NodeId, len: usize) -> Self {
        Segment {
            id,
            owner,
            mem: SharedMem::new(len),
        }
    }

    /// The segment's id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// The exporting node.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// True if the segment has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// The backing memory. The owner accesses it at local-memory cost;
    /// importers must go through PIO/DMA operations which model fabric
    /// cost.
    pub fn mem(&self) -> &SharedMem {
        &self.mem
    }
}

/// Registry of all exported segments of one fabric.
#[derive(Debug, Default)]
pub struct SegmentRegistry {
    next_id: AtomicU64,
    segments: RwLock<HashMap<u64, Arc<Segment>>>,
}

impl SegmentRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SegmentRegistry::default()
    }

    /// Export a new segment owned by `owner`.
    pub fn export(&self, owner: NodeId, len: usize) -> Arc<Segment> {
        let id = SegmentId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let seg = Arc::new(Segment::new(id, owner, len));
        self.segments
            .write()
            .unwrap()
            .insert(id.0, Arc::clone(&seg));
        seg
    }

    /// Look up a segment by id.
    pub fn get(&self, id: SegmentId) -> Option<Arc<Segment>> {
        self.segments.read().unwrap().get(&id.0).cloned()
    }

    /// Withdraw a segment from remote access (unexport). Outstanding
    /// `Arc` handles keep the memory alive but new imports fail.
    pub fn unexport(&self, id: SegmentId) -> bool {
        self.segments.write().unwrap().remove(&id.0).is_some()
    }

    /// Number of currently exported segments.
    pub fn count(&self) -> usize {
        self.segments.read().unwrap().len()
    }
}

/// A remote (or local) segment mapped by an importing node, together with
/// the route its traffic takes.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// The mapped segment.
    pub segment: Arc<Segment>,
    /// The importing node.
    pub importer: NodeId,
    /// Route from importer to owner (empty if intra-node).
    pub route: Route,
}

impl Mapping {
    /// True if importer and owner are the same node, i.e. access is plain
    /// local memory.
    pub fn is_local(&self) -> bool {
        self.route.is_local()
    }

    /// The ordered (importer, owner) node pair: the key of the mapping's
    /// retry stream in the fault injector.
    pub fn pair(&self) -> (usize, usize) {
        (self.importer.0, self.segment.owner().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn export_assigns_unique_ids() {
        let reg = SegmentRegistry::new();
        let a = reg.export(NodeId(0), 128);
        let b = reg.export(NodeId(1), 128);
        assert_ne!(a.id(), b.id());
        assert_eq!(reg.count(), 2);
    }

    #[test]
    fn lookup_and_unexport() {
        let reg = SegmentRegistry::new();
        let a = reg.export(NodeId(0), 64);
        assert!(reg.get(a.id()).is_some());
        assert!(reg.unexport(a.id()));
        assert!(reg.get(a.id()).is_none());
        assert!(!reg.unexport(a.id()));
        // The original handle still works.
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn segment_properties() {
        let reg = SegmentRegistry::new();
        let s = reg.export(NodeId(3), 256);
        assert_eq!(s.owner(), NodeId(3));
        assert_eq!(s.len(), 256);
        assert!(!s.is_empty());
        s.mem().write(0, &[42]).unwrap();
        let mut b = [0u8];
        s.mem().read(0, &mut b).unwrap();
        assert_eq!(b[0], 42);
    }

    #[test]
    fn mapping_locality() {
        let topo = Topology::ringlet(4);
        let reg = SegmentRegistry::new();
        let s = reg.export(NodeId(2), 64);
        let local = Mapping {
            segment: Arc::clone(&s),
            importer: NodeId(2),
            route: topo.route(NodeId(2), NodeId(2)),
        };
        let remote = Mapping {
            segment: s,
            importer: NodeId(0),
            route: topo.route(NodeId(0), NodeId(2)),
        };
        assert!(local.is_local());
        assert!(!remote.is_local());
    }

    #[test]
    fn concurrent_exports() {
        use std::thread;
        let reg = Arc::new(SegmentRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    (0..100)
                        .map(|_| reg.export(NodeId(i), 16).id())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<SegmentId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate segment ids handed out");
    }
}
