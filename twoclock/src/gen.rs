//! Seeded inputs of the three workloads.
//!
//! Everything a workload sends, and every reference it checks against,
//! is a pure function of the `--seed` argument. Sizes and block lengths
//! come from fixed log-spaced levels that the seed arranges (which
//! message, rank and iteration gets which size), while layouts' gaps,
//! strides, offsets and shapes, reference payloads and roots are drawn
//! freely. Two seeds therefore give different inputs with the same size
//! mix, so the run-to-run spread of a metric reflects the program, not a
//! lucky draw of large or small messages.

use mpi_datatype::{subarray, ArrayOrder, Datatype};
use simclock::SplitMix64;

/// Element type of every generated layout (8-byte blocks at minimum).
pub const ELEM: usize = 8;

/// Draw source: SplitMix64 with the helpers the generators need.
pub struct Rng(SplitMix64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut root = SplitMix64::new(seed ^ 0x7C0C_2002);
        Rng(root.fork(stream))
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0.next_below(n)
    }

    /// The midpoints of `n` equal quantile bands of `[0, 1)`, in a
    /// seeded order.
    pub fn levels(&mut self, n: usize) -> Vec<f64> {
        let mut bands: Vec<usize> = (0..n).collect();
        self.0.shuffle(&mut bands);
        bands
            .into_iter()
            .map(|b| (b as f64 + 0.5) / n as f64)
            .collect()
    }
}

/// Map a quantile `q` in `[0, 1)` onto `[lo, hi]`, log-uniformly.
pub fn log_uniform(q: f64, lo: f64, hi: f64) -> f64 {
    (lo.ln() + q * (hi.ln() - lo.ln())).exp()
}

/// The reference value of element `k` of a stream salted with `salt`:
/// cheap to recompute on the receiving side, and two streams with
/// different salts disagree at every element.
pub fn value(salt: u64, k: usize) -> u64 {
    salt.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A salt for the stream identified by `parts`.
pub fn salt(parts: &[u64]) -> u64 {
    parts.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, &p| {
        (acc ^ p).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fill `buf` with the reference stream `salt` (elements are `u64` LE).
pub fn fill(buf: &mut [u8], salt: u64, first: usize) {
    for (i, chunk) in buf.chunks_exact_mut(ELEM).enumerate() {
        chunk.copy_from_slice(&value(salt, first + i).to_le_bytes());
    }
}

/// Whether `buf` holds the reference stream `salt` from element `first`.
pub fn holds(buf: &[u8], salt: u64, first: usize) -> bool {
    buf.len().is_multiple_of(ELEM)
        && buf
            .chunks_exact(ELEM)
            .enumerate()
            .all(|(i, c)| c == value(salt, first + i).to_le_bytes())
}

// ---------------------------------------------------------------------
// ddt_pingpong

/// The six layout families of `ddt_pingpong`.
const FAMILIES: usize = 6;

/// Block lengths of the design, in elements: 8 B to 4 KiB, log-spaced.
const BLOCK_LEVELS: [usize; 6] = [1, 3, 12, 42, 147, 512];
/// Payloads of the design, in elements: 16 KiB to 256 KiB, log-spaced.
const PAYLOAD_LEVELS: [usize; 6] = [2048, 3566, 6208, 10809, 18820, 32768];

/// Distinct (send, receive) layout pairs per seed: every send family
/// meets every block length and every payload.
pub const DDT_PAIRS: usize = FAMILIES * BLOCK_LEVELS.len() * PAYLOAD_LEVELS.len();

/// One generated pair: the sender's layout and the receiver's
/// different layout of the same type signature (the same number of
/// 8-byte elements).
#[derive(Clone)]
pub struct DdtPair {
    pub send: Datatype,
    pub recv: Datatype,
}

impl DdtPair {
    /// Payload bytes of one transfer.
    pub fn payload(&self) -> usize {
        self.send.size()
    }
}

/// Generate the seed's layout pairs. Send family, block length and
/// payload form a full grid (block lengths and payloads log-spaced), and
/// the receiving family cycles through the five other families along
/// the grid, so every seed has the same mix of layout kinds and sizes.
/// The seed draws every gap, stride, offset and array shape, and the
/// order of the pairs.
pub fn ddt_pairs(seed: u64) -> Vec<DdtPair> {
    let mut rng = Rng::new(seed, 1);
    let mut pairs = Vec::with_capacity(DDT_PAIRS);
    for send_family in 0..FAMILIES {
        for (b, &bl) in BLOCK_LEVELS.iter().enumerate() {
            for (p, &target) in PAYLOAD_LEVELS.iter().enumerate() {
                let units = |u: usize| (target / u).max(1);
                let send = layout(&mut rng, send_family, bl, target, Gaps::Send, &units);
                let elems = send.size() / ELEM;
                let recv_family = (send_family + 1 + (b + p) % (FAMILIES - 1)) % FAMILIES;
                let recv = fit(&mut rng, recv_family, bl, elems);
                debug_assert_eq!(send.size(), recv.size());
                pairs.push(DdtPair { send, recv });
            }
        }
    }
    rng.0.shuffle(&mut pairs);
    pairs
}

/// Gap ranges between blocks, and plane counts of 3-D grids. The two
/// ranks commit their layouts concurrently, and a receiving layout equal
/// to a sending one would make the layout cache's hit count race;
/// disjoint ranges keep every receiving layout distinct from every
/// sending one.
#[derive(Clone, Copy)]
enum Gaps {
    /// Gaps of 1 to `bl` elements, 2 to 4 planes.
    Send,
    /// Gaps of `bl + 1` to `2 bl` elements, 5 to 7 planes.
    Recv,
}

/// A layout of `family` with blocks of about `bl` elements and about
/// `target` elements in all. Regular families repeat a unit of `u`
/// elements `units(u)` times; the irregular ones (indexed, struct) hold
/// exactly `target`.
fn layout(
    rng: &mut Rng,
    family: usize,
    bl: usize,
    target: usize,
    gaps: Gaps,
    units: &dyn Fn(usize) -> usize,
) -> Datatype {
    let dbl = Datatype::double();
    let bl = bl.min(target).max(1);
    let base = match gaps {
        Gaps::Send => 1,
        Gaps::Recv => bl + 1,
    };
    let gap = |rng: &mut Rng| base + rng.below(bl as u64) as usize;
    let planes = |rng: &mut Rng| {
        let first = match gaps {
            Gaps::Send => 2,
            Gaps::Recv => 5,
        };
        first + rng.below(3) as usize
    };
    match family {
        0 => Datatype::vector(units(bl), bl, (bl + gap(rng)) as isize, &dbl),
        1 => {
            let stride = ((bl + gap(rng)) * ELEM) as i64;
            Datatype::hvector(units(bl), 1, stride, &Datatype::contiguous(bl, &dbl))
        }
        2 => {
            let mut blocks = Vec::new();
            let (mut at, mut left) = (0isize, target);
            while left > 0 {
                let len = (bl / 2 + rng.below(bl as u64 + 1) as usize).clamp(1, left);
                blocks.push((len, at));
                at += (len + gap(rng)) as isize;
                left -= len;
            }
            Datatype::indexed(&blocks, &dbl)
        }
        3 => {
            // Fields alternate between plain doubles and pairs of
            // doubles: a deeper tree with the same element signature.
            let pair = Datatype::contiguous(2, &dbl);
            let mut fields = Vec::new();
            let (mut at, mut left) = (0i64, target);
            while left > 0 {
                let len = bl.min(left);
                if len % 2 == 0 && fields.len() % 2 == 1 {
                    fields.push((len / 2, at, pair.clone()));
                } else {
                    fields.push((len, at, dbl.clone()));
                }
                at += ((len + gap(rng)) * ELEM) as i64;
                left -= len;
            }
            Datatype::structure(&fields)
        }
        4 => {
            // A 2-D block of a larger matrix: rows of `bl` elements.
            let count = units(bl);
            let cols = bl + gap(rng);
            let rows = count + rng.below(4) as usize;
            let start = [rng.below((rows - count + 1) as u64) as usize, cols - bl];
            subarray(&[rows, cols], &[count, bl], &start, ArrayOrder::C, &dbl)
        }
        _ => {
            // A face of a 3-D grid. Blocks of one element are the face
            // normal to the contiguous dimension; longer blocks are the
            // face normal to the middle one.
            if bl == 1 {
                let nx = ((target as f64).sqrt().round() as usize).max(1);
                let ny = units(nx);
                let nz = planes(rng);
                let z = rng.below(nz as u64) as usize;
                subarray(&[nx, ny, nz], &[nx, ny, 1], &[0, 0, z], ArrayOrder::C, &dbl)
            } else {
                let count = units(bl);
                let ny = planes(rng);
                let y = rng.below(ny as u64) as usize;
                subarray(
                    &[count, ny, bl],
                    &[count, 1, bl],
                    &[0, y, 0],
                    ArrayOrder::C,
                    &dbl,
                )
            }
        }
    }
}

/// A layout of `family` holding exactly `elems` elements: the family's
/// layout plus, when its block shape leaves a remainder, a contiguous
/// tail placed after it.
fn fit(rng: &mut Rng, family: usize, bl: usize, elems: usize) -> Datatype {
    let main = layout(rng, family, bl, elems, Gaps::Recv, &|u| elems / u);
    let have = main.size() / ELEM;
    debug_assert!(have <= elems);
    if have == elems {
        return main;
    }
    let tail_at = main.ub() + ELEM as i64;
    Datatype::structure(&[(1, 0, main), (elems - have, tail_at, Datatype::double())])
}

// ---------------------------------------------------------------------
// osc_halo

/// Ranks of `osc_halo`.
pub const HALO_RANKS: usize = 4;
/// Windows of `osc_halo`; the last one is private (emulated path).
pub const HALO_WINDOWS: usize = 4;
/// Largest halo slab and get.
pub const SLAB_MAX: usize = 8192;
/// Window layout: slab from the left neighbour, slab from the right
/// neighbour, accumulate cells, get source.
pub const FROM_LEFT: usize = 0;
pub const FROM_RIGHT: usize = SLAB_MAX;
pub const ACC_AT: usize = 2 * SLAB_MAX;
pub const ACC_CELLS: usize = 8;
pub const GET_SRC: usize = ACC_AT + ACC_CELLS * ELEM;
pub const HALO_WIN_LEN: usize = GET_SRC + SLAB_MAX;

/// What one rank does in one `osc_halo` iteration.
#[derive(Clone, Copy)]
pub struct HaloStep {
    /// Slab put to the right neighbour (lands in its `FROM_LEFT`).
    pub to_right: usize,
    /// Slab put to the left neighbour (lands in its `FROM_RIGHT`).
    pub to_left: usize,
    /// Accumulate cells added into the right neighbour.
    pub acc_cells: usize,
    /// Get from the left neighbour's get source: offset and length.
    pub get_off: usize,
    pub get_len: usize,
}

/// Epoch kinds of `osc_halo`: fence, PSCW, lock/unlock.
pub const HALO_EPOCHS: usize = 3;
/// Iterations repeat every (window, epoch kind) pairing with this period.
pub const HALO_PERIOD: usize = HALO_WINDOWS * HALO_EPOCHS;

/// `steps[iter][rank]`: slab and get sizes 8 B–8 KiB on log-spaced
/// levels, so gets fall on both sides of the 512 B remote-put
/// conversion. Every (window, epoch kind) pairing gets the same set of
/// sizes, in a seeded order.
pub fn halo_steps(seed: u64, iters: usize) -> Vec<Vec<HaloStep>> {
    assert_eq!(
        iters % HALO_PERIOD,
        0,
        "whole periods of windows and epochs"
    );
    let mut rng = Rng::new(seed, 2);
    let per_phase = iters / HALO_PERIOD * HALO_RANKS;
    let levels: Vec<[Vec<f64>; 3]> = (0..HALO_PERIOD)
        .map(|_| {
            [
                rng.levels(per_phase),
                rng.levels(per_phase),
                rng.levels(per_phase),
            ]
        })
        .collect();
    let slab = |q: f64| (log_uniform(q, 8.0, SLAB_MAX as f64) as usize / ELEM).max(1) * ELEM;
    (0..iters)
        .map(|i| {
            let [qr, ql, qg] = &levels[i % HALO_PERIOD];
            (0..HALO_RANKS)
                .map(|r| {
                    let k = i / HALO_PERIOD * HALO_RANKS + r;
                    let get_len = slab(qg[k]);
                    let slots = (SLAB_MAX - get_len) / ELEM;
                    HaloStep {
                        to_right: slab(qr[k]),
                        to_left: slab(ql[k]),
                        acc_cells: 1 + rng.below(ACC_CELLS as u64) as usize,
                        get_off: rng.below(slots as u64 + 1) as usize * ELEM,
                        get_len,
                    }
                })
                .collect()
        })
        .collect()
}

/// Accumulate operand of `src` into cell `j` in iteration `iter`:
/// small integers, so sums stay exact.
pub fn acc_value(seed: u64, iter: usize, src: usize, j: usize) -> i64 {
    (salt(&[seed, 3, iter as u64, src as u64, j as u64]) % 2001) as i64 - 1000
}

// ---------------------------------------------------------------------
// coll_scale

/// Ring and ranks-per-ring of `coll_scale` (`multi_ring(8, 8)`).
pub const COLL_RINGS: usize = 8;
pub const COLL_PER_RING: usize = 8;
pub const COLL_RANKS: usize = COLL_RINGS * COLL_PER_RING;
pub const ALLREDUCE_LEN: usize = 8;
pub const ALLGATHER_BYTES: usize = 64;
pub const ALLTOALL_BYTES: usize = 16;
pub const BCAST_MAX: usize = 65536;

/// One `coll_scale` iteration's broadcast.
#[derive(Clone, Copy)]
pub struct Bcast {
    pub root: usize,
    pub len: usize,
}

/// Broadcast root rotates from a seeded start; sizes 1 B–64 KiB
/// log-uniform.
pub fn coll_bcasts(seed: u64, iters: usize) -> Vec<Bcast> {
    let mut rng = Rng::new(seed, 4);
    let q = rng.levels(iters);
    let first = rng.below(COLL_RANKS as u64) as usize;
    (0..iters)
        .map(|i| Bcast {
            root: (first + i) % COLL_RANKS,
            len: log_uniform(q[i], 1.0, BCAST_MAX as f64).round() as usize,
        })
        .collect()
}

/// Allreduce operand of `rank`, element `j`, iteration `iter`.
pub fn allreduce_value(seed: u64, iter: usize, rank: usize, j: usize) -> f64 {
    (salt(&[seed, 5, iter as u64, rank as u64, j as u64]) % 1024) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_share_signature_not_layout() {
        for seed in [1, 2, 3] {
            let pairs = ddt_pairs(seed);
            for p in &pairs {
                assert_eq!(p.send.size(), p.recv.size());
                assert!(p.send.lb() >= 0 && p.recv.lb() >= 0);
                assert!((16384 - 4096..=262144).contains(&p.payload()));
            }
            let sent: std::collections::HashSet<u64> =
                pairs.iter().map(|p| p.send.signature()).collect();
            assert!(pairs.iter().all(|p| !sent.contains(&p.recv.signature())));
        }
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        let a: Vec<u64> = ddt_pairs(7).iter().map(|p| p.recv.signature()).collect();
        let b: Vec<u64> = ddt_pairs(7).iter().map(|p| p.recv.signature()).collect();
        assert_eq!(a, b);
        let c: Vec<u64> = ddt_pairs(8).iter().map(|p| p.recv.signature()).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn halo_gets_straddle_remote_put_threshold() {
        let steps = halo_steps(1, 96);
        let lens: Vec<usize> = steps.iter().flatten().map(|s| s.get_len).collect();
        assert!(lens.iter().any(|&l| l < 512) && lens.iter().any(|&l| l >= 512));
        for s in steps.iter().flatten() {
            assert!(s.get_off + s.get_len <= SLAB_MAX);
        }
    }
}
