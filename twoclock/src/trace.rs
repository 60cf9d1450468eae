//! Spans recorded by the benchmark around its calls into the program.
//!
//! Nothing inside the program is instrumented: a [`Tracer`] brackets a
//! call with the host clock and the rank's virtual clock (`Rank::now`),
//! and takes the virtual time the rank spent blocked on peers from the
//! change in `Rank::waited()`. Spans stay in memory and are written out
//! when the benchmark ends.

use crate::host::host_ns;
use scimpi::Rank;
use std::io::Write;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub rank: u32,
    /// Unique within the rank.
    pub id: u32,
    pub parent: Option<u32>,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub virt_start_ps: u64,
    pub virt_end_ps: u64,
    /// Virtual time blocked on peers inside the span.
    pub virt_wait_ps: u64,
}

impl Span {
    fn host(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    fn virt(&self) -> u64 {
        self.virt_end_ps - self.virt_start_ps
    }
}

/// An open span: its index, or `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

/// Per-rank span recorder. Off, `open` and `close` do nothing.
pub struct Tracer {
    on: bool,
    rank: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    wait_at_open: Vec<u64>,
}

impl Tracer {
    pub fn new(on: bool, rank: usize) -> Self {
        Tracer {
            on,
            rank: rank as u32,
            spans: Vec::new(),
            stack: Vec::new(),
            wait_at_open: Vec::new(),
        }
    }

    pub fn open(&mut self, r: &Rank, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            rank: self.rank,
            id,
            parent: self.stack.last().copied(),
            host_start_ns: host_ns(),
            host_end_ns: 0,
            virt_start_ps: r.now().as_ps(),
            virt_end_ps: 0,
            virt_wait_ps: 0,
        });
        self.stack.push(id);
        self.wait_at_open.push(r.waited().as_ps());
        Open(Some(id as usize))
    }

    pub fn close(&mut self, r: &Rank, open: Open) {
        let Some(i) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(i as u32), "spans close in stack order");
        let waited = r.waited().as_ps() - self.wait_at_open.pop().expect("open span");
        let s = &mut self.spans[i];
        s.host_end_ns = host_ns();
        s.virt_end_ps = r.now().as_ps();
        s.virt_wait_ps = waited;
    }

    /// Run `f` inside a span named `name`.
    pub fn call<R>(
        &mut self,
        r: &mut Rank,
        name: &'static str,
        f: impl FnOnce(&mut Rank) -> R,
    ) -> R {
        let open = self.open(r, name);
        let out = f(r);
        self.close(r, open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's own cost: its duration minus what its children cover.
#[derive(Clone, Copy, Debug)]
pub struct SelfTime {
    pub host_ns: u64,
    pub virt_ps: u64,
    pub virt_wait_ps: u64,
}

/// Self time of every span of one rank, in span order.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut out: Vec<SelfTime> = spans
        .iter()
        .map(|s| SelfTime {
            host_ns: s.host(),
            virt_ps: s.virt(),
            virt_wait_ps: s.virt_wait_ps,
        })
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = &mut out[p as usize];
            p.host_ns = p.host_ns.saturating_sub(s.host());
            p.virt_ps = p.virt_ps.saturating_sub(s.virt());
            p.virt_wait_ps = p.virt_wait_ps.saturating_sub(s.virt_wait_ps);
        }
    }
    out
}

/// The outermost span enclosing `s` (itself when it has no parent).
pub fn root<'a>(spans: &'a [Span], mut s: &'a Span) -> &'a Span {
    while let Some(p) = s.parent {
        s = &spans[p as usize];
    }
    s
}

/// Write spans as JSON lines to `path`.
pub fn write_spans(
    path: &std::path::Path,
    workload: &str,
    ranks: &[Vec<Span>],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in ranks.iter().flatten() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"workload\":\"{workload}\",\"rank\":{},\"id\":{},\"parent\":{parent},\
             \"host_start_ns\":{},\"host_end_ns\":{},\"virt_start_ps\":{},\"virt_end_ps\":{},\
             \"virt_wait_ps\":{}}}",
            s.name,
            s.rank,
            s.id,
            s.host_start_ns,
            s.host_end_ns,
            s.virt_start_ps,
            s.virt_end_ps,
            s.virt_wait_ps
        )?;
    }
    out.flush()
}

/// Quantile `q` (0..=1) of `v` by the nearest-rank rule; 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, host: (u64, u64), virt: (u64, u64), wait: u64) -> Span {
        Span {
            name: "x",
            rank: 0,
            id,
            parent,
            host_start_ns: host.0,
            host_end_ns: host.1,
            virt_start_ps: virt.0,
            virt_end_ps: virt.1,
            virt_wait_ps: wait,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, (0, 100), (0, 1000), 300),
            span(1, Some(0), (10, 40), (100, 400), 100),
            span(2, Some(0), (50, 60), (500, 600), 0),
            span(3, Some(1), (20, 30), (200, 250), 50),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0].host_ns, 60);
        assert_eq!(st[0].virt_ps, 600);
        assert_eq!(st[0].virt_wait_ps, 200);
        assert_eq!(st[1].host_ns, 20);
        assert_eq!(st[1].virt_wait_ps, 50);
        assert_eq!(st[3].virt_ps, 50);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
