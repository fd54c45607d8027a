//! Mini-workspace fixture, "app" crate metrics module
//! (`crates/app/src/metrics.rs`).

use corelib::routing_table as routes;

pub struct Gauge {
    pub value: u32,
}

impl Gauge {
    pub fn sample(&self) -> u32 {
        self.value
    }

    /// Method call through `self`: edge `Gauge::touch -> Gauge::sample`.
    pub fn touch(&self) -> u32 {
        self.sample()
    }
}

/// On the DL013 trace: the panic site sits behind this use-aliased
/// cross-crate call, so no per-file pass can see it from here.
pub fn collect() -> u32 {
    let m = routes();
    let mut total = 0;
    for name in m.keys() {
        total += name.len() as u32;
    }
    total
}

/// Method resolution by typed-parameter receiver:
/// edge `gauge -> corelib::Sensor::read`.
pub fn gauge(s: &corelib::Sensor) -> u32 {
    s.read()
}

/// The deliberate unresolved edge: `g` is a pattern binding with no
/// recorded type, and both `Gauge` and `corelib::Probe` define
/// `sample`, so the resolver must report the ambiguity, not guess.
pub fn flush(q: &[Gauge]) -> u32 {
    if let Some(g) = q.last() {
        return g.sample();
    }
    0
}
