//! Mini-workspace fixture, "corelib" crate (`crates/corelib/src/lib.rs`).
//!
//! Deliberately holds a constructor with an `unwrap()` (the panic site
//! of the DL013 trace test, two calls and one crate away from the
//! entry) and a `sample` method that collides with
//! `app::metrics::Gauge::sample` to force an ambiguous edge.

use std::collections::BTreeMap;

/// Builds the routing table; the parse is the seeded panic site.
pub fn routing_table() -> BTreeMap<String, u32> {
    let mut m = BTreeMap::new();
    m.insert("a".to_string(), "1".parse().unwrap());
    m
}

pub struct Sensor;

impl Sensor {
    pub fn read(&self) -> u32 {
        7
    }
}

pub struct Probe;

impl Probe {
    /// Same method name as `Gauge::sample` in the app crate: a call on
    /// an untyped receiver cannot pick between them.
    pub fn sample(&self) -> u32 {
        1
    }
}
