//! Each function is the fixture line of one retired pass; its doc names
//! the pass and the lint that rejects it now.

/// DL001 → `clippy::unwrap_used`.
pub fn first_field(text: &str) -> u64 {
    text.parse().unwrap()
}

/// DL013 → `clippy::expect_used`.
pub fn first_field_or_die(text: &str) -> u64 {
    text.parse().expect("a number")
}

/// DL013 → `clippy::panic`.
pub fn rule_for(found: Option<u64>) -> u64 {
    match found {
        Some(rule) => rule,
        None => panic!("table not total"),
    }
}

/// DL013 → `clippy::integer_division`: division by a variable.
pub fn share(total: u64, groups: u64) -> u64 {
    total / groups
}

/// DL000, carried over to attributes → `clippy::allow_attributes_without_reason`.
#[allow(dead_code)]
fn unused() {}

/// DL009 → `clippy::indexing_slicing` and `clippy::string_slice`.
pub fn head<'a>(fields: &[u64], text: &'a str) -> (u64, &'a str) {
    (fields[0], &text[..1])
}

/// DL004 → `clippy::disallowed_methods` (`std::thread::spawn`).
pub fn fan_out() {
    drop(std::thread::spawn(|| ()));
}

/// DL007, wall-clock half → `clippy::disallowed_methods`
/// (`std::time::Instant::now`).
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

/// DL006 + DL012 → `clippy::disallowed_types`. [`drain`] never names the
/// type: it arrives through a call return, the laundering DL012 chased
/// with a call graph. With the *type* banned, the helper cannot build
/// the map without naming it.
fn build_index() -> std::collections::HashMap<String, u64> {
    let mut m = std::collections::HashMap::new();
    m.insert("k".to_string(), 1);
    m
}

pub fn drain() -> Vec<u64> {
    let m = build_index();
    m.values().copied().collect()
}

/// DL008 → `clippy::as_conversions`.
pub fn truncated(big_count: u64) -> u32 {
    big_count as u32
}

/// DL011 → `clippy::print_stdout`.
pub fn debug(x: u64) {
    println!("debug {x}");
}

fn write_mask(mask: u64) -> Result<u64, String> {
    Ok(mask)
}

/// DL017 → `clippy::let_underscore_must_use`: the two-hop discard, no
/// `unwrap`/`expect` text anywhere.
pub fn epoch_step(mask: u64) -> u64 {
    let applied = write_mask(mask);
    let _ = applied;
    mask
}

pub enum Severity {
    Transient,
    Fatal,
    Config,
}

/// DL017 → `clippy::wildcard_enum_match_arm`.
pub fn weight(severity: &Severity) -> u64 {
    match severity {
        Severity::Transient => 1,
        _ => 0,
    }
}
