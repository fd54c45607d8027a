//! Replacement and insertion policies for the set-associative arrays.
//!
//! The dCat paper's "streaming" class rests on Qureshi et al.'s analysis
//! of cyclic access patterns under LRU (their adaptive-insertion paper is
//! cited for it): a scan longer than the cache thrashes LRU completely,
//! which is exactly why an MLOAD neighbor destroys a shared cache. The
//! simulator therefore supports the relevant policy family:
//!
//! * [`ReplacementPolicy::Lru`] — true LRU (Intel LLCs approximate this);
//!   the default everywhere.
//! * [`ReplacementPolicy::Fifo`] — insertion-order eviction (hits do not
//!   refresh recency).
//! * [`ReplacementPolicy::Random`] — uniform victim among the permitted
//!   ways.
//! * [`ReplacementPolicy::Bip`] — bimodal insertion (BIP, the
//!   scan-resistant half of DIP): fills are inserted at the LRU position
//!   except with small probability, so a one-shot scan evicts itself
//!   instead of the working set.
//!
//! Policies compose with CAT masks: victim selection is always confined
//! to the permitted ways. The `ablate_replacement` bench compares them
//! under the paper's noisy-neighbor scenario.

/// Victim-selection / insertion policy of one cache array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used permitted line; insert at MRU.
    #[default]
    Lru,
    /// Evict the oldest-inserted permitted line; hits do not promote.
    Fifo,
    /// Evict a uniformly random permitted line.
    Random,
    /// LRU eviction, but insert at the LRU position except one fill in
    /// `mru_one_in` (BIP). `mru_one_in = 32` is the DIP paper's epsilon.
    Bip {
        /// Insert at MRU once every this many fills.
        mru_one_in: u32,
    },
}

impl ReplacementPolicy {
    /// The DIP paper's BIP configuration (1/32 MRU insertions).
    pub fn bip() -> Self {
        ReplacementPolicy::Bip { mru_one_in: 32 }
    }

    /// Whether a lookup hit refreshes the line's recency.
    pub fn promotes_on_hit(self) -> bool {
        !matches!(self, ReplacementPolicy::Fifo)
    }

    /// Whether the policy reads the cache's pseudo-random draw (Random
    /// picks its victim with it, BIP its insertion position).
    pub fn uses_draw(self) -> bool {
        matches!(
            self,
            ReplacementPolicy::Random | ReplacementPolicy::Bip { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_lru() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }

    #[test]
    fn promotion_rules() {
        assert!(ReplacementPolicy::Lru.promotes_on_hit());
        assert!(ReplacementPolicy::Random.promotes_on_hit());
        assert!(ReplacementPolicy::bip().promotes_on_hit());
        assert!(!ReplacementPolicy::Fifo.promotes_on_hit());
    }

    #[test]
    fn only_random_and_bip_read_the_draw() {
        assert!(!ReplacementPolicy::Lru.uses_draw());
        assert!(!ReplacementPolicy::Fifo.uses_draw());
        assert!(ReplacementPolicy::Random.uses_draw());
        assert!(ReplacementPolicy::bip().uses_draw());
    }
}
