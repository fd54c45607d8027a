//! The [`CacheController`] trait: everything dCat may do to the hardware.

use std::fmt;

use cbm::Cbm;

/// Identifier of a class of service (COS / CLOSID).
///
/// COS 0 is the default class every core starts in; the paper's machines
/// expose 16 classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CosId(pub u8);

/// Static CAT capabilities of a socket, mirroring
/// `/sys/fs/resctrl/info/L3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatCapabilities {
    /// Number of ways the CBM covers (length of the full mask).
    pub cbm_len: u32,
    /// Minimum number of bits a CBM must have set.
    pub min_cbm_bits: u32,
    /// Number of classes of service, including COS 0.
    pub num_closids: u32,
}

impl CatCapabilities {
    /// The paper's machines: 16 classes, 1-bit minimum.
    pub fn with_ways(ways: u32) -> Self {
        CatCapabilities {
            cbm_len: ways,
            min_cbm_bits: 1,
            num_closids: 16,
        }
    }

    /// The full-cache mask.
    pub fn full_mask(&self) -> Cbm {
        Cbm::full(self.cbm_len)
    }
}

/// Coarse severity of a [`ResctrlError`], driving the daemon's
/// recovery policy.
///
/// The split follows what a long-running daemon can actually do about a
/// failure: transient errors come from the environment (a torn read of a
/// schemata file, an `EIO` from a flaky sysfs write, a truncated
/// telemetry sample) and are worth retrying or degrading around; fatal
/// errors mean the *controller* asked for something the hardware model
/// forbids — a logic bug that retrying would only repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorSeverity {
    /// Environmental; retry with backoff, then degrade the tick.
    Transient,
    /// A controller logic bug; propagate and stop.
    Fatal,
}

/// Errors surfaced by a CAT backend.
#[derive(Debug)]
pub enum ResctrlError {
    /// The CBM violates hardware rules (empty, non-contiguous, out of
    /// range, or below `min_cbm_bits`).
    InvalidCbm {
        /// The offending mask.
        cbm: Cbm,
        /// Why it was rejected.
        reason: String,
    },
    /// The COS id is outside `0..num_closids`.
    InvalidCos(CosId),
    /// The core index is outside the socket.
    InvalidCore(u32),
    /// An I/O failure in a filesystem backend.
    Io(std::io::Error),
    /// A malformed file in a filesystem backend.
    Parse(String),
}

impl ResctrlError {
    /// Classifies this error for recovery purposes.
    ///
    /// I/O and parse failures are [`ErrorSeverity::Transient`]: on real
    /// hosts they show up under memory pressure, during concurrent
    /// resctrl writers, or when a sampler is mid-write. The validation
    /// variants are [`ErrorSeverity::Fatal`]: the masks and ids the
    /// controller computes are checked against capabilities it read at
    /// startup, so a rejection is a bug, not weather.
    pub fn severity(&self) -> ErrorSeverity {
        match self {
            ResctrlError::Io(_) | ResctrlError::Parse(_) => ErrorSeverity::Transient,
            ResctrlError::InvalidCbm { .. }
            | ResctrlError::InvalidCos(_)
            | ResctrlError::InvalidCore(_) => ErrorSeverity::Fatal,
        }
    }

    /// Whether this error is worth retrying.
    pub fn is_transient(&self) -> bool {
        self.severity() == ErrorSeverity::Transient
    }
}

impl fmt::Display for ResctrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResctrlError::InvalidCbm { cbm, reason } => {
                write!(f, "invalid CBM {cbm}: {reason}")
            }
            ResctrlError::InvalidCos(cos) => write!(f, "invalid COS id {}", cos.0),
            ResctrlError::InvalidCore(core) => write!(f, "invalid core index {core}"),
            ResctrlError::Io(e) => write!(f, "resctrl I/O error: {e}"),
            ResctrlError::Parse(msg) => write!(f, "resctrl parse error: {msg}"),
        }
    }
}

impl std::error::Error for ResctrlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResctrlError::Io(e) => Some(e),
            ResctrlError::InvalidCbm { .. }
            | ResctrlError::InvalidCos(_)
            | ResctrlError::InvalidCore(_)
            | ResctrlError::Parse(_) => None,
        }
    }
}

impl From<std::io::Error> for ResctrlError {
    fn from(e: std::io::Error) -> Self {
        ResctrlError::Io(e)
    }
}

/// Abstract CAT control plane.
///
/// dCat (and the static-partition baseline) program the cache exclusively
/// through this trait. Semantics follow Intel CAT:
///
/// * every core is associated with exactly one COS at a time;
/// * a COS's CBM bounds where cores of that class may *allocate*;
/// * masks of different classes may legally overlap on hardware, but no
///   policy here programs overlapping masks (dCat's isolation guarantee):
///   [`crate::apply::Programmed`] lays them out disjoint and keeps them so
///   while it writes.
pub trait CacheController {
    /// The socket's CAT capabilities.
    fn capabilities(&self) -> CatCapabilities;

    /// Number of cores on the socket.
    fn num_cores(&self) -> u32;

    /// Programs the capacity bitmask of `cos`.
    fn program_cos(&mut self, cos: CosId, cbm: Cbm) -> Result<(), ResctrlError>;

    /// Associates `core` with `cos`.
    fn assign_core(&mut self, core: u32, cos: CosId) -> Result<(), ResctrlError>;

    /// The mask currently programmed for `cos`.
    fn cos_mask(&self, cos: CosId) -> Result<Cbm, ResctrlError>;

    /// The class `core` is currently associated with.
    fn core_cos(&self, core: u32) -> Result<CosId, ResctrlError>;

    /// Flushes the cache contents of the ways in `cbm`.
    ///
    /// Intel has no way-flush instruction; the paper's Section 6 notes a
    /// deployment must run a user-level flush pass after reassigning ways,
    /// or lines filled under the old mask keep getting hits in ways their
    /// owner can no longer fill (and nothing ever evicts them). Backends
    /// that cannot flush (the bare filesystem backend) default to a no-op;
    /// the simulator implements it faithfully.
    fn flush_cbm(&mut self, cbm: Cbm) -> Result<(), ResctrlError> {
        let _ = cbm;
        Ok(())
    }

    /// Validates a mask against this socket's capabilities.
    ///
    /// Provided for backends; the default implementation applies the Intel
    /// rules from [`Cbm::is_valid_for`].
    fn validate_cbm(&self, cbm: Cbm) -> Result<(), ResctrlError> {
        let caps = self.capabilities();
        if cbm.is_valid_for(caps.cbm_len, caps.min_cbm_bits) {
            Ok(())
        } else {
            let reason = if cbm.is_empty() {
                "mask is empty".to_string()
            } else if !cbm.is_contiguous() {
                "mask is not contiguous".to_string()
            } else if cbm.ways() < caps.min_cbm_bits {
                format!(
                    "mask has fewer than min_cbm_bits={} ways",
                    caps.min_cbm_bits
                )
            } else {
                format!("mask exceeds cbm_len={}", caps.cbm_len)
            };
            Err(ResctrlError::InvalidCbm { cbm, reason })
        }
    }

    /// Validates a COS id against `num_closids`.
    fn validate_cos(&self, cos: CosId) -> Result<(), ResctrlError> {
        if u32::from(cos.0) < self.capabilities().num_closids {
            Ok(())
        } else {
            Err(ResctrlError::InvalidCos(cos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::InMemoryController;

    #[test]
    fn capabilities_presets() {
        let caps = CatCapabilities::with_ways(20);
        assert_eq!(caps.cbm_len, 20);
        assert_eq!(caps.num_closids, 16);
        assert_eq!(caps.full_mask(), Cbm(0xf_ffff));
    }

    #[test]
    fn default_validation_messages() {
        let ctl = InMemoryController::new(CatCapabilities::with_ways(4), 2);
        let err = ctl.validate_cbm(Cbm(0)).unwrap_err();
        assert!(err.to_string().contains("empty"));
        let err = ctl.validate_cbm(Cbm(0b101)).unwrap_err();
        assert!(err.to_string().contains("contiguous"));
        let err = ctl.validate_cbm(Cbm(0b11111)).unwrap_err();
        assert!(err.to_string().contains("cbm_len"));
        assert!(ctl.validate_cbm(Cbm(0b0110)).is_ok());
    }

    #[test]
    fn min_cbm_bits_enforced() {
        let caps = CatCapabilities {
            cbm_len: 8,
            min_cbm_bits: 2,
            num_closids: 4,
        };
        let ctl = InMemoryController::new(caps, 2);
        assert!(ctl.validate_cbm(Cbm(0b1)).is_err());
        assert!(ctl.validate_cbm(Cbm(0b11)).is_ok());
    }

    #[test]
    fn cos_id_range_enforced() {
        let ctl = InMemoryController::new(CatCapabilities::with_ways(4), 2);
        assert!(ctl.validate_cos(CosId(15)).is_ok());
        assert!(ctl.validate_cos(CosId(16)).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = ResctrlError::InvalidCore(99);
        assert_eq!(e.to_string(), "invalid core index 99");
        let e = ResctrlError::Parse("bad schemata".into());
        assert!(e.to_string().contains("bad schemata"));
    }

    #[test]
    fn severity_splits_environment_from_logic_bugs() {
        let io = ResctrlError::Io(std::io::Error::from(std::io::ErrorKind::Interrupted));
        let parse = ResctrlError::Parse("torn read".into());
        assert!(io.is_transient());
        assert!(parse.is_transient());
        for fatal in [
            ResctrlError::InvalidCbm {
                cbm: Cbm(0),
                reason: "empty".into(),
            },
            ResctrlError::InvalidCos(CosId(99)),
            ResctrlError::InvalidCore(99),
        ] {
            assert_eq!(fatal.severity(), ErrorSeverity::Fatal);
            assert!(!fatal.is_transient());
        }
    }
}
