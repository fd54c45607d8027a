//! Socket and VM descriptions.

use llc_sim::HierarchyConfig;

/// Physical socket configuration.
#[derive(Debug, Clone, Copy)]
pub struct SocketConfig {
    /// Cache hierarchy shape.
    pub hierarchy: HierarchyConfig,
}

impl SocketConfig {
    /// The paper's evaluation machine: Xeon E5-2697 v4, 18 cores, 20-way
    /// 45 MiB LLC.
    pub(crate) fn xeon_e5_v4() -> Self {
        SocketConfig {
            hierarchy: HierarchyConfig::default(),
        }
    }

    /// Number of LLC ways.
    pub(crate) fn llc_ways(&self) -> u32 {
        self.hierarchy.llc.ways
    }
}

/// A tenant VM: a set of dedicated cores plus the contracted LLC share.
///
/// The paper's setup pins each VM's vCPUs to dedicated physical threads
/// (no CPU overprovisioning), which is what makes per-core CAT masks
/// equivalent to per-VM masks.
#[derive(Debug, Clone)]
pub struct VmSpec {
    /// Display name.
    pub name: String,
    /// Physical cores owned exclusively by this VM.
    pub cores: Vec<u32>,
    /// Contracted ("paid-for") LLC ways — dCat's baseline allocation.
    pub reserved_ways: u32,
}

impl VmSpec {
    /// Creates a VM spec.
    ///
    /// # Panics
    ///
    /// Panics if the VM has no cores or no reserved ways.
    pub fn new(name: impl Into<String>, cores: Vec<u32>, reserved_ways: u32) -> Self {
        assert!(!cores.is_empty(), "a VM needs at least one core");
        assert!(reserved_ways >= 1, "CAT cannot reserve zero ways");
        VmSpec {
            name: name.into(),
            cores,
            reserved_ways,
        }
    }

    /// The core that runs the VM's (single-threaded) workload.
    pub fn primary_core(&self) -> u32 {
        self.cores[0]
    }
}

/// Checks that the VMs' core sets are disjoint and fit the socket.
pub(crate) fn validate_vm_placement(socket: &SocketConfig, vms: &[VmSpec]) -> Result<(), String> {
    // BTreeSet for hygiene: membership-only today, but nothing downstream
    // should ever observe hasher-seed iteration order if this grows.
    let mut seen = std::collections::BTreeSet::new();
    for vm in vms {
        for &core in &vm.cores {
            if core >= socket.hierarchy.cores {
                return Err(format!(
                    "VM {} uses core {core}, socket has {}",
                    vm.name, socket.hierarchy.cores
                ));
            }
            if !seen.insert(core) {
                return Err(format!("core {core} assigned to two VMs"));
            }
        }
    }
    let total_reserved: u32 = vms.iter().map(|v| v.reserved_ways).sum();
    if total_reserved > socket.llc_ways() {
        return Err(format!(
            "reserved ways {total_reserved} exceed socket's {}",
            socket.llc_ways()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let e5 = SocketConfig::xeon_e5_v4();
        assert_eq!(e5.hierarchy.cores, 18);
        assert_eq!(e5.llc_ways(), 20);
    }

    #[test]
    fn vm_spec_basics() {
        let vm = VmSpec::new("redis", vec![2, 3], 4);
        assert_eq!(vm.primary_core(), 2);
        assert_eq!(vm.reserved_ways, 4);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_core_set_rejected() {
        let _ = VmSpec::new("bad", vec![], 1);
    }

    #[test]
    fn placement_validation() {
        let socket = SocketConfig::xeon_e5_v4();
        let ok = vec![
            VmSpec::new("a", vec![0, 1], 3),
            VmSpec::new("b", vec![2, 3], 3),
        ];
        assert!(validate_vm_placement(&socket, &ok).is_ok());

        let overlap = vec![VmSpec::new("a", vec![0], 3), VmSpec::new("b", vec![0], 3)];
        assert!(validate_vm_placement(&socket, &overlap).is_err());

        let out_of_range = vec![VmSpec::new("a", vec![99], 3)];
        assert!(validate_vm_placement(&socket, &out_of_range).is_err());

        let over_reserved = vec![VmSpec::new("a", vec![0], 12), VmSpec::new("b", vec![1], 12)];
        assert!(validate_vm_placement(&socket, &over_reserved).is_err());
    }
}
