//! A Linux-resctrl filesystem backend.
//!
//! Linux exposes CAT as a filesystem (usually mounted at `/sys/fs/resctrl`):
//!
//! ```text
//! <root>/
//!   info/L3/cbm_mask        # full-capacity mask, hex
//!   info/L3/min_cbm_bits    # minimum bits per mask
//!   info/L3/num_closids     # number of hardware classes
//!   schemata                # "L3:0=fffff" — the default group (COS 0)
//!   cpus_list               # cores in the default group
//!   COS<k>/                 # one directory per additional class
//!     schemata
//!     cpus_list
//! ```
//!
//! [`FsBackend`] implements [`CacheController`] over such a tree. Pointed
//! at a real mount on CAT hardware it programs the hardware; pointed at a
//! fixture directory (see [`FsBackend::create_fixture`]) it is a faithful,
//! fully-testable stand-in — which is how this repository exercises it.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use crate::controller::{CacheController, CatCapabilities, CosId, ResctrlError};
use cbm::Cbm;

/// Parses a `cpus_list`-style string (`"0-3,7,9-10"`) into core indices.
pub fn parse_cpu_list(s: &str) -> Result<Vec<u32>, ResctrlError> {
    let mut cores = Vec::new();
    let trimmed = s.trim();
    if trimmed.is_empty() {
        return Ok(cores);
    }
    for part in trimmed.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: u32 = lo
                    .trim()
                    .parse()
                    .map_err(|_| ResctrlError::Parse(format!("bad cpu range {part:?}")))?;
                let hi: u32 = hi
                    .trim()
                    .parse()
                    .map_err(|_| ResctrlError::Parse(format!("bad cpu range {part:?}")))?;
                if hi < lo {
                    return Err(ResctrlError::Parse(format!("inverted cpu range {part:?}")));
                }
                cores.extend(lo..=hi);
            }
            None => {
                let c: u32 = part
                    .parse()
                    .map_err(|_| ResctrlError::Parse(format!("bad cpu {part:?}")))?;
                cores.push(c);
            }
        }
    }
    Ok(cores)
}

/// Formats core indices as a compact `cpus_list` string.
pub fn format_cpu_list(cores: &[u32]) -> String {
    let mut sorted: Vec<u32> = cores.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut parts: Vec<String> = Vec::new();
    let mut iter = sorted.into_iter().peekable();
    while let Some(start) = iter.next() {
        let mut end = start;
        while iter.peek() == Some(&(end + 1)) {
            end = iter.next().unwrap_or(end);
        }
        if start == end {
            parts.push(start.to_string());
        } else {
            parts.push(format!("{start}-{end}"));
        }
    }
    parts.join(",")
}

/// Extracts the L3 mask from a schemata body such as `"L3:0=fffff\n"`.
///
/// Tolerates the formatting the kernel and humans produce: surrounding
/// whitespace, upper- or lowercase hex, an optional `0x` prefix, other
/// resource lines (`MB:`), and multiple `;`-separated domains (the first
/// is taken; the model is single-socket).
pub fn parse_schemata(body: &str) -> Result<Cbm, ResctrlError> {
    for line in body.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("L3:") {
            // Possibly several `domain=mask` entries; we model one socket.
            let first = rest
                .split(';')
                .next()
                .ok_or_else(|| ResctrlError::Parse(format!("empty L3 line {line:?}")))?;
            let mask = first
                .split_once('=')
                .map(|(_, m)| m)
                .ok_or_else(|| ResctrlError::Parse(format!("no '=' in {line:?}")))?;
            return Cbm::parse_hex(mask).map_err(ResctrlError::Parse);
        }
    }
    Err(ResctrlError::Parse("no L3 line in schemata".to_string()))
}

/// A [`CacheController`] over a resctrl directory tree.
#[derive(Debug)]
pub struct FsBackend {
    root: PathBuf,
    caps: CatCapabilities,
    num_cores: u32,
    // Cached core->COS assignment; a change rewrites the two groups it touches.
    assignment: Vec<CosId>,
    // `schemata` file of each class, indexed by COS id, and the line being
    // written: `program_cos` runs every controller interval.
    schemata_paths: Vec<PathBuf>,
    schemata_line: String,
}

impl FsBackend {
    /// Opens an existing resctrl tree, reading capabilities from `info/L3`
    /// and the current assignment from the groups' `cpus_list` files.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, ResctrlError> {
        let root = root.into();
        let info = root.join("info").join("L3");
        let cbm_mask = Cbm::parse_hex(&fs::read_to_string(info.join("cbm_mask"))?)
            .map_err(ResctrlError::Parse)?;
        let min_cbm_bits: u32 = fs::read_to_string(info.join("min_cbm_bits"))?
            .trim()
            .parse()
            .map_err(|e| ResctrlError::Parse(format!("min_cbm_bits: {e}")))?;
        let num_closids: u32 = fs::read_to_string(info.join("num_closids"))?
            .trim()
            .parse()
            .map_err(|e| ResctrlError::Parse(format!("num_closids: {e}")))?;
        let caps = CatCapabilities {
            cbm_len: cbm_mask.ways(),
            min_cbm_bits,
            num_closids,
        };

        // The default group's cpus_list enumerates every core on the socket
        // at mount time; cores later moved to other groups still count.
        let mut num_cores = 0u32;
        let mut assignment: Vec<(u32, CosId)> = Vec::new();
        for cos in 0..num_closids {
            let dir = Self::group_dir_of(&root, CosId(cos as u8));
            let cpus_path = dir.join("cpus_list");
            if !cpus_path.exists() {
                continue;
            }
            let cores = parse_cpu_list(&fs::read_to_string(cpus_path)?)?;
            for c in cores {
                num_cores = num_cores.max(c + 1);
                assignment.push((c, CosId(cos as u8)));
            }
        }
        let mut table = vec![CosId(0); num_cores as usize];
        for (core, cos) in assignment {
            // In-bounds by construction (num_cores = max(core) + 1), but
            // go through get_mut so a future refactor cannot introduce a
            // panic path here.
            if let Some(slot) = table.get_mut(core as usize) {
                *slot = cos;
            }
        }
        let schemata_paths = (0..num_closids)
            .map(|cos| Self::group_dir_of(&root, CosId(cos as u8)).join("schemata"))
            .collect();
        Ok(FsBackend {
            root,
            caps,
            num_cores,
            assignment: table,
            schemata_paths,
            schemata_line: String::new(),
        })
    }

    /// Creates a fixture tree mimicking a freshly mounted resctrl
    /// filesystem, then opens it.
    ///
    /// Every core starts in the default group with the full mask, and one
    /// directory per additional class is pre-created (real resctrl creates
    /// them with `mkdir`; pre-creating keeps the backend read/write-only).
    pub fn create_fixture(
        root: impl Into<PathBuf>,
        caps: CatCapabilities,
        num_cores: u32,
    ) -> Result<Self, ResctrlError> {
        let root = root.into();
        let info = root.join("info").join("L3");
        fs::create_dir_all(&info)?;
        fs::write(info.join("cbm_mask"), format!("{}\n", caps.full_mask()))?;
        fs::write(
            info.join("min_cbm_bits"),
            format!("{}\n", caps.min_cbm_bits),
        )?;
        fs::write(info.join("num_closids"), format!("{}\n", caps.num_closids))?;
        let all_cores: Vec<u32> = (0..num_cores).collect();
        fs::write(
            root.join("schemata"),
            format!("L3:0={}\n", caps.full_mask()),
        )?;
        fs::write(
            root.join("cpus_list"),
            format!("{}\n", format_cpu_list(&all_cores)),
        )?;
        for cos in 1..caps.num_closids {
            let dir = Self::group_dir_of(&root, CosId(cos as u8));
            fs::create_dir_all(&dir)?;
            fs::write(dir.join("schemata"), format!("L3:0={}\n", caps.full_mask()))?;
            fs::write(dir.join("cpus_list"), "\n")?;
        }
        Self::open(root)
    }

    /// Directory of a class: the root for COS 0, `COS<k>` otherwise.
    fn group_dir_of(root: &Path, cos: CosId) -> PathBuf {
        if cos.0 == 0 {
            root.to_path_buf()
        } else {
            root.join(format!("COS{}", cos.0))
        }
    }

    fn group_dir(&self, cos: CosId) -> PathBuf {
        Self::group_dir_of(&self.root, cos)
    }

    fn schemata_path(&self, cos: CosId) -> Result<&Path, ResctrlError> {
        self.schemata_paths
            .get(usize::from(cos.0))
            .map(PathBuf::as_path)
            .ok_or(ResctrlError::InvalidCos(cos))
    }

    /// Writes `cos`'s `cpus_list` as `table` assigns the cores.
    fn write_cpus_list(&self, table: &[CosId], cos: CosId) -> Result<(), ResctrlError> {
        let members: Vec<u32> = (0u32..)
            .zip(table)
            .filter(|&(_, &at)| at == cos)
            .map(|(core, _)| core)
            .collect();
        let path = self.group_dir(cos).join("cpus_list");
        fs::write(path, format!("{}\n", format_cpu_list(&members)))?;
        Ok(())
    }
}

impl CacheController for FsBackend {
    fn capabilities(&self) -> CatCapabilities {
        self.caps
    }

    fn num_cores(&self) -> u32 {
        self.num_cores
    }

    fn program_cos(&mut self, cos: CosId, cbm: Cbm) -> Result<(), ResctrlError> {
        self.validate_cos(cos)?;
        self.validate_cbm(cbm)?;
        self.schemata_line.clear();
        #[allow(
            clippy::let_underscore_must_use,
            reason = "formatting into a `String` cannot fail"
        )]
        let _ = writeln!(self.schemata_line, "L3:0={cbm}");
        fs::write(self.schemata_path(cos)?, &self.schemata_line)?;
        Ok(())
    }

    fn assign_core(&mut self, core: u32, cos: CosId) -> Result<(), ResctrlError> {
        self.validate_cos(cos)?;
        let left = self.core_cos(core)?;
        let mut table = self.assignment.clone();
        if let Some(slot) = table.get_mut(core as usize) {
            *slot = cos;
        }
        // Two groups change membership: the one the core left and the one
        // it joined. The cached table advances only after both files are
        // written, so a retry after a failed write repeats both.
        if left != cos {
            self.write_cpus_list(&table, left)?;
        }
        self.write_cpus_list(&table, cos)?;
        self.assignment = table;
        Ok(())
    }

    fn cos_mask(&self, cos: CosId) -> Result<Cbm, ResctrlError> {
        self.validate_cos(cos)?;
        let body = fs::read_to_string(self.schemata_path(cos)?)?;
        parse_schemata(&body)
    }

    fn core_cos(&self, core: u32) -> Result<CosId, ResctrlError> {
        self.assignment
            .get(core as usize)
            .copied()
            .ok_or(ResctrlError::InvalidCore(core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "resctrl-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cpu_list_round_trip() {
        assert_eq!(
            parse_cpu_list("0-3,7,9-10").unwrap(),
            vec![0, 1, 2, 3, 7, 9, 10]
        );
        assert_eq!(parse_cpu_list("").unwrap(), Vec::<u32>::new());
        assert_eq!(parse_cpu_list(" 5 \n").unwrap(), vec![5]);
        assert_eq!(format_cpu_list(&[0, 1, 2, 3, 7, 9, 10]), "0-3,7,9-10");
        assert_eq!(format_cpu_list(&[]), "");
        assert_eq!(format_cpu_list(&[4, 2, 2, 3]), "2-4");
        assert!(parse_cpu_list("3-1").is_err());
        assert!(parse_cpu_list("x").is_err());
    }

    #[test]
    fn schemata_parsing() {
        assert_eq!(parse_schemata("L3:0=fffff\n").unwrap(), Cbm(0xf_ffff));
        assert_eq!(parse_schemata("MB:0=100\nL3:0=3f\n").unwrap(), Cbm(0x3f));
        assert!(parse_schemata("MB:0=100\n").is_err());
        assert!(parse_schemata("L3:0\n").is_err());
    }

    #[test]
    fn fixture_reflects_reset_state() {
        let root = temp_root("fixture");
        let be = FsBackend::create_fixture(&root, CatCapabilities::with_ways(20), 18).unwrap();
        assert_eq!(be.capabilities().cbm_len, 20);
        assert_eq!(be.num_cores(), 18);
        assert_eq!(be.cos_mask(CosId(0)).unwrap(), Cbm(0xf_ffff));
        assert_eq!(be.core_cos(17).unwrap(), CosId(0));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn program_cos_persists_to_schemata_file() {
        let root = temp_root("program");
        let mut be = FsBackend::create_fixture(&root, CatCapabilities::with_ways(20), 4).unwrap();
        be.program_cos(CosId(2), Cbm(0b1110)).unwrap();
        let body = fs::read_to_string(root.join("COS2").join("schemata")).unwrap();
        assert_eq!(body.trim(), "L3:0=e");
        assert_eq!(be.cos_mask(CosId(2)).unwrap(), Cbm(0b1110));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn assign_core_moves_between_cpu_lists() {
        let root = temp_root("assign");
        let mut be = FsBackend::create_fixture(&root, CatCapabilities::with_ways(12), 4).unwrap();
        be.assign_core(1, CosId(3)).unwrap();
        be.assign_core(2, CosId(3)).unwrap();
        let grp = fs::read_to_string(root.join("COS3").join("cpus_list")).unwrap();
        assert_eq!(grp.trim(), "1-2");
        let def = fs::read_to_string(root.join("cpus_list")).unwrap();
        assert_eq!(def.trim(), "0,3");
        fs::remove_dir_all(&root).unwrap();
    }

    /// Every group's `cpus_list`, COS 0 first.
    fn cpus_lists(root: &Path, groups: u32) -> Vec<String> {
        (0..groups)
            .map(|cos| {
                let dir = FsBackend::group_dir_of(root, CosId(cos as u8));
                fs::read_to_string(dir.join("cpus_list")).unwrap()
            })
            .collect()
    }

    #[test]
    fn assignments_leave_the_tree_a_full_rewrite_would() {
        let root = temp_root("assign-seq");
        let caps = CatCapabilities::with_ways(12);
        let mut be = FsBackend::create_fixture(&root, caps, 6).unwrap();
        // Binds, a move between two tenant groups, a re-assignment in
        // place, and a core moved back to where it started.
        let script = [
            (0, 1),
            (1, 1),
            (2, 2),
            (5, 3),
            (1, 2),
            (2, 2),
            (5, 0),
            (0, 3),
            (0, 1),
        ];
        let mut model = [CosId(0); 6];
        for (core, cos) in script {
            be.assign_core(core, CosId(cos)).unwrap();
            model[core as usize] = CosId(cos);
            // What rewriting every group from the table leaves behind.
            let expected: Vec<String> = (0..caps.num_closids)
                .map(|g| {
                    let members: Vec<u32> =
                        (0..6).filter(|&c| model[c as usize].0 == g as u8).collect();
                    format!("{}\n", format_cpu_list(&members))
                })
                .collect();
            assert_eq!(
                cpus_lists(&root, caps.num_closids),
                expected,
                "after {core} -> COS{cos}"
            );
            assert_eq!(be.core_cos(core).unwrap(), CosId(cos));
        }
        drop(be);
        let reopened = FsBackend::open(&root).unwrap();
        for (core, cos) in model.iter().enumerate() {
            assert_eq!(reopened.core_cos(core as u32).unwrap(), *cos);
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn assign_core_writes_only_the_groups_it_touches() {
        let root = temp_root("assign-two");
        let mut be = FsBackend::create_fixture(&root, CatCapabilities::with_ways(12), 4).unwrap();
        be.assign_core(1, CosId(3)).unwrap();
        // A bystander's file, marked: a pass over every group erases it.
        let bystander = root.join("COS5").join("cpus_list");
        fs::write(&bystander, " \n").unwrap();
        fs::write(root.join("cpus_list"), "0,2,3 \n").unwrap();
        be.assign_core(1, CosId(4)).unwrap();
        assert_eq!(fs::read_to_string(&bystander).unwrap(), " \n");
        assert_eq!(
            fs::read_to_string(root.join("cpus_list")).unwrap(),
            "0,2,3 \n"
        );
        assert_eq!(
            fs::read_to_string(root.join("COS3").join("cpus_list")).unwrap(),
            "\n"
        );
        assert_eq!(
            fs::read_to_string(root.join("COS4").join("cpus_list")).unwrap(),
            "1\n"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_recovers_state() {
        let root = temp_root("reopen");
        {
            let mut be =
                FsBackend::create_fixture(&root, CatCapabilities::with_ways(12), 4).unwrap();
            be.program_cos(CosId(1), Cbm(0b11)).unwrap();
            be.assign_core(0, CosId(1)).unwrap();
        }
        let be = FsBackend::open(&root).unwrap();
        assert_eq!(be.num_cores(), 4);
        assert_eq!(be.core_cos(0).unwrap(), CosId(1));
        assert_eq!(be.core_cos(1).unwrap(), CosId(0));
        assert_eq!(be.cos_mask(CosId(1)).unwrap(), Cbm(0b11));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn invalid_writes_rejected_without_touching_files() {
        let root = temp_root("invalid");
        let mut be = FsBackend::create_fixture(&root, CatCapabilities::with_ways(12), 4).unwrap();
        assert!(be.program_cos(CosId(1), Cbm(0)).is_err());
        assert!(be.program_cos(CosId(1), Cbm(0b101)).is_err());
        assert!(be.assign_core(4, CosId(1)).is_err());
        // Schemata unchanged after rejected writes.
        assert_eq!(be.cos_mask(CosId(1)).unwrap(), Cbm(0xfff));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_missing_tree_fails() {
        let root = temp_root("missing");
        assert!(FsBackend::open(&root).is_err());
    }
}
