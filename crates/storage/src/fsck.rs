//! Offline integrity checking for catalogs — the library behind `vaq fsck`.
//!
//! A check never repairs and never panics: each catalog file is read with
//! the loader's own code — its head as a catalog opens it, then every
//! table's section as a first load reads it — and the findings are
//! collected into an [`FsckReport`], so anything fsck passes opens and
//! loads, and anything corrupt is named precisely. Every check reads the
//! file on disk, never a table an open catalog already holds in memory.

use crate::catalog::VideoCatalog;
use crate::cost::CostModel;
use crate::file::{FILE_NAME, LEGACY_MANIFEST};
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use vaq_types::{Result, VaqError};

/// What `atomic_write` leaves of an uncommitted catalog.
const TMP_NAME: &str = "catalog.vaq.tmp";

/// Outcome of checking one file (or one cross-file invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckStatus {
    /// The file exists and passed every check.
    Clean,
    /// The file is absent.
    Missing,
    /// The file exists but failed validation; the message says how.
    Corrupt(String),
}

impl FsckStatus {
    /// Whether this status represents a problem.
    fn is_problem(&self) -> bool {
        !matches!(self, FsckStatus::Clean)
    }
}

impl std::fmt::Display for FsckStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsckStatus::Clean => write!(f, "ok"),
            FsckStatus::Missing => write!(f, "MISSING"),
            FsckStatus::Corrupt(msg) => write!(f, "CORRUPT: {msg}"),
        }
    }
}

/// One checked file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckEntry {
    /// The file examined.
    pub path: PathBuf,
    /// What the check found.
    pub status: FsckStatus,
}

/// Everything fsck found over one catalog or repository.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// One entry per checked file, in scan order.
    pub entries: Vec<FsckEntry>,
}

impl FsckReport {
    /// The entries that found a problem.
    pub fn problems(&self) -> Vec<&FsckEntry> {
        self.entries
            .iter()
            .filter(|e| e.status.is_problem())
            .collect()
    }

    /// The process exit code a checking tool should report, one per
    /// corruption class so shell pipelines can branch on the failure
    /// mode without parsing output:
    ///
    /// * `0` — every check passed;
    /// * `3` — corrupt file(s) only (exists but fails validation);
    /// * `4` — missing file(s) only;
    /// * `5` — both corrupt and missing files.
    ///
    /// Codes `1` and `2` are left to callers for generic and usage/I-O
    /// errors respectively.
    pub fn exit_code(&self) -> i32 {
        let corrupt = self
            .entries
            .iter()
            .any(|e| matches!(e.status, FsckStatus::Corrupt(_)));
        let missing = self
            .entries
            .iter()
            .any(|e| matches!(e.status, FsckStatus::Missing));
        match (corrupt, missing) {
            (false, false) => 0,
            (true, false) => 3,
            (false, true) => 4,
            (true, true) => 5,
        }
    }

    fn push(&mut self, path: impl Into<PathBuf>, status: FsckStatus) {
        self.entries.push(FsckEntry {
            path: path.into(),
            status,
        });
    }
}

/// Checks the catalog in `dir` with the loader's own code: its head as
/// [`VideoCatalog::open`] reads it, then every table's section as its
/// first load does. One entry, for the catalog file: missing, corrupt
/// (naming each failing table), or clean. A legacy JSON catalog is corrupt
/// with [`VaqError::UnsupportedFormatVersion`]'s message. Every check reads
/// the file on disk.
pub fn fsck_catalog(dir: &Path) -> Result<FsckReport> {
    let mut report = FsckReport::default();
    let path = dir.join(FILE_NAME);
    let status = match VideoCatalog::open(dir, CostModel::FREE) {
        Err(VaqError::Io(e)) if e.kind() == ErrorKind::NotFound => FsckStatus::Missing,
        Err(e) => FsckStatus::Corrupt(e.to_string()),
        Ok(catalog) => match catalog.check_tables() {
            problems if problems.is_empty() => FsckStatus::Clean,
            problems => FsckStatus::Corrupt(problems.join("; ")),
        },
    };
    report.push(path, status);
    Ok(report)
}

/// Whether `dir` holds catalog files: a catalog, its temporary, or a
/// legacy JSON manifest.
fn holds_catalog_files(dir: &Path) -> bool {
    fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            let name = e.file_name();
            name == FILE_NAME || name == LEGACY_MANIFEST || name == TMP_NAME
        })
    })
}

/// Checks every catalog under `dir`: each immediate subdirectory holding
/// catalog files is fsck'd, and `dir` itself is treated as a single
/// catalog when it holds a catalog file directly. A subdirectory with only
/// a temporary — an ingestion that stopped before its commit — is
/// reported as a missing catalog.
pub fn fsck_repository(dir: &Path) -> Result<FsckReport> {
    if dir.join(FILE_NAME).exists() || dir.join(LEGACY_MANIFEST).exists() {
        return fsck_catalog(dir);
    }
    let mut report = FsckReport::default();
    let mut subdirs: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)
        .map_err(|e| VaqError::Storage(format!("{}: cannot scan repository: {e}", dir.display())))?
    {
        let entry = entry.map_err(VaqError::Io)?;
        let path = entry.path();
        if path.is_dir() && holds_catalog_files(&path) {
            subdirs.push(path);
        }
    }
    if subdirs.is_empty() {
        return Err(VaqError::Storage(format!(
            "{}: no catalogs found (no catalog files here or in subdirectories)",
            dir.display()
        )));
    }
    subdirs.sort();
    for path in subdirs {
        report.entries.extend(fsck_catalog(&path)?.entries);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{CatalogManifest, CatalogWriter};
    use crate::table::{ScoreRow, TableKey};
    use vaq_types::{ActionType, ClipId, ObjectType, SequenceSet, VideoGeometry};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vaq-fsck-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rows(n: u64) -> Vec<ScoreRow> {
        (0..n)
            .map(|c| ScoreRow {
                clip: ClipId::new(c),
                score: (c as f64 * 7.0) % 5.0,
            })
            .collect()
    }

    fn build_catalog(dir: &Path) {
        let mut w =
            CatalogWriter::create(dir, "demo", VideoGeometry::PAPER_DEFAULT, 1_000).unwrap();
        w.add(
            TableKey::Object(ObjectType::new(3)),
            rows(20),
            &SequenceSet::empty(),
        )
        .unwrap();
        w.add(
            TableKey::Action(ActionType::new(1)),
            rows(20),
            &SequenceSet::empty(),
        )
        .unwrap();
        w.finish().unwrap();
    }

    /// The one problem `report` holds, which must be a corrupt `path`;
    /// returns its message.
    fn corrupt(report: &FsckReport, path: &Path) -> String {
        let problems = report.problems();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert_eq!(problems[0].path, path);
        match &problems[0].status {
            FsckStatus::Corrupt(msg) => msg.clone(),
            other => panic!("want Corrupt, got {other:?}"),
        }
    }

    /// Leaves what an ingestion that stopped before its commit leaves in
    /// `dir`: half a catalog image under the temporary name.
    fn uncommitted(dir: &Path) {
        build_catalog(dir);
        let image = fs::read(dir.join(FILE_NAME)).unwrap();
        fs::remove_file(dir.join(FILE_NAME)).unwrap();
        fs::write(dir.join(TMP_NAME), &image[..image.len() / 2]).unwrap();
    }

    #[test]
    fn clean_catalog_passes() {
        let dir = tmpdir("clean");
        build_catalog(&dir);
        let report = fsck_catalog(&dir).unwrap();
        assert!(report.problems().is_empty(), "{:?}", report.problems());
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.entries[0].path, dir.join(FILE_NAME));
    }

    #[test]
    fn truncated_catalog_flagged() {
        let dir = tmpdir("trunc");
        build_catalog(&dir);
        let path = dir.join(FILE_NAME);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let msg = corrupt(&fsck_catalog(&dir).unwrap(), &path);
        assert!(msg.contains("truncated"), "{msg}");
    }

    #[test]
    fn missing_catalog_flagged() {
        let dir = tmpdir("missing");
        build_catalog(&dir);
        fs::remove_file(dir.join(FILE_NAME)).unwrap();
        let report = fsck_catalog(&dir).unwrap();
        let problems = report.problems();
        assert_eq!(problems.len(), 1);
        assert_eq!(problems[0].status, FsckStatus::Missing);
    }

    #[test]
    fn corrupt_head_flagged_without_panicking() {
        let dir = tmpdir("bad-head");
        build_catalog(&dir);
        fs::write(dir.join(FILE_NAME), b"{truncated").unwrap();
        let report = fsck_catalog(&dir).unwrap();
        assert!(!report.problems().is_empty());
        assert!(matches!(report.entries[0].status, FsckStatus::Corrupt(_)));
    }

    #[test]
    fn bit_rot_in_rows_flagged_by_crc() {
        let dir = tmpdir("rot");
        build_catalog(&dir);
        let path = dir.join(FILE_NAME);
        let mut bytes = fs::read(&path).unwrap();
        // A score bit of the last table's last row.
        let at = bytes.len() - 3;
        bytes[at] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        let msg = corrupt(&fsck_catalog(&dir).unwrap(), &path);
        assert!(msg.contains("CRC") && msg.contains("table_act#1"), "{msg}");
    }

    #[test]
    fn out_of_order_rows_flagged_despite_valid_crc() {
        let dir = tmpdir("order");
        let mut reversed = rows(20);
        reversed.sort_by(|a, b| a.score.total_cmp(&b.score));
        let key = TableKey::Object(ObjectType::new(3));
        let tables = std::collections::BTreeMap::from([(key, (reversed, SequenceSet::empty()))]);
        let video = CatalogManifest::new("order".into(), 1_000, VideoGeometry::PAPER_DEFAULT);
        let image = crate::file::encode(&video, &tables).unwrap();
        fs::write(dir.join(FILE_NAME), image).unwrap();
        let msg = corrupt(&fsck_catalog(&dir).unwrap(), &dir.join(FILE_NAME));
        assert!(msg.contains("descending-score order"), "{msg}");
    }

    #[test]
    fn repository_scan_aggregates_catalogs() {
        let repo = tmpdir("repo");
        build_catalog(&repo.join("v0"));
        build_catalog(&repo.join("v1"));
        fs::create_dir_all(repo.join("not-a-catalog")).unwrap();
        // Corrupt v1.
        let path = repo.join("v1").join(FILE_NAME);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..8]).unwrap();
        let report = fsck_repository(&repo).unwrap();
        assert_eq!(report.entries.len(), 2);
        corrupt(&report, &path);
    }

    #[test]
    fn an_uncommitted_catalog_is_reported_missing() {
        let repo = tmpdir("uncommitted");
        build_catalog(&repo.join("v0"));
        uncommitted(&repo.join("v1"));
        let report = fsck_repository(&repo).unwrap();
        let problems = report.problems();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert_eq!(problems[0].path, repo.join("v1").join(FILE_NAME));
        assert_eq!(problems[0].status, FsckStatus::Missing);
    }

    #[test]
    fn exit_codes_classify_corruption() {
        let half = |dir: &Path| {
            let path = dir.join(FILE_NAME);
            let bytes = fs::read(&path).unwrap();
            fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        };
        // Clean → 0.
        let dir = tmpdir("exit-clean");
        build_catalog(&dir);
        assert_eq!(fsck_catalog(&dir).unwrap().exit_code(), 0);

        // Corrupt only → 3.
        let dir = tmpdir("exit-corrupt");
        build_catalog(&dir);
        half(&dir);
        assert_eq!(fsck_catalog(&dir).unwrap().exit_code(), 3);

        // Missing only → 4.
        let repo = tmpdir("exit-missing");
        build_catalog(&repo.join("v0"));
        uncommitted(&repo.join("v1"));
        assert_eq!(fsck_repository(&repo).unwrap().exit_code(), 4);

        // Both → 5.
        half(&repo.join("v0"));
        assert_eq!(fsck_repository(&repo).unwrap().exit_code(), 5);
    }

    #[test]
    fn on_disk_format_versions_are_reported() {
        // A catalog file claiming a future format version is flagged,
        // naming the version found on disk.
        let dir = tmpdir("future-catalog");
        build_catalog(&dir);
        let path = dir.join(FILE_NAME);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&7u32.to_le_bytes());
        fs::write(&path, bytes).unwrap();
        let msg = corrupt(&fsck_catalog(&dir).unwrap(), &path);
        assert!(msg.contains('7') && msg.contains("version"), "{msg}");

        // A version-1 JSON catalog, alone in a repository.
        let repo = tmpdir("legacy-repo");
        fs::create_dir_all(repo.join("v0")).unwrap();
        fs::write(repo.join("v0").join(LEGACY_MANIFEST), b"{}").unwrap();
        let report = fsck_repository(&repo).unwrap();
        let msg = corrupt(&report, &repo.join("v0").join(FILE_NAME));
        assert!(msg.contains("version 1"), "{msg}");
    }

    #[test]
    fn empty_repository_is_an_error() {
        let dir = tmpdir("empty-repo");
        assert!(fsck_repository(&dir).is_err());
    }
}
