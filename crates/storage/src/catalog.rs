//! The per-video ingestion catalog.
//!
//! The paper's ingestion phase (§4.2) materializes, per video and per
//! object/action type: a clip score table and the type's *individual
//! sequences* (`P_{o_i}` / `P_{a_j}` — maximal runs of clips with positive
//! indicators). A [`VideoCatalog`] is that materialization on disk: one
//! file, `<dir>/catalog.vaq`, holding the video's name, frame count and
//! geometry, a directory of its tables, every type's sequences, and each
//! table's rows in score order (layout in the crate-private `file` module).
//! [`CatalogWriter::finish`] commits the file with one crash-atomic write,
//! so a directory holds either no catalog or a whole one.
//!
//! Adding or removing a video from a repository is adding or removing its
//! catalog directory — matching the paper's observation that multi-video
//! repositories just associate a video identifier with each `cid`.

use crate::cost::CostModel;
use crate::file::{self, Section, FILE_NAME, LEGACY_MANIFEST};
use crate::table::{duplicate_clip, score_order, MemTable, ScoreRow, TableKey};
use std::collections::BTreeMap;
use std::fs;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::OnceLock;
use vaq_types::format::atomic_write;
use vaq_types::{
    ActionType, ClipInterval, ObjectType, Result, SequenceSet, VaqError, VideoGeometry,
};

/// What a catalog says about its video: name, frame count, geometry and
/// table inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogManifest {
    /// Human-readable video name.
    pub name: String,
    /// Total frames in the video.
    pub num_frames: u64,
    /// Shot/clip geometry used at ingestion.
    pub geometry: VideoGeometry,
    /// Raw ids of object types with materialized tables, ascending.
    pub object_tables: Vec<u32>,
    /// Raw ids of action types with materialized tables, ascending.
    pub action_tables: Vec<u32>,
}

impl CatalogManifest {
    /// A video's manifest, listing no table yet.
    pub(crate) fn new(name: String, num_frames: u64, geometry: VideoGeometry) -> Self {
        let (object_tables, action_tables) = (Vec::new(), Vec::new());
        Self {
            name,
            num_frames,
            geometry,
            object_tables,
            action_tables,
        }
    }

    /// Lists `key`'s table; keys come in ascending order.
    pub(crate) fn list(&mut self, key: TableKey) {
        match key {
            TableKey::Object(o) => self.object_tables.push(o.raw()),
            TableKey::Action(a) => self.action_tables.push(a.raw()),
        }
    }

    /// Number of complete clips in the video.
    pub fn num_clips(&self) -> u64 {
        self.geometry.num_clips(self.num_frames)
    }
}

/// Write-side of a catalog: collects and checks tables and sequences in
/// memory, then writes the catalog file once.
#[derive(Debug)]
pub struct CatalogWriter {
    dir: PathBuf,
    manifest: CatalogManifest,
    /// Each key's rows in table order, and its sequences.
    tables: BTreeMap<TableKey, (Vec<ScoreRow>, SequenceSet)>,
}

impl CatalogWriter {
    /// Starts a catalog in `dir` (created if absent; an existing catalog is
    /// an error — catalogs are immutable once finished). A geometry with a
    /// zero field is [`VaqError::InvalidConfig`].
    pub fn create(
        dir: impl Into<PathBuf>,
        name: impl Into<String>,
        geometry: VideoGeometry,
        num_frames: u64,
    ) -> Result<Self> {
        let dir = dir.into();
        let g = geometry;
        let geometry = VideoGeometry::new(g.frames_per_shot, g.shots_per_clip, g.fps)?;
        fs::create_dir_all(&dir)?;
        if dir.join(FILE_NAME).exists() || dir.join(LEGACY_MANIFEST).exists() {
            return Err(VaqError::Storage(format!(
                "{}: catalog already exists",
                dir.display()
            )));
        }
        Ok(Self {
            dir,
            manifest: CatalogManifest::new(name.into(), num_frames, geometry),
            tables: BTreeMap::new(),
        })
    }

    /// Adds the clip score table and individual sequences for one type.
    /// Nothing is written until [`CatalogWriter::finish`]; rows with a
    /// non-finite score or a clip twice, sequences past the video's last
    /// clip, and a key added before are [`VaqError::Storage`].
    pub fn add(
        &mut self,
        key: TableKey,
        rows: Vec<ScoreRow>,
        sequences: &SequenceSet,
    ) -> Result<()> {
        let mut rows = rows;
        let num_clips = self.manifest.num_clips();
        let past_end = |iv: &&ClipInterval| iv.end.raw() >= num_clips;
        let bad = if self.tables.contains_key(&key) {
            Some("added twice".to_string())
        } else if let Some(r) = rows.iter().find(|r| !r.score.is_finite()) {
            Some(format!("non-finite score {} for clip {}", r.score, r.clip))
        } else if let Some(iv) = sequences.intervals().last().filter(past_end) {
            Some(format!(
                "sequence {iv} ends past the video's {num_clips} clips"
            ))
        } else {
            rows.sort_by(score_order);
            duplicate_clip(&rows).map(|clip| format!("duplicate clip {clip} in table rows"))
        };
        if let Some(what) = bad {
            let dir = self.dir.display();
            return Err(VaqError::Storage(format!("{dir}: {key}: {what}")));
        }
        self.tables.insert(key, (rows, sequences.clone()));
        Ok(())
    }

    /// Writes the catalog file crash-atomically and returns its manifest.
    pub fn finish(mut self) -> Result<CatalogManifest> {
        let image = file::encode(&self.manifest, &self.tables)?;
        atomic_write(&self.dir.join(FILE_NAME), &image)?;
        for &key in self.tables.keys() {
            self.manifest.list(key);
        }
        Ok(self.manifest)
    }
}

/// Read-side of a catalog.
#[derive(Debug)]
pub struct VideoCatalog {
    /// The catalog file.
    path: PathBuf,
    manifest: CatalogManifest,
    cost: CostModel,
    /// One slot per table, sorted by key.
    slots: Vec<(TableKey, Slot)>,
}

/// What a catalog keeps of one table.
#[derive(Debug)]
struct Slot {
    /// Where the table's rows lie in the file.
    section: Section,
    /// The type's individual sequences.
    sequences: SequenceSet,
    /// The length in clips of the longest sequence (0 if none).
    longest: u64,
    /// The table, filled by its first verified load (see
    /// [`VideoCatalog::table`]).
    table: OnceLock<MemTable>,
}

impl VideoCatalog {
    /// Opens the catalog in `dir`, reading and verifying its head: name,
    /// geometry, table directory and sequences. A directory without a
    /// catalog file is [`VaqError::Io`] (kind `NotFound`), or
    /// [`VaqError::UnsupportedFormatVersion`] if it holds a version-1 JSON
    /// catalog, which must be re-ingested. Damaged bytes are
    /// [`VaqError::Storage`].
    pub fn open(dir: impl Into<PathBuf>, cost: CostModel) -> Result<Self> {
        let dir = dir.into();
        let path = dir.join(FILE_NAME);
        let (manifest, tables) = match file::read_head(&path) {
            Err(VaqError::Io(e))
                if e.kind() == ErrorKind::NotFound && dir.join(LEGACY_MANIFEST).exists() =>
            {
                return Err(VaqError::UnsupportedFormatVersion {
                    artifact: "catalog (JSON manifest)",
                    found: 1,
                    supported: vaq_types::format::CATALOG_FORMAT_VERSION,
                });
            }
            head => head?,
        };
        let slots = tables.into_iter().map(|(key, section, sequences)| {
            let longest = sequences.intervals().iter().map(|iv| iv.len()).max();
            let longest = longest.unwrap_or(0);
            let table = OnceLock::new();
            let slot = Slot {
                section,
                sequences,
                longest,
                table,
            };
            (key, slot)
        });
        Ok(Self {
            path,
            manifest,
            cost,
            slots: slots.collect(),
        })
    }

    /// The catalog's manifest.
    pub fn manifest(&self) -> &CatalogManifest {
        &self.manifest
    }

    /// Whether a table exists for `key`.
    pub fn has_table(&self, key: TableKey) -> bool {
        self.entry(key).is_some()
    }

    /// `key`'s table, found once: its sequences, synopsis and table handles
    /// then need no further search by key. `None` if the catalog holds no
    /// table for `key`.
    pub fn entry(&self, key: TableKey) -> Option<TableEntry<'_>> {
        let i = self.slots.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        let (_, slot) = self.slots.get(i)?;
        Some(TableEntry {
            catalog: self,
            key,
            slot,
        })
    }

    /// `key`'s entry, or `what` is missing for it.
    fn require(&self, key: TableKey, what: &str) -> Result<TableEntry<'_>> {
        self.entry(key).ok_or_else(|| {
            VaqError::Storage(format!(
                "{}: no ingested {what} for {key}",
                self.path.display()
            ))
        })
    }

    /// A handle on the clip score table for `key`, with its own zeroed
    /// access counters (see [`TableEntry::table`]).
    pub fn table(&self, key: TableKey) -> Result<MemTable> {
        self.require(key, "table")?.table()
    }

    /// The individual sequences `P` for `key` (empty set if the type never
    /// had a positive clip).
    pub fn sequences(&self, key: TableKey) -> Result<&SequenceSet> {
        self.require(key, "sequences")?.sequences()
    }

    /// Convenience accessor for an object key.
    pub fn object_sequences(&self, o: ObjectType) -> Result<&SequenceSet> {
        self.sequences(TableKey::Object(o))
    }

    /// Convenience accessor for an action key.
    pub fn action_sequences(&self, a: ActionType) -> Result<&SequenceSet> {
        self.sequences(TableKey::Action(a))
    }

    /// Reads and verifies `key`'s table from the file: its section CRC,
    /// its rows, and that no clip has two rows.
    fn load(&self, key: TableKey, slot: &Slot) -> Result<MemTable> {
        let rows = file::read_section(&self.path, key, slot.section)?;
        MemTable::from_score_ordered(rows, self.cost).map_err(|clip| {
            let path = self.path.display();
            VaqError::Storage(format!("{path}: {key}: clip {clip} has two rows"))
        })
    }

    /// Loads every table from the file, without keeping any, and returns
    /// what is wrong with each that fails.
    pub(crate) fn check_tables(&self) -> Vec<String> {
        let problems = self.slots.iter().map(|(key, slot)| self.load(*key, slot));
        problems
            .filter_map(|r| r.err().map(|e| e.to_string()))
            .collect()
    }
}

/// One table of a [`VideoCatalog`], from [`VideoCatalog::entry`]:
/// everything the catalog keeps for the key, without another search.
#[derive(Debug, Clone, Copy)]
pub struct TableEntry<'a> {
    catalog: &'a VideoCatalog,
    key: TableKey,
    slot: &'a Slot,
}

impl<'a> TableEntry<'a> {
    /// A handle on the clip score table, with its own zeroed access
    /// counters.
    ///
    /// The first call for a key reads the table's section with one read,
    /// checks its CRC and rows and builds the clip index, and keeps the
    /// table only if every check passes; later calls share its rows and
    /// index and do no I/O. A table that fails to load is not kept, so
    /// every call returns the same error. Keeping rows is sound because a
    /// committed catalog is immutable ([`CatalogWriter::create`] refuses a
    /// directory with a catalog); damage to the file after a table is
    /// loaded is `fsck`'s to find, and [`crate::fsck_catalog`] always reads
    /// the file itself. Two threads loading the same cold table both
    /// verify it, and one result is kept.
    pub fn table(&self) -> Result<MemTable> {
        self.resident().map(MemTable::share)
    }

    /// The loaded table, loading it on the first call (see
    /// [`TableEntry::table`]).
    fn resident(&self) -> Result<&'a MemTable> {
        if let Some(table) = self.slot.table.get() {
            return Ok(table);
        }
        let loaded = self.catalog.load(self.key, self.slot)?;
        Ok(self.slot.table.get_or_init(|| loaded))
    }

    /// The individual sequences `P` (empty set if the type never had a
    /// positive clip). Decoded at open, so never an error.
    pub fn sequences(&self) -> Result<&'a SequenceSet> {
        Ok(&self.slot.sequences)
    }

    /// What an upper bound on the type's scores needs, kept once per
    /// catalog: the highest score any clip reads from the table (an absent
    /// row reads 0, so never less than 0) and the length in clips of the
    /// type's longest individual sequence (0 if it has none). Loads the
    /// table as [`TableEntry::table`] does, with the same errors.
    pub fn synopsis(&self) -> Result<(f64, u64)> {
        let top = self.resident()?.rows_unaccounted().first();
        Ok((top.map_or(0.0, |row| row.score.max(0.0)), self.slot.longest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ClipScoreTable as _;
    use std::path::Path;
    use vaq_types::{ClipId, ClipInterval};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vaq-catalog-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rows(n: u64) -> Vec<ScoreRow> {
        (0..n)
            .map(|c| ScoreRow {
                clip: ClipId::new(c),
                score: (c as f64 * 37.0) % 11.0,
            })
            .collect()
    }

    const OBJECT: TableKey = TableKey::Object(ObjectType::new(3));
    const ACTION: TableKey = TableKey::Action(ActionType::new(1));

    fn build(dir: &Path) -> CatalogManifest {
        let mut w =
            CatalogWriter::create(dir, "demo", VideoGeometry::PAPER_DEFAULT, 1_000).unwrap();
        let seqs =
            SequenceSet::from_intervals(vec![ClipInterval::new(2, 5), ClipInterval::new(10, 12)]);
        w.add(OBJECT, rows(20), &seqs).unwrap();
        w.add(
            ACTION,
            rows(20),
            &SequenceSet::from_intervals(vec![ClipInterval::new(0, 19)]),
        )
        .unwrap();
        w.finish().unwrap()
    }

    /// Where `key`'s rows lie in the catalog file in `dir`.
    fn section(dir: &Path, key: TableKey) -> Section {
        let (_, tables) = file::read_head(&dir.join(FILE_NAME)).unwrap();
        tables.into_iter().find(|t| t.0 == key).unwrap().1
    }

    /// Rewrites the head of the catalog in `dir` with `edit` (on the bytes
    /// from the prefix up to the head CRC) and a matching head CRC.
    fn rewrite_head(dir: &Path, edit: impl FnOnce(&mut [u8])) {
        let path = dir.join(FILE_NAME);
        let mut image = fs::read(&path).unwrap();
        let head_len = u64::from_le_bytes(image[8..16].try_into().unwrap()) as usize;
        let crc_at = 16 + head_len - 4;
        edit(&mut image[..crc_at]);
        let crc = crate::file::crc32(&image[..crc_at]);
        image[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, image).unwrap();
    }

    /// Opens the catalog in `dir`, which must fail with a storage error,
    /// and checks that fsck reports it corrupt; returns the open error.
    fn corrupt_at_open(dir: &Path) -> String {
        let msg = match VideoCatalog::open(dir, CostModel::FREE) {
            Err(VaqError::Storage(msg)) => msg,
            Err(other) => panic!("want VaqError::Storage, got {other}"),
            Ok(_) => panic!("a corrupt catalog opened"),
        };
        let report = crate::fsck_catalog(dir).unwrap();
        assert!(
            matches!(
                report.entries[..],
                [crate::FsckEntry {
                    status: crate::FsckStatus::Corrupt(_),
                    ..
                }]
            ),
            "{report:?}"
        );
        msg
    }

    #[test]
    fn roundtrip_manifest_and_sequences() {
        let dir = tmpdir("roundtrip");
        let manifest = build(&dir);
        assert_eq!(manifest.num_clips(), 20);
        assert_eq!(
            (
                manifest.object_tables.as_slice(),
                manifest.action_tables.as_slice()
            ),
            (&[3][..], &[1][..])
        );
        // One file, written through `atomic_write`; no temporary is left.
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, ["catalog.vaq"]);
        let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        assert_eq!(cat.manifest(), &manifest);
        let seqs = cat.object_sequences(ObjectType::new(3)).unwrap();
        assert_eq!(
            seqs.intervals(),
            &[ClipInterval::new(2, 5), ClipInterval::new(10, 12)]
        );
        assert_eq!(
            cat.action_sequences(ActionType::new(1))
                .unwrap()
                .total_clips(),
            20
        );
    }

    #[test]
    fn synopsis_holds_the_top_score_and_the_longest_sequence() {
        let dir = tmpdir("synopsis");
        build(&dir);
        let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        // rows(20) scores `c·37 mod 11`, at most 10.
        let synopsis = |cat: &VideoCatalog, key| cat.entry(key).unwrap().synopsis();
        assert_eq!(synopsis(&cat, OBJECT).unwrap(), (10.0, 4));
        assert_eq!(synopsis(&cat, ACTION).unwrap(), (10.0, 20));
        assert!(cat.entry(TableKey::Object(ObjectType::new(99))).is_none());
        // An empty table reads 0 for every clip; no sequence is 0 clips.
        let dir = tmpdir("synopsis-empty");
        let mut w = CatalogWriter::create(&dir, "empty", VideoGeometry::PAPER_DEFAULT, 1).unwrap();
        w.add(OBJECT, Vec::new(), &SequenceSet::empty()).unwrap();
        w.finish().unwrap();
        let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        assert_eq!(synopsis(&cat, OBJECT).unwrap(), (0.0, 0));
    }

    #[test]
    fn tables_openable_and_consistent() {
        let dir = tmpdir("tables");
        build(&dir);
        let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        let t = cat.table(OBJECT).unwrap();
        assert_eq!(t.len(), 20);
        // Highest score among c*37 % 11 for c in 0..20.
        let top = t.sorted_access(0).unwrap();
        assert!(top.score >= t.sorted_access(1).unwrap().score);
    }

    #[test]
    fn every_key_loads_its_own_table_in_any_order() {
        let dir = tmpdir("slots");
        let mut w = CatalogWriter::create(&dir, "slots", VideoGeometry::PAPER_DEFAULT, 1).unwrap();
        let keys = [
            TableKey::Object(ObjectType::new(0)),
            TableKey::Object(ObjectType::new(5)),
            TableKey::Action(ActionType::new(0)),
            TableKey::Action(ActionType::new(2)),
        ];
        // Added out of key order.
        for (n, &key) in (3..).zip(&[keys[2], keys[0], keys[3], keys[1]]) {
            w.add(key, rows(n), &SequenceSet::empty()).unwrap();
        }
        w.finish().unwrap();
        let want = |key| {
            let n = [4, 6, 3, 5][keys.iter().position(|&k| k == key).unwrap()];
            MemTable::new(rows(n), CostModel::FREE)
                .rows_unaccounted()
                .to_vec()
        };
        for order in [keys, [keys[3], keys[2], keys[1], keys[0]]] {
            let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
            for _ in 0..2 {
                for key in order {
                    let t = cat.table(key).unwrap();
                    assert_eq!(t.rows_unaccounted(), want(key), "{key}");
                }
            }
            for key in [
                TableKey::Object(ObjectType::new(2)),
                TableKey::Action(ActionType::new(5)),
            ] {
                assert!(!cat.has_table(key));
                assert!(matches!(cat.table(key), Err(VaqError::Storage(_))));
            }
        }
    }

    #[test]
    fn handles_share_rows_but_count_separately() {
        let dir = tmpdir("handles");
        build(&dir);
        let cat = VideoCatalog::open(&dir, CostModel::DEFAULT).unwrap();
        let (a, b) = (cat.table(OBJECT).unwrap(), cat.table(OBJECT).unwrap());
        assert_eq!(a.rows_unaccounted(), b.rows_unaccounted());
        b.sorted_access(0);
        b.random_access(ClipId::new(4));
        let before = b.stats();
        assert_eq!((before.sorted, before.random), (1, 1));
        a.reset_stats();
        a.sorted_access(1);
        a.reverse_access(0);
        a.random_access(ClipId::new(5));
        assert_eq!(b.stats(), before, "accesses through one handle leaked");
        a.reset_stats();
        assert_eq!(b.stats(), before, "a reset through one handle leaked");
        let c = cat.table(OBJECT).unwrap();
        assert_eq!(c.stats().total(), 0, "a new handle starts at zero");
    }

    #[test]
    fn loaded_table_needs_no_files_for_later_handles() {
        let dir = tmpdir("resident");
        build(&dir);
        let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        let cold = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        let first = cat.table(ACTION).unwrap();
        fs::remove_file(dir.join(FILE_NAME)).unwrap();
        let second = cat.table(ACTION).unwrap();
        assert_eq!(second.len(), 20);
        assert_eq!(second.rows_unaccounted(), first.rows_unaccounted());
        // A table never loaded still reads the file.
        let err = cold.table(ACTION).unwrap_err();
        assert!(
            matches!(&err, VaqError::Io(e) if e.kind() == ErrorKind::NotFound),
            "{err}"
        );
    }

    #[test]
    fn table_corrupted_before_first_load_fails_every_call() {
        let dir = tmpdir("corrupt-cold");
        build(&dir);
        let path = dir.join(FILE_NAME);
        let mut bytes = fs::read(&path).unwrap();
        bytes[section(&dir, OBJECT).offset as usize + 40] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        for call in 0..3 {
            match cat.table(OBJECT) {
                Err(VaqError::Storage(msg)) => {
                    assert!(
                        msg.contains("CRC") && msg.contains("table_obj#3"),
                        "call {call}: {msg}"
                    )
                }
                Err(other) => panic!("call {call}: want VaqError::Storage, got {other}"),
                Ok(_) => panic!("call {call}: corrupt table opened"),
            }
        }
        // The other table is unaffected.
        assert!(cat.table(ACTION).is_ok());
    }

    #[test]
    fn fsck_reads_disk_not_the_loaded_table() {
        let dir = tmpdir("corrupt-warm");
        build(&dir);
        let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        cat.table(OBJECT).unwrap();
        let path = dir.join(FILE_NAME);
        let mut bytes = fs::read(&path).unwrap();
        bytes[section(&dir, OBJECT).offset as usize] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(cat.table(OBJECT).is_ok(), "the loaded rows stay usable");
        let report = crate::fsck_catalog(&dir).unwrap();
        let problems = report.problems();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert_eq!(problems[0].path, path);
        match &problems[0].status {
            crate::FsckStatus::Corrupt(msg) => assert!(msg.contains("table_obj#3"), "{msg}"),
            other => panic!("want Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn an_entry_answers_like_the_catalog() {
        let dir = tmpdir("entry");
        build(&dir);
        let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        for key in [OBJECT, ACTION] {
            let entry = cat.entry(key).unwrap();
            assert_eq!(entry.sequences().unwrap(), cat.sequences(key).unwrap());
            let (a, b) = (entry.table().unwrap(), cat.table(key).unwrap());
            assert_eq!(a.rows_unaccounted(), b.rows_unaccounted());
        }
        assert!(cat.entry(TableKey::Object(ObjectType::new(99))).is_none());
    }

    #[test]
    fn missing_table_is_error() {
        let dir = tmpdir("missing-table");
        build(&dir);
        let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        assert!(cat.table(TableKey::Object(ObjectType::new(99))).is_err());
        assert!(cat.object_sequences(ObjectType::new(99)).is_err());
    }

    #[test]
    fn double_create_rejected() {
        let dir = tmpdir("double");
        build(&dir);
        let err =
            CatalogWriter::create(&dir, "again", VideoGeometry::PAPER_DEFAULT, 10).unwrap_err();
        assert!(err.to_string().contains("already exists"));
    }

    #[test]
    fn open_without_catalog_file_is_not_found() {
        let dir = tmpdir("no-catalog");
        fs::create_dir_all(&dir).unwrap();
        let err = VideoCatalog::open(&dir, CostModel::FREE).unwrap_err();
        assert!(
            matches!(&err, VaqError::Io(e) if e.kind() == ErrorKind::NotFound),
            "{err}"
        );
        assert!(err.to_string().contains("catalog.vaq"), "{err}");
    }

    #[test]
    fn corrupt_head_fails_cleanly() {
        let dir = tmpdir("corrupt-head");
        build(&dir);
        let path = dir.join(FILE_NAME);
        let mut bytes = fs::read(&path).unwrap();
        bytes[40] ^= 0x20; // a byte of the video name
        fs::write(&path, bytes).unwrap();
        assert!(corrupt_at_open(&dir).contains("head CRC mismatch"));
    }

    #[test]
    fn legacy_json_catalog_is_an_unsupported_version() {
        let dir = tmpdir("legacy");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(LEGACY_MANIFEST), b"{\"format_version\": 1}").unwrap();
        let err = VideoCatalog::open(&dir, CostModel::FREE).unwrap_err();
        assert!(
            matches!(
                err,
                VaqError::UnsupportedFormatVersion {
                    found: 1,
                    supported: 2,
                    ..
                }
            ),
            "{err}"
        );
        let report = crate::fsck_catalog(&dir).unwrap();
        assert_eq!(report.exit_code(), 3, "{report:?}");
        assert!(report.entries[0].status.to_string().contains("version 1"));
        let err = CatalogWriter::create(&dir, "new", VideoGeometry::PAPER_DEFAULT, 1).unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
    }

    #[test]
    fn a_key_added_twice_is_an_error_before_anything_is_written() {
        let dir = tmpdir("twice");
        let mut w =
            CatalogWriter::create(&dir, "twice", VideoGeometry::PAPER_DEFAULT, 1_000).unwrap();
        w.add(OBJECT, rows(20), &SequenceSet::empty()).unwrap();
        let err = w.add(OBJECT, rows(3), &SequenceSet::empty()).unwrap_err();
        assert!(
            matches!(&err, VaqError::Storage(m) if m.contains("table_obj#3: added twice")),
            "{err}"
        );
        assert!(!dir.join(FILE_NAME).exists());
        // The first rows stand.
        w.finish().unwrap();
        let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        assert_eq!(cat.manifest().object_tables, [3]);
        assert_eq!(cat.table(OBJECT).unwrap().len(), 20);
    }

    #[test]
    fn invalid_rows_and_sequences_are_rejected_before_anything_is_written() {
        let dir = tmpdir("invalid-add");
        let mut w =
            CatalogWriter::create(&dir, "bad", VideoGeometry::PAPER_DEFAULT, 1_000).unwrap();
        let with = |clip: u64, score: f64| {
            let mut data = rows(5);
            data.push(ScoreRow {
                clip: ClipId::new(clip),
                score,
            });
            data
        };
        let past_the_end = SequenceSet::from_intervals(vec![ClipInterval::new(18, 20)]);
        for (data, sequences, want) in [
            (with(2, 9.0), SequenceSet::empty(), "duplicate clip"),
            // Far apart ids take the sorted index; the check is the same.
            (
                with(2, 9.0).into_iter().chain(with(1 << 40, 1.0)).collect(),
                SequenceSet::empty(),
                "duplicate clip",
            ),
            (with(7, f64::NAN), SequenceSet::empty(), "non-finite"),
            (with(8, f64::INFINITY), SequenceSet::empty(), "non-finite"),
            (rows(5), past_the_end, "ends past the video's 20 clips"),
        ] {
            let err = w.add(OBJECT, data, &sequences).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
        assert!(!dir.join(FILE_NAME).exists());
        let zero = VideoGeometry {
            frames_per_shot: 0,
            ..VideoGeometry::PAPER_DEFAULT
        };
        let err = CatalogWriter::create(tmpdir("zero"), "zero", zero, 1_000).unwrap_err();
        assert!(matches!(err, VaqError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn a_zero_geometry_field_is_corrupt_not_a_panic() {
        // `frames_per_shot` is the four bytes after the prefix and the
        // frame count.
        let dir = tmpdir("zero-geometry");
        build(&dir);
        rewrite_head(&dir, |head| {
            head[24..28].copy_from_slice(&0u32.to_le_bytes())
        });
        assert!(corrupt_at_open(&dir).contains("bad geometry"));
    }

    #[test]
    fn bad_sequence_pairs_are_corrupt_not_a_panic() {
        // `build`'s object sequences (2, 5), (10, 12) are the first two
        // pairs, the action's (0, 19) the last: 48 bytes before the CRC.
        for (i, (pairs, want)) in [
            ([(5, 2), (10, 12), (0, 19)], "ends before it starts"),
            ([(2, 5), (5, 12), (0, 19)], "does not start after"),
            ([(10, 12), (2, 5), (0, 19)], "does not start after"),
            (
                [(2, 5), (10, 12), (0, u64::MAX)],
                "ends past the video's last clip",
            ),
            (
                [(2, 5), (10, 12), (0, 20)],
                "ends past the video's last clip",
            ),
        ]
        .into_iter()
        .enumerate()
        {
            let dir = tmpdir(&format!("pairs-{i}"));
            build(&dir);
            rewrite_head(&dir, |head| {
                let at = head.len() - 48;
                for (j, (first, last)) in pairs.into_iter().enumerate() {
                    head[at + 16 * j..at + 16 * j + 8].copy_from_slice(&u64::to_le_bytes(first));
                    head[at + 16 * j + 8..at + 16 * j + 16]
                        .copy_from_slice(&u64::to_le_bytes(last));
                }
            });
            let msg = corrupt_at_open(&dir);
            assert!(msg.contains(want), "case {i}: {msg}");
        }
        // Touching pairs are valid input (a writer merges them).
        let dir = tmpdir("pairs-touching");
        build(&dir);
        rewrite_head(&dir, |head| {
            let at = head.len() - 48;
            head[at + 16..at + 24].copy_from_slice(&6u64.to_le_bytes());
        });
        let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        let seqs = cat.sequences(OBJECT).unwrap();
        assert_eq!(seqs.intervals(), &[ClipInterval::new(2, 12)]);
    }

    #[test]
    fn a_clip_with_two_rows_is_corrupt_at_load() {
        // A valid section CRC over rows that name one clip twice, in both
        // forms of the clip index.
        for (i, clips) in [[1u64, 2, 1], [1, 1 << 40, 1]].into_iter().enumerate() {
            let dir = tmpdir(&format!("two-rows-{i}"));
            fs::create_dir_all(&dir).unwrap();
            let rows = (0..)
                .zip(clips)
                .map(|(s, c)| ScoreRow {
                    clip: ClipId::new(c),
                    score: f64::from(3 - s),
                })
                .collect();
            let tables = BTreeMap::from([(OBJECT, (rows, SequenceSet::empty()))]);
            let video = CatalogManifest::new("dup".into(), 1_000, VideoGeometry::PAPER_DEFAULT);
            let image = file::encode(&video, &tables).unwrap();
            fs::write(dir.join(FILE_NAME), image).unwrap();
            let cat = VideoCatalog::open(&dir, CostModel::FREE).unwrap();
            let err = cat.table(OBJECT).unwrap_err();
            assert!(
                err.to_string().contains("clip c1 has two rows"),
                "case {i}: {err}"
            );
            assert_eq!(crate::fsck_catalog(&dir).unwrap().exit_code(), 3);
        }
    }

    mod equivalence {
        use super::*;
        use crate::table::AccessStats;
        use vaq_types::rng::for_cases;

        /// Drives the same access sequence through two tables and asserts
        /// every answer and the resulting [`AccessStats`] are equal.
        fn assert_same_answers(a: &MemTable, b: &MemTable, probes: &[u64]) -> AccessStats {
            assert_eq!(a.len(), b.len());
            for i in 0..=a.len() {
                assert_eq!(a.sorted_access(i), b.sorted_access(i), "sorted row {i}");
                assert_eq!(a.reverse_access(i), b.reverse_access(i), "reverse row {i}");
            }
            for &c in probes {
                let clip = ClipId::new(c);
                assert_eq!(a.random_access(clip), b.random_access(clip), "clip {c}");
            }
            assert_eq!(a.stats(), b.stats());
            a.stats()
        }

        /// A table loaded from a catalog is observationally identical
        /// to `MemTable::new` on the same rows — every access path, and
        /// the access accounting after the same sequence of accesses.
        #[test]
        fn prop_loaded_table_equals_mem_table() -> Result<(), String> {
            for_cases(
                "prop_loaded_table_equals_mem_table",
                24,
                |r| {
                    // 0–59 distinct clips below 500, scores below 10,000.
                    let len = r.gen_range(0..60usize);
                    let mut raw = BTreeMap::new();
                    while raw.len() < len {
                        raw.insert(r.gen_range(0u64..500), r.gen_range(0u32..10_000));
                    }
                    let probes = r.gen_range(0..20usize);
                    let probes: Vec<u64> = (0..probes).map(|_| r.gen_range(0u64..520)).collect();
                    (raw, probes)
                },
                |(raw, probes)| {
                    let rows: Vec<ScoreRow> = raw
                        .iter()
                        .map(|(&c, &s)| ScoreRow {
                            clip: ClipId::new(c),
                            score: s as f64 / 100.0,
                        })
                        .collect();
                    let dir = tmpdir(&format!(
                        "prop-{:x}",
                        rows.len() as u64 * 31 + rows.first().map(|r| r.clip.raw()).unwrap_or(0)
                    ));
                    let mut w =
                        CatalogWriter::create(&dir, "prop", VideoGeometry::PAPER_DEFAULT, 1)
                            .unwrap();
                    w.add(OBJECT, rows.clone(), &SequenceSet::empty()).unwrap();
                    w.finish().unwrap();
                    let cat = VideoCatalog::open(&dir, CostModel::DEFAULT).unwrap();
                    let loaded = cat.table(OBJECT).unwrap();
                    let built = MemTable::new(rows, CostModel::DEFAULT);
                    assert_same_answers(&loaded, &built, probes);
                },
            )
        }

        #[test]
        fn loaded_table_answers_and_charges_like_a_built_one() {
            let dir = tmpdir("charges");
            build(&dir);
            let cat = VideoCatalog::open(&dir, CostModel::DEFAULT).unwrap();
            let loaded = cat.table(ACTION).unwrap();
            let built = MemTable::new(rows(20), CostModel::DEFAULT);
            let probes: Vec<u64> = (0..24).collect();
            let stats = assert_same_answers(&loaded, &built, &probes);
            assert_eq!((stats.sorted, stats.reverse, stats.random), (20, 20, 24));
            assert!(stats.simulated_ns > 0);
        }
    }
}
