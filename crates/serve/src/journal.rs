//! The crash-safe request journal.
//!
//! Every admission and every terminal transition is appended to
//! `journal.jsonl` as a [`JournalRecord`], using the same versioned,
//! checksummed envelope as the planner's checkpoints
//! (`np_chaos::checkpoint`), and in the same durability order the
//! checkpoints use: the `Submitted` record is flushed *before* the
//! client hears "queued", so an admission the client observed can never
//! be lost to a crash.
//!
//! After a `kill -9`, [`Journal::open`] returns the valid prefix of the
//! journal and the daemon replays it: a `Submitted` with no terminal
//! record is still in flight and is re-enqueued (with `resume` set, so
//! the run continues from its own checkpoint chain bit-identically); a
//! terminal record makes the outcome immediately retrievable by
//! reconnecting clients. Torn tails — the crash landed mid-append — are
//! dropped by the checksum exactly as checkpoint reads drop them, and
//! cut off the file so the next admission is appended on a clean line.

use np_chaos::checkpoint::{append_record, reopen_records};
use np_chaos::Chaos;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// Journal file name inside the daemon's state directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// One request's id and the JSON that goes with the record: the spec
/// for `Submitted`, the result body or error for the terminals.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Entry {
    /// The request id.
    pub id: u64,
    /// The spec, result body, or error payload.
    pub body: Value,
}

/// One line of the journal. `Submitted` opens a request; the other
/// three close it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// An admission, with the submitted spec.
    Submitted(Entry),
    /// Terminal: the run produced a plan (the result body).
    Done(Entry),
    /// Terminal: the run failed (infeasible / budget exhausted).
    Failed(Entry),
    /// Terminal: the run was cancelled.
    Cancelled(Entry),
}

/// Append-only writer over the journal file.
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// Open the journal at `<dir>/journal.jsonl` (directory created if
    /// needed) and return the records it holds. The file is first cut
    /// back to its valid prefix, so a torn tail left by a crash cannot
    /// swallow the records appended after this restart.
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Vec<JournalRecord>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let records = reopen_records(&path)?;
        Ok((Journal { path }, records))
    }

    /// Append the `kind` record (a [`JournalRecord`] variant) of request
    /// `id`. An admission must complete before the client is told
    /// "queued", and a terminal before any client can observe it — these
    /// writes are the durability points.
    pub fn append(
        &self,
        kind: fn(Entry) -> JournalRecord,
        id: u64,
        body: Value,
        chaos: &Chaos,
    ) -> std::io::Result<()> {
        append_record(&self.path, &kind(Entry { id, body }), chaos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_chaos::checkpoint::read_records;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("np-serve-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn submit(j: &Journal, id: u64) {
        let spec = serde_json::json!({ "preset": "a" });
        j.append(JournalRecord::Submitted, id, spec, &Chaos::disabled())
            .unwrap();
    }

    /// The ids of the admissions a restart sees.
    fn admitted(dir: &Path) -> Vec<u64> {
        let (_, records) = Journal::open(dir).unwrap();
        records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Submitted(e) => Some(e.id),
                _ => None,
            })
            .collect()
    }

    fn tear(dir: &Path) {
        let path = dir.join(JOURNAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"sum\":\"0000\",\"rec\":{\"v\":2,\"bo");
        std::fs::write(&path, text).unwrap();
    }

    #[test]
    fn every_record_variant_round_trips() {
        let dir = tmp("variants");
        let path = dir.join(JOURNAL_FILE);
        let entry = |id, body| Entry { id, body };
        let records = vec![
            JournalRecord::Submitted(entry(1, serde_json::json!({ "preset": "a" }))),
            JournalRecord::Done(entry(
                1,
                serde_json::json!({ "cost": 1.5, "units": [1, 2] }),
            )),
            JournalRecord::Submitted(entry(2, Value::Null)),
            JournalRecord::Failed(entry(2, Value::Str("infeasible".into()))),
            JournalRecord::Submitted(entry(3, Value::Null)),
            JournalRecord::Cancelled(entry(3, Value::Null)),
        ];
        for r in &records {
            append_record(&path, r, &Chaos::disabled()).unwrap();
        }
        assert_eq!(read_records::<JournalRecord>(&path), records);
        assert_eq!(Journal::open(&dir).unwrap().1, records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_like_a_checkpoint() {
        let dir = tmp("torn");
        let (j, _) = Journal::open(&dir).unwrap();
        submit(&j, 1);
        j.append(JournalRecord::Done, 1, Value::Null, &Chaos::disabled())
            .unwrap();
        tear(&dir);
        let (_, records) = Journal::open(&dir).unwrap();
        assert_eq!(records.len(), 2, "the torn third record is dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_admission_after_a_torn_tail_survives_the_next_restart() {
        let dir = tmp("torn-admit");
        let (j, _) = Journal::open(&dir).unwrap();
        submit(&j, 1);
        tear(&dir);
        // Restart: reopening cuts the tear, so admission 2 lands on a
        // clean line and is still there at every restart after that.
        let (j, _) = Journal::open(&dir).unwrap();
        submit(&j, 2);
        assert_eq!(admitted(&dir), vec![1, 2]);
        assert_eq!(admitted(&dir), vec![1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_opens_empty() {
        let dir = tmp("missing");
        assert!(admitted(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reopened_journal_appends_after_its_records() {
        let dir = tmp("generations");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            submit(&j, 7);
        }
        // "Restart": a new Journal over the same file appends more.
        let (j, _) = Journal::open(&dir).unwrap();
        submit(&j, 8);
        assert_eq!(admitted(&dir), vec![7, 8]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
