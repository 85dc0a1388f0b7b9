//! Hostile checkpoint records (DESIGN.md §10): records that carry a
//! valid checksum but do not fit the instance, or do not decode, must
//! never be used. Each case tampers with the checkpoint of a real
//! preset-A run, resumes from it, and must land — without a panic — on
//! the uninterrupted run's plan, bit for bit.
//!
//! A property test then cuts and bit-flips the same real checkpoint
//! file: the reader must always return a prefix of its records.

use neuroplan::checkpoint::PlanRecord;
use neuroplan::{NeuroPlan, NeuroPlanConfig, PlanQuality};
use np_chaos::checkpoint::{append_record, read_records, reopen_records, HexF64};
use np_chaos::Chaos;
use np_eval::CertRecord;
use np_topology::{generator::GeneratorConfig, Network, TopologyPreset};
use proptest::prelude::*;
use serde_json::Value;
use std::path::PathBuf;
use std::sync::OnceLock;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("np-hostile-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn net() -> Network {
    GeneratorConfig::preset(TopologyPreset::A).generate()
}

fn planner() -> NeuroPlan {
    NeuroPlan::new(NeuroPlanConfig::quick().with_seed(5))
}

/// The uninterrupted run: final cost bits, units and quality, and the
/// bytes and records of the checkpoint file it wrote.
struct Reference {
    cost_bits: u64,
    units: Vec<u32>,
    quality: PlanQuality,
    file: Vec<u8>,
    records: Vec<PlanRecord>,
}

fn reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = tmp_dir("reference");
        let result = planner()
            .with_checkpoint(&dir, false)
            .try_plan(&net())
            .expect("preset A plans");
        let path = dir.join("checkpoint.jsonl");
        let file = std::fs::read(&path).expect("checkpoint written");
        let records = read_records(&path);
        let _ = std::fs::remove_dir_all(&dir);
        Reference {
            cost_bits: result.final_cost.to_bits(),
            units: result.final_units,
            quality: result.quality,
            file,
            records,
        }
    })
}

/// The reference run's records, decoded.
fn records() -> Vec<PlanRecord> {
    reference().records.clone()
}

/// Write `lines` (each with a valid checksum) as a checkpoint, resume
/// from it, and require the uninterrupted run's plan.
fn assert_resume_matches_reference<T: serde::Serialize>(name: &str, lines: &[T]) {
    let dir = tmp_dir(name);
    let path = dir.join("checkpoint.jsonl");
    for line in lines {
        append_record(&path, line, &Chaos::disabled()).unwrap();
    }
    let result = planner()
        .with_checkpoint(&dir, true)
        .try_plan(&net())
        .expect("resume plans");
    let want = reference();
    assert_eq!(result.final_cost.to_bits(), want.cost_bits, "{name}: cost");
    assert_eq!(result.final_units, want.units, "{name}: units");
    // A panicking master would degrade down the ladder instead.
    assert_eq!(result.quality, want.quality, "{name}: quality");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_reference_checkpoint_holds_every_record_kind() {
    let recs = records();
    assert!(matches!(recs.first(), Some(PlanRecord::Meta(_))));
    assert!(recs.iter().any(|r| matches!(r, PlanRecord::Epoch(_))));
    assert!(matches!(recs[recs.len() - 2], PlanRecord::FirstStage(_)));
    assert!(matches!(recs[recs.len() - 1], PlanRecord::Master(_)));
}

#[test]
fn a_master_record_with_too_few_units_is_not_resumed() {
    let mut recs = records();
    let Some(PlanRecord::Master(m)) = recs.last_mut() else {
        panic!("master record last");
    };
    m.units = vec![1];
    m.cost = HexF64(0.0);
    assert_resume_matches_reference("short-master", &recs);
}

#[test]
fn a_certificate_naming_a_missing_link_is_not_resumed() {
    let mut recs = records();
    recs.pop(); // drop the master record: the resume must run the master
    let Some(PlanRecord::FirstStage(first)) = recs.last_mut() else {
        panic!("first-stage record before the master");
    };
    first.certs.push(CertRecord {
        rhs: HexF64(1.0),
        coeff: vec![(99_999, HexF64(1.0))],
    });
    assert_resume_matches_reference("cert-link", &recs);
}

#[test]
fn an_agent_rng_word_with_a_multibyte_character_is_not_resumed() {
    let recs = records();
    let last_epoch = recs
        .iter()
        .rposition(|r| matches!(r, PlanRecord::Epoch(_)))
        .expect("an epoch record");
    let mut lines: Vec<Value> = recs[..=last_epoch]
        .iter()
        .map(serde_json::to_value)
        .collect();
    let rng = member(
        member(member(lines.last_mut().unwrap(), "Epoch"), "agent"),
        "rng",
    );
    let Value::Array(words) = rng else {
        panic!("rng is an array")
    };
    let word = words[0].as_str().unwrap();
    words[0] = Value::Str(format!("é{}", &word[2..]));
    assert_resume_matches_reference("rng-utf8", &lines);
}

/// The member `key` of a JSON object.
fn member<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(members) = v else {
        panic!("object expected at `{key}`")
    };
    &mut members.iter_mut().find(|(k, _)| k == key).expect(key).1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random truncations and single-bit flips of a real checkpoint
    /// file read as a prefix of its records, never a panic; reopening
    /// the file leaves exactly that prefix behind.
    #[test]
    fn damaged_checkpoints_read_as_a_prefix(
        cut in 0u64..10_000,
        flip_at in 0u64..10_000,
        bit in 0u32..8,
        flip in any::<bool>(),
    ) {
        let want = records();
        let mut bytes = reference().file.clone();
        let len = bytes.len() as u64;
        bytes.truncate((len * cut / 10_000) as usize + 1);
        if flip {
            let at = (bytes.len() as u64 * flip_at / 10_000) as usize;
            bytes[at] ^= 1 << bit;
        }
        let dir = tmp_dir(&format!("prop-{cut}-{flip_at}-{bit}-{flip}"));
        let path = dir.join("checkpoint.jsonl");
        std::fs::write(&path, &bytes).unwrap();
        // Compared serialized: the hex fields make that bitwise.
        let json = |r: &[PlanRecord]| serde_json::to_string(r).unwrap();
        let got: Vec<PlanRecord> = read_records(&path);
        prop_assert!(got.len() <= want.len());
        prop_assert_eq!(json(&got), json(&want[..got.len()]));
        let reopened: Vec<PlanRecord> = reopen_records(&path).unwrap();
        prop_assert_eq!(json(&reopened), json(&got));
        prop_assert_eq!(json(&read_records::<PlanRecord>(&path)), json(&got));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
